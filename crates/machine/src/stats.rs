//! Execution statistics gathered by the simulator.
//!
//! Every counter here is part of the differential-oracle surface: the test
//! suites compare [`Stats`] in full between the production and reference
//! steppers (and across traced/untraced runs), so both must book identical
//! values. A new counter must therefore be updated in both steppers' paths
//! (`step_reference`, and `run_proc` / `run_switch` / `run_dyn_phase` /
//! `commit_dirty`), with explicit settle logic for cycles the production
//! stepper skips, like the sleep-debt stall back-fill.

use crate::processor::StallCause;

/// Per-tile counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Processor instructions issued.
    pub proc_insts: u64,
    /// Processor stall cycles waiting on register results.
    pub stall_reg: u64,
    /// Processor stall cycles waiting on an empty input port.
    pub stall_port_in: u64,
    /// Processor stall cycles waiting on a full output port.
    pub stall_port_out: u64,
    /// Processor stall cycles waiting on the dynamic network.
    pub stall_dynamic: u64,
    /// Switch route instructions executed.
    pub switch_routes: u64,
    /// Switch stall cycles.
    pub switch_stalls: u64,
}

impl TileStats {
    /// Records a processor stall by cause.
    pub fn record_stall(&mut self, cause: StallCause) {
        match cause {
            StallCause::RegNotReady => self.stall_reg += 1,
            StallCause::PortInEmpty => self.stall_port_in += 1,
            StallCause::PortOutFull => self.stall_port_out += 1,
            StallCause::Dynamic => self.stall_dynamic += 1,
        }
    }

    /// Total processor stall cycles.
    pub fn total_stalls(&self) -> u64 {
        self.stall_reg + self.stall_port_in + self.stall_port_out + self.stall_dynamic
    }
}

/// Whole-machine counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Per-tile counters.
    pub tiles: Vec<TileStats>,
    /// Total static-network words moved (channel commits).
    pub static_words: u64,
    /// Total dynamic-network step cycles with at least one flit movement.
    pub dyn_active_cycles: u64,
}

impl Stats {
    /// Creates zeroed stats for `n` tiles.
    pub fn new(n: usize) -> Self {
        Stats {
            tiles: vec![TileStats::default(); n],
            static_words: 0,
            dyn_active_cycles: 0,
        }
    }

    /// Total processor instructions issued across tiles.
    pub fn total_insts(&self) -> u64 {
        self.tiles.iter().map(|t| t.proc_insts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_recording() {
        let mut t = TileStats::default();
        t.record_stall(StallCause::RegNotReady);
        t.record_stall(StallCause::PortInEmpty);
        t.record_stall(StallCause::PortInEmpty);
        t.record_stall(StallCause::Dynamic);
        assert_eq!(t.stall_reg, 1);
        assert_eq!(t.stall_port_in, 2);
        assert_eq!(t.total_stalls(), 4);
    }

    #[test]
    fn machine_totals() {
        let mut s = Stats::new(2);
        s.tiles[0].proc_insts = 10;
        s.tiles[1].proc_insts = 5;
        assert_eq!(s.total_insts(), 15);
    }
}
