//! Execution statistics gathered by the simulator.
//!
//! Every counter here is part of the differential-oracle surface: the test
//! suites compare [`Stats`] in full between the production and reference
//! steppers (and across traced/untraced runs), so both must book identical
//! values. A new counter must therefore be updated in both steppers' paths
//! (`step_reference`, and `run_proc` / `run_switch` / `book_dyn` /
//! `commit_dirty`), with explicit settle logic for cycles the production
//! stepper skips, like the sleep-debt stall back-fill.

use crate::trace::{StallReason, Unit};

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
    /// Books `cycles` stall cycles of `unit` on `reason`. Chaos skips book
    /// nothing: the unit did not step, so it did not stall.
    pub fn record_stall(&mut self, unit: Unit, reason: StallReason, cycles: u64) {
        let counter = match (unit, reason) {
            (_, StallReason::Chaos) => return,
            (Unit::Switch, _) => &mut self.switch_stalls,
            (Unit::Proc, StallReason::Scoreboard) => &mut self.stall_reg,
            (Unit::Proc, StallReason::ReceiveEmpty) => &mut self.stall_port_in,
            (Unit::Proc, StallReason::SendFull) => &mut self.stall_port_out,
            (Unit::Proc, StallReason::DynamicNetwork) => &mut self.stall_dynamic,
        };
        *counter += cycles;
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

/// How much stepping a run took: host-side work, not machine behaviour.
///
/// Unlike [`Stats`], these counts differ between the steppers by design —
/// the reference steps every component every cycle, the production core
/// only the ones that can act — so they stay out of the oracle's surface
/// (read them through `Machine::work`). They are exact and deterministic, so
/// a change to the stepping machinery shows here as an exact count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Processor steps taken (chaos skips excluded).
    pub proc_steps: u64,
    /// Switch steps taken (chaos skips excluded).
    pub switch_steps: u64,
    /// Steps right after a wake that stalled again (production core).
    pub restalls: u64,
    /// Timers taken off the wheel (production core).
    pub timers_popped: u64,
    /// Popped timers whose processor had already moved on.
    pub timers_stale: u64,
    /// Channels the commit phase visited: the dirty list under the
    /// production core, every channel every cycle under the reference.
    pub channel_commits: u64,
    /// Tiles the dynamic network's sweep visited: the marked ones under the
    /// production core, every tile every cycle under the reference.
    pub dyn_visits: u64,
    /// Sweep visits that moved no flit and changed no handler.
    pub dyn_idle_visits: u64,
}

impl std::fmt::Display for WorkCounters {
    /// `proc_steps=… switch_steps=… restalls=… timers_popped=…
    /// timers_stale=… channel_commits=… dyn_visits=… dyn_idle_visits=…`,
    /// one `name=value` field each.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "proc_steps={} switch_steps={} restalls={} timers_popped={} timers_stale={} \
             channel_commits={} dyn_visits={} dyn_idle_visits={}",
            self.proc_steps,
            self.switch_steps,
            self.restalls,
            self.timers_popped,
            self.timers_stale,
            self.channel_commits,
            self.dyn_visits,
            self.dyn_idle_visits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_recording() {
        let mut t = TileStats::default();
        t.record_stall(Unit::Proc, StallReason::Scoreboard, 1);
        t.record_stall(Unit::Proc, StallReason::ReceiveEmpty, 2);
        t.record_stall(Unit::Proc, StallReason::DynamicNetwork, 1);
        t.record_stall(Unit::Proc, StallReason::Chaos, 5);
        t.record_stall(Unit::Switch, StallReason::SendFull, 3);
        t.record_stall(Unit::Switch, StallReason::Chaos, 4);
        assert_eq!(t.stall_reg, 1);
        assert_eq!(t.stall_port_in, 2);
        assert_eq!(t.stall_dynamic, 1);
        assert_eq!(t.switch_stalls, 3);
    }

    #[test]
    fn machine_totals() {
        let mut s = Stats::new(2);
        s.tiles[0].proc_insts = 10;
        s.tiles[1].proc_insts = 5;
        assert_eq!(s.total_insts(), 15);
    }
}
