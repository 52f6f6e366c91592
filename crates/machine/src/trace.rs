//! The event-sink interface for cycle-accurate tracing.
//!
//! [`Machine`](crate::Machine) is generic over an [`EventSink`] that receives a
//! stream of per-cycle events: instruction issues, stall records, switch route
//! firings, static-channel commits, and dynamic-network activity. The default
//! sink is [`NullSink`], whose [`EventSink::ENABLED`] constant is `false`:
//! every emission site is guarded by `if S::ENABLED`, so with the null sink the
//! compiler removes both the calls *and* the construction of their arguments —
//! tracing is zero-cost when disabled.
//!
//! A stall is one thing from the simulator to every report: the processor and
//! the switch report why they did not progress in the one [`StallReason`]
//! taxonomy, the statistics book it by that reason, and the sink receives it
//! as one [`Stall`] record — a cycle range with its chaos share. A stall the
//! stepper observes directly is the range `cycle..cycle + 1`; a sleeper's
//! settled debt is the retroactive range it slept through.
//!
//! Sinks observe the machine; they must never influence it. The simulator
//! upholds this by construction (sink methods receive copies or shared
//! borrows, never mutable machine state), and the differential test suite
//! asserts that a traced run produces bit-identical cycle counts, statistics,
//! and final memory to an untraced one.
//!
//! The recording sink, trace model, and report renderers live in the
//! `raw-trace` crate; this module only defines the wire between the simulator
//! and any consumer. See `DESIGN.md` ("Event-sink invariants") for the exact
//! per-cycle firing and ordering guarantees.
//!
//! The firing contract is stepper-independent: the production stepper and
//! the reference scan attribute every cycle identically (the reference stays
//! naive and emits one-cycle ranges where the production stepper emits one
//! range per sleep), so reports built from a stream cannot tell which core
//! produced it. Emission sites in the reference scan carry explicitly matched
//! timing.

use crate::isa::{Dir, RoutePairs};

/// Which half of a tile an event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Unit {
    /// The tile processor.
    Proc,
    /// The tile's static switch.
    Switch,
}

impl Unit {
    /// Display name (`"proc"` / `"switch"`).
    pub fn name(self) -> &'static str {
        match self {
            Unit::Proc => "proc",
            Unit::Switch => "switch",
        }
    }
}

/// Why a processor or switch did not progress on a cycle: the one stall
/// taxonomy of the simulator, its statistics, and every trace report.
///
/// A processor stalls on the scoreboard, on a port (an empty input or a full
/// output), or on the dynamic network; a switch stalls because a route source
/// has no word yet ([`ReceiveEmpty`](Self::ReceiveEmpty)) or a route
/// destination has no space ([`SendFull`](Self::SendFull)).
/// [`Chaos`](Self::Chaos) marks cycles skipped by random stall injection
/// (cache-miss/interrupt modelling, see [`crate::chaos`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Waiting for a register result still in flight (scoreboard).
    Scoreboard,
    /// Waiting for space in an outgoing port or link.
    SendFull,
    /// Waiting for a word to arrive on an incoming port or link.
    ReceiveEmpty,
    /// Waiting on the dynamic network (remote-memory round trip or injection).
    DynamicNetwork,
    /// Skipped by injected chaos (random timing perturbation).
    Chaos,
}

impl StallReason {
    /// Every reason, in display/accounting order.
    pub const ALL: [StallReason; 5] = [
        StallReason::Scoreboard,
        StallReason::SendFull,
        StallReason::ReceiveEmpty,
        StallReason::DynamicNetwork,
        StallReason::Chaos,
    ];

    /// Dense index for accounting arrays (order of [`ALL`](Self::ALL)).
    pub fn index(self) -> usize {
        match self {
            StallReason::Scoreboard => 0,
            StallReason::SendFull => 1,
            StallReason::ReceiveEmpty => 2,
            StallReason::DynamicNetwork => 3,
            StallReason::Chaos => 4,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Scoreboard => "scoreboard",
            StallReason::SendFull => "send-full",
            StallReason::ReceiveEmpty => "recv-empty",
            StallReason::DynamicNetwork => "dynamic",
            StallReason::Chaos => "chaos",
        }
    }
}

/// One stall record: `unit` of `tile` was blocked on `reason` for the cycles
/// `from..to`, `chaos` of which were chaos skips instead.
///
/// The chaos cycles' positions inside the range are not observable; a record
/// whose `reason` is already [`StallReason::Chaos`] has `chaos == 0`. `pc` is
/// the blocked instruction's program counter in the unit's stream (a unit's pc
/// does not advance while it stalls, so it is constant over the range).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stall {
    /// Stalled tile.
    pub tile: u32,
    /// Processor or switch.
    pub unit: Unit,
    /// Why it stalled.
    pub reason: StallReason,
    /// First stalled cycle.
    pub from: u64,
    /// One past the last stalled cycle.
    pub to: u64,
    /// Cycles of the range that were chaos skips rather than `reason`.
    pub chaos: u64,
    /// Program counter of the blocked instruction.
    pub pc: usize,
}

/// What a static-network channel connects (topology metadata for traces).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelRole {
    /// Processor → switch injection port of `tile`.
    ProcToSwitch {
        /// Owning tile index.
        tile: u32,
    },
    /// Switch → processor delivery port of `tile`.
    SwitchToProc {
        /// Owning tile index.
        tile: u32,
    },
    /// Switch → neighbour-switch mesh link.
    Link {
        /// Writing tile index.
        from: u32,
        /// Reading tile index.
        to: u32,
        /// Direction of the link as seen from `from`.
        dir: Dir,
    },
}

/// Static description of one channel (see [`crate::Machine::channel_infos`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelInfo {
    /// Channel id, as used by [`EventSink::channel_commit`].
    pub id: usize,
    /// What the channel connects.
    pub role: ChannelRole,
    /// FIFO capacity in words.
    pub capacity: usize,
}

/// A consumer of simulator events.
///
/// All methods default to no-ops so sinks implement only what they need.
/// Emission sites are additionally guarded by [`ENABLED`](Self::ENABLED), so a
/// disabled sink pays nothing, not even argument construction.
///
/// Per-cycle ordering: within one cycle, events arrive as processors (by tile
/// id), then switches (by tile id), then dynamic-network activity, then
/// channel commits. A sleeper's stall range is the one retroactive event: the
/// production stepper coalesces a sleeping component's skipped cycles into
/// one [`stall`](Self::stall) emitted at wake (or at run end), covering cycles
/// strictly before the emission cycle.
pub trait EventSink {
    /// When `false`, every emission site compiles out.
    const ENABLED: bool = true;

    /// A processor made progress this cycle: an instruction issued, a pending
    /// port write drained after halt, or a dynamic-network reply completed.
    /// `pc` is the program counter before the step; `latency` the producing
    /// operation's result latency (1 when the operation has none).
    fn issue(&mut self, cycle: u64, tile: u32, pc: usize, latency: u32) {
        let _ = (cycle, tile, pc, latency);
    }

    /// A unit stalled (or was chaos-skipped) over `stall.from..stall.to`.
    fn stall(&mut self, stall: Stall) {
        let _ = stall;
    }

    /// A switch executed a `ROUTE` with these source→destination pairs. `pc`
    /// is the route instruction's index in the switch stream.
    fn route(&mut self, cycle: u64, tile: u32, pairs: RoutePairs, pc: usize) {
        let _ = (cycle, tile, pairs, pc);
    }

    /// A switch executed a control-flow instruction (branch, jump, nop) —
    /// progress without a route firing. `pc` is the instruction's index before
    /// the step.
    fn switch_control(&mut self, cycle: u64, tile: u32, pc: usize) {
        let _ = (cycle, tile, pc);
    }

    /// A channel committed its staged word at the end of `cycle`; `occupancy`
    /// is the readable queue length after the commit.
    fn channel_commit(&mut self, cycle: u64, channel: usize, occupancy: usize) {
        let _ = (cycle, channel, occupancy);
    }

    /// A unit is idle (halted and drained) from `cycle` onwards. May fire more
    /// than once for the same unit under the reference stepper; consumers
    /// should keep the minimum cycle.
    fn idle(&mut self, cycle: u64, tile: u32, unit: Unit) {
        let _ = (cycle, tile, unit);
    }

    /// The dynamic network moved at least one flit this cycle.
    fn dyn_active(&mut self, cycle: u64) {
        let _ = cycle;
    }
}

/// The disabled sink: all events compile out ([`EventSink::ENABLED`] is
/// `false`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_indices_are_dense_and_stable() {
        for (i, r) in StallReason::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        // The default methods are callable no-ops.
        let mut s = NullSink;
        s.issue(0, 0, 0, 1);
        s.stall(Stall {
            tile: 0,
            unit: Unit::Proc,
            reason: StallReason::Scoreboard,
            from: 0,
            to: 1,
            chaos: 0,
            pc: 0,
        });
        s.idle(0, 0, Unit::Switch);
    }
}
