//! The event-sink interface for cycle-accurate tracing.
//!
//! [`Machine`](crate::Machine) is generic over an [`EventSink`] that receives a
//! stream of per-cycle events: instruction issues, stalls (with a cause
//! taxonomy), switch route firings, static-channel commits, and
//! dynamic-network activity. The default sink is [`NullSink`], whose
//! [`EventSink::ENABLED`] constant is `false`: every emission site is guarded
//! by `if S::ENABLED`, so with the null sink the compiler removes both the
//! calls *and* the construction of their arguments — tracing is zero-cost when
//! disabled.
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
//! the reference scan attribute every cycle identically (the production
//! stepper settles a sleeper's skipped cycles retroactively as one span on
//! wake, which is why consumers clip at their window boundaries), so reports
//! built from a stream cannot tell which core produced it. Emission sites in
//! the reference scan carry explicitly matched timing.

use crate::isa::{Dir, SDst, SSrc};
use crate::processor::StallCause;

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

/// The stall-reason taxonomy used by stall events.
///
/// Processor stalls map one-to-one from [`StallCause`]; switches stall either
/// because a route source has no word yet ([`ReceiveEmpty`](Self::ReceiveEmpty))
/// or because a route destination has no space ([`SendFull`](Self::SendFull)).
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

impl From<StallCause> for StallReason {
    fn from(cause: StallCause) -> StallReason {
        match cause {
            StallCause::RegNotReady => StallReason::Scoreboard,
            StallCause::PortInEmpty => StallReason::ReceiveEmpty,
            StallCause::PortOutFull => StallReason::SendFull,
            StallCause::Dynamic => StallReason::DynamicNetwork,
        }
    }
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
/// channel commits. Span events are retroactive: the production stepper
/// coalesces a sleeping component's skipped cycles into one
/// [`stall_span`](Self::stall_span) emitted at wake (or at run end), covering
/// cycles strictly before the emission cycle.
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

    /// A unit stalled (or was chaos-skipped) for exactly this cycle. `pc` is
    /// the stalled instruction's program counter in the unit's stream (the pc
    /// does not advance while stalled).
    fn stall(&mut self, cycle: u64, tile: u32, unit: Unit, reason: StallReason, pc: usize) {
        let _ = (cycle, tile, unit, reason, pc);
    }

    /// A unit was asleep for cycles `from..to` (retroactive, emitted at wake).
    /// `chaos_cycles` of the span were chaos skips rather than true stalls;
    /// their position within the span is not observable. `pc` is the blocked
    /// instruction's program counter (constant across the span).
    #[allow(clippy::too_many_arguments)]
    fn stall_span(
        &mut self,
        tile: u32,
        unit: Unit,
        reason: StallReason,
        from: u64,
        to: u64,
        chaos_cycles: u64,
        pc: usize,
    ) {
        let _ = (tile, unit, reason, from, to, chaos_cycles, pc);
    }

    /// A switch executed a `ROUTE` with these source→destination pairs. `pc`
    /// is the route instruction's index in the switch stream.
    fn route(&mut self, cycle: u64, tile: u32, pairs: &[(SSrc, SDst)], pc: usize) {
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
        assert_eq!(
            StallReason::from(StallCause::RegNotReady),
            StallReason::Scoreboard
        );
        assert_eq!(
            StallReason::from(StallCause::PortInEmpty),
            StallReason::ReceiveEmpty
        );
        assert_eq!(
            StallReason::from(StallCause::PortOutFull),
            StallReason::SendFull
        );
        assert_eq!(
            StallReason::from(StallCause::Dynamic),
            StallReason::DynamicNetwork
        );
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        // The default methods are callable no-ops.
        let mut s = NullSink;
        s.issue(0, 0, 0, 1);
        s.stall(0, 0, Unit::Proc, StallReason::Scoreboard, 0);
        s.idle(0, 0, Unit::Switch);
    }
}
