//! The programmable static switch.
//!
//! Each switch runs its own instruction stream of `ROUTE` instructions plus
//! branches (the prototype's switch is a stripped-down R2000 with its own
//! sequencer and a small register file, paper §3.1). A `ROUTE` stalls as a unit
//! until every source port has a word and every destination port has space —
//! this is the blocking semantics that yields near-neighbour flow control.
//!
//! The machine stepper executes the switch's decoded ops (`crate::decode`)
//! and owns the channels; this module holds the switch's control state.
//!
//! Because a stalled `ROUTE` mutates nothing, a stalled switch is safe to
//! skip: the production stepper puts it to sleep on the first channel that
//! blocked the route — the first empty source, else the first full
//! destination — and wakes it only when that channel commits a word or has
//! one consumed. Until then no check before the blocking one can fail (only
//! this switch drains its sources and fills its destinations) and the
//! blocking one cannot pass, so every skipped step would have stalled the
//! same way.

use crate::decode::Stream;
use crate::trace::StallReason;

/// Result of stepping a switch one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchOutcome {
    /// The instruction executed.
    Progress,
    /// The route stalled: a source had no word
    /// ([`StallReason::ReceiveEmpty`]) or a destination no space
    /// ([`StallReason::SendFull`]).
    Stalled(StallReason),
    /// The switch has halted.
    Halted,
}

/// Control state of one static switch. Its registers live in the machine's
/// per-tile register slab, and its decoded code in the machine's op tables;
/// the machine stepper fetches and executes (`Machine::step_switch`).
#[derive(Debug)]
pub(crate) struct Switch {
    /// This tile's stream in the machine's switch op table.
    pub(crate) code: Stream,
    pub(crate) pc: usize,
    pub(crate) halted: bool,
}

impl Switch {
    /// A switch at pc 0 running `code`.
    pub(crate) fn new(code: Stream) -> Self {
        Switch {
            code,
            pc: 0,
            halted: false,
        }
    }

    /// True once the switch executed `halt` (or ran off its stream).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current program counter (diagnostics).
    pub fn pc(&self) -> usize {
        self.pc
    }
}
