//! The programmable static switch.
//!
//! Each switch runs its own instruction stream of `ROUTE` instructions plus
//! branches (the prototype's switch is a stripped-down R2000 with its own
//! sequencer and a small register file, paper §3.1). A `ROUTE` stalls as a unit
//! until every source port has a word and every destination port has space —
//! this is the blocking semantics that yields near-neighbour flow control.
//!
//! The actual movement of words between channels is performed by the machine
//! stepper (which owns the channels); this module holds the switch's
//! architectural state and control flow.
//!
//! Because a stalled `ROUTE` mutates nothing, a stalled switch is safe to
//! skip: the production stepper puts it to sleep and wakes it when an
//! adjacent channel commits a word (a source may now be ready) *or* has a
//! word consumed (a destination may now have space). Both events are visible
//! to the machine at the channel layer, so the switch itself carries no wake
//! state — [`SwitchOutcome`] is the entire stepping contract.

use crate::isa::{SInst, Word};

/// Result of stepping a switch one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchOutcome {
    /// The instruction executed.
    Progress,
    /// The route stalled on a port.
    Stalled,
    /// The switch has halted.
    Halted,
}

/// Architectural state of one static switch.
#[derive(Debug)]
pub struct Switch {
    pc: usize,
    halted: bool,
    regs: Vec<Word>,
}

impl Switch {
    /// Creates a switch with `regs` registers, all zero.
    pub fn new(regs: u32) -> Self {
        Switch {
            pc: 0,
            halted: false,
            regs: vec![0; regs as usize],
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

    /// Reads a switch register.
    pub fn reg(&self, r: u8) -> Word {
        self.regs[r as usize]
    }

    /// Writes a switch register.
    pub fn set_reg(&mut self, r: u8, v: Word) {
        self.regs[r as usize] = v;
    }

    /// Fetches the current instruction, handling halt / end-of-stream.
    ///
    /// Returns `None` if the switch is (now) halted.
    pub fn fetch<'c>(&mut self, code: &'c [SInst]) -> Option<&'c SInst> {
        if self.halted {
            return None;
        }
        match code.get(self.pc) {
            Some(SInst::Halt) | None => {
                self.halted = true;
                None
            }
            Some(inst) => Some(inst),
        }
    }

    /// Executes a non-route instruction (branches, nop). Routes are executed by
    /// the machine stepper; it calls [`advance`](Self::advance) on success.
    ///
    /// # Panics
    ///
    /// Panics if called with a `Route` or `Halt` instruction.
    pub fn exec_control(&mut self, inst: &SInst) -> SwitchOutcome {
        match inst {
            SInst::Bnez { reg, target } => {
                self.pc = if self.regs[*reg as usize] != 0 {
                    *target
                } else {
                    self.pc + 1
                };
                SwitchOutcome::Progress
            }
            SInst::Beqz { reg, target } => {
                self.pc = if self.regs[*reg as usize] == 0 {
                    *target
                } else {
                    self.pc + 1
                };
                SwitchOutcome::Progress
            }
            SInst::Jump(target) => {
                self.pc = *target;
                SwitchOutcome::Progress
            }
            SInst::Nop => {
                self.pc += 1;
                SwitchOutcome::Progress
            }
            SInst::Route(_) | SInst::Halt => unreachable!("route/halt handled by stepper"),
        }
    }

    /// Advances past a successfully executed route.
    pub fn advance(&mut self) {
        self.pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{SDst, SSrc};

    #[test]
    fn fetch_halts_at_end_of_stream() {
        let mut s = Switch::new(8);
        assert!(s.fetch(&[]).is_none());
        assert!(s.halted());
    }

    #[test]
    fn fetch_halts_on_halt() {
        let mut s = Switch::new(8);
        let code = vec![SInst::Halt];
        assert!(s.fetch(&code).is_none());
        assert!(s.halted());
    }

    #[test]
    fn branches_follow_register() {
        let mut s = Switch::new(8);
        s.set_reg(2, 1);
        let bnez = SInst::Bnez { reg: 2, target: 5 };
        s.exec_control(&bnez);
        assert_eq!(s.pc(), 5);
        s.set_reg(2, 0);
        s.exec_control(&bnez);
        assert_eq!(s.pc(), 6);
        s.exec_control(&SInst::Jump(0));
        assert_eq!(s.pc(), 0);
        let beqz = SInst::Beqz { reg: 2, target: 9 };
        s.exec_control(&beqz);
        assert_eq!(s.pc(), 9);
    }

    #[test]
    fn fetch_returns_route_for_stepper() {
        let mut s = Switch::new(8);
        let code = vec![SInst::Route(vec![(SSrc::Proc, SDst::Proc)]), SInst::Halt];
        assert!(matches!(s.fetch(&code), Some(SInst::Route(_))));
        s.advance();
        assert!(s.fetch(&code).is_none());
        assert!(s.halted());
    }
}
