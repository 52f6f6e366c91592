//! The reference stepper: every component steps every cycle, every channel
//! commits, the dynamic network's sweep visits every tile.
//!
//! It is deliberately naive and exists to be the oracle of the production
//! core (DESIGN.md §8): the two must agree bit for bit on cycles, the full
//! [`Stats`](crate::stats::Stats), final memory, truncated-run settlement and
//! deadlock reports, clean and under chaos. Its share of the §8 invariants:
//!
//! * it keeps no activity state — no run sets, modes, debts, blocking
//!   channels or dirty list — so a bug in that machinery cannot hide in both
//!   steppers at once; it executes the same decoded ops (`step_proc`,
//!   `step_switch`), so there is one instruction semantics, and the same
//!   dynamic-network sweep (`DynNet::step` marks every tile, then sweeps, so
//!   routers and handlers step every cycle);
//! * a processor stall with a maturing send, a scoreboard stall or an
//!   in-flight handler request is a timed wait and counts as progress, the
//!   rule the production core reproduces for its sleepers (invariant 5);
//! * it books one one-cycle [`Stall`] per stalled step, where the production
//!   core books one range per sleep; reports cannot tell the two apart.

use super::{Comp, Machine};
use crate::processor::ProcOutcome;
use crate::switch::SwitchOutcome;
#[cfg(doc)]
use crate::trace::Stall;
use crate::trace::{EventSink, StallReason, Unit};

impl<S: EventSink> Machine<S> {
    /// The reference stepper: every component steps, every channel commits.
    pub(super) fn step_reference(&mut self) -> bool {
        let n = self.config.n_tiles() as usize;
        let mut progress = false;

        // Processors.
        for t in 0..n {
            if self.chaos_stalls(Comp::ProcAt(t)) {
                self.book_stall(
                    Comp::ProcAt(t),
                    StallReason::Chaos,
                    self.cycle..self.cycle + 1,
                    0,
                );
                continue;
            }
            let pc_before = if S::ENABLED { self.procs[t].pc() } else { 0 };
            let outcome = self.step_proc(t);
            match outcome {
                ProcOutcome::Progress => {
                    self.stats.tiles[t].proc_insts += 1;
                    progress = true;
                    if S::ENABLED {
                        self.sink.issue(
                            self.cycle,
                            t as u32,
                            pc_before,
                            self.procs[t].last_issue_latency(),
                        );
                    }
                }
                ProcOutcome::Stalled(reason) => {
                    self.book_stall(Comp::ProcAt(t), reason, self.cycle..self.cycle + 1, 0);
                    // A scoreboard stall — or a pending port write still
                    // waiting out its producer's latency — is a *timed* wait
                    // that resolves by itself: it is not a deadlock symptom,
                    // so it counts as progress.
                    if reason == StallReason::Scoreboard
                        || self.procs[t].has_maturing_send(self.cycle)
                    {
                        progress = true;
                    }
                }
                ProcOutcome::Halted => {
                    if S::ENABLED {
                        self.sink.idle(self.cycle, t as u32, Unit::Proc);
                    }
                }
            }
        }

        // Switches.
        for t in 0..n {
            if self.chaos_stalls(Comp::SwitchAt(t)) {
                self.book_stall(
                    Comp::SwitchAt(t),
                    StallReason::Chaos,
                    self.cycle..self.cycle + 1,
                    0,
                );
                continue;
            }
            match self.step_switch(t) {
                SwitchOutcome::Progress => progress = true,
                SwitchOutcome::Stalled(reason) => {
                    self.book_stall(Comp::SwitchAt(t), reason, self.cycle..self.cycle + 1, 0);
                }
                SwitchOutcome::Halted => {
                    if S::ENABLED {
                        self.sink.idle(self.cycle, t as u32, Unit::Switch);
                    }
                }
            }
        }

        // Dynamic network: every router, then its handler, every tile.
        let dyn_step = self.dynnet.step(self.cycle, &mut self.mems, &mut self.work);
        progress |= self.book_dyn(dyn_step);

        // Commit staged channel writes.
        for id in 0..self.chans.count() {
            if self.chans.commit(id) {
                self.stats.static_words += 1;
                progress = true;
                if S::ENABLED {
                    self.sink.channel_commit(self.cycle, id, self.chans.len(id));
                }
            }
        }
        self.work.channel_commits += self.chans.count() as u64;
        self.dirty.clear();

        self.cycle += 1;
        progress
    }
}
