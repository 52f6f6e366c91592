//! The production stepper's dynamic-network phase.
//!
//! Its share of DESIGN.md §8's invariants:
//!
//! 8. **Quiescence is O(1)**: `dyn_active` is false exactly while every
//!    router queue, reassembly buffer, endpoint and handler is idle, and the
//!    whole phase is skipped then.
//! 9. **The dynamic network is worklist-driven.** Routers step from the
//!    network's hot bitset in ascending order (FIFO space between routers is
//!    resolved in tile order, as in the reference's full sweep, which runs
//!    the same code over every router), and handlers step from the
//!    `dyn_watch` list of tiles whose handler or endpoint may be non-idle; a
//!    skipped tile's `Handler::step` would be a no-op. A delivery into a
//!    processor inbox wakes that tile's `SleepDyn` processor, which pops the
//!    reply next cycle, as the reference's processor sweep does.

use super::{Comp, Machine, ProcMode};
#[cfg(doc)]
use crate::dynnet::Handler;
use crate::trace::EventSink;

impl<S: EventSink> Machine<S> {
    /// Adds tile `t` to the dynamic watch list (idempotent).
    pub(super) fn dyn_mark(&mut self, t: usize) {
        if !self.dyn_watched[t] {
            self.dyn_watched[t] = true;
            self.dyn_watch.push(t);
        }
    }

    /// Dynamic network and handlers, skipped entirely while quiescent. Cost is
    /// proportional to live dynamic traffic: the router step visits only its
    /// hot set, and the handler loop steps only watched tiles. A handler
    /// whose tile is not watched has an idle handler and an idle endpoint, for
    /// which [`Handler::step`] is a no-op returning `false` — so the skip is
    /// observationally identical to the reference's full scan.
    pub(super) fn run_dyn_phase(&mut self, run_dyn: bool) -> bool {
        if !run_dyn {
            return false;
        }
        let mut progress = false;
        if self.dynnet.step_hot(&mut self.endpoints) {
            self.stats.dyn_active_cycles += 1;
            progress = true;
            if S::ENABLED {
                self.sink.dyn_active(self.cycle);
            }
        }
        // Tiles that completed a message this cycle gained inbox work; a
        // reply wakes its processor, which pops it next cycle. A request
        // (handler-bound) leaves the processor asleep.
        self.dyn_scratch.clear();
        self.dyn_scratch.extend_from_slice(self.dynnet.delivered());
        for i in 0..self.dyn_scratch.len() {
            let t = self.dyn_scratch[i];
            self.dyn_mark(t);
            if self.proc_mode[t] == ProcMode::SleepDyn && !self.endpoints[t].proc_inbox.is_empty() {
                self.wake(Comp::ProcAt(t));
            }
        }
        // Step watched handlers, dropping tiles that went fully idle. Handler
        // steps are per-tile independent, so the (unsorted) watch order does
        // not affect behaviour or statistics.
        let mut i = 0;
        while i < self.dyn_watch.len() {
            let t = self.dyn_watch[i];
            let stepped = self.handlers[t].step(
                t as u32,
                self.cycle,
                self.config.mem_latency,
                &mut self.mems[t],
                &mut self.endpoints[t],
            );
            if stepped || !self.handlers[t].is_idle() {
                // An in-flight handler request is a timed wait, not deadlock.
                progress = true;
            }
            if stepped {
                // The handler may have injected a reply for the router to pull.
                self.dynnet.poke(t);
            }
            if !self.handlers[t].is_idle() || !self.endpoints[t].is_idle() {
                i += 1;
            } else {
                self.dyn_watched[t] = false;
                self.dyn_watch.swap_remove(i);
            }
        }
        self.dyn_active = !self.dynnet.is_idle() || !self.dyn_watch.is_empty();
        debug_assert_eq!(
            self.dyn_active,
            !self.dynnet.is_idle()
                || self.endpoints.iter().any(|e| !e.is_idle())
                || self.handlers.iter().any(|h| !h.is_idle()),
            "dyn_watch lost a non-idle tile"
        );
        progress
    }
}
