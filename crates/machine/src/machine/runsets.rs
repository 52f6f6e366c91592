//! The production stepper: run sets, timers, sleep debts and the dirty list.
//!
//! Components that provably cannot act this cycle are not visited at all,
//! and only channels that staged a write are committed. Its share of
//! DESIGN.md §8's invariants:
//!
//! 1. **No side effects while asleep.** A processor sleeps only while its
//!    port engine has nothing to drain — empty, or its oldest send still
//!    maturing, with a timer at the maturity cycle; a stalled switch mutates
//!    nothing by construction.
//! 2. **Stall stats are settled lazily, chaos skips counted lazily.** A
//!    sleeper's debt `{since, reason}` is booked as one range right before
//!    its next step (or at run exit), minus the cycles chaos stalled it on.
//! 3. **Run-set sweep order is scan order.** `wake` flips the mode and sets
//!    the bit; where the sweep stands decides when the component steps.
//! 4. **The wheel holds timers only, and tolerates stale ones.**
//! 5. **The progress flag is exact**: a timed sleeper (scoreboard, or a
//!    maturing send) counts as progress iff chaos does not stall it that
//!    cycle; a processor asleep on a dynamic reply counts none, as its
//!    stall does in the reference.
//! 6. **The dirty list covers every writer.**
//! 7. **A sleeper wakes on its blocking channel only.** A stalled route
//!    records the first channel that blocked it, a port-blocked processor
//!    its input port; a commit or a consume on that channel wakes it, and no
//!    other event does. A stall changes no state, so nothing else can
//!    unblock it first. A processor waiting on a dynamic reply has no
//!    channel: only a delivery into its own processor inbox wakes it
//!    (`DynNet::delivered` after the network's sweep), never a request bound
//!    for its tile's handler.
//! 8. **The dynamic network steps iff it is not idle**, over the tiles its
//!    own run set marks (DESIGN.md §8).

use super::{Comp, Machine, ProcMode, Sched, SwitchMode, NO_CHANNEL};
use crate::processor::ProcOutcome;
use crate::switch::SwitchOutcome;
use crate::trace::{EventSink, StallReason, Unit};

impl<S: EventSink> Machine<S> {
    /// The production stepper (see the module docs for the invariants).
    pub(super) fn step_run_sets(&mut self) -> bool {
        let mut progress = false;

        // Matured timers rejoin the run set. A stale timer — the processor
        // was woken early and is now active, dead, or waiting on something
        // later — falls through the mode check.
        let cycle = self.cycle;
        let Machine {
            timers,
            proc_mode,
            proc_run,
            sleep_reg,
            work,
            ..
        } = self;
        timers.take_due(cycle, |t| {
            work.timers_popped += 1;
            if matches!(proc_mode[t], ProcMode::SleepReg { wake_at } if wake_at <= cycle) {
                proc_mode[t] = ProcMode::Active;
                sleep_reg.remove(t);
                proc_run.insert(t);
            } else {
                work.timers_stale += 1;
            }
        });

        // Processors. Nothing wakes a processor during this phase (its wakes
        // go to switches), so the sweep walks each word as it stood.
        for w in 0..self.proc_run.word_count() {
            let mut bits = self.proc_run.word(w);
            while bits != 0 {
                let t = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.chaos_stalls(Comp::ProcAt(t)) {
                    self.book_chaos_skip(Comp::ProcAt(t));
                    continue;
                }
                progress |= self.run_proc(t);
            }
        }
        // A timed sleeper resolves by itself: the reference steps it, records
        // the stall and counts progress — unless chaos stalls it this cycle.
        // Sampled after matured timers left the set and before switch-phase
        // wakes can shrink it.
        progress |= match self.chaos {
            None => !self.sleep_reg.is_empty(),
            Some(_) => self
                .sleep_reg
                .iter()
                .any(|t| !self.chaos_stalls(Comp::ProcAt(t))),
        };

        // Switches. A route that consumes a word wakes its upstream writer
        // if that word's channel blocked it: a higher-indexed switch joins
        // this sweep, a lower-indexed one the next — when a `0..n` scan would
        // reach them.
        for w in 0..self.switch_run.word_count() {
            let mut bits = self.switch_run.word(w);
            while bits != 0 {
                let bit = bits.trailing_zeros();
                let t = 64 * w + bit as usize;
                if self.chaos_stalls(Comp::SwitchAt(t)) {
                    self.book_chaos_skip(Comp::SwitchAt(t));
                } else {
                    progress |= self.run_switch(t);
                }
                // The live word past `t`: a wake ahead of the sweep joins it.
                bits = self.switch_run.word(w) & (u64::MAX << bit << 1);
            }
        }

        if !self.dynnet.is_idle() {
            let dyn_step = self
                .dynnet
                .step_hot(self.cycle, &mut self.mems, &mut self.work);
            progress |= self.book_dyn(dyn_step);
            // A reply wakes the processor asleep on it, which pops it next
            // cycle, when the reference's processor sweep does.
            for i in 0..self.dynnet.delivered().len() {
                let t = self.dynnet.delivered()[i];
                if self.proc_mode[t] == ProcMode::SleepDyn {
                    self.wake(Comp::ProcAt(t));
                }
            }
        }
        progress |= self.commit_dirty();

        self.cycle += 1;
        progress
    }

    /// Steps one processor of the run set, applying mode transitions, stall
    /// accounting, and wake routing. Returns its progress contribution.
    pub(super) fn run_proc(&mut self, t: usize) -> bool {
        let mut progress = false;
        let woken = self.settle_debt(Comp::ProcAt(t));
        let pc_before = if S::ENABLED { self.procs[t].pc() } else { 0 };
        let (pin, pout) = (self.procs[t].pin(), self.procs[t].pout());
        let pin_before = self.chans.len(pin);
        let outcome = self.step_proc(t);
        // A consumed word frees space the tile's switch may be waiting on.
        if self.chans.len(pin) < pin_before {
            self.wake_on(Comp::SwitchAt(t), pin);
        }
        if self.chans.has_staged(pout) {
            self.dirty.push(pout);
        }
        // A processor injects only the request it then waits on; the router
        // pulls it from the injection queue.
        if self.procs[t].dyn_waiting() && self.dynnet.endpoint(t).inject_backlog() {
            self.dynnet.poke(t);
        }
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
                if self.procs[t].halted() {
                    self.park_proc(t, ProcMode::Dead);
                    // The reference observes the halt one cycle later (the
                    // next step returns `Halted`); mirror that timing.
                    if S::ENABLED {
                        self.sink.idle(self.cycle + 1, t as u32, Unit::Proc);
                    }
                }
            }
            ProcOutcome::Stalled(reason) => {
                self.work.restalls += u64::from(woken);
                let maturing = self.procs[t].maturing_send(self.cycle);
                if reason == StallReason::Scoreboard || maturing.is_some() {
                    progress = true;
                }
                if !self.sleep_stalled_proc(t, reason, maturing) {
                    self.book_stall(Comp::ProcAt(t), reason, self.cycle..self.cycle + 1, 0);
                }
            }
            ProcOutcome::Halted => {
                self.park_proc(t, ProcMode::Dead);
                if S::ENABLED {
                    self.sink.idle(self.cycle, t as u32, Unit::Proc);
                }
            }
        }
        progress
    }

    /// Puts a processor that stalled on `reason` to sleep when every step it
    /// would take before its wake condition is another identical stall with
    /// no side effect: the port engine has nothing to drain before the
    /// oldest pending send matures (`maturing`), and the stall cannot clear
    /// before its register is ready or a word commits on its input port.
    ///
    /// | stall | port engine | sleep | wakes on |
    /// |-------|-------------|-------|----------|
    /// | scoreboard | empty or maturing | `SleepReg` | timer at the register's ready cycle, or the send's, if earlier |
    /// | input port empty | empty | `SleepPort` | a commit on sw→proc |
    /// | input port empty | maturing | `SleepReg` | the send's timer, or a commit on sw→proc |
    /// | pending sends full, or halted | maturing | `SleepReg` | the send's timer |
    /// | dynamic network, awaiting a reply with an empty processor inbox | empty | `SleepDyn` | a delivery into the processor inbox |
    ///
    /// Anything else stays active: a matured send blocked on a full port, a
    /// dynamic wait with sends pending, and a remote access whose request
    /// does not fit the injection queue (no reply is owed yet). Returns
    /// whether the processor sleeps; its debt then covers this cycle's stall
    /// too.
    fn sleep_stalled_proc(&mut self, t: usize, reason: StallReason, maturing: Option<u64>) -> bool {
        let proc = &self.procs[t];
        let pin = proc.pin() as u32;
        let (mode, on) = match (reason, maturing) {
            (StallReason::Scoreboard, _) if maturing.is_some() || proc.out_pending_empty() => {
                let hint = proc.wake_hint();
                let Some(wake_at) = hint.into_iter().chain(maturing).min() else {
                    return false;
                };
                (ProcMode::SleepReg { wake_at }, NO_CHANNEL)
            }
            (StallReason::ReceiveEmpty, None) if proc.out_pending_empty() => {
                (ProcMode::SleepPort, pin)
            }
            (StallReason::ReceiveEmpty, Some(wake_at)) => (ProcMode::SleepReg { wake_at }, pin),
            (StallReason::SendFull, Some(wake_at)) => (ProcMode::SleepReg { wake_at }, NO_CHANNEL),
            (StallReason::DynamicNetwork, None)
                if proc.dyn_waiting()
                    && proc.out_pending_empty()
                    && self.dynnet.endpoint(t).proc_inbox.is_empty() =>
            {
                (ProcMode::SleepDyn, NO_CHANNEL)
            }
            _ => return false,
        };
        if let ProcMode::SleepReg { wake_at } = mode {
            self.sleep_reg.insert(t);
            self.timers.push(wake_at, t);
        }
        self.park_proc(t, mode);
        self.sched[Comp::ProcAt(t).id()] = Sched {
            since: self.cycle,
            reason,
            blocked_on: on,
        };
        true
    }

    /// Takes an active processor out of the run set into `mode`.
    pub(super) fn park_proc(&mut self, t: usize, mode: ProcMode) {
        self.proc_mode[t] = mode;
        self.proc_run.remove(t);
        if mode == ProcMode::Dead {
            self.live_procs -= 1;
        }
    }

    /// Steps one switch of the run set (see [`Self::run_proc`]). A stalled
    /// route sleeps on the channel `step_switch` found blocking it.
    pub(super) fn run_switch(&mut self, t: usize) -> bool {
        let mut progress = false;
        let woken = self.settle_debt(Comp::SwitchAt(t));
        let outcome = self.step_switch(t);
        // Words consumed by the route free space an upstream writer may be
        // blocked on.
        for i in 0..self.consumed.len() {
            let id = self.consumed[i];
            self.wake_on(self.chan_writer[id], id);
        }
        match outcome {
            SwitchOutcome::Progress => progress = true,
            SwitchOutcome::Stalled(reason) => {
                self.work.restalls += u64::from(woken);
                self.switch_mode[t] = SwitchMode::Sleeping;
                self.switch_run.remove(t);
                // The debt starts with this cycle's stall; `step_switch` left
                // the blocking channel.
                let sched = &mut self.sched[Comp::SwitchAt(t).id()];
                sched.since = self.cycle;
                sched.reason = reason;
            }
            SwitchOutcome::Halted => {
                self.switch_mode[t] = SwitchMode::Dead;
                self.switch_run.remove(t);
                self.live_switches -= 1;
                if S::ENABLED {
                    self.sink.idle(self.cycle, t as u32, Unit::Switch);
                }
            }
        }
        progress
    }

    /// Commits exactly the channels that staged a write this cycle; each
    /// commit wakes the channel's reader if it sleeps on the channel (a word
    /// arrived). The writer cannot be asleep on it: a writer blocks on a
    /// channel only while the channel is full, and then it stages nothing.
    pub(super) fn commit_dirty(&mut self) -> bool {
        self.work.channel_commits += self.dirty.len() as u64;
        let mut progress = false;
        for i in 0..self.dirty.len() {
            let id = self.dirty[i];
            let committed = self.chans.commit(id);
            debug_assert!(committed, "dirty channel had nothing staged");
            self.stats.static_words += 1;
            progress = true;
            if S::ENABLED {
                self.sink.channel_commit(self.cycle, id, self.chans.len(id));
            }
            self.wake_on(self.chan_reader[id], id);
        }
        self.dirty.clear();
        progress
    }

    /// Wakes `c` if it sleeps on channel `id`: the one event that can end
    /// its stall. Every other channel event leaves the stall standing — a
    /// stall changes no state, so nothing but its blocking channel can
    /// unblock it first.
    #[inline(always)]
    fn wake_on(&mut self, c: Comp, id: usize) {
        if self.sched[c.id()].blocked_on == id as u32 {
            self.wake(c);
        }
    }

    /// Puts a sleeping component back into its run set: flip the mode, set
    /// the bit. Where the sweep stands decides when it steps — a processor next
    /// cycle (processors run before the phases that wake them), a switch this
    /// cycle iff the switch sweep has not passed it. Its stall debt stays
    /// pending and is settled right before the next actual step, so an early
    /// wake is harmless: the component re-stalls, re-records the same stall
    /// the reference would, and goes back to sleep.
    pub(super) fn wake(&mut self, c: Comp) {
        match c {
            Comp::ProcAt(t) => {
                match self.proc_mode[t] {
                    ProcMode::SleepReg { .. } => self.sleep_reg.remove(t),
                    ProcMode::SleepPort | ProcMode::SleepDyn => {}
                    ProcMode::Active | ProcMode::Dead => return,
                }
                self.proc_mode[t] = ProcMode::Active;
                self.proc_run.insert(t);
            }
            Comp::SwitchAt(t) => {
                if self.switch_mode[t] == SwitchMode::Sleeping {
                    self.switch_mode[t] = SwitchMode::Active;
                    self.switch_run.insert(t);
                }
            }
        }
    }

    /// How many cycles of `since..now` chaos stalled `c` on: the cycles of a
    /// sleep range on which the reference records a chaos skip instead.
    pub(super) fn chaos_skips(&self, c: Comp, since: u64) -> u64 {
        match &self.chaos {
            None => 0,
            Some(chaos) => (since..self.cycle)
                .filter(|&cycle| chaos.stall(c.id() as u64, cycle))
                .count() as u64,
        }
    }

    /// A chaos skip of an active component. With a debt pending the cycle
    /// lies inside the range the debt will report; otherwise it is a
    /// one-cycle record of its own.
    pub(super) fn book_chaos_skip(&mut self, c: Comp) {
        if !self.sched[c.id()].in_debt() {
            self.book_stall(c, StallReason::Chaos, self.cycle..self.cycle + 1, 0);
        }
    }

    /// Settles a woken sleeper's deferred stalls; returns whether `c` had a
    /// debt (it slept since its last step). The common case — no debt — is
    /// one inlined check in front of the out-of-line settle.
    #[inline]
    pub(super) fn settle_debt(&mut self, c: Comp) -> bool {
        if !self.sched[c.id()].in_debt() {
            return false;
        }
        self.settle_pending_debt(c);
        true
    }

    /// Books a pending debt up to (not including) the current cycle as one
    /// retroactive range.
    #[inline(never)]
    fn settle_pending_debt(&mut self, c: Comp) {
        let Sched { since, reason, .. } = self.sched[c.id()];
        self.sched[c.id()].since = u64::MAX;
        if since < self.cycle {
            let chaos = self.chaos_skips(c, since);
            self.book_stall(c, reason, since..self.cycle, chaos);
        }
    }

    /// Settles every outstanding stall debt (run exit, before reporting).
    pub(super) fn flush_sleep_stats(&mut self) {
        for t in 0..self.config.n_tiles() as usize {
            self.settle_debt(Comp::ProcAt(t));
            self.settle_debt(Comp::SwitchAt(t));
        }
    }
}
