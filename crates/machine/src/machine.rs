//! The whole-machine stepper: tiles, static network, dynamic network.
//!
//! [`Machine::step`] advances every component one cycle. Writes into
//! static-network channels are staged and committed at cycle end, so results do
//! not depend on the order components are stepped in. [`Machine::run`] steps to
//! completion, detecting deadlock (a cycle with no progress while work remains
//! is a fixpoint, hence a true deadlock — unless chaos stalls are enabled, in
//! which case a long no-progress streak is required).
//!
//! # The two steppers
//!
//! [`Machine::with_reference_stepper`] selects the deliberately naive oracle:
//! every component steps every cycle, every channel commits. The default —
//! the one production core — is *activity tracked*: components that provably
//! cannot act this cycle are not visited at all, and only channels that staged
//! a write are committed. The legal sleep states and their wake conditions
//! (DESIGN.md §8 holds the full invariant list):
//!
//! * a **halted** processor (with drained port engine) or switch is dead and
//!   never stepped again;
//! * a processor stalled on the scoreboard (`Scoreboard`, no pending sends)
//!   sleeps until the blocking register's ready cycle;
//! * a processor stalled on an empty input port (no pending sends) sleeps until
//!   the switch→processor channel commits;
//! * a switch with a stalled route sleeps until any adjacent channel commits a
//!   word or has a word consumed;
//! * the dynamic network and the remote-memory handlers are skipped while no
//!   flit, message, or in-flight request exists anywhere.
//!
//! Who steps is held in two *run sets* (`crates/machine/src/calendar.rs`), one
//! bit per processor and per switch, set exactly while the component is
//! `Active`. A cycle sweeps each set in ascending tile order against the live
//! words, so a wake that sets a bit ahead of the sweep runs this cycle and
//! one behind it runs next cycle — the order a `0..n` scan over the modes
//! would give, without the scan. Sleeping on the scoreboard sets a timer on a
//! calendar wheel; a matured timer sets the bit again, and a stale one (the
//! processor was woken early) falls through the mode check. Per-cycle cost is
//! due timers + active components + `tiles/64` word reads.
//!
//! Sleeping is *observationally identical* to stepping-and-stalling: per-cycle
//! stall statistics for skipped cycles are back-filled on wake (minus the
//! cycles on which chaos stalled the component, counted then — chaos is a pure
//! function of `(seed, component, cycle)`, see [`crate::chaos`]), and the
//! progress flag fed to the deadlock detector is reproduced cycle by cycle (a
//! timed scoreboard sleep still counts as progress). The oracle
//! ([`crate::oracle`]) asserts that both steppers produce bit-identical cycle
//! counts, statistics, memory and deadlock reports, clean and under chaos.

use crate::calendar::{CalendarQueue, RunSet};
use crate::channel::Channel;
use crate::chaos::{Chaos, ChaosConfig};
use crate::config::MachineConfig;
use crate::dynnet::{DynEndpoint, DynNet, Handler};
use crate::isa::{Dir, MachineProgram, SDst, SInst, SSrc, TileCode, TileId, Word};
use crate::processor::{ProcOutcome, Processor};
use crate::stats::Stats;
use crate::switch::{Switch, SwitchOutcome};
use crate::trace::{ChannelInfo, ChannelRole, EventSink, NullSink, Stall, StallReason, Unit};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No component can make progress but work remains.
    Deadlock {
        /// Cycle at which deadlock was declared.
        cycle: u64,
        /// Human-readable summary of the stuck components.
        detail: String,
    },
    /// The configured cycle budget ran out.
    StepLimitExceeded {
        /// The exceeded limit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, detail } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::StepLimitExceeded { limit } => {
                write!(f, "simulation exceeded step limit of {limit} cycles")
            }
        }
    }
}

impl Error for SimError {}

/// Summary of a completed run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Cycles until every component halted and the networks drained.
    pub cycles: u64,
    /// Execution counters.
    pub stats: Stats,
}

/// Activity state of a processor under the production stepper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProcMode {
    /// In the run set: stepped every cycle.
    Active,
    /// Timed scoreboard wait: cannot issue before `wake_at`.
    SleepReg {
        /// First cycle the blocking register is ready.
        wake_at: u64,
    },
    /// Blocked on an empty input port; woken by a commit on sw→proc.
    SleepPort,
    /// Halted with the port engine drained; never steps again.
    Dead,
}

/// Activity state of a switch under the production stepper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SwitchMode {
    Active,
    /// Route stalled; woken by any event on an adjacent channel.
    Sleeping,
    Dead,
}

/// Deferred stall accounting for a sleeping (or just-woken) component.
///
/// `since == u64::MAX` means no debt. Otherwise the component skipped every
/// cycle in `since..now`; the reference stepper would have recorded one stall
/// per skipped cycle *except* those on which chaos stalled it (the reference
/// records only a chaos skip on those), which are counted over the range at
/// settlement. The debt is settled into [`Stats`] and the sink immediately
/// before the component next steps, or at run end.
#[derive(Clone, Copy, Debug)]
struct SleepDebt {
    since: u64,
    reason: StallReason,
}

impl SleepDebt {
    const NONE: SleepDebt = SleepDebt {
        since: u64::MAX,
        reason: StallReason::Scoreboard,
    };

    fn is_pending(&self) -> bool {
        self.since != u64::MAX
    }
}

/// A processor or a switch: one endpoint of a static-network channel (wake
/// routing), one subject of chaos stalls, and one holder of a sleep debt.
#[derive(Clone, Copy, Debug)]
enum Comp {
    ProcAt(usize),
    SwitchAt(usize),
}

impl Comp {
    /// The component number: the stream fed to [`Chaos::stall`] and the
    /// component's slot in `Machine::debts`.
    fn id(self) -> usize {
        match self {
            Comp::ProcAt(t) => 2 * t,
            Comp::SwitchAt(t) => 2 * t + 1,
        }
    }

    /// The component's tile and unit.
    fn tile_unit(self) -> (usize, Unit) {
        match self {
            Comp::ProcAt(t) => (t, Unit::Proc),
            Comp::SwitchAt(t) => (t, Unit::Switch),
        }
    }
}

/// Which stepping core [`Machine::step`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stepper {
    /// Step-everything path (semantic reference).
    Reference,
    /// The production core: sweeps the run sets, so per-cycle work follows
    /// the number of active components, not the mesh size.
    RunSets,
}

/// A simulated Raw machine loaded with a program.
///
/// The `S` parameter is the [`EventSink`] observing the run; the default
/// [`NullSink`] compiles every emission out (see [`crate::trace`]).
#[derive(Debug)]
pub struct Machine<S: EventSink = NullSink> {
    config: MachineConfig,
    code: Vec<TileCode>,
    procs: Vec<Processor>,
    switches: Vec<Switch>,
    channels: Vec<Channel>,
    /// Channel id: processor → switch, per tile.
    ps: Vec<usize>,
    /// Channel id: switch → processor, per tile.
    sp: Vec<usize>,
    /// Channel id: switch → neighbour switch, per tile per direction.
    link_out: Vec<[Option<usize>; 4]>,
    mems: Vec<Vec<Word>>,
    dynnet: DynNet,
    endpoints: Vec<DynEndpoint>,
    handlers: Vec<Handler>,
    cycle: u64,
    stats: Stats,
    chaos: Option<Chaos>,
    /// Which stepping core `step` dispatches to.
    stepper: Stepper,
    proc_mode: Vec<ProcMode>,
    switch_mode: Vec<SwitchMode>,
    /// Stall debt per component, indexed by [`Comp::id`].
    debts: Vec<SleepDebt>,
    /// Reading endpoint of each channel.
    chan_reader: Vec<Comp>,
    /// Writing endpoint of each channel.
    chan_writer: Vec<Comp>,
    /// Channels that staged a write this cycle (the commit list).
    dirty: Vec<usize>,
    /// Channels the last `step_switch` consumed a word from (wake scratch).
    consumed: Vec<usize>,
    /// Reusable scratch for route source values.
    route_vals: Vec<(SSrc, Word)>,
    /// True while any flit, dynamic message, or handler request may exist.
    dyn_active: bool,
    /// Tiles whose handler or endpoint may be non-idle (production stepper):
    /// the dynamic phase steps exactly these handlers instead of
    /// scanning all `n`. Invariant: every tile with a non-idle handler or
    /// endpoint is on this list (membership flags in `dyn_watched`).
    dyn_watch: Vec<usize>,
    /// Membership flags for `dyn_watch`.
    dyn_watched: Vec<bool>,
    /// Reusable scratch for the delivered-tile list (borrow split).
    dyn_scratch: Vec<usize>,
    /// Processors in mode `Active`, swept in ascending order each cycle.
    proc_run: RunSet,
    /// Switches in mode `Active`.
    switch_run: RunSet,
    /// Processors in mode `SleepReg`: a timed wait counts as progress.
    sleep_reg: RunSet,
    /// Scoreboard timers: one per `SleepReg` episode, at its `wake_at`.
    timers: CalendarQueue,
    /// Processors not yet `Dead` (O(1) completion check).
    live_procs: usize,
    /// Switches not yet `Dead`.
    live_switches: usize,
    /// The event sink observing this machine.
    sink: S,
}

impl Machine {
    /// Builds a machine from a configuration and loads `program`, with tracing
    /// disabled ([`NullSink`]).
    ///
    /// # Panics
    ///
    /// Panics if the program does not provide code for exactly
    /// `config.n_tiles()` tiles.
    pub fn new(config: MachineConfig, program: &MachineProgram) -> Self {
        Machine::with_sink(config, program, NullSink)
    }
}

impl<S: EventSink> Machine<S> {
    /// Builds a machine from a configuration and loads `program`, attaching
    /// `sink` as the event consumer.
    ///
    /// # Panics
    ///
    /// Panics if the program does not provide code for exactly
    /// `config.n_tiles()` tiles.
    pub fn with_sink(config: MachineConfig, program: &MachineProgram, sink: S) -> Machine<S> {
        let n = config.n_tiles() as usize;
        assert_eq!(program.tiles.len(), n, "program must cover all {n} tiles");
        let mut channels = Vec::new();
        let mut chan_reader = Vec::new();
        let mut chan_writer = Vec::new();
        let mut alloc = |cap: usize, writer: Comp, reader: Comp| {
            channels.push(Channel::new(cap));
            chan_writer.push(writer);
            chan_reader.push(reader);
            channels.len() - 1
        };
        let mut ps = Vec::with_capacity(n);
        let mut sp = Vec::with_capacity(n);
        for t in 0..n {
            ps.push(alloc(
                config.port_capacity,
                Comp::ProcAt(t),
                Comp::SwitchAt(t),
            ));
            sp.push(alloc(
                config.port_capacity,
                Comp::SwitchAt(t),
                Comp::ProcAt(t),
            ));
        }
        let mut link_out = vec![[None; 4]; n];
        for (t, out) in link_out.iter_mut().enumerate() {
            for dir in Dir::ALL {
                if let Some(nb) = config.neighbor(TileId(t as u32), dir) {
                    out[dir.index()] = Some(alloc(
                        config.port_capacity,
                        Comp::SwitchAt(t),
                        Comp::SwitchAt(nb.index()),
                    ));
                }
            }
        }
        let procs = (0..n)
            .map(|t| Processor::new(t as u32, config.gprs))
            .collect();
        let switches = (0..n).map(|_| Switch::new(config.switch_regs)).collect();
        let mems = (0..n)
            .map(|_| vec![0u32; config.mem_words as usize])
            .collect();
        let dynnet = DynNet::new(config.rows, config.cols, config.dyn_fifo);
        let endpoints = (0..n).map(|_| DynEndpoint::new(16)).collect();
        let handlers = (0..n).map(|_| Handler::new()).collect();
        Machine {
            stats: Stats::new(n),
            code: program.tiles.clone(),
            procs,
            switches,
            channels,
            ps,
            sp,
            link_out,
            mems,
            dynnet,
            endpoints,
            handlers,
            cycle: 0,
            chaos: None,
            stepper: Stepper::RunSets,
            proc_mode: vec![ProcMode::Active; n],
            switch_mode: vec![SwitchMode::Active; n],
            debts: vec![SleepDebt::NONE; 2 * n],
            chan_reader,
            chan_writer,
            dirty: Vec::new(),
            consumed: Vec::new(),
            route_vals: Vec::new(),
            dyn_active: false,
            dyn_watch: Vec::new(),
            dyn_watched: vec![false; n],
            dyn_scratch: Vec::new(),
            proc_run: RunSet::full(n),
            switch_run: RunSet::full(n),
            sleep_reg: RunSet::empty(n),
            timers: CalendarQueue::new(128),
            live_procs: n,
            live_switches: n,
            sink,
            config,
        }
    }

    /// Shared access to the attached event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the machine and returns the sink (trace extraction).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Static description of every static-network channel, indexed by the
    /// channel id used in [`EventSink::channel_commit`] events.
    pub fn channel_infos(&self) -> Vec<ChannelInfo> {
        let mut roles = vec![None; self.channels.len()];
        for t in 0..self.config.n_tiles() as usize {
            roles[self.ps[t]] = Some(ChannelRole::ProcToSwitch { tile: t as u32 });
            roles[self.sp[t]] = Some(ChannelRole::SwitchToProc { tile: t as u32 });
            for dir in Dir::ALL {
                if let Some(id) = self.link_out[t][dir.index()] {
                    let to = self.config.neighbor(TileId(t as u32), dir).unwrap();
                    roles[id] = Some(ChannelRole::Link {
                        from: t as u32,
                        to: to.0,
                        dir,
                    });
                }
            }
        }
        roles
            .into_iter()
            .enumerate()
            .map(|(id, role)| ChannelInfo {
                id,
                role: role.expect("every channel has a role"),
                capacity: self.config.port_capacity,
            })
            .collect()
    }

    /// Enables random stall injection (for static-ordering tests).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(Chaos::new(chaos));
        self
    }

    /// Selects the step-everything path instead of the production core.
    ///
    /// Kept as the semantic reference and exists only to serve the oracle
    /// ([`crate::oracle::steppers_agree`]), which runs a machine through both
    /// steppers and demands identical outcomes, statistics, and final memory.
    pub fn with_reference_stepper(mut self) -> Self {
        self.stepper = Stepper::Reference;
        self
    }

    /// Identity: the event-driven core this used to select is the default
    /// (and only production) stepper.
    ///
    /// Survives only because the frozen benchmark package `perf/` calls it;
    /// nothing else in the tree does, and the next benchmark PR drops it.
    pub fn with_event_stepper(self) -> Self {
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Execution statistics so far.
    ///
    /// Under the production stepper, per-cycle *stall* counters of currently
    /// sleeping components are settled when they wake and at [`run`](Self::run)
    /// exit; instruction, route, and word counters are always exact.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Reads a word of a tile's local memory.
    pub fn mem_word(&self, tile: TileId, addr: u32) -> Word {
        self.mems[tile.index()][addr as usize]
    }

    /// Writes a word of a tile's local memory (used to preload data).
    pub fn set_mem_word(&mut self, tile: TileId, addr: u32, value: Word) {
        self.mems[tile.index()][addr as usize] = value;
    }

    /// A tile's entire local memory (differential testing, diagnostics).
    pub fn memory(&self, tile: TileId) -> &[Word] {
        &self.mems[tile.index()]
    }

    /// Overrides a tile's dynamic-reference home map: global addresses issued
    /// by `tile` interleave over `homes` (a power-of-two set of physical
    /// tiles) instead of the default [`MachineConfig::split_gaddr`]. The
    /// driver installs this when compiling around faulty tiles or linking
    /// co-resident programs.
    pub fn set_tile_dyn_homes(&mut self, tile: TileId, homes: Vec<TileId>) {
        self.procs[tile.index()].set_dyn_homes(homes);
    }

    /// True when every processor and switch halted and all networks drained.
    pub fn finished(&self) -> bool {
        self.procs.iter().all(|p| p.halted())
            && self.switches.iter().all(|s| s.halted())
            && self.dynnet.is_idle()
            && self.endpoints.iter().all(|e| e.is_idle())
            && self.handlers.iter().all(|h| h.is_idle())
    }

    /// O(1) equivalent of [`finished`](Self::finished) for the production
    /// stepper: a component goes `Dead` exactly when it observes itself
    /// halted, and `dyn_active` is false exactly while all dynamic-network
    /// state is drained. The reference stepper maintains neither, so it keeps
    /// the full scan.
    fn quiesced(&self) -> bool {
        if self.stepper == Stepper::Reference {
            return self.finished();
        }
        let done = self.live_procs == 0 && self.live_switches == 0 && !self.dyn_active;
        debug_assert_eq!(done, self.finished());
        done
    }

    /// Advances the machine one cycle. Returns `true` if anything progressed.
    pub fn step(&mut self) -> bool {
        match self.stepper {
            Stepper::Reference => self.step_reference(),
            Stepper::RunSets => self.step_run_sets(),
        }
    }

    /// Whether chaos stalls component `c` on the current cycle.
    fn chaos_stalls(&self, c: Comp) -> bool {
        self.chaos
            .as_ref()
            .is_some_and(|chaos| chaos.stall(c.id() as u64, self.cycle))
    }

    /// The reference stepper: every component steps, every channel commits.
    fn step_reference(&mut self) -> bool {
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
            let (pin_id, pout_id) = (self.sp[t], self.ps[t]);
            let (pin, pout) = get_two_mut(&mut self.channels, pin_id, pout_id);
            let outcome = self.procs[t].step(
                &self.code[t].proc,
                self.cycle,
                &self.config,
                &mut self.mems[t],
                pin,
                pout,
                &mut self.endpoints[t],
            );
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

        // Dynamic network and handlers.
        if self.dynnet.step(&mut self.endpoints) {
            self.stats.dyn_active_cycles += 1;
            progress = true;
            if S::ENABLED {
                self.sink.dyn_active(self.cycle);
            }
        }
        for t in 0..n {
            if self.handlers[t].step(
                t as u32,
                self.cycle,
                self.config.mem_latency,
                &mut self.mems[t],
                &mut self.endpoints[t],
            ) || !self.handlers[t].is_idle()
            {
                // An in-flight handler request is a timed wait, not deadlock.
                progress = true;
            }
        }

        // Commit staged channel writes.
        for id in 0..self.channels.len() {
            if self.channels[id].commit() {
                self.stats.static_words += 1;
                progress = true;
                if S::ENABLED {
                    self.sink
                        .channel_commit(self.cycle, id, self.channels[id].len());
                }
            }
        }
        self.dirty.clear();

        self.cycle += 1;
        progress
    }

    /// The production stepper (see the module docs for the invariants).
    fn step_run_sets(&mut self) -> bool {
        let mut progress = false;
        let mut run_dyn = self.dyn_active;

        // Matured scoreboard timers rejoin the run set. A stale timer — the
        // processor was woken early and is now active, dead, or waiting on
        // something later — falls through the mode check.
        let cycle = self.cycle;
        let Machine {
            timers,
            proc_mode,
            proc_run,
            sleep_reg,
            ..
        } = self;
        timers.take_due(cycle, |t| {
            if matches!(proc_mode[t], ProcMode::SleepReg { wake_at } if wake_at <= cycle) {
                proc_mode[t] = ProcMode::Active;
                sleep_reg.remove(t);
                proc_run.insert(t);
            }
        });

        // Processors. Nothing wakes a processor during this phase (its wakes
        // go to switches), so the sweep sees a fixed set.
        let mut from = 0;
        while let Some(t) = self.proc_run.next_from(from) {
            from = t + 1;
            if self.chaos_stalls(Comp::ProcAt(t)) {
                self.book_chaos_skip(Comp::ProcAt(t));
                continue;
            }
            progress |= self.run_proc(t, &mut run_dyn);
        }
        // A scoreboard sleeper is in a timed wait that resolves by itself: the
        // reference steps it, records the stall and counts progress — unless
        // chaos stalls it this cycle. Sampled after matured timers left the
        // set and before switch-phase wakes can shrink it.
        progress |= match self.chaos {
            None => !self.sleep_reg.is_empty(),
            Some(_) => self
                .sleep_reg
                .iter()
                .any(|t| !self.chaos_stalls(Comp::ProcAt(t))),
        };

        // Switches. A route that consumes a word wakes its upstream writer:
        // a higher-indexed switch joins this sweep, a lower-indexed one the
        // next — when a `0..n` scan would reach them.
        let mut from = 0;
        while let Some(t) = self.switch_run.next_from(from) {
            from = t + 1;
            if self.chaos_stalls(Comp::SwitchAt(t)) {
                self.book_chaos_skip(Comp::SwitchAt(t));
                continue;
            }
            progress |= self.run_switch(t);
        }

        progress |= self.run_dyn_phase(run_dyn);
        progress |= self.commit_dirty();

        self.cycle += 1;
        progress
    }

    /// Steps one processor of the run set, applying mode transitions, stall
    /// accounting, and wake routing. Returns its progress contribution.
    fn run_proc(&mut self, t: usize, run_dyn: &mut bool) -> bool {
        let mut progress = false;
        self.settle_debt(Comp::ProcAt(t));
        let pc_before = if S::ENABLED { self.procs[t].pc() } else { 0 };
        let (pin_id, pout_id) = (self.sp[t], self.ps[t]);
        let pin_before = self.channels[pin_id].len();
        let (pin, pout) = get_two_mut(&mut self.channels, pin_id, pout_id);
        let outcome = self.procs[t].step(
            &self.code[t].proc,
            self.cycle,
            &self.config,
            &mut self.mems[t],
            pin,
            pout,
            &mut self.endpoints[t],
        );
        // A consumed word frees space the tile's switch may be waiting on.
        if self.channels[pin_id].len() < pin_before {
            self.wake(Comp::SwitchAt(t));
        }
        if self.channels[pout_id].has_staged() {
            self.dirty.push(pout_id);
        }
        if !self.endpoints[t].is_idle() {
            *run_dyn = true;
            // The processor touched its endpoint (injected a request or left
            // inbox words pending): watch the tile and let the router pull
            // from the injection queue.
            self.dyn_mark(t);
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
                self.book_stall(Comp::ProcAt(t), reason, self.cycle..self.cycle + 1, 0);
                if reason == StallReason::Scoreboard || self.procs[t].has_maturing_send(self.cycle)
                {
                    progress = true;
                }
                // A stall with no pending sends has no side effects to
                // perform: the processor may sleep if its wake condition
                // is observable (scoreboard timer or port commit).
                if self.procs[t].out_pending_empty() {
                    let debt = SleepDebt {
                        since: self.cycle + 1,
                        reason,
                    };
                    match reason {
                        StallReason::Scoreboard => {
                            if let Some(wake_at) = self.procs[t].wake_hint() {
                                self.park_proc(t, ProcMode::SleepReg { wake_at });
                                self.sleep_reg.insert(t);
                                self.timers.push(wake_at, t);
                                self.debts[Comp::ProcAt(t).id()] = debt;
                            }
                        }
                        StallReason::ReceiveEmpty => {
                            self.park_proc(t, ProcMode::SleepPort);
                            self.debts[Comp::ProcAt(t).id()] = debt;
                        }
                        // SendFull implies pending sends (not reached here);
                        // dynamic waits are serviced by the handler phase and
                        // stay active — they are rare and cheap.
                        _ => {}
                    }
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

    /// Takes an active processor out of the run set into `mode`.
    fn park_proc(&mut self, t: usize, mode: ProcMode) {
        self.proc_mode[t] = mode;
        self.proc_run.remove(t);
        if mode == ProcMode::Dead {
            self.live_procs -= 1;
        }
    }

    /// Steps one switch of the run set (see [`Self::run_proc`]).
    fn run_switch(&mut self, t: usize) -> bool {
        let mut progress = false;
        self.settle_debt(Comp::SwitchAt(t));
        let outcome = self.step_switch(t);
        // Words consumed by the route free space upstream writers may be
        // waiting on.
        for i in 0..self.consumed.len() {
            let id = self.consumed[i];
            self.wake(self.chan_writer[id]);
        }
        match outcome {
            SwitchOutcome::Progress => progress = true,
            SwitchOutcome::Stalled(reason) => {
                self.book_stall(Comp::SwitchAt(t), reason, self.cycle..self.cycle + 1, 0);
                self.switch_mode[t] = SwitchMode::Sleeping;
                self.switch_run.remove(t);
                self.debts[Comp::SwitchAt(t).id()] = SleepDebt {
                    since: self.cycle + 1,
                    reason,
                };
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

    /// Adds tile `t` to the dynamic watch list (idempotent).
    fn dyn_mark(&mut self, t: usize) {
        if !self.dyn_watched[t] {
            self.dyn_watched[t] = true;
            self.dyn_watch.push(t);
        }
    }

    /// Dynamic network and handlers, skipped entirely while quiescent. Cost is
    /// proportional to live dynamic traffic: the router step visits only its
    /// hot worklist, and the handler loop steps only watched tiles. A handler
    /// whose tile is not watched has an idle handler and an idle endpoint, for
    /// which [`Handler::step`] is a no-op returning `false` — so the skip is
    /// observationally identical to the reference's full scan.
    fn run_dyn_phase(&mut self, run_dyn: bool) -> bool {
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
        // Tiles that completed a message this cycle gained inbox work.
        self.dyn_scratch.clear();
        self.dyn_scratch.extend_from_slice(self.dynnet.delivered());
        for i in 0..self.dyn_scratch.len() {
            let t = self.dyn_scratch[i];
            self.dyn_mark(t);
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

    /// Commits exactly the channels that staged a write this cycle; each
    /// commit wakes both endpoints (reader gains a word, writer regains
    /// staging space).
    fn commit_dirty(&mut self) -> bool {
        let mut progress = false;
        for i in 0..self.dirty.len() {
            let id = self.dirty[i];
            let committed = self.channels[id].commit();
            debug_assert!(committed, "dirty channel had nothing staged");
            self.stats.static_words += 1;
            progress = true;
            if S::ENABLED {
                self.sink
                    .channel_commit(self.cycle, id, self.channels[id].len());
            }
            self.wake(self.chan_reader[id]);
            self.wake(self.chan_writer[id]);
        }
        self.dirty.clear();
        progress
    }

    /// Puts a sleeping component back into its run set: flip the mode, set
    /// the bit. Where the sweep stands decides when it steps — a processor next
    /// cycle (processors run before the phases that wake them), a switch this
    /// cycle iff the switch sweep has not passed it. Its stall debt stays
    /// pending and is settled right before the next actual step, so a spurious
    /// wake is harmless: the component re-stalls, re-records the same stall the
    /// reference would, and goes back to sleep.
    fn wake(&mut self, c: Comp) {
        match c {
            Comp::ProcAt(t) => {
                match self.proc_mode[t] {
                    ProcMode::SleepReg { .. } => self.sleep_reg.remove(t),
                    ProcMode::SleepPort => {}
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
    fn chaos_skips(&self, c: Comp, since: u64) -> u64 {
        match &self.chaos {
            None => 0,
            Some(chaos) => (since..self.cycle)
                .filter(|&cycle| chaos.stall(c.id() as u64, cycle))
                .count() as u64,
        }
    }

    /// Books the stall range `cycles` of `c` blocked on `reason`, `chaos`
    /// cycles of which were chaos skips: the stall cycles go into [`Stats`]
    /// and the range to the sink as one [`Stall`] record. A unit's pc does not
    /// advance while it stalls, so its current pc is the blocked instruction's.
    fn book_stall(&mut self, c: Comp, reason: StallReason, cycles: Range<u64>, chaos: u64) {
        let (t, unit) = c.tile_unit();
        let (from, to) = (cycles.start, cycles.end);
        self.stats.tiles[t].record_stall(unit, reason, to - from - chaos);
        if S::ENABLED {
            let pc = match unit {
                Unit::Proc => self.procs[t].pc(),
                Unit::Switch => self.switches[t].pc(),
            };
            self.sink.stall(Stall {
                tile: t as u32,
                unit,
                reason,
                from,
                to,
                chaos,
                pc,
            });
        }
    }

    /// A chaos skip of an active component. With a debt pending the cycle
    /// lies inside the range the debt will report; otherwise it is a
    /// one-cycle record of its own.
    fn book_chaos_skip(&mut self, c: Comp) {
        if !self.debts[c.id()].is_pending() {
            self.book_stall(c, StallReason::Chaos, self.cycle..self.cycle + 1, 0);
        }
    }

    /// Settles a sleeper's deferred stalls up to (not including) the current
    /// cycle as one retroactive range.
    fn settle_debt(&mut self, c: Comp) {
        let debt = std::mem::replace(&mut self.debts[c.id()], SleepDebt::NONE);
        if debt.is_pending() && debt.since < self.cycle {
            let chaos = self.chaos_skips(c, debt.since);
            self.book_stall(c, debt.reason, debt.since..self.cycle, chaos);
        }
    }

    /// Settles every outstanding stall debt (run exit, before reporting).
    fn flush_sleep_stats(&mut self) {
        for t in 0..self.config.n_tiles() as usize {
            self.settle_debt(Comp::ProcAt(t));
            self.settle_debt(Comp::SwitchAt(t));
        }
    }

    /// Steps one switch. Fetch reads the code in place, consumed channel ids
    /// are recorded in `self.consumed`, staged writes are pushed onto
    /// `self.dirty`, and route values go through a reusable scratch buffer —
    /// the whole path is allocation-free after warm-up.
    fn step_switch(&mut self, t: usize) -> SwitchOutcome {
        let Machine {
            config,
            code,
            switches,
            channels,
            ps,
            sp,
            link_out,
            stats,
            dirty,
            consumed,
            route_vals,
            cycle,
            sink,
            ..
        } = self;
        consumed.clear();
        let sw = &mut switches[t];
        let Some(inst) = sw.fetch(&code[t].switch) else {
            return SwitchOutcome::Halted;
        };
        // Fetch does not advance: this is the fetched instruction's pc.
        let sw_pc = sw.pc();
        match inst {
            SInst::Route(pairs) => {
                let link_in = |d: Dir| -> Option<usize> {
                    config
                        .neighbor(TileId(t as u32), d)
                        .and_then(|nb| link_out[nb.index()][d.opposite().index()])
                };
                // Phase 1: readiness of all sources and destinations.
                for (src, _) in pairs {
                    let ready = match src {
                        SSrc::Dir(d) => match link_in(*d) {
                            Some(id) => channels[id].can_read(),
                            None => {
                                panic!("tile{t} switch routes from {d:?} but there is no neighbour")
                            }
                        },
                        SSrc::Proc => channels[ps[t]].can_read(),
                        SSrc::Reg(_) => true,
                    };
                    if !ready {
                        return SwitchOutcome::Stalled(StallReason::ReceiveEmpty);
                    }
                }
                for (_, dst) in pairs {
                    let ready = match dst {
                        SDst::Dir(d) => match link_out[t][d.index()] {
                            Some(id) => channels[id].can_write(),
                            None => {
                                panic!("tile{t} switch routes to {d:?} but there is no neighbour")
                            }
                        },
                        SDst::Proc => channels[sp[t]].can_write(),
                        SDst::Reg(_) => true,
                    };
                    if !ready {
                        return SwitchOutcome::Stalled(StallReason::SendFull);
                    }
                }
                // Phase 2: consume each distinct source once, then fan out.
                route_vals.clear();
                for (src, _) in pairs {
                    if route_vals.iter().any(|(s, _)| s == src) {
                        continue;
                    }
                    let v = match src {
                        SSrc::Dir(d) => {
                            let id = link_in(*d).unwrap();
                            consumed.push(id);
                            channels[id].read()
                        }
                        SSrc::Proc => {
                            let id = ps[t];
                            consumed.push(id);
                            channels[id].read()
                        }
                        SSrc::Reg(r) => sw.reg(*r),
                    };
                    route_vals.push((*src, v));
                }
                for (src, dst) in pairs {
                    let v = route_vals.iter().find(|(s, _)| s == src).unwrap().1;
                    match dst {
                        SDst::Dir(d) => {
                            let id = link_out[t][d.index()].unwrap();
                            channels[id].write(v);
                            dirty.push(id);
                        }
                        SDst::Proc => {
                            let id = sp[t];
                            channels[id].write(v);
                            dirty.push(id);
                        }
                        SDst::Reg(r) => sw.set_reg(*r, v),
                    }
                }
                sw.advance();
                stats.tiles[t].switch_routes += 1;
                if S::ENABLED {
                    sink.route(*cycle, t as u32, pairs, sw_pc);
                }
                SwitchOutcome::Progress
            }
            other => {
                sw.exec_control(other);
                if S::ENABLED {
                    sink.switch_control(*cycle, t as u32, sw_pc);
                }
                SwitchOutcome::Progress
            }
        }
    }

    /// Runs until completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if progress stops while work remains, or
    /// [`SimError::StepLimitExceeded`] if the cycle budget runs out.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        // Without chaos, one no-progress cycle is a fixpoint (deadlock); with
        // random stalls we require a long streak before declaring one.
        let deadlock_streak = if self.chaos.is_some() { 100_000 } else { 2 };
        let mut no_progress = 0u64;
        while !self.quiesced() {
            if self.cycle >= self.config.step_limit {
                self.flush_sleep_stats();
                return Err(SimError::StepLimitExceeded {
                    limit: self.config.step_limit,
                });
            }
            if self.step() {
                no_progress = 0;
            } else {
                no_progress += 1;
                if no_progress >= deadlock_streak {
                    self.flush_sleep_stats();
                    return Err(SimError::Deadlock {
                        cycle: self.cycle,
                        detail: self.deadlock_detail(),
                    });
                }
            }
        }
        self.flush_sleep_stats();
        Ok(RunReport {
            // The final counted cycle is the one in which the last component
            // halted; trailing no-progress cycles are not charged.
            cycles: self.cycle - no_progress,
            stats: self.stats.clone(),
        })
    }

    fn deadlock_detail(&self) -> String {
        let mut stuck = Vec::new();
        for (t, p) in self.procs.iter().enumerate() {
            if !p.halted() {
                stuck.push(format!("tile{t}.proc@pc{}", p.pc()));
            }
        }
        for (t, s) in self.switches.iter().enumerate() {
            if !s.halted() {
                stuck.push(format!("tile{t}.switch@pc{}", s.pc()));
            }
        }
        if stuck.len() > 8 {
            stuck.truncate(8);
            stuck.push("…".into());
        }
        stuck.join(", ")
    }
}

fn get_two_mut(v: &mut [Channel], a: usize, b: usize) -> (&mut Channel, &mut Channel) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::asm::{ProcAsm, SwitchAsm};
    use crate::isa::{Dst, Src};
    use crate::oracle::steppers_agree;
    use raw_ir::{BinOp, Imm};

    pub(crate) fn neighbor_message_program() -> MachineProgram {
        // Figure 4: tile(0,0) computes x+y and sends; tile(0,1) receives and
        // computes w + received. We mark completion by storing to memory.
        let mut p0 = ProcAsm::new();
        p0.bin(
            BinOp::Add,
            Dst::PortOut,
            Src::Imm(Imm::I(30)),
            Src::Imm(Imm::I(12)),
        );
        p0.halt();
        let mut s0 = SwitchAsm::new();
        s0.route(&[(SSrc::Proc, SDst::Dir(Dir::East))]);
        s0.halt();

        let mut s1 = SwitchAsm::new();
        s1.route(&[(SSrc::Dir(Dir::West), SDst::Proc)]);
        s1.halt();
        let mut p1 = ProcAsm::new();
        p1.bin(BinOp::Add, Dst::Reg(1), Src::Imm(Imm::I(100)), Src::PortIn);
        p1.store_imm_addr(Src::Reg(1), 0);
        p1.halt();

        MachineProgram {
            tiles: vec![
                TileCode {
                    proc: p0.finish(),
                    switch: s0.finish(),
                },
                TileCode {
                    proc: p1.finish(),
                    switch: s1.finish(),
                },
            ],
        }
    }

    #[test]
    fn figure4_neighbor_message_latency() {
        let mut m = Machine::new(MachineConfig::grid(1, 2), &neighbor_message_program());
        // Step cycle by cycle and find the cycle in which tile 1's add issues.
        // Send issues at cycle 0; the paper's cost model says the receive-side
        // add executes at cycle 3 (4-cycle end-to-end latency).
        let mut recv_cycle = None;
        for _ in 0..20 {
            let before = m.stats.tiles[1].proc_insts;
            m.step();
            if recv_cycle.is_none() && m.stats.tiles[1].proc_insts > before {
                recv_cycle = Some(m.cycle - 1);
            }
            if m.finished() {
                break;
            }
        }
        assert_eq!(
            recv_cycle,
            Some(3),
            "receive-side add must issue at cycle 3"
        );
        assert_eq!(m.mem_word(TileId(1), 0), 142);
    }

    #[test]
    fn run_reports_and_finishes() {
        let mut m = Machine::new(MachineConfig::grid(1, 2), &neighbor_message_program());
        let report = m.run().expect("completes");
        assert!(
            report.cycles >= 4 && report.cycles < 20,
            "{}",
            report.cycles
        );
        assert!(report.stats.static_words >= 3); // proc→sw, sw→sw, sw→proc
        assert_eq!(m.mem_word(TileId(1), 0), 142);
    }

    #[test]
    fn deadlock_detected() {
        let mut m = Machine::new(MachineConfig::grid(1, 1), &orphan_receive_program());
        match m.run() {
            Err(SimError::Deadlock { detail, .. }) => {
                assert!(detail.contains("tile0.proc"), "{detail}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn multicast_route_duplicates_word() {
        // 1x3: middle tile's switch multicasts a word from the west to both
        // its processor and the east neighbour.
        let mut p0 = ProcAsm::new();
        p0.send(Src::Imm(Imm::I(7)));
        p0.halt();
        let mut s0 = SwitchAsm::new();
        s0.route_out(Dir::East);
        s0.halt();

        let mut s1 = SwitchAsm::new();
        s1.route(&[
            (SSrc::Dir(Dir::West), SDst::Proc),
            (SSrc::Dir(Dir::West), SDst::Dir(Dir::East)),
        ]);
        s1.halt();
        let mut p1 = ProcAsm::new();
        p1.recv(Dst::Reg(1));
        p1.store_imm_addr(Src::Reg(1), 0);
        p1.halt();

        let mut s2 = SwitchAsm::new();
        s2.route_in(Dir::West);
        s2.halt();
        let mut p2 = ProcAsm::new();
        p2.recv(Dst::Reg(1));
        p2.store_imm_addr(Src::Reg(1), 0);
        p2.halt();

        let program = MachineProgram {
            tiles: vec![
                TileCode {
                    proc: p0.finish(),
                    switch: s0.finish(),
                },
                TileCode {
                    proc: p1.finish(),
                    switch: s1.finish(),
                },
                TileCode {
                    proc: p2.finish(),
                    switch: s2.finish(),
                },
            ],
        };
        let mut m = Machine::new(MachineConfig::grid(1, 3), &program);
        m.run().expect("completes");
        assert_eq!(m.mem_word(TileId(1), 0), 7);
        assert_eq!(m.mem_word(TileId(2), 0), 7);
    }

    #[test]
    fn dynamic_remote_load_round_trip() {
        // 2 tiles. Tile 1's memory[5] = 1234 (preloaded). Tile 0 issues a
        // DLoad of the global address for (tile 1, local 5) and stores the
        // result locally.
        let config = MachineConfig::grid(1, 2);
        let gaddr = config.make_gaddr(TileId(1), 5);
        let mut p0 = ProcAsm::new();
        p0.dload(Dst::Reg(1), Src::Imm(Imm::I(gaddr as i32)));
        p0.store_imm_addr(Src::Reg(1), 0);
        p0.halt();
        let mut s0 = SwitchAsm::new();
        s0.halt();
        let program = MachineProgram {
            tiles: vec![
                TileCode {
                    proc: p0.finish(),
                    switch: s0.finish(),
                },
                TileCode {
                    proc: vec![crate::isa::PInst::Halt],
                    switch: vec![SInst::Halt],
                },
            ],
        };
        let mut m = Machine::new(config, &program);
        m.set_mem_word(TileId(1), 5, 1234);
        m.run().expect("completes");
        assert_eq!(m.mem_word(TileId(0), 0), 1234);
    }

    #[test]
    fn dynamic_remote_store_round_trip() {
        let config = MachineConfig::grid(2, 2);
        let gaddr = config.make_gaddr(TileId(3), 9);
        let mut p0 = ProcAsm::new();
        p0.dstore(Src::Imm(Imm::I(gaddr as i32)), Src::Imm(Imm::I(4321)));
        // The ack guarantees completion before halt.
        p0.halt();
        let mut tiles = vec![TileCode {
            proc: p0.finish(),
            switch: vec![SInst::Halt],
        }];
        for _ in 1..4 {
            tiles.push(TileCode {
                proc: vec![crate::isa::PInst::Halt],
                switch: vec![SInst::Halt],
            });
        }
        let mut m = Machine::new(config, &MachineProgram { tiles });
        m.run().expect("completes");
        assert_eq!(m.mem_word(TileId(3), 9), 4321);
    }

    #[test]
    fn chaos_does_not_change_results() {
        // The static ordering property (Appendix A) on a small program.
        let base = {
            let mut m = Machine::new(MachineConfig::grid(1, 2), &neighbor_message_program());
            m.run().unwrap();
            m.mem_word(TileId(1), 0)
        };
        for seed in 1..6 {
            let mut m = Machine::new(MachineConfig::grid(1, 2), &neighbor_message_program())
                .with_chaos(ChaosConfig {
                    seed,
                    stall_percent: 40,
                });
            m.run().expect("chaos run completes");
            assert_eq!(m.mem_word(TileId(1), 0), base, "seed {seed}");
        }
    }

    /// A lone processor blocked on a receive nobody sends to.
    pub(crate) fn orphan_receive_program() -> MachineProgram {
        let mut p0 = ProcAsm::new();
        p0.recv(Dst::Reg(1));
        p0.halt();
        MachineProgram {
            tiles: vec![TileCode {
                proc: p0.finish(),
                switch: vec![SInst::Halt],
            }],
        }
    }

    /// Tile 1 blocks on its input port for the full latency of tile 0's
    /// multiply (a port wait over a scoreboard wait), then multiplies the
    /// received word itself and waits out its own scoreboard.
    pub(crate) fn port_and_scoreboard_wait_program() -> MachineProgram {
        let mut p0 = ProcAsm::new();
        p0.bin(
            BinOp::Mul,
            Dst::PortOut,
            Src::Imm(Imm::I(6)),
            Src::Imm(Imm::I(7)),
        );
        p0.halt();
        let mut s0 = SwitchAsm::new();
        s0.route(&[(SSrc::Proc, SDst::Dir(Dir::East))]);
        s0.halt();
        let mut s1 = SwitchAsm::new();
        s1.route(&[(SSrc::Dir(Dir::West), SDst::Proc)]);
        s1.halt();
        let mut p1 = ProcAsm::new();
        p1.recv(Dst::Reg(1));
        p1.bin(BinOp::Mul, Dst::Reg(2), Src::Reg(1), Src::Imm(Imm::I(2)));
        p1.store_imm_addr(Src::Reg(2), 0);
        p1.halt();
        MachineProgram {
            tiles: vec![
                TileCode {
                    proc: p0.finish(),
                    switch: s0.finish(),
                },
                TileCode {
                    proc: p1.finish(),
                    switch: s1.finish(),
                },
            ],
        }
    }

    #[test]
    fn production_stepper_matches_reference() {
        // The root test suites cover compiled workloads; this is the in-crate
        // smoke check on hand-written programs, clean and under chaos.
        for program in [
            neighbor_message_program(),
            port_and_scoreboard_wait_program(),
        ] {
            for seed in [None, Some(3u64), Some(11), Some(19)] {
                let agreed = steppers_agree(&format!("seed {seed:?}"), || {
                    let m = Machine::new(MachineConfig::grid(1, 2), &program);
                    match seed {
                        None => m,
                        Some(seed) => m.with_chaos(ChaosConfig {
                            seed,
                            stall_percent: 40,
                        }),
                    }
                })
                .unwrap();
                assert!(agreed.outcome.is_ok(), "seed {seed:?}");
            }
        }
    }

    #[test]
    fn step_flag_matches_reference_every_cycle() {
        // `step()`'s return value feeds the deadlock detector, and it is the
        // one place where a sleeper's progress under chaos is observable: a
        // scoreboard sleeper counts iff chaos does not stall it that cycle.
        let config = MachineConfig::grid(1, 2);
        let program = port_and_scoreboard_wait_program();
        let mut cases = vec![None];
        for seed in 0..40u64 {
            for stall_percent in [30u32, 60, 90] {
                cases.push(Some(ChaosConfig {
                    seed,
                    stall_percent,
                }));
            }
        }
        for chaos in cases {
            let mut a = Machine::new(config.clone(), &program);
            let mut b = Machine::new(config.clone(), &program).with_reference_stepper();
            if let Some(c) = chaos {
                a = a.with_chaos(c);
                b = b.with_chaos(c);
            }
            while !b.finished() {
                assert!(b.cycle() < 10_000, "{chaos:?}: runaway");
                assert_eq!(a.step(), b.step(), "{chaos:?}: cycle {}", b.cycle() - 1);
            }
            assert!(a.finished(), "{chaos:?}");
            assert_eq!(a.mem_word(TileId(1), 0), 84, "{chaos:?}");
        }
    }

    #[test]
    fn all_timed_waits_is_not_deadlock() {
        // Every component of the machine is simultaneously in a timed wait:
        // the only processor sits out a 12-cycle multiply scoreboard stall and
        // the switch is halted. The activity tracker puts the whole machine to
        // sleep; the deadlock detector must still see progress.
        let mut a = ProcAsm::new();
        a.bin(
            BinOp::Mul,
            Dst::Reg(1),
            Src::Imm(Imm::I(6)),
            Src::Imm(Imm::I(7)),
        );
        a.addi(Dst::Reg(2), Src::Reg(1), 0);
        a.store_imm_addr(Src::Reg(2), 0);
        a.halt();
        let program = MachineProgram {
            tiles: vec![TileCode {
                proc: a.finish(),
                switch: vec![SInst::Halt],
            }],
        };
        let mut m = Machine::new(MachineConfig::grid(1, 1), &program);
        let report = m.run().expect("timed waits must not be deadlock");
        assert_eq!(m.mem_word(TileId(0), 0), 42);
        // Issue mul at 0, add stalls until 12, store at 13, halt at 14.
        assert_eq!(report.cycles, 15);
        assert_eq!(report.stats.tiles[0].stall_reg, 11);
    }

    #[test]
    fn near_deadlock_with_chaos_completes() {
        // Tile 1 blocks on its input port for the full latency of tile 0's
        // multiply — a near-deadlock (long stretch with only timed waits) —
        // while chaos stalls perturb every component. The run must complete
        // with the correct result, not be misreported as deadlock.
        let program = port_and_scoreboard_wait_program();
        for seed in [3u64, 11, 19, 27] {
            let mut m = Machine::new(MachineConfig::grid(1, 2), &program).with_chaos(ChaosConfig {
                seed,
                stall_percent: 50,
            });
            m.run().expect("near-deadlock with chaos completes");
            assert_eq!(m.mem_word(TileId(1), 0), 84, "seed {seed}");
        }
    }

    #[test]
    fn genuine_deadlock_still_detected_with_chaos() {
        // A true deadlock (receive with no sender) must still be reported when
        // chaos stalls are enabled and most components are asleep — at the
        // reference's cycle, with its detail and its statistics.
        let agreed = steppers_agree("orphan under chaos", || {
            Machine::new(MachineConfig::grid(1, 1), &orphan_receive_program()).with_chaos(
                ChaosConfig {
                    seed: 5,
                    stall_percent: 30,
                },
            )
        })
        .unwrap();
        match &agreed.outcome {
            Err(SimError::Deadlock { detail, .. }) => {
                assert!(detail.contains("tile0.proc"), "{detail}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
