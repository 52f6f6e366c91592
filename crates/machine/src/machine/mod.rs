//! The whole-machine stepper: tiles, static network, dynamic network.
//!
//! [`Machine::step`] advances every component one cycle. Writes into
//! static-network channels are staged and committed at cycle end, so results do
//! not depend on the order components are stepped in. [`Machine::run`] steps to
//! completion, detecting deadlock (a cycle with no progress while work remains
//! is a fixpoint, hence a true deadlock — unless chaos stalls are enabled, in
//! which case a long no-progress streak is required).
//!
//! # The decoded program
//!
//! Loading translates every tile's code once into flat op tables
//! (`crate::decode`): processor ops with their operands, ALU function and
//! result latency resolved, routes as slices of one port array of channel
//! ids and switch registers. Both steppers execute only those tables, over
//! one slab of channel rings and per-tile register slabs. The loaded
//! [`TileCode`](crate::isa::TileCode) is not kept: [`Machine::reencode`] rebuilds it from the
//! tables (the decode's oracle), and an enabled sink's route events rebuild
//! their pairs the same way.
//!
//! # The two steppers
//!
//! [`Machine::with_reference_stepper`] selects the deliberately naive oracle
//! (`reference.rs`): every component steps every cycle, every channel
//! commits. The default — the one production core (`runsets.rs`) — is
//! *activity tracked*: components that provably cannot act this cycle are
//! not visited at all, and only channels that staged a write are committed.
//! Both step the dynamic network the same way: [`DynNet`] owns every tile's
//! router, endpoint and handler and sweeps them in one pass over its own run
//! set — every tile under the reference, the marked ones under the
//! production core. This file holds what both share: the machine state,
//! loading, the processor and switch steps, stall and dynamic-network
//! booking and the run loop. Its share of DESIGN.md §8's invariants is the
//! table of legal sleep states and their wake conditions:
//!
//! * a **halted** processor (with drained port engine) or switch is dead and
//!   never stepped again;
//! * a processor stalled on the scoreboard, or on anything while its oldest
//!   pending send is still maturing, sleeps until the register's ready cycle
//!   or the send's maturity (an empty-input stall also wakes on a commit on
//!   the switch→processor channel);
//! * a processor stalled on an empty input port (no pending sends) sleeps until
//!   the switch→processor channel commits;
//! * a processor waiting on a remote reference's reply (no pending sends,
//!   empty processor inbox) sleeps until the router delivers a message to
//!   that inbox;
//! * a switch with a stalled route sleeps until the channel that blocked it
//!   commits a word (an empty source) or has a word consumed (a full
//!   destination) — no other channel's event wakes it;
//! * the dynamic network (routers, endpoints and handlers) is skipped while
//!   it is idle: no flit buffered and no tile marked.
//!
//! Who steps is held in two *run sets* (`crates/machine/src/calendar.rs`), one
//! bit per processor and per switch, set exactly while the component is
//! `Active`. A cycle sweeps each set in ascending tile order against the live
//! words, so a wake that sets a bit ahead of the sweep runs this cycle and
//! one behind it runs next cycle — the order a `0..n` scan over the modes
//! would give, without the scan. A timed sleep sets a timer on a calendar
//! wheel; a matured timer sets the bit again, and a stale one (the processor
//! was woken early) falls through the mode check. Per-cycle cost is
//! due timers + active components + `tiles/64` word reads.
//!
//! Sleeping is *observationally identical* to stepping-and-stalling: per-cycle
//! stall statistics for skipped cycles are back-filled on wake (minus the
//! cycles on which chaos stalled the component, counted then — chaos is a pure
//! function of `(seed, component, cycle)`, see [`crate::chaos`]), and the
//! progress flag fed to the deadlock detector is reproduced cycle by cycle (a
//! timed sleep still counts as progress). The oracle
//! ([`crate::oracle`]) asserts that both steppers produce bit-identical cycle
//! counts, statistics, memory and deadlock reports, clean and under chaos.

mod reference;
mod runsets;

use crate::calendar::{CalendarQueue, RunSet};
use crate::channel::Channels;
use crate::chaos::{Chaos, ChaosConfig};
use crate::config::MachineConfig;
use crate::decode::{Port, Program, SOp, Wiring};
use crate::dynnet::{DynNet, DynProgress};
use crate::isa::{Dir, MachineProgram, TileId, Word, MAX_ROUTE_PAIRS};
use crate::memory::LocalMem;
use crate::processor::{ProcOutcome, Processor, TileView};
use crate::stats::{Stats, WorkCounters};
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
    /// Timed wait — a scoreboard stall, or any stall while a port write is
    /// still maturing: nothing can change before `wake_at` except, for a
    /// port stall, a commit on the switch→processor channel.
    SleepReg {
        /// First cycle the processor may act: the blocking register's ready
        /// cycle or the maturing write's, whichever comes first.
        wake_at: u64,
    },
    /// Blocked on an empty input port; woken by a commit on sw→proc.
    SleepPort,
    /// Waiting on a remote load's reply or a remote store's ack with an
    /// empty port engine; woken when the router delivers a message to the
    /// tile's processor inbox.
    SleepDyn,
    /// Halted with the port engine drained; never steps again.
    Dead,
}

/// Activity state of a switch under the production stepper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SwitchMode {
    Active,
    /// Route stalled; woken by an event on the channel that blocked it.
    Sleeping,
    Dead,
}

/// Sleep bookkeeping of one component under the production stepper: its
/// deferred stall accounting and the channel that wakes it.
///
/// `since == u64::MAX` means no debt. Otherwise the component stalled at
/// cycle `since` on `reason` and skipped every cycle after it up to now; the
/// reference stepper would have recorded one stall per cycle of `since..now`
/// *except* those on which chaos stalled it (the reference records only a
/// chaos skip on those), which are counted over the range at settlement. The
/// debt is settled into [`Stats`] and the sink immediately before the
/// component next steps, or at run end.
#[derive(Clone, Copy, Debug)]
struct Sched {
    since: u64,
    reason: StallReason,
    /// While asleep, the channel whose commit or consume wakes it;
    /// [`NO_CHANNEL`] for a timer-only sleep.
    blocked_on: u32,
}

impl Sched {
    const AWAKE: Sched = Sched {
        since: u64::MAX,
        reason: StallReason::Scoreboard,
        blocked_on: NO_CHANNEL,
    };

    fn in_debt(&self) -> bool {
        self.since != u64::MAX
    }
}

/// `Sched::blocked_on` of a component no channel event can wake.
const NO_CHANNEL: u32 = u32::MAX;

/// A processor or a switch: one endpoint of a static-network channel (wake
/// routing), one subject of chaos stalls, and one holder of a sleep debt.
#[derive(Clone, Copy, Debug)]
enum Comp {
    ProcAt(usize),
    SwitchAt(usize),
}

impl Comp {
    /// The component number: the stream fed to [`Chaos::stall`] and the
    /// component's slot in `Machine::sched`.
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
    /// The decoded code both steppers execute; an enabled sink's route
    /// events rebuild their pairs from it.
    prog: Program,
    /// Channel ids of every tile's ports.
    wiring: Wiring,
    procs: Vec<Processor>,
    /// Processor registers, `config.gprs` per tile.
    regs: Vec<Word>,
    /// Cycle from which each processor register is readable (scoreboard).
    ready: Vec<u64>,
    switches: Vec<Switch>,
    /// Switch registers, `config.switch_regs` per tile.
    sregs: Vec<Word>,
    chans: Channels,
    mems: Vec<LocalMem>,
    /// Every tile's router, endpoint and handler, and the run set of the
    /// tiles its sweep visits.
    dynnet: DynNet,
    cycle: u64,
    stats: Stats,
    work: WorkCounters,
    chaos: Option<Chaos>,
    /// Which stepping core `step` dispatches to.
    stepper: Stepper,
    proc_mode: Vec<ProcMode>,
    switch_mode: Vec<SwitchMode>,
    /// Sleep bookkeeping per component, indexed by [`Comp::id`].
    sched: Vec<Sched>,
    /// Reading endpoint of each channel.
    chan_reader: Vec<Comp>,
    /// Writing endpoint of each channel.
    chan_writer: Vec<Comp>,
    /// Channels that staged a write this cycle (the commit list).
    dirty: Vec<usize>,
    /// Channels the last `step_switch` consumed a word from (wake scratch).
    consumed: Vec<usize>,
    /// Processors in mode `Active`, swept in ascending order each cycle.
    proc_run: RunSet,
    /// Switches in mode `Active`.
    switch_run: RunSet,
    /// Processors in mode `SleepReg`: a timed wait counts as progress.
    sleep_reg: RunSet,
    /// `SleepReg` timers: one per episode, at its `wake_at`.
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
    /// As [`Machine::with_sink`].
    pub fn new(config: MachineConfig, program: &MachineProgram) -> Self {
        Machine::with_sink(config, program, NullSink)
    }
}

impl<S: EventSink> Machine<S> {
    /// Builds a machine from a configuration and loads `program`, attaching
    /// `sink` as the event consumer. Loading decodes every tile's code once
    /// into the op tables both steppers execute (`crate::decode`).
    ///
    /// # Panics
    ///
    /// Panics if the mesh has more than [`MAX_TILES`](crate::MAX_TILES)
    /// tiles (a dynamic-network header could not name them all), or if the
    /// program does not provide code for exactly `config.n_tiles()` tiles.
    pub fn with_sink(config: MachineConfig, program: &MachineProgram, sink: S) -> Machine<S> {
        assert!(
            config.within_max_tiles(),
            "a {}x{} mesh exceeds the {}-tile maximum",
            config.rows,
            config.cols,
            crate::MAX_TILES
        );
        let n = config.n_tiles() as usize;
        assert_eq!(program.tiles.len(), n, "program must cover all {n} tiles");
        let mut chan_reader = Vec::new();
        let mut chan_writer = Vec::new();
        let mut alloc = |writer: Comp, reader: Comp| {
            chan_writer.push(writer);
            chan_reader.push(reader);
            chan_writer.len() - 1
        };
        let mut ps = Vec::with_capacity(n);
        let mut sp = Vec::with_capacity(n);
        for t in 0..n {
            ps.push(alloc(Comp::ProcAt(t), Comp::SwitchAt(t)));
            sp.push(alloc(Comp::SwitchAt(t), Comp::ProcAt(t)));
        }
        let mut link_out = vec![[None; 4]; n];
        for (t, out) in link_out.iter_mut().enumerate() {
            for dir in Dir::ALL {
                if let Some(nb) = config.neighbor(TileId(t as u32), dir) {
                    out[dir.index()] = Some(alloc(Comp::SwitchAt(t), Comp::SwitchAt(nb.index())));
                }
            }
        }
        let link_in = (0..n)
            .map(|t| {
                Dir::ALL.map(|d| {
                    config
                        .neighbor(TileId(t as u32), d)
                        .and_then(|nb| link_out[nb.index()][d.opposite().index()])
                })
            })
            .collect();
        let wiring = Wiring {
            ps,
            sp,
            link_out,
            link_in,
            regs: config.switch_regs,
        };
        let prog = Program::decode(&program.tiles, &wiring, &config);
        let mems = (0..n)
            .map(|_| LocalMem::new(config.mem_words as usize))
            .collect();
        Machine {
            stats: Stats::new(n),
            work: WorkCounters::default(),
            procs: (0..n)
                .map(|t| Processor::new(t as u32, prog.proc_code[t], wiring.sp[t], wiring.ps[t]))
                .collect(),
            regs: vec![0; n * config.gprs as usize],
            ready: vec![0; n * config.gprs as usize],
            switches: prog
                .switch_code
                .iter()
                .map(|&code| Switch::new(code))
                .collect(),
            sregs: vec![0; n * config.switch_regs as usize],
            chans: Channels::new(chan_writer.len(), config.port_capacity),
            wiring,
            prog,
            mems,
            dynnet: DynNet::new(
                config.rows,
                config.cols,
                config.dyn_fifo,
                16,
                config.mem_latency,
            ),
            cycle: 0,
            chaos: None,
            stepper: Stepper::RunSets,
            proc_mode: vec![ProcMode::Active; n],
            switch_mode: vec![SwitchMode::Active; n],
            sched: vec![Sched::AWAKE; 2 * n],
            chan_reader,
            chan_writer,
            dirty: Vec::new(),
            consumed: Vec::new(),
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

    /// The program the decoded op tables encode, rebuilt from the tables
    /// alone. The decode is lossless, so this equals the loaded program:
    /// the round trip is the decode's oracle.
    pub fn reencode(&self) -> MachineProgram {
        MachineProgram {
            tiles: self.prog.encode(&self.wiring),
        }
    }

    /// Static description of every static-network channel, indexed by the
    /// channel id used in [`EventSink::channel_commit`] events.
    pub fn channel_infos(&self) -> Vec<ChannelInfo> {
        let mut roles = vec![None; self.chans.count()];
        for t in 0..self.config.n_tiles() as usize {
            roles[self.wiring.ps[t]] = Some(ChannelRole::ProcToSwitch { tile: t as u32 });
            roles[self.wiring.sp[t]] = Some(ChannelRole::SwitchToProc { tile: t as u32 });
            for dir in Dir::ALL {
                if let Some(id) = self.wiring.link_out[t][dir.index()] {
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

    /// How much stepping the run has taken so far (see [`WorkCounters`]).
    /// Kept apart from [`stats`](Self::stats): the two steppers do different
    /// work by design, while their `Stats` must agree bit for bit.
    pub fn work(&self) -> &WorkCounters {
        &self.work
    }

    /// Reads a word of a tile's local memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or past `config.mem_words`.
    pub fn mem_word(&self, tile: TileId, addr: u32) -> Word {
        self.mems[tile.index()]
            .load(addr as usize)
            .unwrap_or_else(|| panic!("tile {tile:?}: address {addr} past the end of memory"))
    }

    /// Writes a word of a tile's local memory (used to preload data).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or past `config.mem_words`.
    pub fn set_mem_word(&mut self, tile: TileId, addr: u32, value: Word) {
        self.mems[tile.index()]
            .store(addr as usize, value)
            .unwrap_or_else(|| panic!("tile {tile:?}: address {addr} past the end of memory"))
    }

    /// A tile's entire local memory, `config.mem_words` words (differential
    /// testing, diagnostics).
    pub fn memory(&self, tile: TileId) -> Vec<Word> {
        self.mems[tile.index()].to_vec()
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
    }

    /// O(1) equivalent of [`finished`](Self::finished) for the production
    /// stepper: a component goes `Dead` exactly when it observes itself
    /// halted. The reference stepper maintains no modes, so it keeps the
    /// full scan.
    fn quiesced(&self) -> bool {
        if self.stepper == Stepper::Reference {
            return self.finished();
        }
        let done = self.live_procs == 0 && self.live_switches == 0 && self.dynnet.is_idle();
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
    #[inline]
    fn chaos_stalls(&self, c: Comp) -> bool {
        self.chaos
            .as_ref()
            .is_some_and(|chaos| chaos.stall(c.id() as u64, self.cycle))
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

    /// Books one step of the dynamic network: a cycle on which a flit moved
    /// is an active cycle. Returns the step's progress flag; a handler
    /// holding a request is a timed wait, so it counts.
    fn book_dyn(&mut self, step: DynProgress) -> bool {
        if step.moved {
            self.stats.dyn_active_cycles += 1;
            if S::ENABLED {
                self.sink.dyn_active(self.cycle);
            }
        }
        step.moved || step.handling
    }

    /// Steps processor `t` one cycle over its decoded code.
    #[inline(always)]
    fn step_proc(&mut self, t: usize) -> ProcOutcome {
        self.work.proc_steps += 1;
        let gprs = self.config.gprs as usize;
        let regs = t * gprs..(t + 1) * gprs;
        let mut tile = TileView {
            ops: &self.prog.pops,
            regs: &mut self.regs[regs.clone()],
            ready: &mut self.ready[regs],
            mem: &mut self.mems[t],
            chans: &mut self.chans,
            dyn_ep: self.dynnet.endpoint_mut(t),
            config: &self.config,
        };
        self.procs[t].step(&mut tile, self.cycle)
    }

    /// Steps switch `t` one cycle over its decoded code. Consumed channel ids
    /// are recorded in `self.consumed`, staged writes are pushed onto
    /// `self.dirty`, and a stalled route leaves the channel that blocked it
    /// in its `Sched::blocked_on` — the whole path is allocation-free after
    /// warm-up.
    ///
    /// # Panics
    ///
    /// Panics if the instruction to execute names a direction without a
    /// neighbour or a switch register the machine does not have.
    #[inline(always)]
    fn step_switch(&mut self, t: usize) -> SwitchOutcome {
        self.work.switch_steps += 1;
        let Machine {
            config,
            prog,
            wiring,
            switches,
            sregs,
            chans,
            stats,
            dirty,
            consumed,
            sched,
            cycle,
            sink,
            ..
        } = self;
        consumed.clear();
        let sw = &mut switches[t];
        if sw.halted {
            return SwitchOutcome::Halted;
        }
        let op = match sw.code.fetch(&prog.sops, sw.pc) {
            Some(SOp::Halt) | None => {
                sw.halted = true;
                return SwitchOutcome::Halted;
            }
            Some(&op) => op,
        };
        let regs = &mut sregs[t * config.switch_regs as usize..][..config.switch_regs as usize];
        match op {
            SOp::Route(route) => {
                let ports = &prog.ports;
                // Readiness of every distinct source, then every destination,
                // in pair order: the first failure blocks the route.
                for p in &ports[route.sources()] {
                    if let Port::Chan(id) = p.port {
                        if !chans.can_read(id.get()) {
                            sched[Comp::SwitchAt(t).id()].blocked_on = id.get() as u32;
                            return SwitchOutcome::Stalled(StallReason::ReceiveEmpty);
                        }
                    }
                }
                for p in &ports[route.pairs()] {
                    if let Port::Chan(id) = p.port {
                        if !chans.can_write(id.get()) {
                            sched[Comp::SwitchAt(t).id()].blocked_on = id.get() as u32;
                            return SwitchOutcome::Stalled(StallReason::SendFull);
                        }
                    }
                }
                // Consume each distinct source once, then fan out.
                let mut vals = [0; MAX_ROUTE_PAIRS];
                for (v, p) in vals.iter_mut().zip(&ports[route.sources()]) {
                    *v = read_source(p.port, chans, consumed, regs);
                }
                for p in &ports[route.pairs()] {
                    let v = vals[p.src as usize];
                    match p.port {
                        Port::Chan(id) => {
                            chans.write(id.get(), v);
                            dirty.push(id.get());
                        }
                        Port::Reg(r) => regs[r as usize] = v,
                    }
                }
                let pc = sw.pc;
                sw.pc += 1;
                stats.tiles[t].switch_routes += 1;
                if S::ENABLED {
                    sink.route(*cycle, t as u32, prog.encode_route(t, route, wiring), pc);
                }
                SwitchOutcome::Progress
            }
            SOp::Fault(i) => panic!("{}", prog.faults[i as usize].1),
            control => {
                let pc = sw.pc;
                sw.pc = match control {
                    SOp::Bnez { reg, target } if regs[reg as usize] != 0 => target as usize,
                    SOp::Beqz { reg, target } if regs[reg as usize] == 0 => target as usize,
                    SOp::Jump(target) => target as usize,
                    _ => pc + 1,
                };
                if S::ENABLED {
                    sink.switch_control(*cycle, t as u32, pc);
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

/// Consumes a route source: a channel's front word (recording the channel
/// in `consumed`) or a switch register.
#[inline(always)]
fn read_source(port: Port, chans: &mut Channels, consumed: &mut Vec<usize>, regs: &[Word]) -> Word {
    match port {
        Port::Chan(id) => {
            consumed.push(id.get());
            chans.read(id.get())
        }
        Port::Reg(r) => regs[r as usize],
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::asm::{ProcAsm, SwitchAsm};
    use crate::isa::{Dst, SDst, SInst, SSrc, Src, TileCode};
    use crate::oracle::steppers_agree;
    use crate::stats::WorkCounters;
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
    #[should_panic(expected = "a 64x64 mesh exceeds the 2048-tile maximum")]
    fn a_machine_past_max_tiles_is_rejected() {
        // A config widened after `MachineConfig::grid` checked it: its tile
        // indices would truncate in the 11-bit header fields.
        let mut config = MachineConfig::grid(1, 1);
        (config.rows, config.cols) = (64, 64);
        let halt = TileCode {
            proc: vec![crate::isa::PInst::Halt],
            switch: vec![SInst::Halt],
        };
        Machine::new(
            config,
            &MachineProgram {
                tiles: vec![halt; 4096],
            },
        );
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

    /// Homes of the pointer chain [`remote_chain_machine`] follows. Tile 0
    /// is one of them: its request reaches its own handler while its
    /// processor sleeps.
    const CHAIN_HOMES: [u32; 5] = [7, 0, 5, 3, 6];

    /// Tile 0 of a 2x4 mesh follows a pointer chain through the memories of
    /// [`CHAIN_HOMES`] (each loaded word is the global address of the next,
    /// the last is 4242), stores the last word to tile 4 and to its own
    /// memory, and halts; every other tile halts at once.
    fn remote_chain_machine() -> Machine {
        let config = MachineConfig::grid(2, 4);
        let node = |i: usize| config.make_gaddr(TileId(CHAIN_HOMES[i]), 2 + i as u32);
        let mut p0 = ProcAsm::new();
        p0.dload(Dst::Reg(1), Src::Imm(Imm::I(node(0) as i32)));
        for _ in 1..CHAIN_HOMES.len() {
            p0.dload(Dst::Reg(1), Src::Reg(1));
        }
        let last = config.make_gaddr(TileId(4), 9);
        p0.dstore(Src::Imm(Imm::I(last as i32)), Src::Reg(1));
        p0.store_imm_addr(Src::Reg(1), 0);
        p0.halt();
        let mut tiles = vec![TileCode {
            proc: p0.finish(),
            switch: vec![SInst::Halt],
        }];
        tiles.resize(
            8,
            TileCode {
                proc: vec![crate::isa::PInst::Halt],
                switch: vec![SInst::Halt],
            },
        );
        let mut m = Machine::new(config.clone(), &MachineProgram { tiles });
        for (i, &home) in CHAIN_HOMES.iter().enumerate() {
            let next = if i + 1 < CHAIN_HOMES.len() {
                node(i + 1)
            } else {
                4242
            };
            m.set_mem_word(TileId(home), 2 + i as u32, next);
        }
        m
    }

    #[test]
    fn a_processor_sleeps_through_its_remote_round_trips() {
        // Each request (five loads, one store) costs the issue, one stalled
        // step that puts the processor to sleep, and the step that pops the
        // reply its delivery woke it for — not one step per cycle of the
        // round trip. A request delivered to the sleeper's own handler does
        // not wake it.
        let mut m = remote_chain_machine();
        m.run().unwrap();
        assert_eq!(m.mem_word(TileId(0), 0), 4242);
        assert_eq!(m.mem_word(TileId(4), 9), 4242);
        let requests = CHAIN_HOMES.len() as u64 + 1;
        let waited = m.stats().tiles[0].stall_dynamic;
        assert!(waited > 4 * requests, "round trips of {waited} cycles");
        let issued: u64 = m.stats().tiles.iter().map(|t| t.proc_insts).sum();
        let work = *m.work();
        assert!(
            work.proc_steps <= issued + requests,
            "{} steps for {issued} issues and {requests} requests",
            work.proc_steps
        );
        assert_eq!(work.restalls, 0);
        steppers_agree("remote chain", remote_chain_machine).unwrap();
        let chaos = ChaosConfig {
            seed: 7,
            stall_percent: 30,
        };
        steppers_agree("remote chain under chaos", || {
            remote_chain_machine().with_chaos(chaos)
        })
        .unwrap();
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

    /// Tile 0 issues two 12-cycle multiplies into its output port, so its
    /// port engine holds two maturing sends while it waits on a receive
    /// (the word from tile 1 arrives first), then stalls on a full pending
    /// queue, and halts with sends still maturing: every stall a processor
    /// may now sleep through on the maturing send's timer.
    pub(crate) fn maturing_send_program() -> MachineProgram {
        let mut p0 = ProcAsm::new();
        for x in [6, 7] {
            p0.bin(
                BinOp::Mul,
                Dst::PortOut,
                Src::Imm(Imm::I(x)),
                Src::Imm(Imm::I(x)),
            );
        }
        p0.recv(Dst::Reg(1));
        p0.addi(Dst::PortOut, Src::Reg(1), 1);
        p0.bin(BinOp::Mul, Dst::PortOut, Src::Reg(1), Src::Imm(Imm::I(3)));
        p0.halt();
        let mut s0 = SwitchAsm::new();
        s0.route_in(Dir::East);
        for _ in 0..4 {
            s0.route_out(Dir::East);
        }
        s0.halt();
        let mut s1 = SwitchAsm::new();
        s1.route_out(Dir::West);
        for _ in 0..4 {
            s1.route_in(Dir::West);
        }
        s1.halt();
        let mut p1 = ProcAsm::new();
        p1.send(Src::Imm(Imm::I(5)));
        for addr in 0..4 {
            p1.recv(Dst::Reg(1));
            p1.store_imm_addr(Src::Reg(1), addr);
        }
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
    fn maturing_send_sleeps_agree_with_reference() {
        let config = MachineConfig::grid(1, 2);
        let program = maturing_send_program();
        let mut m = Machine::new(config.clone(), &program);
        m.run().unwrap();
        assert_eq!(
            (0..4).map(|a| m.mem_word(TileId(1), a)).collect::<Vec<_>>(),
            [36, 49, 6, 15]
        );
        assert!(m.work().timers_popped > 0, "no maturing-send sleep taken");
        let mut cases = vec![None];
        cases.extend(
            ChaosConfig::sweep(raw_testkit::Rng::new(0x3A7_0E5D).take(8), &[10, 40, 80])
                .into_iter()
                .map(Some),
        );
        for chaos in cases {
            let build = || {
                let m = Machine::new(config.clone(), &program);
                match chaos {
                    Some(c) => m.with_chaos(c),
                    None => m,
                }
            };
            steppers_agree(&format!("{chaos:?}"), build).unwrap();
            // The progress flag too: a maturing-send sleeper counts as
            // progress on every cycle chaos does not stall it.
            let (mut a, mut b) = (build(), build().with_reference_stepper());
            while !b.finished() {
                assert!(b.cycle() < 10_000, "{chaos:?}: runaway");
                assert_eq!(a.step(), b.step(), "{chaos:?}: cycle {}", b.cycle() - 1);
            }
        }
    }

    /// Tiles 0 and 2 of a 1x3 row send one word each to tile 1, whose switch
    /// takes both in one route: tile 2's word (a 12-cycle multiply) first,
    /// tile 0's (a plain send) second.
    fn two_source_route_program() -> MachineProgram {
        let mut p0 = ProcAsm::new();
        p0.send(Src::Imm(Imm::I(3)));
        p0.halt();
        let mut s0 = SwitchAsm::new();
        s0.route_out(Dir::East);
        s0.halt();
        let mut s1 = SwitchAsm::new();
        s1.route(&[
            (SSrc::Dir(Dir::East), SDst::Proc),
            (SSrc::Dir(Dir::West), SDst::Reg(0)),
        ]);
        s1.halt();
        let mut p1 = ProcAsm::new();
        p1.recv(Dst::Reg(1));
        p1.store_imm_addr(Src::Reg(1), 0);
        p1.halt();
        let mut p2 = ProcAsm::new();
        p2.bin(
            BinOp::Mul,
            Dst::PortOut,
            Src::Imm(Imm::I(6)),
            Src::Imm(Imm::I(7)),
        );
        p2.halt();
        let mut s2 = SwitchAsm::new();
        s2.route_out(Dir::West);
        s2.halt();
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
                TileCode {
                    proc: p2.finish(),
                    switch: s2.finish(),
                },
            ],
        }
    }

    #[test]
    fn a_two_source_route_sleeps_through_its_first_word() {
        // Tile 1's route blocks on its first source (the late word) and
        // sleeps on that channel only: the early word's commit does not wake
        // it, so the route steps exactly twice — the stall and the firing.
        // Every switch takes three steps: stall, route, halt.
        let program = two_source_route_program();
        let config = MachineConfig::grid(1, 3);
        let snapshot =
            steppers_agree("two sources", || Machine::new(config.clone(), &program)).unwrap();
        let mut m = Machine::new(config, &program);
        m.run().unwrap();
        assert_eq!(m.mem_word(TileId(1), 0), 42);
        assert_eq!(m.stats(), &snapshot.stats);
        assert_eq!(m.work().switch_steps, 3 * 3);
        assert_eq!(m.work().restalls, 0);
    }

    /// A one-pair switch route.
    fn route(pair: (SSrc, SDst)) -> SInst {
        SInst::Route([pair].into_iter().collect())
    }

    /// Loads `faulty`, an instruction the 1x1 mesh cannot execute, behind
    /// `first` and checks that it is harmless until the switch reaches it,
    /// then panics with `message` under both steppers.
    fn assert_switch_fault(faulty: SInst, message: &str) {
        let config = MachineConfig::grid(1, 1);
        let program = |first| MachineProgram {
            tiles: vec![TileCode {
                proc: vec![crate::isa::PInst::Halt],
                switch: vec![first, faulty, SInst::Halt],
            }],
        };
        // Loading decodes the instruction; a switch that halts first never
        // runs it, and the decode still round-trips it.
        let unreached = program(SInst::Halt);
        let agreed =
            steppers_agree("unreached", || Machine::new(config.clone(), &unreached)).unwrap();
        assert!(agreed.outcome.is_ok());
        let loaded = Machine::new(config.clone(), &unreached);
        assert_eq!(loaded.reencode(), unreached);
        // Executed, it panics with its message, under both steppers.
        for reference in [false, true] {
            let mut m = Machine::new(config.clone(), &program(SInst::Nop));
            if reference {
                m = m.with_reference_stepper();
            }
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run()))
                .expect_err("the instruction must panic");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some(message),
                "{faulty:?}"
            );
        }
    }

    #[test]
    fn a_route_to_a_missing_neighbour_panics_only_when_it_executes() {
        assert_switch_fault(
            route((SSrc::Proc, SDst::Dir(Dir::North))),
            "tile0 switch routes to North but there is no neighbour",
        );
        assert_switch_fault(
            route((SSrc::Dir(Dir::West), SDst::Proc)),
            "tile0 switch routes from West but there is no neighbour",
        );
    }

    #[test]
    fn a_missing_switch_register_panics_only_when_it_executes() {
        // The 1x1 mesh has switch registers r0..r7.
        let message =
            |reg| format!("tile0 switch names register r{reg} but has only 8 switch registers");
        assert_switch_fault(route((SSrc::Reg(8), SDst::Proc)), &message(8));
        assert_switch_fault(route((SSrc::Proc, SDst::Reg(8))), &message(8));
        assert_switch_fault(SInst::Bnez { reg: 8, target: 0 }, &message(8));
        assert_switch_fault(
            SInst::Beqz {
                reg: 255,
                target: 0,
            },
            &message(255),
        );
    }

    #[test]
    fn reading_the_work_counters_changes_nothing() {
        // The counters are host-side bookkeeping: a run whose counters are
        // read every cycle ends with the cycles, statistics and memory of one
        // whose counters are never read. The remote chain drives the dynamic
        // network's sweep, so its visits are read too.
        let builds: [fn() -> Machine; 3] = [
            || Machine::new(MachineConfig::grid(1, 2), &maturing_send_program()),
            || {
                Machine::new(
                    MachineConfig::grid(1, 2),
                    &port_and_scoreboard_wait_program(),
                )
            },
            remote_chain_machine,
        ];
        for build in builds {
            let mut read = build();
            let mut seen = WorkCounters::default();
            while !read.finished() {
                read.step();
                let now = *read.work();
                assert!(now.proc_steps >= seen.proc_steps && now.switch_steps >= seen.switch_steps);
                assert!(now.dyn_visits >= seen.dyn_visits);
                assert!(now.dyn_idle_visits >= seen.dyn_idle_visits);
                assert!(now.dyn_idle_visits <= now.dyn_visits);
                seen = now;
            }
            let (read, unread) = (
                crate::oracle::Snapshot::run(&mut read),
                crate::oracle::Snapshot::run(&mut build()),
            );
            assert_eq!(read.first_difference(&unread), None);
            assert_eq!(read.outcome, unread.outcome);
        }
        let mut chain = remote_chain_machine();
        chain.run().unwrap();
        assert!(chain.work().dyn_visits > chain.work().dyn_idle_visits);
    }

    #[test]
    fn the_decode_round_trips_every_hand_written_program() {
        for (program, config) in [
            (neighbor_message_program(), MachineConfig::grid(1, 2)),
            (
                port_and_scoreboard_wait_program(),
                MachineConfig::grid(1, 2),
            ),
            (maturing_send_program(), MachineConfig::grid(1, 2)),
            (two_source_route_program(), MachineConfig::grid(1, 3)),
            (orphan_receive_program(), MachineConfig::grid(1, 1)),
        ] {
            let m = Machine::new(config.with_unit_latency(), &program);
            assert_eq!(format!("{:?}", m.reencode()), format!("{program:?}"));
        }
    }

    #[test]
    fn switch_control_flow_follows_its_registers() {
        // The switch latches two words from its processor into registers and
        // branches on them: `bnez` and `beqz` taken and not taken, a jump,
        // and a stream that ends without `halt`. A wrong turn routes an extra
        // word or the wrong one.
        let mut p = ProcAsm::new();
        p.send(Src::Imm(Imm::I(1)));
        p.send(Src::Imm(Imm::I(0)));
        p.recv(Dst::Reg(1));
        p.store_imm_addr(Src::Reg(1), 0);
        p.halt();
        let switch = vec![
            route((SSrc::Proc, SDst::Reg(2))),
            SInst::Bnez { reg: 2, target: 3 },
            route((SSrc::Reg(3), SDst::Proc)),
            route((SSrc::Proc, SDst::Reg(3))),
            SInst::Beqz { reg: 3, target: 6 },
            route((SSrc::Reg(3), SDst::Proc)),
            SInst::Bnez { reg: 3, target: 5 },
            route((SSrc::Reg(2), SDst::Proc)),
            SInst::Jump(10),
            route((SSrc::Reg(3), SDst::Proc)),
        ];
        let program = MachineProgram {
            tiles: vec![TileCode {
                proc: p.finish(),
                switch,
            }],
        };
        let config = MachineConfig::grid(1, 1);
        let agreed =
            steppers_agree("switch control", || Machine::new(config.clone(), &program)).unwrap();
        assert!(agreed.outcome.is_ok(), "{:?}", agreed.outcome);
        assert_eq!(agreed.memory[0][0], 1);
        assert_eq!(agreed.stats.tiles[0].switch_routes, 3);
    }
}
