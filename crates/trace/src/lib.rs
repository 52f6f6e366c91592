//! **raw-trace** — space-time observability for the Raw reproduction.
//!
//! The simulator's [`EventSink`] interface (see [`raw_machine::trace`]) streams
//! per-cycle events; this crate records them ([`RecordingSink`]), freezes them
//! into a queryable [`Trace`], and renders the reports that make a schedule's
//! behaviour explainable:
//!
//! * a per-tile occupancy / stall breakdown table ([`report::occupancy_table`]),
//! * an ASCII mesh-link utilization heatmap ([`report::link_heatmap`]),
//! * a critical-path walk through the observed trace
//!   ([`report::critical_path`]),
//! * a predicted-vs-observed diff against the scheduler's makespan and
//!   per-tile issue and route counts ([`report::predicted_vs_observed`]),
//! * Chrome-trace JSON export for `chrome://tracing` / Perfetto
//!   ([`chrome::chrome_trace`]), with an in-tree JSON parser ([`json`]) used by
//!   the CI round-trip check.
//!
//! A stall arrives as one [`Event::Stall`] whatever produced it: a cycle
//! range with its chaos share. Every report that counts cycles folds one walk,
//! `Trace::bookings`, that clips each event to its unit's live window, so
//! per-tile accounting and source attribution conserve the same `Σ window` by
//! construction.
//!
//! Recording is strictly observational: a traced run is bit-identical (cycle
//! counts, statistics, final memory) to an untraced one, which
//! [`oracle::check`] — the one lane every differential test and `raw-bench`
//! self-check goes through — asserts clean and at every chaos point.
//!
//! # Example
//!
//! ```
//! use raw_machine::MachineConfig;
//! use rawcc::{compile, CompilerOptions};
//!
//! let bench = raw_benchmarks_demo();
//! # fn raw_benchmarks_demo() -> raw_ir::Program {
//! #     let mut b = raw_ir::builder::ProgramBuilder::new("demo");
//! #     let out = b.var_i32("out", 0);
//! #     let xv = b.var_i32("x", 6);
//! #     let x = b.read_var(xv);
//! #     let y = b.const_i32(7);
//! #     let p = b.mul(x, y);
//! #     b.write_var(out, p);
//! #     b.halt();
//! #     b.finish().unwrap()
//! # }
//! let config = MachineConfig::square(4);
//! let compiled = compile(&bench, &config, &CompilerOptions::default())?;
//! let run = raw_trace::run_traced(&compiled, &bench)?;
//! assert_eq!(run.trace.total_cycles, run.report.cycles);
//! println!("{}", raw_trace::report::occupancy_table(&run.trace));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod annotate;
pub mod chrome;
pub mod json;
pub mod oracle;
pub mod report;

use raw_ir::interp::ExecResult;
use raw_ir::Program;
use raw_machine::isa::RoutePairs;
use raw_machine::trace::{ChannelInfo, EventSink, Stall, StallReason, Unit};
use raw_machine::{Machine, MachineConfig, RunReport, SimError, TileId};
use rawcc::{CoResident, CompiledProgram};

/// One recorded simulator event (see [`EventSink`] for the semantics).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A processor issued (or completed a pending port/dynamic event).
    Issue {
        /// Cycle of the issue.
        cycle: u64,
        /// Issuing tile.
        tile: u32,
        /// Program counter before the step.
        pc: usize,
        /// Result latency of the issued operation.
        latency: u32,
    },
    /// A unit stalled (or was chaos-skipped) over a cycle range.
    Stall(Stall),
    /// A switch fired a `ROUTE`.
    Route {
        /// Cycle of the route.
        cycle: u64,
        /// Routing tile.
        tile: u32,
        /// The route's source→destination pairs.
        pairs: RoutePairs,
        /// Switch program counter of the route instruction.
        pc: usize,
    },
    /// A switch executed a control-flow instruction.
    SwitchControl {
        /// Cycle of the instruction.
        cycle: u64,
        /// Tile.
        tile: u32,
        /// Switch program counter before the step.
        pc: usize,
    },
    /// A channel committed its staged word.
    ChannelCommit {
        /// Cycle of the commit.
        cycle: u64,
        /// Channel id (see [`Trace::channels`]).
        channel: usize,
        /// Queue length after the commit.
        occupancy: usize,
    },
    /// A unit reported idle (halted and drained) from `cycle` on.
    Idle {
        /// First idle cycle.
        cycle: u64,
        /// Tile.
        tile: u32,
        /// Processor or switch.
        unit: Unit,
    },
    /// The dynamic network moved a flit.
    DynActive {
        /// Cycle of the activity.
        cycle: u64,
    },
}

/// An [`EventSink`] that records every event verbatim.
#[derive(Debug, Default)]
pub struct RecordingSink {
    /// Recorded events, in emission order.
    pub events: Vec<Event>,
}

impl RecordingSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for RecordingSink {
    fn issue(&mut self, cycle: u64, tile: u32, pc: usize, latency: u32) {
        self.events.push(Event::Issue {
            cycle,
            tile,
            pc,
            latency,
        });
    }

    fn stall(&mut self, stall: Stall) {
        self.events.push(Event::Stall(stall));
    }

    fn route(&mut self, cycle: u64, tile: u32, pairs: RoutePairs, pc: usize) {
        self.events.push(Event::Route {
            cycle,
            tile,
            pairs,
            pc,
        });
    }

    fn switch_control(&mut self, cycle: u64, tile: u32, pc: usize) {
        self.events.push(Event::SwitchControl { cycle, tile, pc });
    }

    fn channel_commit(&mut self, cycle: u64, channel: usize, occupancy: usize) {
        self.events.push(Event::ChannelCommit {
            cycle,
            channel,
            occupancy,
        });
    }

    fn idle(&mut self, cycle: u64, tile: u32, unit: Unit) {
        self.events.push(Event::Idle { cycle, tile, unit });
    }

    fn dyn_active(&mut self, cycle: u64) {
        self.events.push(Event::DynActive { cycle });
    }
}

/// A frozen, queryable record of one run.
#[derive(Debug)]
pub struct Trace {
    /// Machine configuration of the run.
    pub config: MachineConfig,
    /// Reported cycle count (trailing no-progress cycles excluded).
    pub total_cycles: u64,
    /// Static-network channel topology, indexed by channel id.
    pub channels: Vec<ChannelInfo>,
    /// All recorded events, in emission order.
    pub events: Vec<Event>,
    /// Per tile: first cycle the processor was idle (`u64::MAX` = never).
    pub proc_idle: Vec<u64>,
    /// Per tile: first cycle the switch was idle (`u64::MAX` = never).
    pub switch_idle: Vec<u64>,
}

/// What a unit spent a booked run of cycles on (see [`Trace::bookings`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Activity {
    /// Processor issues (incl. pending-send drains and dynamic completions).
    Issue,
    /// Switch route firings.
    Route,
    /// Switch control-flow instructions.
    Control,
    /// Stalled, or chaos-skipped ([`StallReason::Chaos`]).
    Stall(StallReason),
}

/// Cycles one unit spent on one activity at one pc, inside its live window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Booking {
    /// Tile.
    pub tile: u32,
    /// Processor or switch.
    pub unit: Unit,
    /// Program counter of the instruction the cycles belong to.
    pub pc: usize,
    /// What the cycles were spent on.
    pub activity: Activity,
    /// How many cycles (never zero).
    pub cycles: u64,
}

/// Per-tile accounting derived from a [`Trace`].
///
/// The *window* of a unit is `min(first idle cycle, total_cycles)`: the span
/// in which the unit was live. Within its window every cycle is exactly one of
/// issue / stall / chaos-skip (processors) or route / control / stall /
/// chaos-skip (switches), and one walk clips every event to it, so
/// `issues + Σ proc_stalls == proc_window` and
/// `routes + controls + Σ switch_stalls == switch_window`
/// — the invariant the workspace's property test asserts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileAccount {
    /// Instructions issued (incl. pending-send drains and dynamic completions).
    pub issues: u64,
    /// Routes fired by the switch.
    pub routes: u64,
    /// Control-flow instructions executed by the switch.
    pub controls: u64,
    /// Processor stall cycles by [`StallReason::index`].
    pub proc_stalls: [u64; 5],
    /// Switch stall cycles by [`StallReason::index`].
    pub switch_stalls: [u64; 5],
    /// Cycles the processor was live.
    pub proc_window: u64,
    /// Cycles the switch was live.
    pub switch_window: u64,
}

impl TileAccount {
    /// Total processor stall cycles (all reasons).
    pub fn proc_stall_total(&self) -> u64 {
        self.proc_stalls.iter().sum()
    }

    /// Total switch stall cycles (all reasons).
    pub fn switch_stall_total(&self) -> u64 {
        self.switch_stalls.iter().sum()
    }

    /// Accumulates `other` into `self` (used to aggregate a tile group).
    pub fn absorb(&mut self, other: &TileAccount) {
        self.issues += other.issues;
        self.routes += other.routes;
        self.controls += other.controls;
        for i in 0..self.proc_stalls.len() {
            self.proc_stalls[i] += other.proc_stalls[i];
            self.switch_stalls[i] += other.switch_stalls[i];
        }
        self.proc_window += other.proc_window;
        self.switch_window += other.switch_window;
    }
}

impl Trace {
    /// Freezes a finished traced machine into a [`Trace`].
    ///
    /// Call after [`Machine::run`]; `total_cycles` is the cycle count it
    /// reported.
    pub fn capture(machine: Machine<RecordingSink>, total_cycles: u64) -> Trace {
        let config = machine.config().clone();
        let channels = machine.channel_infos();
        let n = config.n_tiles() as usize;
        let sink = machine.into_sink();
        let mut proc_idle = vec![u64::MAX; n];
        let mut switch_idle = vec![u64::MAX; n];
        for ev in &sink.events {
            if let Event::Idle { cycle, tile, unit } = *ev {
                let slot = match unit {
                    Unit::Proc => &mut proc_idle[tile as usize],
                    Unit::Switch => &mut switch_idle[tile as usize],
                };
                *slot = (*slot).min(cycle);
            }
        }
        Trace {
            config,
            total_cycles,
            channels,
            events: sink.events,
            proc_idle,
            switch_idle,
        }
    }

    /// Number of tiles in the traced machine.
    pub fn n_tiles(&self) -> usize {
        self.config.n_tiles() as usize
    }

    /// The live window (`min(first idle, total_cycles)`) of a tile's unit.
    pub fn window(&self, tile: usize, unit: Unit) -> u64 {
        let idle = match unit {
            Unit::Proc => self.proc_idle[tile],
            Unit::Switch => self.switch_idle[tile],
        };
        idle.min(self.total_cycles)
    }

    /// Every event's cycles inside its unit's live window, as bookings: the
    /// one place the window clip is applied, so any report that sums them
    /// books each live cycle exactly once.
    ///
    /// A stall covers its range, any other unit event its one cycle; the part
    /// at or past the unit's [`window`](Self::window) is dropped. A stall's
    /// chaos share is booked as [`StallReason::Chaos`] and the rest as its
    /// reason. The chaos cycles' positions are not observable, so a clipped
    /// range keeps as much of its share as still fits.
    pub(crate) fn bookings(&self) -> impl Iterator<Item = Booking> + '_ {
        self.events
            .iter()
            .flat_map(move |ev| {
                let at = |tile, unit, pc, activity| Booking {
                    tile,
                    unit,
                    pc,
                    activity,
                    cycles: 0,
                };
                let (event, range, chaos) = match *ev {
                    Event::Issue {
                        cycle, tile, pc, ..
                    } => (
                        at(tile, Unit::Proc, pc, Activity::Issue),
                        cycle..cycle + 1,
                        0,
                    ),
                    Event::Route {
                        cycle, tile, pc, ..
                    } => (
                        at(tile, Unit::Switch, pc, Activity::Route),
                        cycle..cycle + 1,
                        0,
                    ),
                    Event::SwitchControl { cycle, tile, pc } => {
                        let event = at(tile, Unit::Switch, pc, Activity::Control);
                        (event, cycle..cycle + 1, 0)
                    }
                    Event::Stall(s) => {
                        let event = at(s.tile, s.unit, s.pc, Activity::Stall(s.reason));
                        (event, s.from..s.to, s.chaos)
                    }
                    Event::ChannelCommit { .. } | Event::Idle { .. } | Event::DynActive { .. } => {
                        return [None, None];
                    }
                };
                let window = self.window(event.tile as usize, event.unit);
                let live = range.end.min(window).saturating_sub(range.start);
                let chaos = chaos.min(live);
                let book = |activity, cycles| {
                    (cycles > 0).then_some(Booking {
                        activity,
                        cycles,
                        ..event
                    })
                };
                [
                    book(event.activity, live - chaos),
                    book(Activity::Stall(StallReason::Chaos), chaos),
                ]
            })
            .flatten()
    }

    /// Derives per-tile accounting (see [`TileAccount`] for the invariant).
    pub fn accounts(&self) -> Vec<TileAccount> {
        let mut acc: Vec<TileAccount> = (0..self.n_tiles())
            .map(|t| TileAccount {
                proc_window: self.window(t, Unit::Proc),
                switch_window: self.window(t, Unit::Switch),
                ..TileAccount::default()
            })
            .collect();
        for b in self.bookings() {
            let a = &mut acc[b.tile as usize];
            let slot = match (b.activity, b.unit) {
                (Activity::Issue, _) => &mut a.issues,
                (Activity::Route, _) => &mut a.routes,
                (Activity::Control, _) => &mut a.controls,
                (Activity::Stall(r), Unit::Proc) => &mut a.proc_stalls[r.index()],
                (Activity::Stall(r), Unit::Switch) => &mut a.switch_stalls[r.index()],
            };
            *slot += b.cycles;
        }
        acc
    }

    /// Commit count per channel (static-network word traffic).
    pub fn channel_commits(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.channels.len()];
        for ev in &self.events {
            if let Event::ChannelCommit { channel, .. } = *ev {
                counts[channel] += 1;
            }
        }
        counts
    }

    /// Cycles on which the dynamic network was active.
    pub fn dyn_active_cycles(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::DynActive { .. }))
            .count() as u64
    }

    /// Aggregates per-tile accounting over each tile group (e.g. the two
    /// partitions of a co-resident run), attributing issues, routes, and
    /// stalls to the program that owns the tile. Tiles outside every group
    /// (faulty tiles of a merged mesh) are ignored.
    pub fn group_accounts(&self, groups: &[Vec<TileId>]) -> Vec<TileAccount> {
        let per_tile = self.accounts();
        groups
            .iter()
            .map(|tiles| {
                let mut sum = TileAccount::default();
                for t in tiles {
                    sum.absorb(&per_tile[t.index()]);
                }
                sum
            })
            .collect()
    }
}

/// A completed traced run: the frozen trace plus the run report.
#[derive(Debug)]
pub struct TraceRun {
    /// The frozen trace.
    pub trace: Trace,
    /// The simulator's run report.
    pub report: RunReport,
}

/// Compiles nothing — runs an already-compiled program with a recording sink
/// attached and freezes the result.
///
/// # Errors
///
/// Propagates simulation errors ([`SimError`]).
pub fn run_traced(compiled: &CompiledProgram, program: &Program) -> Result<TraceRun, SimError> {
    let mut machine = compiled.instantiate_with_sink(program, RecordingSink::new());
    let report = machine.run()?;
    let trace = Trace::capture(machine, report.cycles);
    Ok(TraceRun { trace, report })
}

/// A traced co-resident run: the shared-mesh trace, each program's final
/// state, and per-program accounting aggregated over the tiles it owns.
#[derive(Debug)]
pub struct CoTraceRun {
    /// The frozen trace of the merged mesh.
    pub trace: Trace,
    /// The simulator's run report (shared cycle clock).
    pub report: RunReport,
    /// Each program's final state, in link order.
    pub results: [ExecResult; 2],
    /// Accounting summed over each program's own tiles.
    pub per_program: [TileAccount; 2],
}

/// Runs a co-resident pair with a recording sink attached and attributes the
/// trace to each program by tile ownership.
///
/// # Errors
///
/// Propagates simulation errors ([`SimError`]).
pub fn run_coresident_traced(
    co: &CoResident,
    progs: [&Program; 2],
) -> Result<CoTraceRun, SimError> {
    let mut machine = co.instantiate_with_sink(progs, RecordingSink::new());
    let report = machine.run()?;
    let results = [
        co.parts[0].extract_result(progs[0], &machine),
        co.parts[1].extract_result(progs[1], &machine),
    ];
    let trace = Trace::capture(machine, report.cycles);
    let groups = trace.group_accounts(&[co.tiles_of(0), co.tiles_of(1)]);
    let per_program = [groups[0], groups[1]];
    Ok(CoTraceRun {
        trace,
        report,
        results,
        per_program,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use raw_ir::builder::ProgramBuilder;
    use rawcc::{compile, CompilerOptions};

    pub(crate) fn demo_program() -> Program {
        let mut b = ProgramBuilder::new("demo");
        let out = b.var_i32("out", 0);
        let xv = b.var_i32("x", 6);
        let x = b.read_var(xv);
        let y = b.const_i32(7);
        let p = b.mul(x, y);
        b.write_var(out, p);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn traced_run_matches_untraced_and_accounts_balance() {
        let program = demo_program();
        let config = MachineConfig::square(4);
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let (_, plain) = compiled.run(&program).unwrap();
        let run = run_traced(&compiled, &program).unwrap();
        assert_eq!(run.report.cycles, plain.cycles);
        assert_eq!(run.report.stats, plain.stats);
        assert_eq!(run.trace.total_cycles, plain.cycles);
        for (t, a) in run.trace.accounts().iter().enumerate() {
            assert_eq!(
                a.issues + a.proc_stall_total(),
                a.proc_window,
                "tile {t} proc accounting"
            );
            assert_eq!(
                a.routes + a.controls + a.switch_stall_total(),
                a.switch_window,
                "tile {t} switch accounting"
            );
        }
    }

    #[test]
    fn channel_topology_covers_mesh() {
        let program = demo_program();
        let config = MachineConfig::grid(2, 2);
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let run = run_traced(&compiled, &program).unwrap();
        // 2 port channels per tile + 2 directed link channels per mesh edge.
        let n_ports = 2 * 4;
        let n_links = 2 * 4; // 4 undirected edges on a 2x2 mesh
        assert_eq!(run.trace.channels.len(), n_ports + n_links);
    }

    #[test]
    fn window_clip_books_only_live_cycles() {
        // One tile, 10 cycles: the processor goes idle at 6, the switch at 4.
        // Ranges straddle both boundaries and one-cycle events sit on and
        // past them; only cycles inside the windows may be booked.
        let stall = |unit, reason, from, to, chaos| {
            Event::Stall(Stall {
                tile: 0,
                unit,
                reason,
                from,
                to,
                chaos,
                pc: 0,
            })
        };
        let issue = |cycle| Event::Issue {
            cycle,
            tile: 0,
            pc: 0,
            latency: 1,
        };
        use StallReason::*;
        let trace = Trace {
            config: MachineConfig::grid(1, 1),
            total_cycles: 10,
            channels: Vec::new(),
            events: vec![
                issue(0),
                issue(1),
                stall(Unit::Proc, Scoreboard, 2, 5, 1),
                // 5..9 straddles the processor window: one cycle is live.
                stall(Unit::Proc, ReceiveEmpty, 5, 9, 0),
                stall(Unit::Proc, Chaos, 6, 7, 0),
                issue(7),
                Event::Route {
                    cycle: 0,
                    tile: 0,
                    pairs: RoutePairs::EMPTY,
                    pc: 0,
                },
                // 1..8 straddles the switch window: three cycles are live,
                // and its chaos share keeps what fits.
                stall(Unit::Switch, SendFull, 1, 8, 5),
                stall(Unit::Switch, Chaos, 9, 10, 0),
                Event::SwitchControl {
                    cycle: 8,
                    tile: 0,
                    pc: 0,
                },
            ],
            proc_idle: vec![6],
            switch_idle: vec![4],
        };
        let a = trace.accounts()[0];
        assert_eq!((a.proc_window, a.switch_window), (6, 4));
        assert_eq!(a.issues, 2);
        assert_eq!(a.proc_stalls, [2, 0, 1, 0, 1]);
        assert_eq!((a.routes, a.controls), (1, 0));
        assert_eq!(a.switch_stalls, [0, 0, 0, 0, 3]);

        let ann = annotate::SourceAnnotation::build(&trace, &rawcc::ProvenanceMap::default());
        assert_eq!(ann.selfcheck(), Ok(10));
        assert_eq!((ann.other.exec, ann.other.routes), (2, 1));
        assert_eq!(ann.other.stalls, [2, 0, 1, 0, 4]);
    }
}
