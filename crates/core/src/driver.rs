//! End-to-end compilation driver: orchestrate every basic block, allocate
//! registers, and link per-tile instruction streams into a loadable
//! [`MachineProgram`].
//!
//! Control flow is *orchestrated globally*: every switch follows the
//! program's control flow in lock-step order (not lock-step time), and so does
//! every processor with work in a branch's region. For a conditional branch,
//! the tile that computes the condition broadcasts it over the static network
//! on a dimension-ordered multicast tree; every switch latches it into a
//! register and branches on that (paper §3.1's switch is a sequencer with its
//! own branches), and every processor that has work before the branches
//! rejoin branches on the received word (`bnez PortIn`). The link step and its
//! invariants live in [`crate::link`].

use crate::blockcache::{self, BlockBundle, BlockCache, Fetched, KeyContext};
use crate::codegen::{self, TileBlockCode};
use crate::exact;
use crate::layout::{initial_memory_images, DataLayout};
use crate::link::{self, linked_terminator};
use crate::options::{CompilerOptions, Strategy};
use crate::partition::{self, Partition};
use crate::provenance::{self, ProvRecord, ProvenanceMap, NO_PROV};
use crate::regalloc;
use crate::schedule;
use crate::taskgraph::{self, TaskGraph};
use raw_ir::interp::ExecResult;
use raw_ir::{Block, Imm, Program, Terminator};
use raw_machine::trace::EventSink;
use raw_machine::{Machine, MachineConfig, MachineProgram, RunReport, SimError, TileCode, TileId};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compilation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The machine's tile count must be a power of two (low-order interleaving).
    TileCountNotPowerOfTwo {
        /// The offending tile count.
        n_tiles: u32,
    },
    /// With a faulty mask, the number of *live* tiles must be a nonzero power
    /// of two (see [`MachineConfig::mask_to_pow2`] for padding a dead set).
    LiveTileCountNotPowerOfTwo {
        /// The offending live-tile count.
        n_live: u32,
    },
    /// The faulty mask names a tile outside the mesh.
    FaultyMaskOutOfRange {
        /// The offending tile.
        tile: u32,
    },
    /// The faulty mask splits the live tiles into disconnected islands, so no
    /// static route can join them.
    FaultyMeshDisconnected,
    /// Co-residency link: the two programs target different mesh shapes.
    CoResidentMeshMismatch,
    /// Co-residency link: a tile is live in both programs.
    CoResidentOverlap {
        /// The doubly-claimed tile.
        tile: u32,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TileCountNotPowerOfTwo { n_tiles } => {
                write!(f, "tile count {n_tiles} is not a power of two")
            }
            CompileError::LiveTileCountNotPowerOfTwo { n_live } => {
                write!(f, "live tile count {n_live} is not a nonzero power of two")
            }
            CompileError::FaultyMaskOutOfRange { tile } => {
                write!(f, "faulty mask names tile {tile}, outside the mesh")
            }
            CompileError::FaultyMeshDisconnected => {
                write!(f, "faulty mask disconnects the live mesh")
            }
            CompileError::CoResidentMeshMismatch => {
                write!(f, "co-resident programs target different mesh shapes")
            }
            CompileError::CoResidentOverlap { tile } => {
                write!(f, "tile {tile} is live in both co-resident programs")
            }
        }
    }
}

impl Error for CompileError {}

/// Per-block compilation metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockReport {
    /// Task-graph size.
    pub n_nodes: usize,
    /// Clusters after the clustering phase.
    pub n_clusters: usize,
    /// Scheduled communication paths.
    pub n_comm_paths: usize,
    /// Estimated schedule length in cycles.
    pub makespan: u64,
    /// Virtual registers spilled, summed over tiles.
    pub spills: usize,
    /// Per tile: the schedule's processor issues and route firings (for
    /// observed-trace diffing).
    pub predicted: Vec<TileCounts>,
    /// The placement phase's accepted-swap audit log.
    pub placement: partition::PlacementLog,
    /// Which lane shipped the schedule (`None` for the plain heuristic
    /// strategy, which runs no solver).
    pub lane: Option<exact::Lane>,
    /// The exact solver's search summary, when the strategy ran it.
    pub exact: Option<exact::ExactReport>,
}

/// One tile's share of a block's schedule: its scheduled processor issues
/// and switch route firings, one straight-line pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileCounts {
    /// Processor slots (computations, sends and receives).
    pub issues: u32,
    /// Switch route firings.
    pub routes: u32,
}

/// Wall-clock time spent in each compiler phase, summed over all blocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Lowering: task-graph construction from the IR block.
    pub lower: Duration,
    /// Partitioning: clustering + merging (placement reported separately).
    pub partition: Duration,
    /// Placement: mapping merged partitions onto physical tiles.
    pub place: Duration,
    /// Event scheduling (list scheduler + comm-path reservation).
    pub schedule: Duration,
    /// Code generation from the schedule.
    pub codegen: Duration,
    /// Register allocation over all tiles.
    pub regalloc: Duration,
    /// Linking per-tile streams and branch broadcasts.
    pub link: Duration,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.rows().iter().map(|&(_, d)| d).sum()
    }

    /// `(name, duration)` rows in pipeline order. The names are the daemon's
    /// phase-histogram labels after its service-side `parse`, so the daemon
    /// books these rows in order.
    pub fn rows(&self) -> [(&'static str, Duration); 7] {
        let durations = [
            self.lower,
            self.partition,
            self.place,
            self.schedule,
            self.codegen,
            self.regalloc,
            self.link,
        ];
        std::array::from_fn(|i| (raw_telemetry::SPAN_PHASE_NAMES[i + 1], durations[i]))
    }

    /// Adds another timing record field-wise (summing per-block timings; with
    /// several workers the sum exceeds the compile's wall-clock time).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.lower += other.lower;
        self.partition += other.partition;
        self.place += other.place;
        self.schedule += other.schedule;
        self.codegen += other.codegen;
        self.regalloc += other.regalloc;
        self.link += other.link;
    }
}

/// Whole-program compilation metrics.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    /// Per-block metrics, indexed by block.
    pub blocks: Vec<BlockReport>,
    /// Per-phase compile timings, summed over blocks (with several workers the
    /// per-phase sum exceeds [`wall`](Self::wall)).
    pub timings: PhaseTimings,
    /// Worker threads the per-block fan-out actually used.
    pub threads: usize,
    /// Block-cache effectiveness for this compile: one miss per distinct
    /// block key at any worker count, since concurrent requests for a key
    /// single-flight onto one compile.
    pub cache: blockcache::CacheStats,
    /// Whether each block was served from the cache.
    pub block_cached: Vec<bool>,
    /// Content-addressed cache key of each block, in block order: the link
    /// between a compile and the cache entries it touched.
    pub block_keys: Vec<blockcache::CacheKey>,
    /// End-to-end wall-clock time of the compile.
    pub wall: Duration,
}

impl CompileReport {
    /// Total spills over all blocks and tiles.
    pub fn total_spills(&self) -> usize {
        self.blocks.iter().map(|b| b.spills).sum()
    }

    /// Largest task graph compiled.
    pub fn max_block_nodes(&self) -> usize {
        self.blocks.iter().map(|b| b.n_nodes).max().unwrap_or(0)
    }

    /// Sum of predicted block makespans — the scheduler's estimate of one
    /// straight-line pass over the program (loops executed once).
    pub fn predicted_makespan(&self) -> u64 {
        self.blocks.iter().map(|b| b.makespan).sum()
    }
}

/// A compiled program plus everything needed to load, run, and read it back.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Per-tile instruction streams.
    pub machine_program: MachineProgram,
    /// Data layout used (homes, bases, classification).
    pub layout: DataLayout,
    /// Machine configuration compiled for.
    pub config: MachineConfig,
    /// Compilation metrics.
    pub report: CompileReport,
    /// Source-provenance tables joining machine pcs back to IR values and
    /// source spans (see [`crate::provenance`]).
    pub provenance: ProvenanceMap,
}

impl CompiledProgram {
    /// Creates a machine and loads this program's initial memory image.
    pub fn instantiate(&self, program: &Program) -> Machine {
        self.instantiate_with_sink(program, raw_machine::trace::NullSink)
    }

    /// Like [`instantiate`](Self::instantiate), but attaches `sink` as the
    /// machine's event consumer (see [`raw_machine::trace`]).
    pub fn instantiate_with_sink<S: EventSink>(&self, program: &Program, sink: S) -> Machine<S> {
        let mut machine = Machine::with_sink(self.config.clone(), &self.machine_program, sink);
        self.load_memory(program, &mut machine);
        // Under a faulty mask, dynamic references interleave over the live
        // tiles in slot order rather than the default physical interleave.
        if !self.layout.identity_homes() {
            for &t in &self.layout.live {
                machine.set_tile_dyn_homes(t, self.layout.live.clone());
            }
        }
        machine
    }

    /// Writes `program`'s initial memory image, laid out as this program
    /// was compiled, into `machine`.
    fn load_memory<S: EventSink>(&self, program: &Program, machine: &mut Machine<S>) {
        for (tile, words) in initial_memory_images(program, &self.layout)
            .into_iter()
            .enumerate()
        {
            for (addr, value) in words {
                machine.set_mem_word(TileId::from_raw(tile as u32), addr, value);
            }
        }
    }

    /// Reads the machine-visible final state (variables from their home tiles,
    /// arrays gathered across the interleaved memories) in the same format as
    /// the reference interpreter, for bit-exact comparison.
    pub fn extract_result<S: EventSink>(
        &self,
        program: &Program,
        machine: &Machine<S>,
    ) -> ExecResult {
        let vars = program
            .vars
            .iter()
            .enumerate()
            .map(|(i, decl)| {
                let v = raw_ir::VarId::from_raw(i as u32);
                let bits = machine.mem_word(self.layout.var_home(v), self.layout.var_addr(v));
                Imm::from_bits(bits, decl.ty)
            })
            .collect();
        let arrays = program
            .arrays
            .iter()
            .enumerate()
            .map(|(i, decl)| {
                let a = raw_ir::ArrayId::from_raw(i as u32);
                (0..decl.len())
                    .map(|k| {
                        machine
                            .mem_word(self.layout.element_home(k), self.layout.element_local(a, k))
                    })
                    .collect()
            })
            .collect();
        ExecResult {
            vars,
            arrays,
            array_tys: program.arrays.iter().map(|a| a.ty).collect(),
            blocks_executed: 0,
            insts_executed: 0,
        }
    }

    /// Loads, runs, and reads back in one call.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors ([`SimError`]).
    pub fn run(&self, program: &Program) -> Result<(ExecResult, RunReport), SimError> {
        let mut machine = self.instantiate(program);
        let report = machine.run()?;
        Ok((self.extract_result(program, &machine), report))
    }
}

/// FNV over the full per-tile instruction streams: equal hash ⇔ equal asm
/// for all practical purposes. This is the `asm_hash=` every `raw-bench`
/// subcommand prints and `tests/golden/asm_hashes.txt` pins.
pub fn asm_hash(machine_program: &MachineProgram) -> u64 {
    raw_testkit::hash64(format!("{machine_program:?}").as_bytes())
}

/// Compiles `program` for `config` with the paper's full orchestration
/// pipeline (space-time scheduling).
///
/// # Errors
///
/// Returns [`CompileError`] for unsupported machine shapes.
pub fn compile(
    program: &Program,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    compile_with_cache(program, config, options, &BlockCache::in_memory())
}

/// Compiles `program` sequentially for a single tile — the stand-in for the
/// paper's baseline MIPS compiler (Machine-SUIF), against which speedups are
/// measured.
///
/// The baseline schedules each basic block with **source-order priority**: it
/// overlaps functional-unit latencies (as any competent sequential compiler
/// does) but keeps instructions close to program order, so live ranges — and
/// hence spills — stay near the source program's. This is the contrast the
/// paper draws in §4.2/§6: RAWCC's parallelism-maximising scheduler inflates
/// register pressure, which costs it on a single tile (fpppp-kernel).
///
/// # Errors
///
/// Returns [`CompileError`] for unsupported machine shapes.
pub fn compile_baseline(
    program: &Program,
    config: &MachineConfig,
) -> Result<CompiledProgram, CompileError> {
    assert_eq!(
        config.n_tiles(),
        1,
        "the baseline compiler targets a single tile"
    );
    let options = CompilerOptions {
        priority: crate::options::PriorityScheme::SourceOrder,
        ..Default::default()
    };
    compile_with_cache(program, config, &options, &BlockCache::in_memory())
}

/// Resolves the worker-thread count: the explicit option, or
/// [`std::thread::available_parallelism`] when it is 0.
fn resolve_threads(options: &CompilerOptions) -> usize {
    if options.threads > 0 {
        return options.threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One heuristic lane: partition + placement + event schedule under
/// `options`, with phase times folded into `timings`.
fn heuristic_lane(
    graph: &TaskGraph,
    config: &MachineConfig,
    options: &CompilerOptions,
    timings: &mut PhaseTimings,
) -> (Partition, schedule::BlockSchedule) {
    let phase_start = Instant::now();
    let (part, place_time) = partition::partition_timed(graph, config, options);
    timings.partition += phase_start.elapsed().saturating_sub(place_time);
    timings.place += place_time;
    let phase_start = Instant::now();
    let sched = schedule::schedule(graph, &part, config, options);
    timings.schedule += phase_start.elapsed();
    (part, sched)
}

/// Maps one block onto the mesh per [`CompilerOptions::strategy`]: the
/// heuristic pipeline, or the exact solver seeded with its result. Exact
/// solver time is accounted to the `place` phase bucket.
fn map_block(
    graph: &TaskGraph,
    config: &MachineConfig,
    options: &CompilerOptions,
    timings: &mut PhaseTimings,
) -> (
    Partition,
    schedule::BlockSchedule,
    Option<exact::Lane>,
    Option<exact::ExactReport>,
) {
    let (part, sched) = heuristic_lane(graph, config, options, timings);
    match options.strategy {
        Strategy::Heuristic => (part, sched, None, None),
        Strategy::Exact | Strategy::Portfolio { .. } => {
            let phase_start = Instant::now();
            let res = exact::solve(graph, config, options, part, sched);
            timings.place += phase_start.elapsed();
            let lane = if res.improved {
                exact::Lane::Exact
            } else {
                exact::Lane::Greedy
            };
            (res.partition, res.schedule, Some(lane), Some(res.report))
        }
    }
}

/// Debug invariant: every virtual-register source in generated code is
/// defined earlier in the same stream (catches fold/scheduler ordering bugs).
#[cfg(debug_assertions)]
fn check_vcode_defs(vcode: &[TileBlockCode]) {
    for (t, c) in vcode.iter().enumerate() {
        let mut defined = vec![false; c.n_vregs as usize];
        for (pos, inst) in c.insts.iter().enumerate() {
            for s in inst.sources() {
                if let raw_machine::isa::Src::Reg(r) = s {
                    assert!(
                        defined[r as usize],
                        "tile {t} pos {pos}: use of v{r} before def: {inst:?}"
                    );
                }
            }
            if let Some(raw_machine::isa::Dst::Reg(r)) = inst.dst() {
                defined[r as usize] = true;
            }
        }
    }
}

/// Compiles one basic block end-to-end (task graph → partition → placement →
/// event schedule → codegen → regalloc) into a position-independent
/// [`BlockBundle`], plus the wall-clock time spent per phase.
///
/// This function is **pure**: the bundle depends only on the block, the
/// layout, the machine config and the options — no shared mutable state, no
/// environment, no compile-order coupling. Purity is what makes the
/// block-level fan-out in [`compile_with_cache`] and the content-addressed
/// [`BlockCache`] sound; `tests/parallel_determinism.rs` enforces it end to
/// end.
pub fn compile_block(
    block: &Block,
    layout: &DataLayout,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> (BlockBundle, PhaseTimings) {
    let mut timings = PhaseTimings::default();

    let phase_start = Instant::now();
    let graph = TaskGraph::build(block, layout, config);
    timings.lower += phase_start.elapsed();
    debug_assert!(graph.order_edges_colocated());

    let (part, sched, lane, exact_report) = map_block(&graph, config, options, &mut timings);
    let assignment = &part.assignment;

    let node_tile: Vec<u32> = assignment.iter().map(|t| t.index() as u32).collect();
    let node_bin: Vec<u32> = (0..graph.len())
        .map(|i| {
            part.bin_of_node
                .get(i)
                .map(|&x| x as u32)
                .unwrap_or(u32::MAX)
        })
        .collect();

    // Branch condition producer.
    let branch_cond = match linked_terminator(block) {
        Terminator::Branch { cond, .. } => Some((cond, assignment[graph.def_of[&cond]])),
        _ => None,
    };

    let phase_start = Instant::now();
    let vcode: Vec<TileBlockCode> = codegen::generate(
        &graph,
        &sched,
        layout,
        branch_cond,
        options.fold_communication,
    );
    timings.codegen += phase_start.elapsed();
    #[cfg(debug_assertions)]
    check_vcode_defs(&vcode);
    let phase_start = Instant::now();
    let phys: Vec<regalloc::AllocResult> = vcode
        .into_iter()
        .map(|c| {
            regalloc::allocate(
                c.insts,
                c.prov,
                c.n_vregs,
                c.cond_vreg,
                config.gprs,
                layout.spill_base,
            )
        })
        .collect();
    timings.regalloc += phase_start.elapsed();

    let report = BlockReport {
        n_nodes: graph.len(),
        n_clusters: part.n_clusters,
        n_comm_paths: sched.n_comm_paths,
        makespan: sched.makespan,
        spills: phys.iter().map(|p| p.n_spilled).sum(),
        predicted: sched
            .proc_ops
            .iter()
            .zip(&sched.switch_ops)
            .map(|(ops, routes)| TileCounts {
                issues: u32::try_from(ops.len()).expect("a tile's slots fit in u32"),
                routes: u32::try_from(routes.len()).expect("a tile's routes fit in u32"),
            })
            .collect(),
        placement: part.placement,
        lane,
        exact: exact_report,
    };
    // Switch ops carry their producing nodes (block-relative ids; the merge
    // phase rebases them).
    let switch = sched
        .switch_ops
        .into_iter()
        .map(|ops| {
            ops.into_iter()
                .map(|(_, node, pairs)| (pairs, node as u32))
                .collect()
        })
        .collect();
    let bundle = BlockBundle {
        report,
        phys,
        switch,
        cond_producer: branch_cond.map(|(_, t)| t),
        cond_node: branch_cond
            .and_then(|(c, _)| graph.def_of.get(&c).map(|&n| n as u32))
            .unwrap_or(NO_PROV),
        node_tile,
        node_bin,
    };
    (bundle, timings)
}

/// Like [`compile`], but with an explicit [`BlockCache`], so callers can share
/// a warm cache across compiles (bench loops, the determinism battery, the
/// compile service) or back it with a disk layer, instead of the per-call
/// in-memory cache [`compile`] uses.
///
/// # Errors
///
/// Returns [`CompileError`] for unsupported machine shapes.
pub fn compile_with_cache(
    program: &Program,
    config: &MachineConfig,
    options: &CompilerOptions,
    cache: &BlockCache,
) -> Result<CompiledProgram, CompileError> {
    let compile_start = Instant::now();
    let n_tiles = config.n_tiles();
    if config.faulty.is_empty() {
        if !n_tiles.is_power_of_two() {
            return Err(CompileError::TileCountNotPowerOfTwo { n_tiles });
        }
    } else {
        if let Some(t) = config.faulty.iter().find(|t| t.index() as u32 >= n_tiles) {
            return Err(CompileError::FaultyMaskOutOfRange {
                tile: t.index() as u32,
            });
        }
        let n_live = config.n_live();
        if n_live == 0 || !n_live.is_power_of_two() {
            return Err(CompileError::LiveTileCountNotPowerOfTwo { n_live });
        }
        if !config.live_connected() {
            return Err(CompileError::FaultyMeshDisconnected);
        }
    }
    let layout = DataLayout::build(program, config);

    // ---- Fan blocks out over workers: each block is looked up in the cache
    // and compiled fresh on miss. Results land in per-block slots, so the
    // merge below runs in program order no matter the completion order.
    let key_ctx = KeyContext::new(&layout, config, options);
    let blocks: Vec<&Block> = program.iter_blocks().map(|(_, b)| b).collect();
    let workers = resolve_threads(options).min(blocks.len()).max(1);

    type Compiled = (Fetched, PhaseTimings, blockcache::CacheKey);
    let do_block = |block: &Block| -> Compiled {
        let key = key_ctx.key(&blockcache::canonical_block_bytes(block));
        let mut timings = PhaseTimings::default();
        let fetched = cache.get_or_compute(key, || {
            let (bundle, t) = compile_block(block, &layout, config, options);
            timings = t;
            bundle
        });
        (fetched, timings, key)
    };

    // One loop claims blocks in index order; the calling thread runs it
    // beside `workers - 1` scoped helpers, so one worker spawns no thread.
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(block) = blocks.get(i) else { break };
            out.push((i, do_block(block)));
        }
        out
    };
    let mut compiled: Vec<Option<Compiled>> = (0..blocks.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mine = drain();
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().expect("compile worker panicked"));
        for (i, result) in mine.into_iter().chain(theirs) {
            compiled[i] = Some(result);
        }
    });

    // ---- Deterministic merge, in program block order: reports and cache
    // counts, then the provenance records — rebuilt from the block's IR plus
    // the bundle's tile/bin assignment, which keeps bundles
    // position-independent.
    let mut report = CompileReport {
        threads: workers,
        ..CompileReport::default()
    };
    let mut prov_map = ProvenanceMap::default();
    let mut bundles: Vec<Arc<BlockBundle>> = Vec::with_capacity(blocks.len());
    for (b, block) in blocks.iter().enumerate() {
        let (fetched, timings, key) = compiled[b].take().expect("every block compiled");
        let cache_stats = &mut report.cache;
        cache_stats.hits += u64::from(fetched.cached);
        cache_stats.misses += u64::from(!fetched.cached);
        cache_stats.coalesced += u64::from(fetched.coalesced);
        cache_stats.evictions += fetched.evicted.entries;
        cache_stats.evicted_bytes += fetched.evicted.bytes;
        let bundle = fetched.bundle;
        report.timings.accumulate(&timings);
        report.block_cached.push(fetched.cached);
        report.block_keys.push(key);
        report.blocks.push(bundle.report.clone());

        let block_base = prov_map.records.len() as u32;
        prov_map.block_base.push(block_base);
        for (i, inst) in block
            .insts
            .iter()
            .filter(|i| taskgraph::is_task(i))
            .enumerate()
        {
            prov_map.records.push(ProvRecord {
                span: inst.span,
                value: inst.dst,
                block: b as u32,
                node: i as u32,
                tile: bundle.node_tile[i],
                bin: bundle.node_bin[i],
                kind: provenance::mnemonic(&inst.kind),
            });
        }
        bundles.push(bundle);
    }
    // ---- Link per-tile streams, building the pc → provenance tables in
    // lockstep (see crate::link).
    let phase_start = Instant::now();
    let tiles = link::link(program, config, &bundles, &mut prov_map);
    report.timings.link += phase_start.elapsed();
    report.wall = compile_start.elapsed();

    Ok(CompiledProgram {
        machine_program: MachineProgram { tiles },
        layout,
        config: config.clone(),
        report,
        provenance: prov_map,
    })
}

/// Two kernels compiled onto **disjoint live partitions** of one mesh, linked
/// into a single machine image. Each input must have been compiled with a
/// faulty mask covering (at least) the other's live tiles; the link verifies
/// disjointness and merges per-tile streams, so each tile carries code from
/// exactly one program (or none).
#[derive(Clone, Debug)]
pub struct CoResident {
    /// Merged per-tile instruction streams.
    pub machine_program: MachineProgram,
    /// Mesh configuration for the merged run: faulty set is the intersection
    /// of the inputs' masks (tiles live in *either* program must run).
    pub config: MachineConfig,
    /// The linked programs, in link order.
    pub parts: [CompiledProgram; 2],
}

/// Links two compiled programs with disjoint live tile sets into one mesh.
///
/// # Errors
///
/// [`CompileError::CoResidentMeshMismatch`] if the mesh shapes differ,
/// [`CompileError::CoResidentOverlap`] if any tile is live in both programs.
pub fn link_coresident(
    a: &CompiledProgram,
    b: &CompiledProgram,
) -> Result<CoResident, CompileError> {
    if a.config.rows != b.config.rows || a.config.cols != b.config.cols {
        return Err(CompileError::CoResidentMeshMismatch);
    }
    let n = a.config.n_tiles() as usize;
    let owner_a: Vec<bool> = (0..n)
        .map(|t| !a.config.is_faulty(TileId::from_raw(t as u32)))
        .collect();
    let owner_b: Vec<bool> = (0..n)
        .map(|t| !b.config.is_faulty(TileId::from_raw(t as u32)))
        .collect();
    if let Some(t) = (0..n).find(|&t| owner_a[t] && owner_b[t]) {
        return Err(CompileError::CoResidentOverlap { tile: t as u32 });
    }
    let tiles: Vec<TileCode> = (0..n)
        .map(|t| {
            if owner_a[t] {
                a.machine_program.tiles[t].clone()
            } else if owner_b[t] {
                b.machine_program.tiles[t].clone()
            } else {
                TileCode {
                    proc: Vec::new(),
                    switch: Vec::new(),
                }
            }
        })
        .collect();
    let mut faulty = raw_machine::TileMask::EMPTY;
    for t in 0..n as u32 {
        if !owner_a[t as usize] && !owner_b[t as usize] {
            faulty.insert(TileId::from_raw(t));
        }
    }
    let config = a.config.clone().with_faulty(faulty);
    Ok(CoResident {
        machine_program: MachineProgram { tiles },
        config,
        parts: [a.clone(), b.clone()],
    })
}

impl CoResident {
    /// The physical tiles owned by part `i` (0 or 1).
    pub fn tiles_of(&self, i: usize) -> Vec<TileId> {
        self.parts[i].layout.live.clone()
    }

    /// Creates a machine loaded with both programs' initial memory images.
    pub fn instantiate(&self, progs: [&Program; 2]) -> Machine {
        self.instantiate_with_sink(progs, raw_machine::trace::NullSink)
    }

    /// Like [`instantiate`](Self::instantiate) with an event sink attached.
    pub fn instantiate_with_sink<S: EventSink>(&self, progs: [&Program; 2], sink: S) -> Machine<S> {
        let mut machine = Machine::with_sink(self.config.clone(), &self.machine_program, sink);
        for (part, prog) in self.parts.iter().zip(progs) {
            part.load_memory(prog, &mut machine);
            // Each program's dynamic references stay inside its own
            // partition: its issue tiles interleave over its own live set,
            // even where that set is tiles 0..k (identity homes), since the
            // mesh's default interleave spans the other part's tiles too.
            for &t in &part.layout.live {
                machine.set_tile_dyn_homes(t, part.layout.live.clone());
            }
        }
        machine
    }

    /// Runs both programs to completion on one mesh and reads back each
    /// program's final state separately.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors ([`SimError`]).
    pub fn run(&self, progs: [&Program; 2]) -> Result<([ExecResult; 2], RunReport), SimError> {
        let mut machine = self.instantiate(progs);
        let report = machine.run()?;
        Ok((
            [
                self.parts[0].extract_result(progs[0], &machine),
                self.parts[1].extract_result(progs[1], &machine),
            ],
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_ir::builder::ProgramBuilder;
    use raw_ir::interp::Interpreter;
    use raw_ir::{MemHome, Ty};

    fn check_vs_interpreter(program: &Program, n_tiles: u32) {
        let config = MachineConfig::square(n_tiles);
        let compiled = compile(program, &config, &CompilerOptions::default()).expect("compiles");
        let (result, _) = compiled.run(program).expect("simulates");
        let golden = Interpreter::new(program).run().expect("interprets");
        assert!(
            result.state_eq(&golden),
            "n_tiles={n_tiles}\nsim:    {:?}\ngolden: {:?}",
            result.vars,
            golden.vars
        );
    }

    fn figure6_program() -> Program {
        let mut b = ProgramBuilder::new("figure6");
        let a = b.var_i32("a", 3);
        let bb = b.var_i32("b", 4);
        let x = b.var_i32("x", 0);
        let y = b.var_i32("y", 0);
        let z = b.var_i32("z", 0);
        let va = b.read_var(a);
        let vb = b.read_var(bb);
        let y1 = b.add(va, vb);
        let z1 = b.mul(va, va);
        let t1 = b.mul(y1, va);
        let five = b.const_i32(5);
        let x1 = b.mul(t1, five);
        let t2 = b.mul(y1, vb);
        let six = b.const_i32(6);
        let y2 = b.mul(t2, six);
        b.write_var(z, z1);
        b.write_var(x, x1);
        b.write_var(y, y2);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn figure6_runs_on_all_machine_sizes() {
        let p = figure6_program();
        for n in [1, 2, 4, 8] {
            check_vs_interpreter(&p, n);
        }
    }

    #[test]
    fn branching_loop_runs_distributed() {
        // sum = Σ i for i in 0..10 with per-iteration branch broadcast.
        let mut b = ProgramBuilder::new("loop");
        let i = b.var_i32("i", 0);
        let sum = b.var_i32("sum", 0);
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.jump(body);
        b.switch_to(body);
        let vi = b.read_var(i);
        let vs = b.read_var(sum);
        let ns = b.add(vs, vi);
        let one = b.const_i32(1);
        let ni = b.add(vi, one);
        b.write_var(sum, ns);
        b.write_var(i, ni);
        let ten = b.const_i32(10);
        let c = b.slt(ni, ten);
        b.branch(c, body, exit);
        b.switch_to(exit);
        b.halt();
        let p = b.finish().unwrap();
        for n in [1, 2, 4] {
            check_vs_interpreter(&p, n);
        }
    }

    #[test]
    fn static_array_kernel_distributes() {
        // B[i] = A[i] * A[i] for i in 0..8, fully unrolled, residues annotated
        // for a 4-tile machine.
        let n_tiles = 4u32;
        let mut b = ProgramBuilder::new("square");
        let a = b.array("A", Ty::I32, &[8]);
        let bb = b.array("B", Ty::I32, &[8]);
        b.set_array_init(a, (0..8).map(|k| raw_ir::Imm::I(k + 1)).collect());
        for k in 0..8u32 {
            let idx = b.const_i32(k as i32);
            let v = b.load(a, idx, 0, MemHome::Static(k % n_tiles));
            let sq = b.mul(v, v);
            b.store(bb, idx, 0, sq, MemHome::Static(k % n_tiles));
        }
        b.halt();
        let p = b.finish().unwrap();
        check_vs_interpreter(&p, n_tiles);
        check_vs_interpreter(&p, 1); // residues mod 1 still work
    }

    #[test]
    fn dynamic_array_kernel_round_trips() {
        let mut b = ProgramBuilder::new("dynamic");
        let a = b.array("A", Ty::I32, &[8]);
        b.set_array_init(a, (0..8).map(raw_ir::Imm::I).collect());
        // A[A[3]] = 99 — the inner value is data-dependent: dynamic access.
        let three = b.const_i32(3);
        let inner = b.load(a, three, 0, MemHome::Dynamic);
        let v99 = b.const_i32(99);
        b.store(a, inner, 0, v99, MemHome::Dynamic);
        b.halt();
        let p = b.finish().unwrap();
        for n in [1, 2, 4] {
            check_vs_interpreter(&p, n);
        }
    }

    #[test]
    fn baseline_matches_interpreter() {
        let p = figure6_program();
        let config = MachineConfig::square(1);
        let compiled = compile_baseline(&p, &config).unwrap();
        let (result, report) = compiled.run(&p).unwrap();
        let golden = Interpreter::new(&p).run().unwrap();
        assert!(result.state_eq(&golden));
        assert!(report.cycles > 0);
    }

    #[test]
    fn non_power_of_two_rejected() {
        let p = figure6_program();
        let config = MachineConfig::grid(1, 3);
        assert!(matches!(
            compile(&p, &config, &CompilerOptions::default()),
            Err(CompileError::TileCountNotPowerOfTwo { n_tiles: 3 })
        ));
    }

    #[test]
    fn parallel_run_is_faster_than_sequential_for_wide_block() {
        // 16 independent fp chains: 4 tiles should beat 1 tile.
        let mut b = ProgramBuilder::new("wide");
        let out: Vec<_> = (0..16)
            .map(|k| b.var_f32(format!("o{k}"), 1.0 + k as f32))
            .collect();
        for &o in &out {
            let mut v = b.read_var(o);
            for _ in 0..8 {
                v = b.mul_f(v, v);
            }
            b.write_var(o, v);
        }
        b.halt();
        let p = b.finish().unwrap();

        let cycles = |n: u32| -> u64 {
            let config = MachineConfig::square(n);
            let compiled = compile(&p, &config, &CompilerOptions::default()).unwrap();
            let (result, report) = compiled.run(&p).unwrap();
            let golden = Interpreter::new(&p).run().unwrap();
            assert!(result.state_eq(&golden));
            report.cycles
        };
        let c1 = cycles(1);
        let c4 = cycles(4);
        assert!(
            c4 * 2 < c1,
            "expected ≥2x speedup on 4 tiles: c1={c1} c4={c4}"
        );
    }

    #[test]
    fn tile_counts_match_the_schedule_they_summarise() {
        // Every block of two paper kernels: a tile's predicted route count is
        // its switch stream in the bundle and in the scheduler's output, and
        // its issue count is the scheduler's processor slots.
        let options = CompilerOptions::default();
        for n_tiles in [4, 16] {
            let config = MachineConfig::square(n_tiles);
            for bench in raw_benchmarks::suite() {
                if !matches!(bench.name, "life" | "mxm") {
                    continue;
                }
                let program = bench.program(n_tiles).unwrap();
                let layout = DataLayout::build(&program, &config);
                for (id, block) in program.iter_blocks() {
                    let (bundle, _) = compile_block(block, &layout, &config, &options);
                    let graph = TaskGraph::build(block, &layout, &config);
                    let (_, sched, ..) =
                        map_block(&graph, &config, &options, &mut PhaseTimings::default());
                    let counts = &bundle.report.predicted;
                    let at = format!("{}@{n_tiles} {id:?}", bench.name);
                    assert_eq!(counts.len(), n_tiles as usize, "{at}");
                    for (t, c) in counts.iter().enumerate() {
                        assert_eq!(c.routes as usize, bundle.switch[t].len(), "{at} tile {t}");
                        assert_eq!(
                            c.routes as usize,
                            sched.switch_ops[t].len(),
                            "{at} tile {t}"
                        );
                        assert_eq!(c.issues as usize, sched.proc_ops[t].len(), "{at} tile {t}");
                    }
                }
            }
        }
    }
}
