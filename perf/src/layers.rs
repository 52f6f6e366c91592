//! Layer probes for `raw-perf trace`: the compile phases re-executed one
//! public call at a time, and the key, codec, disk, wire, link, stepper,
//! trace-capture and exact/portfolio layers driven directly.
//!
//! Probes run outside the timed passes. Each records spans named after the
//! metric they feed and bumps exact counts in a [`Counters`] map.

use crate::inputs::PipeInput;
use crate::ops::{self, code_words, AsmInput};
use crate::span::Tracer;
use raw_ir::{Program, Terminator};
use raw_machine::{Machine, MachineConfig};
use rawcc::blockcache::{canonical_block_bytes, decode_bundle, encode_bundle};
use rawcc::taskgraph::TaskGraph;
use rawcc::wire::{encode_compile_request, CompileRequest, CompileResponse};
use rawcc::{
    codegen, compile_with_cache, exact, partition, regalloc, schedule, BlockBundle, BlockCache,
    CacheKey, CompiledProgram, CompilerOptions, DataLayout, DiskLayer, ExactOutcome, KeyContext,
    Lane, Strategy,
};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Exact counts and derived values, by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// Adds `v` to the counter `name`.
pub fn bump(c: &mut Counters, name: &'static str, v: f64) {
    *c.entry(name).or_insert(0.0) += v;
}

/// One program whose compile work the probes re-execute.
#[derive(Clone, Debug)]
pub struct ProbeProgram {
    /// Input label.
    pub label: String,
    /// The lowered program, array data installed.
    pub program: Program,
    /// Target mesh.
    pub config: MachineConfig,
    /// Blocks the workload's pass really compiles: `None` = all (a cold
    /// compile), `Some` = just these (the daemon finds the rest cached).
    pub compiled_blocks: Option<Vec<usize>>,
}

impl ProbeProgram {
    /// The program a pipeline op compiles, every block cold.
    ///
    /// # Errors
    ///
    /// Frontend errors, rendered.
    pub fn cold(input: &PipeInput) -> Result<Self, String> {
        Ok(ProbeProgram {
            label: input.label.clone(),
            program: ops::frontend(input, &mut Tracer::off())?,
            config: input.config.clone(),
            compiled_blocks: None,
        })
    }
}

/// `token::lex` over every source: `lang.lex.ms`, `lang.lex.tokens`.
pub fn frontend_probe(
    inputs: &[&PipeInput],
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    for input in inputs {
        let s = t.enter("lang.lex.ms");
        let tokens = raw_lang::token::lex(&input.source);
        t.exit(s);
        let tokens = tokens.map_err(|e| format!("{}: {e}", input.label))?;
        bump(c, "lang.lex.tokens", tokens.len() as f64);
    }
    Ok(())
}

/// The compile phases in `compile_block`'s order, one span each, over the
/// blocks each program's pass compiles. Counts go to the same names the
/// drift guard compares against `CompileReport`.
pub fn phase_probe(items: &[ProbeProgram], t: &mut Tracer, c: &mut Counters) {
    let options = ops::options();
    for item in items {
        bump(c, "lang.lower.ir_insts", item.program.num_insts() as f64);
        bump(c, "lang.lower.ir_blocks", item.program.blocks.len() as f64);
        let s = t.enter("core.layout.ms");
        let layout = DataLayout::build(&item.program, &item.config);
        t.exit(s);
        let s = t.enter("core.cachekey.ms");
        let key_ctx = KeyContext::new(&layout, &item.config, &options);
        t.exit(s);
        // A program's repeated blocks compile once: the rest hit its cache.
        let mut compiled = HashSet::new();
        for (b, block) in item.program.blocks.iter().enumerate() {
            let s = t.enter("core.cachekey.ms");
            let bytes = canonical_block_bytes(block);
            let key = key_ctx.key(&bytes);
            t.exit(s);
            bump(c, "core.cachekey.bytes", bytes.len() as f64);
            if item
                .compiled_blocks
                .as_ref()
                .is_some_and(|only| !only.contains(&b))
                || !compiled.insert(key)
            {
                continue;
            }
            bump(c, "core.compile.blocks", 1.0);

            let s = t.enter("core.taskgraph.ms");
            let graph = TaskGraph::build(block, &layout, &item.config);
            t.exit(s);
            bump(c, "core.taskgraph.nodes", graph.len() as f64);

            let s = t.enter("core.partition.ms");
            let (part, place_time) = partition::partition_timed(&graph, &item.config, &options);
            t.child_measured("core.place.ms", place_time);
            t.exit(s);
            bump(c, "core.partition.clusters", part.n_clusters as f64);
            bump(c, "core.place.swaps", part.placement.steps.len() as f64);

            let s = t.enter("core.schedule.ms");
            let sched = schedule::schedule(&graph, &part, &item.config, &options);
            t.exit(s);
            bump(c, "core.schedule.comm_paths", sched.n_comm_paths as f64);
            bump(c, "core.schedule.makespan", sched.makespan as f64);

            let branch_cond = match &block.term {
                Terminator::Branch { cond, .. } => {
                    Some((*cond, part.assignment[graph.def_of[cond]]))
                }
                _ => None,
            };
            let s = t.enter("core.codegen.ms");
            let vcode = codegen::generate(
                &graph,
                &sched,
                &layout,
                branch_cond,
                options.fold_communication,
            );
            t.exit(s);
            let vinsts: usize = vcode.iter().map(|tile| tile.insts.len()).sum();
            bump(c, "core.codegen.vinsts", vinsts as f64);

            let s = t.enter("core.regalloc.ms");
            let spills: usize = vcode
                .into_iter()
                .map(|tile| {
                    regalloc::allocate(
                        tile.insts,
                        tile.prov,
                        tile.n_vregs,
                        tile.cond_vreg,
                        item.config.gprs,
                        layout.spill_base,
                    )
                    .n_spilled
                })
                .sum();
            t.exit(s);
            bump(c, "core.regalloc.spills", spills as f64);
        }
    }
}

/// A program compiled once into a private cache, kept for the probes that
/// need its bundles, image and report.
pub struct Linked {
    /// The compiled program (from the all-hit compile).
    pub compiled: CompiledProgram,
    /// Its block bundles with their keys, in block order.
    pub bundles: Vec<(CacheKey, Arc<BlockBundle>)>,
}

/// Linking: an all-hit `compile_with_cache`, with the time spent re-deriving
/// block keys laid under the span so its self time is layout + lookups +
/// merge + link.
///
/// # Errors
///
/// Compile errors, rendered.
pub fn link_probe(
    items: &[ProbeProgram],
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<Vec<Linked>, String> {
    let options = ops::options();
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let cache = BlockCache::in_memory();
        compile_with_cache(&item.program, &item.config, &options, &cache)
            .map_err(|e| format!("{}: {e}", item.label))?;

        let layout = DataLayout::build(&item.program, &item.config);
        let key_start = Instant::now();
        let key_ctx = KeyContext::new(&layout, &item.config, &options);
        for block in &item.program.blocks {
            std::hint::black_box(key_ctx.key(&canonical_block_bytes(block)));
        }
        let key_time = key_start.elapsed();

        let s = t.enter("core.link.ms");
        let compiled = compile_with_cache(&item.program, &item.config, &options, &cache);
        t.child_measured("perf.link_keys.ms", key_time);
        t.exit(s);
        let compiled = compiled.map_err(|e| format!("{}: {e}", item.label))?;
        if compiled.report.cache.misses != 0 {
            return Err(format!("{}: warm compile missed the cache", item.label));
        }
        bump(
            c,
            "core.link.code_words",
            code_words(&compiled.machine_program) as f64,
        );
        let bundles = compiled
            .report
            .block_keys
            .iter()
            .map(|key| {
                let bundle = cache.get(key).0.expect("bundle just compiled is resident");
                (*key, bundle)
            })
            .collect();
        out.push(Linked { compiled, bundles });
    }
    Ok(out)
}

/// Bundle codec and the disk layer, over every bundle of every program.
///
/// # Errors
///
/// I/O errors from the scratch directory, or a bundle that does not survive
/// its own codec.
pub fn codec_disk_probe(
    linked: &[Linked],
    scratch: &Path,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    let dir = scratch.join("probe-disk");
    let _ = std::fs::remove_dir_all(&dir);
    let disk = DiskLayer::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (key, bundle) in linked.iter().flat_map(|l| &l.bundles) {
        let s = t.enter("core.codec.encode_ms");
        let bytes = encode_bundle(bundle);
        t.exit(s);
        bump(c, "core.codec.bytes", bytes.len() as f64);
        let s = t.enter("core.codec.decode_ms");
        let back = decode_bundle(&bytes);
        t.exit(s);
        if back.as_ref() != Some(bundle.as_ref()) {
            return Err(format!("bundle {key:?} does not round-trip its codec"));
        }
        let s = t.enter("core.disk.store_ms");
        let stored = disk.store(key, bundle);
        t.exit(s);
        stored.map_err(|e| format!("store {key:?}: {e}"))?;
        let s = t.enter("core.disk.load_ms");
        let loaded = disk.load(key);
        t.exit(s);
        if loaded.as_ref() != Some(bundle.as_ref()) {
            return Err(format!("bundle {key:?} does not round-trip the disk layer"));
        }
    }
    bump(c, "core.cache.disk_rejects", disk.rejects() as f64);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// The wire codec on each program's request and response.
///
/// # Errors
///
/// A message that does not decode to what was encoded.
pub fn wire_probe(
    items: &[ProbeProgram],
    linked: &[Linked],
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    let options = ops::options();
    for (item, l) in items.iter().zip(linked) {
        let s = t.enter("core.wire.encode_req_ms");
        let req = encode_compile_request("raw-perf", &item.program, &item.config, &options);
        t.exit(s);
        bump(c, "core.wire.req_bytes", req.len() as f64);
        let s = t.enter("core.wire.decode_req_ms");
        let decoded = CompileRequest::decode(&req);
        t.exit(s);
        let decoded = decoded.map_err(|e| format!("{}: {e}", item.label))?;
        if decoded.config != item.config || decoded.program.blocks != item.program.blocks {
            return Err(format!("{}: request does not round-trip", item.label));
        }
        let resp = CompileResponse {
            machine_program: l.compiled.machine_program.clone(),
            hits: 0,
            misses: l.compiled.report.blocks.len() as u64,
            coalesced: 0,
            evictions: 0,
            evicted_bytes: 0,
            wall_us: 0,
            threads: 1,
        };
        let s = t.enter("core.wire.encode_resp_ms");
        let bytes = resp.encode();
        t.exit(s);
        bump(c, "core.wire.resp_bytes", bytes.len() as f64);
        let s = t.enter("core.wire.decode_resp_ms");
        let back = CompileResponse::decode(&bytes);
        t.exit(s);
        let back = back.map_err(|e| format!("{}: {e}", item.label))?;
        if back.machine_program != resp.machine_program {
            return Err(format!("{}: response does not round-trip", item.label));
        }
    }
    Ok(())
}

/// Meshes larger than this skip the reference stepper: it steps every
/// component every cycle, and a 32x32 mesh would take longer than the rest of
/// the trace together.
const REFERENCE_STEPPER_MAX_TILES: u32 = 64;

/// The two opt-in steppers on the programs the passes run; each must report
/// the cycle count the default stepper reports for the same machine.
///
/// # Errors
///
/// A simulation error, or a stepper that disagrees with the default.
pub fn stepper_probe(
    items: &[ProbeProgram],
    linked: &[Linked],
    asm: &[&AsmInput],
    t: &mut Tracer,
) -> Result<(), String> {
    type Build<'a> = Box<dyn Fn() -> Machine + 'a>;
    let mut machines: Vec<(&str, Build)> = Vec::new();
    for (item, l) in items.iter().zip(linked) {
        machines.push((
            &item.label,
            Box::new(|| l.compiled.instantiate(&item.program)),
        ));
    }
    for input in asm {
        machines.push((
            &input.label,
            Box::new(|| {
                let mut machine = Machine::new(input.config.clone(), &input.program);
                for &(tile, addr, value) in &input.init {
                    machine.set_mem_word(tile, addr, value);
                }
                machine
            }),
        ));
    }
    for (label, build) in machines {
        let run = |mut machine: Machine, span: Option<&'static str>, t: &mut Tracer| {
            let s = span.map(|name| t.enter(name));
            let report = machine.run();
            if let Some(s) = s {
                t.exit(s);
            }
            report
                .map(|r| r.cycles)
                .map_err(|e| format!("{label}: {e}"))
        };
        let expect = run(build(), None, t)?;
        let mut others = vec![("machine.stepper.event_ms", build().with_event_stepper())];
        if build().config().n_tiles() <= REFERENCE_STEPPER_MAX_TILES {
            others.push((
                "machine.stepper.reference_ms",
                build().with_reference_stepper(),
            ));
        }
        for (name, machine) in others {
            let cycles = run(machine, Some(name), t)?;
            if cycles != expect {
                return Err(format!(
                    "{label}: {name} took {cycles} cycles, the default stepper {expect}"
                ));
            }
        }
    }
    Ok(())
}

/// `RecordingSink` against `NullSink` on one program (mxm when the workload
/// has it): the cost of capturing a simulator trace, in percent.
///
/// # Errors
///
/// Simulation errors, rendered.
pub fn trace_capture_probe(
    items: &[ProbeProgram],
    linked: &[Linked],
    c: &mut Counters,
) -> Result<(), String> {
    let Some(i) = items
        .iter()
        .position(|p| p.label.starts_with("mxm"))
        .or((!items.is_empty()).then_some(0))
    else {
        return Ok(());
    };
    let (item, l) = (&items[i], &linked[i]);
    let (mut plain, mut recorded) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        let start = Instant::now();
        l.compiled
            .run(&item.program)
            .map_err(|e| format!("{}: {e}", item.label))?;
        plain = plain.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        raw_trace::run_traced(&l.compiled, &item.program)
            .map_err(|e| format!("{}: {e}", item.label))?;
        recorded = recorded.min(start.elapsed().as_secs_f64());
    }
    bump(
        c,
        "trace.capture.overhead_pct",
        100.0 * (recorded / plain - 1.0),
    );
    Ok(())
}

/// The exact solver and the three-lane portfolio on programs small enough
/// for both: what the exact lane costs and certifies, and what making
/// `Portfolio` the default would cost in compile time and buy in makespan.
///
/// # Errors
///
/// Compile errors, rendered.
pub fn exact_probe(items: &[ProbeProgram], t: &mut Tracer, c: &mut Counters) -> Result<(), String> {
    let options = ops::options();
    let (mut heuristic_ms, mut portfolio_ms) = (0.0, 0.0);
    let (mut heuristic_makespan, mut portfolio_makespan) = (0u64, 0u64);
    for item in items {
        let layout = DataLayout::build(&item.program, &item.config);
        for block in &item.program.blocks {
            let graph = TaskGraph::build(block, &layout, &item.config);
            let part = partition::partition(&graph, &item.config, &options);
            let sched = schedule::schedule(&graph, &part, &item.config, &options);
            let s = t.enter("core.exact.ms");
            let solved = exact::solve(&graph, &item.config, &options, part, sched);
            t.exit(s);
            bump(c, "core.exact.expansions", solved.report.expanded as f64);
            if solved.report.outcome != ExactOutcome::TooLarge {
                bump(c, "core.exact.eligible_blocks", 1.0);
            }
            if solved.report.outcome == ExactOutcome::Certified {
                bump(c, "core.exact.certified_blocks", 1.0);
            }
        }

        let start = Instant::now();
        let heuristic = compile_with_cache(
            &item.program,
            &item.config,
            &options,
            &BlockCache::in_memory(),
        )
        .map_err(|e| format!("{}: {e}", item.label))?;
        heuristic_ms += start.elapsed().as_secs_f64() * 1e3;
        let racing = CompilerOptions {
            strategy: Strategy::Portfolio { seed: 1 },
            ..options
        };
        let start = Instant::now();
        let portfolio = compile_with_cache(
            &item.program,
            &item.config,
            &racing,
            &BlockCache::in_memory(),
        )
        .map_err(|e| format!("{}: {e}", item.label))?;
        portfolio_ms += start.elapsed().as_secs_f64() * 1e3;
        heuristic_makespan += heuristic.report.predicted_makespan();
        portfolio_makespan += portfolio.report.predicted_makespan();
        for block in &portfolio.report.blocks {
            let name = match block.lane {
                Some(Lane::Greedy) => "core.portfolio.wins_greedy",
                Some(Lane::Annealing) => "core.portfolio.wins_annealing",
                Some(Lane::Exact) => "core.portfolio.wins_exact",
                None => continue,
            };
            bump(c, name, 1.0);
        }
    }
    bump(c, "core.portfolio.compile_ms", portfolio_ms);
    bump(c, "perf.portfolio.heuristic_compile_ms", heuristic_ms);
    if heuristic_makespan > 0 {
        bump(
            c,
            "core.portfolio.makespan_gain_pct",
            100.0 * (heuristic_makespan as f64 - portfolio_makespan as f64)
                / heuristic_makespan as f64,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::totals_by_name;

    fn probe_items() -> Vec<ProbeProgram> {
        // Small programs with repeated blocks, branches and one big block.
        crate::inputs::service_programs(1)[..5]
            .iter()
            .map(|i| ProbeProgram::cold(i).unwrap())
            .collect()
    }

    #[test]
    fn phase_probe_follows_compile_block() {
        // The decomposed sequence must land on the numbers the product's own
        // `compile_with_cache` reports for the same programs.
        let items = probe_items();
        let mut t = Tracer::recording(Instant::now());
        let mut c = Counters::new();
        phase_probe(&items, &mut t, &mut c);
        let (mut blocks, mut nodes, mut spills, mut makespan) = (0u64, 0usize, 0usize, 0u64);
        for item in &items {
            let compiled = compile_with_cache(
                &item.program,
                &item.config,
                &ops::options(),
                &BlockCache::in_memory(),
            )
            .unwrap();
            let report = &compiled.report;
            for (block, _) in report
                .blocks
                .iter()
                .zip(&report.block_cached)
                .filter(|(_, &cached)| !cached)
            {
                blocks += 1;
                nodes += block.n_nodes;
                spills += block.spills;
                makespan += block.makespan;
            }
        }
        assert_eq!(c["core.compile.blocks"], blocks as f64);
        assert_eq!(c["core.taskgraph.nodes"], nodes as f64);
        assert_eq!(c["core.regalloc.spills"], spills as f64);
        assert_eq!(c["core.schedule.makespan"], makespan as f64);
        let totals = totals_by_name(&t.finish());
        assert_eq!(totals["core.schedule.ms"].count, blocks);
        assert_eq!(totals["core.place.ms"].count, blocks);
        assert!(totals["core.partition.ms"].self_ms <= totals["core.partition.ms"].total_ms);
    }

    #[test]
    fn block_filter_limits_the_compiled_set() {
        let mut items = probe_items();
        let last = items[0].program.blocks.len() - 1;
        items.truncate(1);
        items[0].compiled_blocks = Some(vec![last]);
        let mut c = Counters::new();
        phase_probe(&items, &mut Tracer::off(), &mut c);
        assert_eq!(c["core.compile.blocks"], 1.0);
        assert!(c["core.cachekey.bytes"] > 0.0, "every block is still keyed");
    }

    #[test]
    fn link_codec_wire_and_stepper_probes_run_clean() {
        let items = probe_items();
        let mut t = Tracer::recording(Instant::now());
        let mut c = Counters::new();
        let linked = link_probe(&items, &mut t, &mut c).unwrap();
        assert_eq!(linked.len(), items.len());
        let scratch = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("test-probes-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        codec_disk_probe(&linked, &scratch, &mut t, &mut c).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
        wire_probe(&items, &linked, &mut t, &mut c).unwrap();
        stepper_probe(&items, &linked, &[], &mut t).unwrap();
        trace_capture_probe(&items, &linked, &mut c).unwrap();
        assert!(c["core.codec.bytes"] > 0.0 && c["core.wire.resp_bytes"] > 0.0);
        assert!(c["core.link.code_words"] > 0.0);
        assert_eq!(c["core.cache.disk_rejects"], 0.0);
        assert!(c.contains_key("trace.capture.overhead_pct"));
    }
}
