//! The workload interface, and the three workloads that are lists of ops
//! (`sim_dense`, `sim_sparse`, `compile_cold`).

use crate::inputs::{self, PipeInput};
use crate::layers::{self, bump, Counters, ProbeProgram};
use crate::ops::{self, AsmInput, Op, OpOutcome};
use crate::span::{totals_by_name, Span, Tracer};
use crate::stats::{geomean, median};
use rawcc::{compile_with_cache, BlockCache};
use std::path::Path;
use std::time::Instant;

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct PassStats {
    /// Wall time of the pass, ms.
    pub wall_ms: f64,
    /// Latency of each op or request, ms, in issue order.
    pub op_ms: Vec<f64>,
    /// Ops or requests attempted.
    pub attempted: u64,
    /// Ops errored, refused, or failing verification.
    pub failed: u64,
    /// Simulated cycles summed over the pass.
    pub sim_cycles: u64,
    /// Processor plus switch instructions summed over the pass.
    pub code_words: u64,
}

/// A workload after set-up: inputs generated, oracles computed.
pub trait Workload {
    /// Ops (or requests) in one pass.
    fn ops_per_pass(&self) -> usize;

    /// Hash of every generated input the product will see.
    fn inputs_hash(&self) -> u64;

    /// Runs every op once, in fixed order, with fresh caches. With a recording
    /// tracer, spans go to `t` and exact counts to `c`.
    fn pass(&mut self, t: &mut Tracer, c: &mut Counters) -> PassStats;

    /// Geometric-mean speedup over the one-tile baseline (paper Table 3) of
    /// the programs this workload compiles.
    fn speedup_geomean(&self) -> f64;

    /// Counts that set-up produced (`ir.interp.insts`).
    fn setup_counters(&self, c: &mut Counters);

    /// Layer probes, outside the timed passes. `pass` holds the counts of one
    /// traced pass; the probes check their own counts against it where both
    /// measure the same thing.
    ///
    /// # Errors
    ///
    /// A product error, or a probe that disagrees with the product.
    fn probes(
        &mut self,
        pass: &Counters,
        scratch: &Path,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<(), String>;
}

/// Repetitions of the compile-phase probe.
const PHASE_PROBE_REPS: usize = 3;
/// The spans whose self times make up `CompileReport.timings` minus link.
const PHASE_SPANS: [&str; 6] = [
    "core.taskgraph.ms",
    "core.partition.ms",
    "core.place.ms",
    "core.schedule.ms",
    "core.codegen.ms",
    "core.regalloc.ms",
];

/// A workload that is a fixed list of ops.
pub struct OpsWorkload {
    ops: Vec<Op>,
    /// Cycles each op took in the latest pass (0 = failed), for the speedup.
    op_cycles: Vec<u64>,
    /// Extra programs for the exact/portfolio probe (`compile_cold` only).
    exact_inputs: Vec<PipeInput>,
    hash: u64,
}

impl OpsWorkload {
    /// Set-up: generate the inputs of `name` from `seed` and compute every
    /// op's oracle. `ir.interp.ms` spans go to `t`.
    ///
    /// # Errors
    ///
    /// An unknown name, or a product error while computing references.
    pub fn setup(name: &str, seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let (pipes, asm) = match name {
            "sim_dense" => (inputs::sim_dense(seed), Vec::new()),
            "compile_cold" => (inputs::compile_cold(seed), Vec::new()),
            "sim_sparse" => (inputs::sim_sparse_compiled(seed), ops::sparse_asm(seed)),
            other => return Err(format!("unknown workload '{other}'")),
        };
        let mut hash = 0u64;
        let mut list = Vec::with_capacity(pipes.len() + asm.len());
        for input in pipes {
            input.hash_into(&mut hash);
            let (_, refr) = ops::reference(&input, true, t)?;
            list.push(Op::Pipe(input, refr));
        }
        for input in asm {
            hash_asm(&input, &mut hash);
            list.push(Op::Asm(input));
        }
        Ok(OpsWorkload {
            op_cycles: vec![0; list.len()],
            ops: list,
            exact_inputs: if name == "compile_cold" {
                inputs::exact_probe(seed)
            } else {
                Vec::new()
            },
            hash,
        })
    }

    fn pipes(&self) -> Vec<&PipeInput> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Pipe(input, _) => Some(input),
                Op::Asm(_) => None,
            })
            .collect()
    }

    fn asms(&self) -> Vec<&AsmInput> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Asm(input) => Some(input),
                Op::Pipe(..) => None,
            })
            .collect()
    }
}

fn hash_asm(input: &AsmInput, h: &mut u64) {
    let text = format!("{:?}{:?}{:?}", input.label, input.init, input.check);
    inputs::fold_hash(h, text.as_bytes());
}

/// Folds one traced op's reports into the pass's counts.
fn count_outcome(out: &OpOutcome, c: &mut Counters) {
    let stats = &out.run.stats;
    bump(c, "machine.run.cycles", out.run.cycles as f64);
    bump(
        c,
        "perf.tile_cycles",
        out.run.cycles as f64 * f64::from(out.n_tiles),
    );
    bump(c, "machine.run.insts", stats.total_insts() as f64);
    for tile in &stats.tiles {
        bump(c, "machine.stall.reg", tile.stall_reg as f64);
        bump(c, "machine.stall.port_in", tile.stall_port_in as f64);
        bump(c, "machine.stall.port_out", tile.stall_port_out as f64);
        bump(c, "machine.stall.dynamic", tile.stall_dynamic as f64);
        bump(c, "machine.switch.routes", tile.switch_routes as f64);
        bump(c, "machine.switch.stalls", tile.switch_stalls as f64);
    }
    bump(c, "machine.static_words", stats.static_words as f64);
    bump(
        c,
        "machine.dyn_active_cycles",
        stats.dyn_active_cycles as f64,
    );
    if let Some(report) = &out.compile {
        bump(c, "core.cache.hits", report.cache.hits as f64);
        bump(c, "core.cache.misses", report.cache.misses as f64);
        bump(c, "core.cache.coalesced", report.cache.coalesced as f64);
        bump(c, "core.cache.evictions", report.cache.evictions as f64);
        // What the product says about the blocks it really compiled: the
        // same ones the probes re-execute.
        for (block, _) in report
            .blocks
            .iter()
            .zip(&report.block_cached)
            .filter(|(_, &cached)| !cached)
        {
            bump(c, "report.blocks", 1.0);
            bump(c, "report.spills", block.spills as f64);
            bump(c, "report.makespan", block.makespan as f64);
            bump(c, "report.nodes", block.n_nodes as f64);
        }
    }
}

impl Workload for OpsWorkload {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn inputs_hash(&self) -> u64 {
        self.hash
    }

    fn pass(&mut self, t: &mut Tracer, c: &mut Counters) -> PassStats {
        let mut stats = PassStats::default();
        let pass_start = Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            t.set_op(i as u32);
            let start = Instant::now();
            let outcome = op.run(t);
            stats.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
            stats.attempted += 1;
            self.op_cycles[i] = 0;
            match outcome {
                Ok(out) if out.ok => {
                    stats.sim_cycles += out.run.cycles;
                    stats.code_words += out.code_words;
                    self.op_cycles[i] = out.run.cycles;
                    if t.enabled() {
                        count_outcome(&out, c);
                    }
                }
                Ok(_) => {
                    eprintln!("raw-perf: {}: result differs from the oracle", op.label());
                    stats.failed += 1;
                }
                Err(e) => {
                    eprintln!("raw-perf: {e}");
                    stats.failed += 1;
                }
            }
        }
        stats.wall_ms = pass_start.elapsed().as_secs_f64() * 1e3;
        stats
    }

    fn speedup_geomean(&self) -> f64 {
        let ratios: Vec<f64> = self
            .ops
            .iter()
            .zip(&self.op_cycles)
            .filter_map(|(op, &cycles)| match op {
                Op::Pipe(_, refr) if cycles > 0 => Some(refr.base_cycles as f64 / cycles as f64),
                _ => None,
            })
            .collect();
        geomean(&ratios).unwrap_or(0.0)
    }

    fn setup_counters(&self, c: &mut Counters) {
        for op in &self.ops {
            if let Op::Pipe(_, refr) = op {
                bump(c, "ir.interp.insts", refr.interp_insts as f64);
            }
        }
    }

    fn probes(
        &mut self,
        pass: &Counters,
        scratch: &Path,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<(), String> {
        let pipes = self.pipes();
        layers::frontend_probe(&pipes, t, c)?;
        let items = pipes
            .iter()
            .map(|input| ProbeProgram::cold(input))
            .collect::<Result<Vec<_>, _>>()?;
        // Each repetition times the product's own compile of the same programs
        // and then the decomposed sequence, back to back: the machine slows in
        // bursts, and only neighbours in time share the weather. The fastest
        // repetition's spans are kept.
        let options = ops::options();
        let mut fastest: Option<(f64, Vec<Span>)> = None;
        let mut drifts = Vec::with_capacity(PHASE_PROBE_REPS);
        for rep in 0..PHASE_PROBE_REPS {
            let mut inside_ms = 0.0;
            for item in &items {
                let compiled = compile_with_cache(
                    &item.program,
                    &item.config,
                    &options,
                    &BlockCache::in_memory(),
                )
                .map_err(|e| format!("{}: {e}", item.label))?;
                // Link is left out: the probes measure it as a whole warm
                // compile, which is more than the linker's own loop.
                let timings = compiled.report.timings;
                inside_ms += (timings.total() - timings.link).as_secs_f64() * 1e3;
            }
            let mut rep_tracer = Tracer::recording(t.epoch());
            let mut rep_counts = Counters::new();
            layers::phase_probe(&items, &mut rep_tracer, &mut rep_counts);
            if rep == 0 {
                c.append(&mut rep_counts);
            }
            let spans = rep_tracer.finish();
            let totals = totals_by_name(&spans);
            let outside_ms: f64 = PHASE_SPANS
                .iter()
                .filter_map(|name| totals.get(name))
                .map(|total| total.self_ms)
                .sum();
            if inside_ms > 0.0 {
                drifts.push(100.0 * (outside_ms / inside_ms - 1.0).abs());
            }
            if fastest.as_ref().is_none_or(|(best, _)| outside_ms < *best) {
                fastest = Some((outside_ms, spans));
            }
        }
        if !drifts.is_empty() {
            c.insert("perf.phase_drift_pct", median(&drifts));
        }
        t.adopt(fastest.expect("at least one repetition").1);
        // Drift guard, exact half: the decomposed sequence must do the work
        // `compile_block` does, or its times describe some other compiler.
        for (probe, report) in [
            ("core.compile.blocks", "report.blocks"),
            ("core.taskgraph.nodes", "report.nodes"),
            ("core.schedule.makespan", "report.makespan"),
            ("core.regalloc.spills", "report.spills"),
        ] {
            let (ours, theirs) = (
                c.get(probe).copied().unwrap_or(0.0),
                pass.get(report).copied().unwrap_or(0.0),
            );
            if ours != theirs {
                return Err(format!(
                    "drift guard: {probe} = {ours} outside, CompileReport says {theirs}"
                ));
            }
        }
        let linked = layers::link_probe(&items, t, c)?;
        layers::codec_disk_probe(&linked, scratch, t, c)?;
        layers::wire_probe(&items, &linked, t, c)?;
        layers::stepper_probe(&items, &linked, &self.asms(), t)?;
        layers::trace_capture_probe(&items, &linked, c)?;
        if !self.exact_inputs.is_empty() {
            let small = self
                .exact_inputs
                .iter()
                .map(ProbeProgram::cold)
                .collect::<Result<Vec<_>, _>>()?;
            layers::exact_probe(&small, t, c)?;
        }
        Ok(())
    }
}
