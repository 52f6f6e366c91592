//! Optimality oracle for the heuristic placements (ISSUE 10 acceptance gate).
//!
//! The exact solver ([`raw_repro::cc::exact`]) certifies optimal makespans —
//! within the compiler's scheduling model — for blocks of up to 30 task-graph
//! nodes. That certificate is the strongest correctness check the scheduler
//! stack can have, in both directions:
//!
//! * a heuristic result *below* a certified optimum is impossible unless the
//!   solver, the scheduler, or the cost model is broken;
//! * the measured gap (snapshotted in `tests/golden/optimality_gap.txt` and
//!   EXPERIMENTS.md) quantifies how far the paper's greedy-swap placement
//!   sits from optimal, so a placement regression shows up as a gap
//!   regression.

use raw_repro::benchmarks;
use raw_repro::cc::exact::{self, format_gap_table, gap_row};
use raw_repro::cc::{
    compile_with_cache, BlockCache, CompiledProgram, CompilerOptions, ExactOutcome,
    PlacementAlgorithm, Strategy,
};
use raw_repro::ir::builder::ProgramBuilder;
use raw_repro::machine::MachineConfig;
use std::path::PathBuf;

const TILES: u32 = 4;

fn compile(program: &raw_repro::ir::Program, options: &CompilerOptions) -> CompiledProgram {
    let config = MachineConfig::square(TILES);
    compile_with_cache(program, &config, options, &BlockCache::in_memory()).expect("compiles")
}

fn with_strategy(strategy: Strategy) -> CompilerOptions {
    CompilerOptions {
        strategy,
        threads: 1,
        ..CompilerOptions::default()
    }
}

/// Every heuristic placement, on every workload, must stay at or above every
/// certified optimum — the oracle half of the acceptance criteria. Checked
/// for greedy swap and for the identity placement (`None`).
#[test]
fn no_heuristic_beats_a_certified_optimum() {
    for bench in benchmarks::tiny_suite() {
        let program = bench.program(TILES).expect("benchmark lowers");
        let exact_run = compile(&program, &with_strategy(Strategy::Exact));
        let heuristics = [
            ("greedy", with_strategy(Strategy::Heuristic)),
            (
                "identity",
                CompilerOptions {
                    placement: PlacementAlgorithm::None,
                    ..with_strategy(Strategy::Heuristic)
                },
            ),
        ];
        for (label, options) in heuristics {
            let heuristic = compile(&program, &options);
            // `gap_row` returns Err on any certified block where the
            // heuristic wins — exactly the oracle violation under test.
            let row = gap_row(bench.name, &heuristic.report, &exact_run.report)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(row.blocks, program.blocks.len(), "{}", bench.name);
        }
    }
}

/// On the small workloads, every block within the solver's size cap must
/// *certify* under the default budget — the solver actually exhausts the
/// space, it doesn't just time out and parrot the heuristic back.
#[test]
fn small_workloads_certify_every_eligible_block() {
    for name in ["mxm", "jacobi", "vpenta", "life"] {
        let bench = benchmarks::tiny_suite()
            .into_iter()
            .find(|b| b.name == name)
            .expect("known benchmark");
        let program = bench.program(TILES).expect("benchmark lowers");
        let compiled = compile(&program, &with_strategy(Strategy::Exact));
        for (i, block) in compiled.report.blocks.iter().enumerate() {
            let report = block.exact.expect("exact strategy reports every block");
            if block.n_nodes <= exact::MAX_EXACT_NODES {
                assert_eq!(
                    report.outcome,
                    ExactOutcome::Certified,
                    "{name}: block {i} ({} nodes) did not certify",
                    block.n_nodes
                );
                assert_eq!(
                    report.makespan, report.lower_bound,
                    "{name}: block {i}: certified bound mismatch"
                );
                assert_eq!(
                    block.makespan, report.makespan,
                    "{name}: block {i}: exact strategy must ship the certified schedule"
                );
            } else {
                assert_eq!(report.outcome, ExactOutcome::TooLarge, "{name}: block {i}");
            }
        }
    }
}

/// Regression guard for the size cap: a deliberately oversized block (far
/// past 30 nodes) must fall back to the heuristics immediately — zero search
/// expansions, same artifacts as a plain heuristic compile — rather than
/// hang in a 4^40 search space.
#[test]
fn oversized_block_falls_back_to_heuristics() {
    let mut b = ProgramBuilder::new("oversized");
    let out = b.var_i32("out", 0);
    let seed = b.var_i32("seed", 1);
    let mut acc = b.read_var(seed);
    for i in 0..60 {
        let c = b.const_i32(i);
        acc = b.add(acc, c);
    }
    b.write_var(out, acc);
    b.halt();
    let program = b.finish().expect("program verifies");

    let exact_run = compile(&program, &with_strategy(Strategy::Exact));
    let block = &exact_run.report.blocks[0];
    assert!(block.n_nodes > exact::MAX_EXACT_NODES, "block is oversized");
    let report = block.exact.expect("exact strategy still reports");
    assert_eq!(report.outcome, ExactOutcome::TooLarge);
    assert_eq!(report.expanded, 0, "no search on oversized blocks");

    let heuristic = compile(&program, &with_strategy(Strategy::Heuristic));
    assert_eq!(
        exact_run.machine_program, heuristic.machine_program,
        "fallback must produce the heuristic artifacts"
    );
}

/// The exact strategy's acceptance criterion: byte-identical output across
/// thread counts and cache states (the broader sweep lives in
/// `tests/parallel_determinism.rs`; this is the focused cross of threads
/// {1, 8} × {cold, warm}).
#[test]
fn exact_is_byte_identical_across_threads_and_cache_states() {
    let config = MachineConfig::square(TILES);
    let options = |threads| CompilerOptions {
        strategy: Strategy::Exact,
        threads,
        ..CompilerOptions::default()
    };
    for bench in [
        benchmarks::tiny_suite().remove(5), // mxm
        benchmarks::tiny_suite().remove(6), // jacobi
        benchmarks::tiny_suite().remove(0), // life (block-rich)
    ] {
        let program = bench.program(TILES).expect("benchmark lowers");
        let reference =
            compile_with_cache(&program, &config, &options(1), &BlockCache::in_memory()).unwrap();
        let shared = BlockCache::in_memory();
        for (what, cache) in [
            ("threads=8 cold", &BlockCache::in_memory()),
            ("threads=8 shared-cold", &shared),
            ("threads=8 shared-warm", &shared),
        ] {
            let compiled = compile_with_cache(&program, &config, &options(8), cache).unwrap();
            assert_eq!(
                reference.machine_program, compiled.machine_program,
                "{}: {what}: asm diverged",
                bench.name
            );
            assert_eq!(
                reference.report.blocks, compiled.report.blocks,
                "{}: {what}: reports diverged",
                bench.name
            );
        }
    }
}

/// The exact strategy can never lose to the greedy heuristic: the solver is
/// seeded with the greedy result, so the shipped makespan is ≤ greedy's on
/// every block.
#[test]
fn exact_never_trails_the_greedy_heuristic() {
    for bench in benchmarks::tiny_suite() {
        let program = bench.program(TILES).expect("benchmark lowers");
        let exact_run = compile(&program, &with_strategy(Strategy::Exact));
        let greedy = compile(&program, &with_strategy(Strategy::Heuristic));
        for (i, (e, g)) in exact_run
            .report
            .blocks
            .iter()
            .zip(&greedy.report.blocks)
            .enumerate()
        {
            assert!(
                e.makespan <= g.makespan,
                "{}: block {i}: exact {} > greedy {}",
                bench.name,
                e.makespan,
                g.makespan
            );
            assert!(e.lane.is_some(), "{}: block {i}: no lane", bench.name);
        }
    }
}

/// Golden snapshot of the measured optimality gap (refresh with
/// `UPDATE_GOLDEN=1`): a placement/scheduler change that widens the gap — or
/// a solver change that loses certificates — fails CI visibly instead of
/// silently eroding schedule quality.
#[test]
fn optimality_gap_table_matches_golden() {
    let mut rows = Vec::new();
    for bench in benchmarks::tiny_suite() {
        let program = bench.program(TILES).expect("benchmark lowers");
        let heuristic = compile(&program, &with_strategy(Strategy::Heuristic));
        let exact_run = compile(&program, &with_strategy(Strategy::Exact));
        rows.push(gap_row(bench.name, &heuristic.report, &exact_run.report).unwrap());
    }
    let table = format_gap_table(&rows);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/optimality_gap.txt");
    raw_testkit::check_golden(&path, &table);
}
