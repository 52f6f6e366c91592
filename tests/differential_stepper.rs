//! Differential validation of the production stepper.
//!
//! The production stepper visits only the components in its run sets and
//! commits only dirty channels (DESIGN.md §8). It claims to be
//! *observationally identical* to the step-everything reference. Every
//! workload here goes through the one oracle lane, `raw_trace::oracle::check`
//! (reference stepper, interpreter, traced run, chaos — DESIGN.md §6); the
//! jacobi chaos sweep here covers the mesh shapes that
//! `tests/static_ordering.rs` does not. The truncation property stays here: when
//! `run()` ends early (step limit) while components are still asleep, the
//! lazily-deferred stall debt must settle to exactly the reference statistics.

use raw_repro::cc::{compile, CompiledProgram, CompilerOptions};
use raw_repro::ir::Program;
use raw_repro::machine::chaos::ChaosConfig;
use raw_repro::machine::isa::TileId;
use raw_repro::machine::oracle::steppers_agree;
use raw_repro::machine::MachineConfig;
use raw_repro::trace::oracle::check;
use raw_testkit::Rng;
use std::sync::OnceLock;

#[test]
fn every_workload_matches_reference() {
    let config = MachineConfig::square(4);
    for bench in raw_repro::benchmarks::tiny_suite() {
        let program = bench.program(4).unwrap();
        let compiled = compile(&program, &config, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{}: compile: {e}", bench.name));
        check(&compiled, &program, &[]).unwrap();
    }
}

#[test]
fn decoded_programs_reencode_losslessly() {
    // Loading decodes every tile's code into flat op tables (DESIGN.md §8);
    // re-encoding them must give back the compiled program exactly, for
    // every suite kernel at every mesh size it is compiled for.
    for tiles in [1u32, 2, 4, 16, 32] {
        let config = MachineConfig::square(tiles);
        for bench in raw_repro::benchmarks::suite() {
            let program = bench.program(config.n_live()).unwrap();
            let compiled = compile(&program, &config, &CompilerOptions::default())
                .unwrap_or_else(|e| panic!("{} at {tiles}: compile: {e}", bench.name));
            let machine = compiled.instantiate(&program);
            // Debug text is bit-exact for every immediate but NaN payloads,
            // and is what `asm_hash` pins.
            assert_eq!(
                format!("{:?}", machine.reencode()),
                format!("{:?}", compiled.machine_program),
                "{} at {tiles} tiles",
                bench.name
            );
        }
    }
}

#[test]
fn chaos_sweep_matches_reference() {
    // The Appendix-A sweep's stall rates {1, 5, 20, 50}% × 4 seeds on the
    // shapes `static_ordering::chaos_sweep_stall_rates_seeds_and_shapes` leaves
    // out: a 4×1 column and a 2×4 rectangle. The reference asks chaos about
    // every component every cycle; the production stepper asks only when a
    // component is about to step and counts a sleeper's stalled cycles when
    // its debt settles — the statistics must come out the same.
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    let points = ChaosConfig::sweep(Rng::new(0x000A_110C_8A05).take(4), &[1, 5, 20, 50]);
    for (rows, cols) in [(4u32, 1), (2, 4)] {
        let config = MachineConfig::grid(rows, cols);
        let program = bench.program(config.n_live()).unwrap();
        let compiled = compile(&program, &config, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{rows}x{cols}: compile: {e}"));
        check(&compiled, &program, &points).unwrap_or_else(|e| panic!("{rows}x{cols}: {e}"));
    }
}

#[test]
fn near_deadlock_workload_survives_faulty_mask_and_chaos() {
    // Deadlock soundness under a faulty map: the scatter kernel's colliding
    // data-dependent read-modify-writes keep many requests and replies in
    // flight at once — the regime closest to exhausting wormhole buffering.
    // Compiled around a dead tile, every route detours through the BFS tree
    // over live tiles; the run must still terminate and stay bit-identical
    // between steppers under an aggressive chaos sweep.
    let bench = raw_repro::benchmarks::scatter(32, 4);
    let base = MachineConfig::grid(2, 4);
    let mask = base
        .mask_to_pow2(&[TileId::from_raw(3)])
        .expect("the mesh fits the mask");
    let config = base.with_faulty(mask);
    let program = bench.program(config.n_live()).unwrap();
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    let points = ChaosConfig::sweep(Rng::new(0x000A_110C_8A05).take(3), &[5, 20, 50]);
    check(&compiled, &program, &points).unwrap();
}

#[test]
fn dynamic_network_workload_matches_reference() {
    // Data-dependent addressing exercises the dynamic network and the remote
    // memory handlers — the components the production stepper gates hardest.
    let src = "
        int i; int k;
        int D[16];
        int H[4];
        for (i = 0; i < 16; i = i + 1) {
            k = D[i] % 4;
            H[k] = H[k] + 1;
        }
    ";
    let mut program = raw_repro::lang::compile_source("hist", src, 4).unwrap();
    let d = program.array_by_name("D").unwrap();
    program.arrays[d.index()].init = (0..16).map(|k| raw_repro::ir::Imm::I(k * 3)).collect();
    let config = MachineConfig::square(4);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    check(&compiled, &program, &ChaosConfig::sweep([7, 13, 21], &[30])).unwrap();
}

// ---------------------------------------------------------------------------
// Stall-debt settlement at early termination
// ---------------------------------------------------------------------------

/// Precompiled workloads plus each one's clean full-run cycle count, shared
/// across property cases (compilation dominates otherwise). The scenario
/// kernels' data-dependent references put processors to sleep on dynamic
/// replies, so a truncated run also stops inside those waits.
fn truncation_fixtures() -> &'static Vec<(String, CompiledProgram, Program, u64)> {
    static FIXTURES: OnceLock<Vec<(String, CompiledProgram, Program, u64)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let config = MachineConfig::square(4);
        raw_repro::benchmarks::tiny_suite()
            .into_iter()
            .chain(raw_repro::benchmarks::scenario_suite())
            .map(|bench| {
                let program = bench.program(4).unwrap();
                let compiled = compile(&program, &config, &CompilerOptions::default())
                    .unwrap_or_else(|e| panic!("{}: compile: {e}", bench.name));
                let report = compiled.instantiate(&program).run().unwrap();
                (bench.name.to_string(), compiled, program, report.cycles)
            })
            .collect()
    })
}

raw_testkit::proptest! {
    #![cases(48)]
    #[test]
    fn stall_debt_settles_when_run_is_truncated(
        bench_idx in 0usize..16,
        limit_pct in 1u64..100,
        chaos_pick in 0u32..4,
        chaos_seed in 1u64..1_000_000,
    ) {
        // Truncating run() at an arbitrary cycle frequently lands while
        // processors sit in SleepReg/SleepPort/SleepDyn and switches sleep with
        // unsettled stall debt. The flush on the error path must settle that
        // debt *exactly*: the production stepper — which sleeps through cycles
        // the reference steps one by one — must report identical statistics,
        // and the per-tile counters must conserve (no stall cycle lost or
        // invented).
        let fixtures = truncation_fixtures();
        let (name, compiled, program, full_cycles) = &fixtures[bench_idx % fixtures.len()];
        let limit = (full_cycles * limit_pct / 100).max(1);
        let chaos = match chaos_pick {
            0 => None,
            1 => Some(ChaosConfig { seed: chaos_seed, stall_percent: 5 }),
            2 => Some(ChaosConfig { seed: chaos_seed, stall_percent: 30 }),
            _ => Some(ChaosConfig { seed: chaos_seed, stall_percent: 50 }),
        };
        let label = format!("{name} limit={limit} chaos={chaos:?}");
        let mut capped = compiled.clone();
        capped.config.step_limit = limit;
        let snapshot = steppers_agree(&label, || {
            let m = capped.instantiate(program);
            match chaos {
                Some(c) => m.with_chaos(c),
                None => m,
            }
        })
        .unwrap_or_else(|e| panic!("{e}"));
        // Conservation: a tile's processor does exactly one thing per cycle —
        // issue, stall, or sit halted/chaos-stalled — so issues + recorded
        // stalls can never exceed the cycles that elapsed.
        for (t, tile) in snapshot.stats.tiles.iter().enumerate() {
            let busy = tile.proc_insts
                + tile.stall_reg
                + tile.stall_port_in
                + tile.stall_port_out
                + tile.stall_dynamic;
            raw_testkit::prop_assert!(
                busy <= limit,
                "{label}: tile {t} accounts {busy} cycles > limit {limit}"
            );
        }
    }
}
