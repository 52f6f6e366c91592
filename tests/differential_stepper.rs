//! Differential validation of the production stepper.
//!
//! The production stepper visits only the components in its run sets and
//! commits only dirty channels (DESIGN.md §8). It claims to be
//! *observationally identical* to the step-everything path (kept as
//! `Machine::with_reference_stepper`). This suite runs every
//! `raw-benchmarks` workload — and a chaos sweep over stall rates, seeds, and
//! mesh shapes — through both steppers and asserts bit-identical cycle
//! counts, statistics, and final memory, plus a truncation property: when
//! `run()` ends early (step limit) while components are still asleep, the
//! lazily-deferred stall debt must settle to exactly the reference statistics.

use raw_repro::cc::{compile, CompiledProgram, CompilerOptions};
use raw_repro::ir::Program;
use raw_repro::machine::chaos::ChaosConfig;
use raw_repro::machine::isa::TileId;
use raw_repro::machine::{Machine, MachineConfig, RunReport};
use std::sync::OnceLock;

/// Runs `machine` to completion and snapshots everything observable.
fn observe(mut machine: Machine, label: &str) -> (RunReport, Vec<Vec<u32>>) {
    let report = machine.run().unwrap_or_else(|e| panic!("{label}: {e}"));
    let n = machine.config().n_tiles();
    let mems = (0..n).map(|t| machine.memory(TileId(t)).to_vec()).collect();
    (report, mems)
}

/// Asserts both steppers agree on cycles, stats, and memory.
fn assert_equivalent(
    compiled: &CompiledProgram,
    program: &Program,
    chaos: Option<ChaosConfig>,
    label: &str,
) {
    let with_chaos = |mut m: Machine| {
        if let Some(c) = chaos {
            m = m.with_chaos(c);
        }
        m
    };
    let production = with_chaos(compiled.instantiate(program));
    let reference = with_chaos(compiled.instantiate(program).with_reference_stepper());
    let (p_report, p_mems) = observe(production, label);
    let (r_report, r_mems) = observe(reference, label);
    assert_eq!(p_report.cycles, r_report.cycles, "{label}: cycle count");
    assert_eq!(p_report.stats, r_report.stats, "{label}: stats");
    assert_eq!(p_mems, r_mems, "{label}: final memory");
}

#[test]
fn every_workload_matches_reference() {
    for bench in raw_repro::benchmarks::tiny_suite() {
        let program = bench.program(4).unwrap();
        let config = MachineConfig::square(4);
        let compiled = compile(&program, &config, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{}: compile: {e}", bench.name));
        assert_equivalent(&compiled, &program, None, bench.name);
    }
}

#[test]
fn chaos_sweep_matches_reference() {
    // Same sweep shape as the Appendix-A static-ordering test: stall rates
    // {1, 5, 20, 50}% × seeds × two mesh shapes. The reference asks chaos about
    // every component every cycle; the production stepper asks only when a
    // component is about to step and counts a sleeper's stalled cycles when
    // its debt settles — the statistics must come out the same.
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    let program = bench.program(4).unwrap();
    let mut seed_rng = raw_testkit::Rng::new(0x000A_110C_8A05);
    let seeds: Vec<u64> = (0..4).map(|_| seed_rng.next_u64()).collect();

    for (rows, cols) in [(2u32, 2), (1, 4)] {
        let config = MachineConfig::grid(rows, cols);
        let compiled = compile(&program, &config, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{rows}x{cols}: compile: {e}"));
        assert_equivalent(&compiled, &program, None, &format!("{rows}x{cols} clean"));
        for &seed in &seeds {
            for stall_percent in [1u32, 5, 20, 50] {
                assert_equivalent(
                    &compiled,
                    &program,
                    Some(ChaosConfig {
                        seed,
                        stall_percent,
                    }),
                    &format!("{rows}x{cols} seed {seed:#x} {stall_percent}%"),
                );
            }
        }
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
    let mask = base.mask_to_pow2(&[TileId::from_raw(3)]);
    let config = base.with_faulty(mask);
    let program = bench.program(config.n_live()).unwrap();
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    // Masked tiles carry no instructions, so the live partition does all work.
    for (t, code) in compiled.machine_program.tiles.iter().enumerate() {
        if config.is_faulty(TileId::from_raw(t as u32)) {
            assert!(code.proc.is_empty() && code.switch.is_empty(), "tile {t}");
        }
    }
    assert_equivalent(&compiled, &program, None, "scatter faulty clean");
    let mut seed_rng = raw_testkit::Rng::new(0x000A_110C_8A05);
    for _ in 0..3 {
        let seed = seed_rng.next_u64();
        for stall_percent in [5u32, 20, 50] {
            assert_equivalent(
                &compiled,
                &program,
                Some(ChaosConfig {
                    seed,
                    stall_percent,
                }),
                &format!("scatter faulty seed {seed:#x} {stall_percent}%"),
            );
        }
    }
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
    assert_equivalent(&compiled, &program, None, "hist clean");
    for seed in [7u64, 13, 21] {
        assert_equivalent(
            &compiled,
            &program,
            Some(ChaosConfig {
                seed,
                stall_percent: 30,
            }),
            &format!("hist seed {seed}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Stall-debt settlement at early termination
// ---------------------------------------------------------------------------

/// Precompiled workloads plus each one's clean full-run cycle count, shared
/// across property cases (compilation dominates otherwise).
fn truncation_fixtures() -> &'static Vec<(String, CompiledProgram, Program, u64)> {
    static FIXTURES: OnceLock<Vec<(String, CompiledProgram, Program, u64)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let config = MachineConfig::square(4);
        raw_repro::benchmarks::tiny_suite()
            .into_iter()
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

/// Runs one stepper with a truncating step limit; returns the termination
/// kind (Ok cycles / limit / deadlock-at-cycle), post-flush stats and memory.
fn observe_truncated(
    fixture: &(String, CompiledProgram, Program, u64),
    limit: u64,
    chaos: Option<ChaosConfig>,
    reference: bool,
) -> (String, raw_repro::machine::stats::Stats, Vec<Vec<u32>>) {
    let (_, compiled, program, _) = fixture;
    let mut capped = compiled.clone();
    capped.config.step_limit = limit;
    let mut m = capped.instantiate(program);
    if reference {
        m = m.with_reference_stepper();
    }
    if let Some(c) = chaos {
        m = m.with_chaos(c);
    }
    let outcome = match m.run() {
        Ok(report) => format!("ok@{}", report.cycles),
        Err(e) => format!("err: {e}"),
    };
    let n = m.config().n_tiles();
    let mems = (0..n).map(|t| m.memory(TileId(t)).to_vec()).collect();
    (outcome, m.stats().clone(), mems)
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
        // processors sit in SleepReg/SleepPort and switches sleep with
        // unsettled stall debt. The flush on the error path must settle that
        // debt *exactly*: the production stepper — which sleeps through cycles
        // the reference steps one by one — must report identical statistics,
        // and the per-tile counters must conserve (no stall cycle lost or
        // invented).
        let fixtures = truncation_fixtures();
        let fixture = &fixtures[bench_idx % fixtures.len()];
        let (name, _, _, full_cycles) = fixture;
        let limit = (full_cycles * limit_pct / 100).max(1);
        let chaos = match chaos_pick {
            0 => None,
            1 => Some(ChaosConfig { seed: chaos_seed, stall_percent: 5 }),
            2 => Some(ChaosConfig { seed: chaos_seed, stall_percent: 30 }),
            _ => Some(ChaosConfig { seed: chaos_seed, stall_percent: 50 }),
        };
        let label = format!("{name} limit={limit} chaos={chaos:?}");
        let production = observe_truncated(fixture, limit, chaos, false);
        let reference = observe_truncated(fixture, limit, chaos, true);
        raw_testkit::prop_assert_eq!(&production, &reference, "{label}");
        // Conservation: a tile's processor does exactly one thing per cycle —
        // issue, stall, or sit halted/chaos-stalled — so issues + recorded
        // stalls can never exceed the cycles that elapsed.
        let (_, stats, _) = &production;
        for (t, tile) in stats.tiles.iter().enumerate() {
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
