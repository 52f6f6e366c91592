//! Acceptance tests for the adversarial mesh scenarios: faulty-tile-aware
//! compilation, co-residency, and the scenario differential harness.
//!
//! The contract under test (DESIGN.md §12):
//!
//! * compiling with a faulty-tile mask emits **zero** instructions — processor
//!   or switch — on every masked tile;
//! * the generated code is byte-identical across worker-thread counts and
//!   block-cache temperatures (`masked_mesh_is_thread_and_cache_invariant` in
//!   `tests/parallel_determinism.rs`);
//! * every scenario kernel passes the one oracle lane
//!   (`raw_trace::oracle::check`): interpreter, reference stepper, traced and
//!   untraced, clean and under chaos;
//! * two programs linked co-resident produce exactly their solo results.

use raw_repro::cc::{compile, link_coresident, CompilerOptions};
use raw_repro::machine::chaos::ChaosConfig;
use raw_repro::machine::isa::TileId;
use raw_repro::machine::MachineConfig;
use raw_repro::trace::oracle::check;
use raw_repro::trace::run_coresident_traced;

/// The scenario mesh: 2×4 with tile 3 reported dead; `mask_to_pow2` pads the
/// mask so four tiles stay live ({0, 1, 2, 4}).
fn faulty_config() -> MachineConfig {
    let base = MachineConfig::grid(2, 4);
    let mask = base
        .mask_to_pow2(&[TileId::from_raw(3)])
        .expect("the mesh fits the mask");
    base.with_faulty(mask)
}

/// The complementary partition (live exactly where [`faulty_config`] is dead).
fn complement_config() -> MachineConfig {
    let a = faulty_config();
    let dead: Vec<TileId> = (0..a.n_tiles())
        .map(TileId::from_raw)
        .filter(|&t| !a.is_faulty(t))
        .collect();
    let mut mask = raw_repro::machine::TileMask::EMPTY;
    for t in dead {
        mask.insert(t);
    }
    MachineConfig::grid(2, 4).with_faulty(mask)
}

#[test]
fn faulty_mask_emits_zero_instructions_on_masked_tiles() {
    let config = faulty_config();
    for bench in raw_repro::benchmarks::scenario_suite() {
        let program = bench.program(config.n_live()).unwrap();
        let compiled = compile(&program, &config, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        for (t, code) in compiled.machine_program.tiles.iter().enumerate() {
            if config.is_faulty(TileId::from_raw(t as u32)) {
                assert!(
                    code.proc.is_empty() && code.switch.is_empty(),
                    "{}: faulty tile {t} carries {} proc / {} switch instructions",
                    bench.name,
                    code.proc.len(),
                    code.switch.len()
                );
            }
        }
    }
}

#[test]
fn scenario_suite_matches_reference_stepper_traced_and_untraced() {
    let config = faulty_config();
    let points = ChaosConfig::sweep(raw_testkit::Rng::new(0x000A_110C_8A05).take(2), &[5, 30]);
    for bench in raw_repro::benchmarks::scenario_suite() {
        let program = bench.program(config.n_live()).unwrap();
        let compiled = compile(&program, &config, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        check(&compiled, &program, &points).unwrap();
    }
}

#[test]
fn coresident_programs_are_isolated_and_attributed() {
    let suite = raw_repro::benchmarks::scenario_suite();
    let config_a = faulty_config();
    let config_b = complement_config();
    let prog_a = suite[0].program(config_a.n_live()).unwrap();
    let prog_b = suite[2].program(config_b.n_live()).unwrap();
    let compiled_a = compile(&prog_a, &config_a, &CompilerOptions::default()).unwrap();
    let compiled_b = compile(&prog_b, &config_b, &CompilerOptions::default()).unwrap();
    let solo_a = compiled_a.run(&prog_a).unwrap().0;
    let solo_b = compiled_b.run(&prog_b).unwrap().0;

    let co = link_coresident(&compiled_a, &compiled_b).unwrap();
    let (results, report) = co.run([&prog_a, &prog_b]).unwrap();
    assert!(
        results[0].state_eq(&solo_a),
        "program A's co-resident result differs from its solo run"
    );
    assert!(
        results[1].state_eq(&solo_b),
        "program B's co-resident result differs from its solo run"
    );

    // Traced co-run: same cycle count, and the per-program attribution only
    // counts activity on owned tiles (windows of unowned tiles are excluded).
    let traced = run_coresident_traced(&co, [&prog_a, &prog_b]).unwrap();
    assert_eq!(traced.report.cycles, report.cycles, "traced co-run cycles");
    assert!(traced.results[0].state_eq(&solo_a));
    assert!(traced.results[1].state_eq(&solo_b));
    for (i, acc) in traced.per_program.iter().enumerate() {
        assert!(acc.issues > 0, "program {i} attributed zero issues");
        assert_eq!(
            acc.issues + acc.proc_stall_total(),
            acc.proc_window,
            "program {i}: per-program proc accounting must balance"
        );
    }
    // The merged mesh marks exactly the unowned tiles faulty.
    for t in 0..co.config.n_tiles() {
        let t = TileId::from_raw(t);
        let owned = co.tiles_of(0).contains(&t) || co.tiles_of(1).contains(&t);
        assert_ne!(owned, co.config.is_faulty(t), "tile {} ownership", t.0);
    }
}

#[test]
fn coresident_link_rejects_overlap_and_shape_mismatch() {
    let suite = raw_repro::benchmarks::scenario_suite();
    let config = faulty_config();
    let prog = suite[2].program(config.n_live()).unwrap();
    let compiled = compile(&prog, &config, &CompilerOptions::default()).unwrap();
    // Same partition twice: every live tile overlaps.
    let err = link_coresident(&compiled, &compiled).unwrap_err();
    assert!(
        err.to_string().contains("live in both"),
        "unexpected error: {err}"
    );
    // Different mesh shape.
    let square = MachineConfig::square(4);
    let prog4 = suite[2].program(4).unwrap();
    let other = compile(&prog4, &square, &CompilerOptions::default()).unwrap();
    let err = link_coresident(&compiled, &other).unwrap_err();
    assert!(
        err.to_string().contains("different mesh shapes"),
        "unexpected error: {err}"
    );
}
