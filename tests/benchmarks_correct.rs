//! End-to-end correctness: every benchmark kernel, compiled at several machine
//! sizes and simulated cycle-accurately, must reproduce the reference
//! interpreter's variables and arrays bit-exactly.

use raw_repro::cc::{compile, compile_baseline, CompilerOptions, PlacementAlgorithm};
use raw_repro::ir::interp::Interpreter;
use raw_repro::machine::MachineConfig;

fn check(bench: &raw_repro::benchmarks::Benchmark, n: u32) {
    let program = bench.program(n).expect(bench.name);
    let config = MachineConfig::square(n);
    let compiled = compile(&program, &config, &CompilerOptions::default())
        .unwrap_or_else(|e| panic!("{} @{n}: compile: {e}", bench.name));
    let (result, report) = compiled
        .run(&program)
        .unwrap_or_else(|e| panic!("{} @{n}: simulate: {e}", bench.name));
    let golden = Interpreter::new(&program).run().unwrap();
    assert!(
        result.state_eq(&golden),
        "{} @{n}: simulated state diverges from interpreter",
        bench.name
    );
    assert!(report.cycles > 0);
}

#[test]
fn tiny_suite_all_sizes() {
    for bench in raw_repro::benchmarks::tiny_suite() {
        for n in [1u32, 2, 4, 8] {
            check(&bench, n);
        }
    }
}

#[test]
fn baselines_match_interpreter() {
    for bench in raw_repro::benchmarks::tiny_suite() {
        let program = bench.baseline_program().expect(bench.name);
        let compiled = compile_baseline(&program, &MachineConfig::square(1)).unwrap();
        let (result, _) = compiled.run(&program).unwrap();
        let golden = Interpreter::new(&program).run().unwrap();
        assert!(result.state_eq(&golden), "{} baseline diverges", bench.name);
    }
}

#[test]
fn rectangular_meshes_work_too() {
    // Non-square power-of-two meshes (1×2, 2×1, 1×4, 4×2).
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    for (rows, cols) in [(1u32, 2u32), (2, 1), (1, 4), (4, 2)] {
        let n = rows * cols;
        let program = bench.program(n).unwrap();
        let config = MachineConfig::grid(rows, cols);
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let (result, _) = compiled
            .run(&program)
            .unwrap_or_else(|e| panic!("{rows}x{cols}: {e}"));
        let golden = Interpreter::new(&program).run().unwrap();
        assert!(result.state_eq(&golden), "{rows}x{cols} diverges");
    }
}

#[test]
fn ablation_configurations_stay_correct() {
    use raw_repro::cc::PriorityScheme;
    let bench = raw_repro::benchmarks::mxm(4, 8, 2);
    let program = bench.program(4).unwrap();
    let config = MachineConfig::square(4);
    let golden = Interpreter::new(&program).run().unwrap();
    let variants = [
        CompilerOptions {
            clustering: false,
            ..Default::default()
        },
        CompilerOptions {
            placement: PlacementAlgorithm::None,
            ..Default::default()
        },
        CompilerOptions {
            priority: PriorityScheme::LevelOnly,
            ..Default::default()
        },
        CompilerOptions {
            priority: PriorityScheme::SourceOrder,
            ..Default::default()
        },
        CompilerOptions {
            fold_communication: false,
            ..Default::default()
        },
    ];
    for (i, options) in variants.iter().enumerate() {
        let compiled = compile(&program, &config, options).unwrap();
        let (result, _) = compiled.run(&program).unwrap();
        assert!(result.state_eq(&golden), "ablation variant {i} diverges");
    }
}

#[test]
fn machine_variants_stay_correct() {
    // inf-reg and 1-cycle machines (Figure 8 configurations) must compute the
    // same results, just in different cycle counts.
    let bench = raw_repro::benchmarks::fpppp_kernel(raw_repro::benchmarks::FppppShape {
        inputs: 8,
        intermediates: 16,
        outputs: 4,
        seed: 11,
    });
    let program = bench.program(4).unwrap();
    let golden = Interpreter::new(&program).run().unwrap();
    for config in [
        MachineConfig::square(4),
        MachineConfig::square(4).with_infinite_registers(),
        MachineConfig::square(4).with_unit_latency(),
    ] {
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let (result, _) = compiled.run(&program).unwrap();
        assert!(result.state_eq(&golden));
    }
}
