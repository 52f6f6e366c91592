//! The static ordering property (paper Appendix A): a deadlock-free static
//! schedule produces the same results under *any* timing. We model dynamic
//! events (cache misses, interrupts) by randomly stalling processors and
//! switches, and require bit-identical final state. Every point goes through
//! the one oracle lane, `raw_trace::oracle::check`, so each perturbed run is
//! also checked against the reference stepper and a traced twin.

use raw_repro::cc::{compile, CompilerOptions};
use raw_repro::machine::chaos::ChaosConfig;
use raw_repro::machine::MachineConfig;
use raw_repro::trace::oracle::check;
use raw_testkit::Rng;

#[test]
fn random_stalls_do_not_change_results() {
    let config = MachineConfig::square(4);
    let points = ChaosConfig::sweep(1..=5, &[10, 35, 60]);
    for bench in [
        raw_repro::benchmarks::jacobi(8, 1),
        raw_repro::benchmarks::mxm(4, 8, 2),
        raw_repro::benchmarks::life(6, 1),
    ] {
        let program = bench.program(4).unwrap();
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        check(&compiled, &program, &points).unwrap();
    }
}

#[test]
fn chaos_sweep_stall_rates_seeds_and_shapes() {
    // The one Appendix-A sweep: stall probabilities {1, 5, 20, 50}% × 8 seeds
    // × two mesh shapes, every point checked for final state, stepper
    // agreement and trace transparency. The chaos seeds are drawn from the
    // testkit RNG so the sweep is deterministic but not hand-picked.
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    let program = bench.program(4).unwrap();
    let points = ChaosConfig::sweep(Rng::new(0x000A_110C_8A05).take(8), &[1, 5, 20, 50]);
    for (rows, cols) in [(2u32, 2), (1, 4)] {
        let config = MachineConfig::grid(rows, cols);
        let compiled = compile(&program, &config, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{rows}x{cols}: compile: {e}"));
        check(&compiled, &program, &points).unwrap();
    }
}

#[test]
fn dynamic_network_traffic_is_timing_robust_too() {
    // A kernel with data-dependent (dynamic-network) stores, on a 1×4 strip:
    // every remote request and reply travels the one row, so stalls reorder
    // dynamic traffic as much as they can. The 2×2 twin is
    // `differential_stepper::dynamic_network_workload_matches_reference`.
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
    let config = MachineConfig::grid(1, 4);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    check(&compiled, &program, &ChaosConfig::sweep([7, 13, 21], &[30])).unwrap();
}

#[test]
fn chaos_slows_execution_but_terminates() {
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    let program = bench.program(2).unwrap();
    let config = MachineConfig::square(2);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();

    let mut clean = compiled.instantiate(&program);
    let clean_cycles = clean.run().unwrap().cycles;

    let mut noisy = compiled.instantiate(&program).with_chaos(ChaosConfig {
        seed: 99,
        stall_percent: 50,
    });
    let noisy_cycles = noisy.run().unwrap().cycles;
    assert!(
        noisy_cycles > clean_cycles,
        "stalls must cost cycles: {noisy_cycles} vs {clean_cycles}"
    );
}
