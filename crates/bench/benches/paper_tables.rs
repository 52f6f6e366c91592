//! Micro-benchmarks mirroring the paper's evaluation artifacts, on the
//! raw-testkit bench harness (`cargo bench -p raw-bench --bench paper_tables`).
//!
//! Each measured target regenerates one *row/point* of a table or figure:
//!
//! * `table2/<bench>` — baseline (sequential) compile + simulate.
//! * `table3/<bench>/N` — RAWCC compile + simulate at N tiles.
//! * `fig8/<variant>` — fpppp-kernel under base / inf-reg / 1-cycle machines.
//!
//! The harness tracks host wall time (useful for regression tracking of the
//! compiler and simulator themselves) and appends one JSON line per target to
//! `BENCH_paper_tables.json`; the *simulated* cycle counts — the paper's
//! actual metric — are printed once per target and collected by
//! `raw-bench`/`EXPERIMENTS.md`.

use raw_bench::{measure, measure_baseline, MachineVariant};
use raw_testkit::bench::Harness;
use rawcc::CompilerOptions;

fn scaled_suite() -> Vec<raw_benchmarks::Benchmark> {
    // Every target runs many times; use reduced shapes.
    vec![
        raw_benchmarks::life(12, 1),
        raw_benchmarks::vpenta(12),
        raw_benchmarks::cholesky(1, 8),
        raw_benchmarks::tomcatv(12, 1),
        raw_benchmarks::fpppp_kernel(raw_benchmarks::FppppShape {
            inputs: 16,
            intermediates: 40,
            outputs: 10,
            seed: 5,
        }),
        raw_benchmarks::mxm(8, 16, 4),
        raw_benchmarks::jacobi(12, 1),
    ]
}

fn table2(h: &mut Harness) {
    for bench in scaled_suite() {
        let program = bench.baseline_program().unwrap();
        let cycles = measure_baseline(&program);
        eprintln!("table2: {} seq cycles = {cycles}", bench.name);
        h.bench(&format!("table2/{}", bench.name), || {
            measure_baseline(&program)
        });
    }
}

fn table3(h: &mut Harness) {
    let options = CompilerOptions::default();
    for bench in scaled_suite() {
        for n in [2u32, 8] {
            let program = bench.program(n).unwrap();
            let config = MachineVariant::Base.config(n);
            let m = measure(&program, &config, &options);
            eprintln!("table3: {} @{n} = {} cycles", bench.name, m.cycles);
            h.bench(&format!("table3/{}/{n}", bench.name), || {
                measure(&program, &config, &options)
            });
        }
    }
    // Past the paper's 32-tile ceiling: one compiled benchmark on an 8x8
    // mesh, the smallest size of the big-mesh regime (the sparse-workload
    // sweep in benches/sim_scale.rs carries the 16x16 and 32x32 points).
    let bench = raw_benchmarks::jacobi(12, 1);
    let n = 64u32;
    let program = bench.program(n).unwrap();
    let config = MachineVariant::Base.config(n);
    let m = measure(&program, &config, &options);
    eprintln!("table3: {} @{n} = {} cycles", bench.name, m.cycles);
    h.bench(&format!("table3/{}/{n}", bench.name), || {
        measure(&program, &config, &options)
    });
}

fn fig8(h: &mut Harness) {
    let options = CompilerOptions::default();
    let bench = raw_benchmarks::fpppp_kernel(raw_benchmarks::FppppShape {
        inputs: 16,
        intermediates: 40,
        outputs: 10,
        seed: 5,
    });
    for variant in [
        MachineVariant::Base,
        MachineVariant::InfReg,
        MachineVariant::OneCycle,
    ] {
        let program = bench.program(8).unwrap();
        let config = variant.config(8);
        let m = measure(&program, &config, &options);
        eprintln!("fig8: {} = {} cycles", variant.name(), m.cycles);
        h.bench(&format!("fig8/{}", variant.name()), || {
            measure(&program, &config, &options)
        });
    }
}

fn compile_only(h: &mut Harness) {
    // Compiler throughput on the largest-block benchmark (cholesky peels into
    // one straight-line region) — tracks orchestrater scalability.
    let bench = raw_benchmarks::cholesky(1, 10);
    let program = bench.program(8).unwrap();
    let config = MachineVariant::Base.config(8);
    let options = CompilerOptions::default();
    h.bench("compile/cholesky@8", || {
        rawcc::compile(&program, &config, &options).unwrap()
    });
    // Annealing placement dominates compile time at high step counts; this
    // target tracks the incremental Δ-cost move evaluation.
    let annealing = CompilerOptions {
        placement: rawcc::PlacementAlgorithm::Annealing { seed: 7 },
        ..Default::default()
    };
    h.bench("compile/cholesky@8/annealing", || {
        rawcc::compile(&program, &config, &annealing).unwrap()
    });
}

fn main() {
    let mut h = Harness::new("paper_tables");
    table2(&mut h);
    table3(&mut h);
    fig8(&mut h);
    compile_only(&mut h);
    h.finish();
}
