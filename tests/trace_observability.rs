//! Observability reports: golden snapshots of the stall-taxonomy occupancy
//! table and the predicted-vs-observed table, and the accounting invariant
//! as a property test.
//!
//! The invariant (see `raw_trace::TileAccount`): within a unit's live window,
//! every cycle is attributed exactly once, so per tile the stall reasons sum
//! to `window − issues` (processors) and `window − routes − controls`
//! (switches) — under both steppers, with and without chaos injection.

use raw_repro::cc::{compile, CompiledProgram, CompilerOptions};
use raw_repro::ir::Program;
use raw_repro::machine::chaos::ChaosConfig;
use raw_repro::machine::oracle::run_both;
use raw_repro::machine::MachineConfig;
use raw_repro::trace::annotate::{placement_audit, SourceAnnotation};
use raw_repro::trace::{report, run_traced, RecordingSink, Trace};
use raw_testkit::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    raw_testkit::check_golden(&path, actual);
}

/// Traces one run under the production stepper and one under the reference,
/// in that order.
fn traces_on_both_steppers(
    compiled: &CompiledProgram,
    program: &Program,
    chaos: Option<ChaosConfig>,
) -> [Trace; 2] {
    run_both(|| {
        let m = compiled.instantiate_with_sink(program, RecordingSink::new());
        match chaos {
            Some(c) => m.with_chaos(c),
            None => m,
        }
    })
    .map(|(machine, snapshot)| Trace::capture(machine, snapshot.outcome.expect("run completes")))
}

#[test]
fn occupancy_table_snapshot_mxm_2x2() {
    // The matmul kernel exercises the interesting taxonomy rows: scoreboard
    // waits on multiply latency and receive-empty waits on operand traffic.
    let bench = raw_repro::benchmarks::mxm(4, 8, 2);
    let program = bench.program(4).unwrap();
    let config = MachineConfig::square(4);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    let trace = run_traced(&compiled, &program).unwrap().trace;
    let text = format!(
        "{}\n{}",
        report::occupancy_table(&trace),
        report::link_heatmap(&trace)
    );
    check_golden("trace_occupancy_mxm_2x2.txt", &text);
}

#[test]
fn predicted_vs_observed_snapshot_mxm_2x2() {
    // Pins the scheduler's per-tile issue and route counts against the
    // simulator's, and the makespan ratio.
    let bench = raw_repro::benchmarks::mxm(4, 8, 2);
    let program = bench.program(4).unwrap();
    let config = MachineConfig::square(4);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    let trace = run_traced(&compiled, &program).unwrap().trace;
    check_golden(
        "predicted_vs_observed_mxm_2x2.txt",
        &report::predicted_vs_observed(&trace, &compiled.report),
    );
}

#[test]
fn annotated_source_snapshot_mxm_2x2() {
    // Pins the per-source-line hotspot listing and the placement audit log.
    // The listing's totals row also proves attribution conserves the
    // active-window accounting for this workload.
    let bench = raw_repro::benchmarks::mxm(4, 8, 2);
    let program = bench.program(4).unwrap();
    let config = MachineConfig::square(4);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    let trace = run_traced(&compiled, &program).unwrap().trace;
    let ann = SourceAnnotation::build(&trace, &compiled.provenance);
    ann.selfcheck()
        .expect("attribution conserves window accounting");
    let text = format!(
        "{}\n{}",
        ann.render(bench.source()),
        placement_audit(&trace, &compiled.provenance, &compiled.report, 5)
    );
    check_golden("annotate_mxm_2x2.txt", &text);
}

#[test]
fn critical_path_snapshot_mxm_2x2() {
    let bench = raw_repro::benchmarks::mxm(4, 8, 2);
    let program = bench.program(4).unwrap();
    let config = MachineConfig::square(4);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    let trace = run_traced(&compiled, &program).unwrap().trace;
    check_golden("critical_path_mxm_2x2.txt", &report::critical_path(&trace));
}

#[test]
fn occupancy_table_identical_across_steppers() {
    // Without chaos both steppers must attribute every cycle identically,
    // so the rendered table (and heatmap) are byte-equal.
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    let program = bench.program(4).unwrap();
    let config = MachineConfig::square(4);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    let [production, reference] = traces_on_both_steppers(&compiled, &program, None);
    assert_eq!(
        report::occupancy_table(&production),
        report::occupancy_table(&reference)
    );
    assert_eq!(
        report::link_heatmap(&production),
        report::link_heatmap(&reference)
    );
}

/// The tiny suite, compiled once for the property test.
fn compiled_suite() -> &'static Vec<(Program, CompiledProgram)> {
    static SUITE: OnceLock<Vec<(Program, CompiledProgram)>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let config = MachineConfig::square(4);
        raw_repro::benchmarks::tiny_suite()
            .iter()
            .map(|b| {
                let program = b.program(4).unwrap();
                let compiled = compile(&program, &config, &CompilerOptions::default())
                    .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
                (program, compiled)
            })
            .collect()
    })
}

proptest! {
    #![cases(12)]

    /// Accounting invariant: stall reasons sum to the unaccounted remainder
    /// of every unit's live window, for random (workload, chaos)
    /// combinations, under both steppers.
    #[test]
    fn stall_reasons_sum_to_window_remainder(
        bench_idx in 0usize..7,
        stall_level in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let suite = compiled_suite();
        let (program, compiled) = &suite[bench_idx % suite.len()];
        let chaos = match stall_level {
            0 => None,
            1 => Some(ChaosConfig { seed, stall_percent: 5 }),
            _ => Some(ChaosConfig { seed, stall_percent: 30 }),
        };
        for trace in traces_on_both_steppers(compiled, program, chaos) {
            for (t, a) in trace.accounts().iter().enumerate() {
                prop_assert_eq!(
                    a.issues + a.proc_stall_total(),
                    a.proc_window,
                    "tile {} proc: {} issues + {} stalls != window {}",
                    t, a.issues, a.proc_stall_total(), a.proc_window
                );
                prop_assert_eq!(
                    a.routes + a.controls + a.switch_stall_total(),
                    a.switch_window,
                    "tile {} switch: {} routes + {} ctrl + {} stalls != window {}",
                    t, a.routes, a.controls, a.switch_stall_total(), a.switch_window
                );
            }
            // Source-level attribution must conserve the same accounting under
            // every stepper and chaos level.
            let ann = SourceAnnotation::build(&trace, &compiled.provenance);
            if let Err((attributed, window)) = ann.selfcheck() {
                prop_assert!(
                    false,
                    "annotation lost cycles: {} attributed vs {} in windows",
                    attributed, window
                );
            }
        }
    }
}
