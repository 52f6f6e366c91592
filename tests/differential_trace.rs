//! Differential validation of the tracing subsystem.
//!
//! Tracing claims to be strictly observational: a traced run must be
//! bit-identical to an untraced one, clean and under chaos. That is property 4
//! of the one oracle lane, `raw_trace::oracle::check` (DESIGN.md §6); the
//! workloads here feed it on mesh shapes and chaos seeds the other suites do
//! not use. The Chrome-trace export of matmul on 16 tiles is checked
//! separately: it must round-trip through the in-tree JSON parser.

use raw_repro::cc::{compile, CompilerOptions};
use raw_repro::machine::chaos::ChaosConfig;
use raw_repro::machine::MachineConfig;
use raw_repro::trace::oracle::check;
use raw_repro::trace::{chrome, json};
use raw_testkit::Rng;

#[test]
fn every_workload_traced_matches_untraced() {
    // The tiny suite on a 1×4 strip; the 2×2 run is
    // `differential_stepper::every_workload_matches_reference`.
    let config = MachineConfig::grid(1, 4);
    for bench in raw_repro::benchmarks::tiny_suite() {
        let program = bench.program(4).unwrap();
        let compiled = compile(&program, &config, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{}: compile: {e}", bench.name));
        check(&compiled, &program, &[]).unwrap();
    }
}

#[test]
fn chaos_sweep_traced_matches_untraced() {
    // Stall rates {1, 5, 20, 50}% × 4 seeds of their own stream on a 4×4
    // mesh, a shape no other jacobi sweep uses. Tracing must not perturb the
    // chaos draws either.
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    let config = MachineConfig::square(16);
    let program = bench.program(config.n_live()).unwrap();
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    let points = ChaosConfig::sweep(Rng::new(0x0BCE_55E0_77AC).take(4), &[1, 5, 20, 50]);
    check(&compiled, &program, &points).unwrap();
}

#[test]
fn chrome_trace_round_trips_for_matmul_on_16_tiles() {
    let bench = raw_repro::benchmarks::mxm(4, 8, 2);
    let program = bench.program(16).unwrap();
    let config = MachineConfig::square(16);
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    let run = raw_repro::trace::run_traced(&compiled, &program).unwrap();

    let doc_text = chrome::chrome_trace(&run.trace);
    let doc = json::parse(&doc_text).expect("chrome export parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // One named track per tile processor and per switch (16 tiles → 32).
    let thread_names = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .count();
    assert_eq!(thread_names, 32);

    // Every duration event stays within the run and on a valid track.
    let mut duration_events = 0usize;
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        duration_events += 1;
        let ts = e.get("ts").and_then(|v| v.as_f64()).unwrap();
        let dur = e.get("dur").and_then(|v| v.as_f64()).unwrap();
        let tid = e.get("tid").and_then(|v| v.as_f64()).unwrap();
        assert!(ts >= 0.0 && dur >= 1.0);
        assert!(ts + dur <= run.report.cycles as f64, "event past run end");
        assert!((tid as usize) < 32, "tid {tid} out of range");
    }
    assert!(duration_events > 0, "no duration events in export");
}
