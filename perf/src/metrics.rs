//! The metric vocabulary: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` at the repository root
//! lists the same names; a test below keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline by which `raw-perf diff` lets the metric worsen
    /// between two records of one seed. `0.0` = any worsening fails: cycle
    /// and size metrics are deterministic for a fixed seed.
    pub diff_bound: f64,
}

/// Fixed timed-window length in seconds; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 28;

/// The four workloads, in the order they are documented.
pub const WORKLOADS: [&str; 4] = ["sim_dense", "sim_sparse", "compile_cold", "service_mix"];

/// The end-to-end metrics every workload reports. `fail_ratio` is the ninth:
/// it travels as `failed` ÷ `attempted` in the result line and as its own
/// field in the record, because a metric that is 0 on every healthy run has
/// no median to take a share of.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        diff_bound: 0.25,
    },
    EndToEnd {
        name: "pass_ms",
        unit: "ms",
        better: Better::Lower,
        diff_bound: 0.10,
    },
    EndToEnd {
        name: "req_ms_p50",
        unit: "ms",
        better: Better::Lower,
        diff_bound: 0.10,
    },
    EndToEnd {
        name: "req_ms_p95",
        unit: "ms",
        better: Better::Lower,
        diff_bound: 0.15,
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: Better::Lower,
        diff_bound: 0.0,
    },
    EndToEnd {
        name: "speedup_geomean",
        unit: "ratio",
        better: Better::Higher,
        diff_bound: 0.0,
    },
    EndToEnd {
        name: "code_words",
        unit: "count",
        better: Better::Lower,
        diff_bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        diff_bound: 0.10,
    },
];

/// The per-layer metrics `raw-perf trace` reports, `(name, unit)`. A layer a
/// workload's pass never enters reads 0 there.
pub const PER_LAYER: [(&str, &str); 91] = [
    // lang
    ("lang.lex.ms", "ms"),
    ("lang.lex.tokens", "count"),
    ("lang.parse.ms", "ms"),
    ("lang.unroll.ms", "ms"),
    ("lang.lower.ms", "ms"),
    ("lang.lower.ir_insts", "count"),
    ("lang.lower.ir_blocks", "count"),
    // ir (the oracle; its cost lands in setup_s)
    ("ir.interp.ms", "ms"),
    ("ir.interp.insts", "count"),
    // core: compile phases
    ("core.compile.ms", "ms"),
    ("core.compile.blocks", "count"),
    ("core.layout.ms", "ms"),
    ("core.taskgraph.ms", "ms"),
    ("core.taskgraph.nodes", "count"),
    ("core.partition.ms", "ms"),
    ("core.partition.clusters", "count"),
    ("core.place.ms", "ms"),
    ("core.place.swaps", "count"),
    ("core.schedule.ms", "ms"),
    ("core.schedule.comm_paths", "count"),
    ("core.schedule.makespan", "cycles"),
    ("core.codegen.ms", "ms"),
    ("core.codegen.vinsts", "count"),
    ("core.regalloc.ms", "ms"),
    ("core.regalloc.spills", "count"),
    ("core.link.ms", "ms"),
    ("core.link.code_words", "count"),
    // core: exact solver and portfolio (compile_cold only)
    ("core.exact.ms", "ms"),
    ("core.exact.expansions", "count"),
    ("core.exact.eligible_blocks", "count"),
    ("core.exact.certified_blocks", "count"),
    ("core.portfolio.compile_ms", "ms"),
    ("core.portfolio.makespan_gain_pct", "%"),
    ("core.portfolio.wins_greedy", "count"),
    ("core.portfolio.wins_annealing", "count"),
    ("core.portfolio.wins_exact", "count"),
    // core: block cache, codec, disk
    ("core.cachekey.ms", "ms"),
    ("core.cachekey.bytes", "bytes"),
    ("core.codec.encode_ms", "ms"),
    ("core.codec.decode_ms", "ms"),
    ("core.codec.bytes", "bytes"),
    ("core.disk.store_ms", "ms"),
    ("core.disk.load_ms", "ms"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.coalesced", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.disk_rejects", "count"),
    // core: wire and service
    ("core.wire.encode_req_ms", "ms"),
    ("core.wire.decode_req_ms", "ms"),
    ("core.wire.encode_resp_ms", "ms"),
    ("core.wire.decode_resp_ms", "ms"),
    ("core.wire.req_bytes", "bytes"),
    ("core.wire.resp_bytes", "bytes"),
    ("core.service.start_ms", "ms"),
    ("core.service.ping_us", "us"),
    ("core.service.memo_ms_p50", "ms"),
    ("core.service.diskhit_ms_p50", "ms"),
    ("core.service.novel_ms_p50", "ms"),
    ("core.service.memo_ratio", "ratio"),
    ("core.service.server_ms", "ms"),
    ("core.service.transport_ms", "ms"),
    ("core.service.errors", "count"),
    // machine
    ("machine.load.ms", "ms"),
    ("machine.run.ms", "ms"),
    ("machine.run.cycles", "cycles"),
    ("machine.run.insts", "count"),
    ("machine.run.ipc", "inst/cycle"),
    ("machine.run.ns_per_cycle", "ns"),
    ("machine.run.ns_per_tile_cycle", "ns"),
    ("machine.readback.ms", "ms"),
    ("machine.stall.reg", "cycles"),
    ("machine.stall.port_in", "cycles"),
    ("machine.stall.port_out", "cycles"),
    ("machine.stall.dynamic", "cycles"),
    ("machine.switch.routes", "count"),
    ("machine.switch.stalls", "cycles"),
    ("machine.static_words", "count"),
    ("machine.dyn_active_cycles", "cycles"),
    ("machine.stepper.reference_ms", "ms"),
    ("machine.stepper.event_ms", "ms"),
    // trace and telemetry
    ("trace.capture.overhead_pct", "%"),
    ("telemetry.scrape_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    // perf: the harness itself
    ("perf.pass_ms_p50", "ms"),
    ("perf.pass_ms_p90", "ms"),
    ("perf.cpu_ms_per_pass", "ms"),
    ("perf.trace_overhead_pct", "%"),
    ("perf.passes", "count"),
    ("perf.ops_per_pass", "count"),
];

/// Whether a per-layer metric is an exact count (bit-identical for one seed),
/// as opposed to a time or something derived from one.
pub fn is_exact_count(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "cycles" | "bytes")
        // Which of two racing clients reaches a shared block first is decided
        // by the scheduler, not the seed.
        && name != "core.cache.coalesced"
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_trace::json::{parse, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let m = manifest();
        let e2e = m.get("end_to_end").unwrap();
        assert_eq!(
            names(e2e),
            END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>()
        );
        for (entry, ours) in e2e.as_arr().unwrap().iter().zip(END_TO_END) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(ours.unit));
            let word = match ours.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(word));
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", ours.name);
        }
        let layers = m.get("per_layer").unwrap();
        assert_eq!(
            names(layers),
            PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        for (entry, (_, unit)) in layers.as_arr().unwrap().iter().zip(PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        }
    }

    #[test]
    fn benchmark_json_names_the_workloads_and_window() {
        let m = manifest();
        assert_eq!(names(m.get("workloads").unwrap()), WORKLOADS);
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            m.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .chain(WORKLOADS)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
        for name in all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
