//! `raw-perf` — the repository's benchmark.
//!
//! ```text
//! raw-perf --workload W --seed N --seconds S --trace 0|1   (the benchmark driver's form)
//! raw-perf run   --workload W [--seed N] [--seconds S | --passes P] [--out DIR]
//! raw-perf trace --workload W [--seed N] [--out DIR]
//! raw-perf diff  BEFORE.json AFTER.json
//! raw-perf check [--out DIR]
//! ```
//!
//! `run` measures the end-to-end metrics with tracing off; `trace` makes a few
//! passes with spans on and runs the layer probes; both end by printing one
//! JSON result line. See `perf/README.md` for the workloads and metrics.

mod inputs;
mod json;
mod layers;
mod metrics;
mod ops;
mod record;
mod service;
mod span;
mod stats;
mod workload;

use json::Value;
use layers::Counters;
use metrics::{is_exact_count, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use record::{Metric, Record};
use span::{Span, Tracer};
use stats::{highest_supported_percentile, median, p10, percentile, MIN_BEYOND};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{OpsWorkload, PassStats, Workload};

/// Seconds of set-up a run aims for; the number of set-ups follows from what
/// the first one took. `setup_s` is their median.
const SETUP_BUDGET_S: f64 = 3.0;
/// Fewest set-ups in a run.
const MIN_SETUPS: usize = 3;
/// Most set-ups in a run.
const MAX_SETUPS: usize = 9;
/// A timed window never holds fewer passes than this.
const MIN_PASSES: usize = 3;
/// Untraced/traced pass pairs in a trace.
const TRACE_PAIRS: usize = 5;
/// The outside-measured phase sum may differ from `CompileReport.timings` by
/// this share before `check` fails.
const PHASE_DRIFT_BOUND: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    passes: Option<usize>,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: raw-perf --workload W --seed N --seconds S --trace 0|1\n       \
         raw-perf run|trace --workload W [--seed N] [--seconds S | --passes P] [--out DIR]\n       \
         raw-perf diff BEFORE.json AFTER.json\n       \
         raw-perf check [--out DIR]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    )
}

/// Parses `--flag value` pairs; returns the arguments and `--trace` if given.
fn parse_flags(flags: &[String]) -> Result<(Args, Option<bool>), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        passes: None,
        out: PathBuf::from("perf/out"),
    };
    let mut trace = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--passes" => {
                let n: usize = value.parse().map_err(|_| bad("a pass count"))?;
                if n == 0 {
                    return Err(bad("at least one pass"));
                }
                args.passes = Some(n);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok((args, trace))
}

fn setup(args: &Args, scratch: &Path, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'\n{}", args.workload, usage()));
    }
    Ok(if args.workload == "service_mix" {
        Box::new(service::ServiceWorkload::setup(args.seed, scratch, t)?)
    } else {
        Box::new(OpsWorkload::setup(&args.workload, args.seed, t)?)
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used, all threads, ms (10 ms ticks).
fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime are
            // the 12th and 13th of those.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * 10.0)
        })
        .unwrap_or(0.0)
}

/// Per-pass upper-tail percentile of request latency: p95 when a pass has the
/// samples for it, the highest supported percentile below that otherwise, and
/// the slowest op when a pass is only a handful of ops.
fn upper_percentile(ops_per_pass: usize) -> u32 {
    highest_supported_percentile(ops_per_pass, MIN_BEYOND).map_or(100, |p| p.min(95))
}

/// The end-to-end metrics of a set of timed passes.
fn end_to_end(
    workload: &dyn Workload,
    setup_s: &[f64],
    passes: &[PassStats],
    rss_mb: f64,
) -> (Vec<Metric>, Vec<(String, f64)>) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    let upper = upper_percentile(workload.ops_per_pass());
    let p50s: Vec<f64> = passes.iter().map(|p| median(&p.op_ms)).collect();
    let uppers: Vec<f64> = passes
        .iter()
        .map(|p| percentile(&p.op_ms, f64::from(upper)))
        .collect();
    let first = &passes[0];
    let value = |name: &str| match name {
        "setup_s" => median(setup_s),
        "pass_ms" => p10(&walls),
        "req_ms_p50" => p10(&p50s),
        "req_ms_p95" => p10(&uppers),
        "sim_cycles" => first.sim_cycles as f64,
        "speedup_geomean" => workload.speedup_geomean(),
        "code_words" => first.code_words as f64,
        "peak_rss_mb" => rss_mb,
        other => unreachable!("no rule for end-to-end metric {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|e| Metric {
            name: e.name,
            value: value(e.name),
            unit: e.unit,
        })
        .collect();
    // A pass that simulates or emits something else than the first did means
    // the product is not deterministic; say so beside the numbers.
    let steady = passes
        .iter()
        .all(|p| p.sim_cycles == first.sim_cycles && p.code_words == first.code_words);
    let diagnostics = vec![
        ("perf.pass_ms_p50".to_string(), median(&walls)),
        ("perf.pass_ms_p90".to_string(), percentile(&walls, 90.0)),
        ("perf.pass_ms_min".to_string(), percentile(&walls, 0.0)),
        ("perf.req_ms_p50_median".to_string(), median(&p50s)),
        ("perf.req_upper_percentile".to_string(), f64::from(upper)),
        (
            "perf.requests_per_pass".to_string(),
            first.op_ms.len() as f64,
        ),
        ("perf.setup_reps".to_string(), setup_s.len() as f64),
        (
            "perf.passes_deterministic".to_string(),
            f64::from(u8::from(steady)),
        ),
    ];
    (metrics, diagnostics)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One set-up and its warm-up pass, timed into `setup_s`. The old instance
/// goes first: it owns the scratch files the new one is about to create.
fn fresh_setup(
    args: &Args,
    scratch: &Path,
    old: Option<Box<dyn Workload>>,
    setup_s: &mut Vec<f64>,
    totals: &mut (u64, u64),
) -> Result<Box<dyn Workload>, String> {
    drop(old);
    let start = Instant::now();
    let mut workload = setup(args, scratch, &mut Tracer::off())?;
    let warm = workload.pass(&mut Tracer::off(), &mut Counters::new());
    setup_s.push(start.elapsed().as_secs_f64());
    totals.0 += warm.attempted;
    totals.1 += warm.failed;
    Ok(workload)
}

/// `run`: time passes with tracing off until their wall times add up to the
/// window, setting up afresh (each time with one warm-up pass) at the start
/// and at even intervals through the window.
///
/// The set-ups are spread out because the host slows for 5-20 s at a stretch:
/// back to back, all of them would sit in the same weather and their median
/// with them.
fn run(args: &Args, scratch: &Path) -> Result<Record, String> {
    let mut totals = (0, 0);
    let mut setup_s = Vec::new();
    let mut workload = fresh_setup(args, scratch, None, &mut setup_s, &mut totals)?;
    // About SETUP_BUDGET_S of set-up per timed window: many samples of a cheap
    // set-up, few of a dear one. A fixed pass count is a smoke: the fewest.
    let reps = match args.passes {
        Some(_) => MIN_SETUPS,
        None => ((SETUP_BUDGET_S / setup_s[0]).round() as usize).clamp(MIN_SETUPS, MAX_SETUPS),
    };

    let mut passes: Vec<PassStats> = Vec::new();
    // The gated memory figure is taken once the first set-up and one timed
    // pass are done. The compiler has a rare excursion (on `compile_cold`,
    // about one pass in a hundred peaks 15 MB higher, by the luck of its hash
    // maps' seeds); how many passes a window holds would decide how often a
    // run latches it. The figure at the end of the window is kept beside it.
    let mut rss_mb = 0.0;
    let (mut timed_s, mut cpu_in_passes) = (0.0, 0.0);
    loop {
        let cpu_start = cpu_ms();
        let pass = workload.pass(&mut Tracer::off(), &mut Counters::new());
        cpu_in_passes += cpu_ms() - cpu_start;
        timed_s += pass.wall_ms / 1e3;
        passes.push(pass);
        if passes.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        let progress = match args.passes {
            Some(n) => passes.len() as f64 / n as f64,
            None if passes.len() < MIN_PASSES => 0.0,
            None => timed_s / args.seconds,
        };
        // Set-up `k` (the first was number 0) is due `k / (reps - 1)` of the
        // way through; the last one follows the last pass.
        while setup_s.len() < reps && progress >= setup_s.len() as f64 / (reps - 1) as f64 {
            workload = fresh_setup(args, scratch, Some(workload), &mut setup_s, &mut totals)?;
        }
        if progress >= 1.0 {
            break;
        }
    }
    let cpu_per_pass = cpu_in_passes / passes.len() as f64;
    let (mut attempted, mut failed) = totals;
    for p in &passes {
        attempted += p.attempted;
        failed += p.failed;
    }
    let (metrics, mut diagnostics) = end_to_end(workload.as_ref(), &setup_s, &passes, rss_mb);
    diagnostics.push(("perf.peak_rss_end_mb".into(), peak_rss_mb()));
    diagnostics.push(("perf.cpu_ms_per_pass".into(), cpu_per_pass));
    diagnostics.push(("perf.window_s".into(), timed_s));
    Ok(Record {
        mode: "run",
        workload: args.workload.clone(),
        seed: args.seed,
        inputs_hash: workload.inputs_hash(),
        passes: passes.len(),
        ops_per_pass: workload.ops_per_pass(),
        attempted,
        failed,
        metrics,
        diagnostics,
        pass_wall_ms: passes.iter().map(|p| p.wall_ms).collect(),
    })
}

/// Self time by span name, ms.
fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    span::totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| (name, t.self_ms))
        .collect()
}

fn spans_value(phase: &str, spans: &[Span]) -> Vec<Value> {
    spans
        .iter()
        .map(|s| {
            Value::Arr(vec![
                Value::str(phase),
                Value::str(s.name),
                Value::Int(s.start_ns),
                Value::Int(s.end_ns),
                s.parent
                    .map_or(Value::Bool(false), |p| Value::Int(p as u64)),
                Value::Int(u64::from(s.op)),
            ])
        })
        .collect()
}

/// What a trace produces: the per-layer record, and the share by which the
/// outside-measured compile phases differ from the compiler's own timings.
struct Traced {
    record: Record,
    /// The end-to-end metrics of the trace's untraced passes.
    end_to_end: Vec<Metric>,
    phase_drift: f64,
    spans: Value,
}

/// `trace`: one set-up, then `pairs` untraced/traced pass pairs, then the
/// layer probes.
fn trace(args: &Args, scratch: &Path, pairs: usize) -> Result<Traced, String> {
    let epoch = Instant::now();
    let mut setup_tracer = Tracer::recording(epoch);
    let mut workload = setup(args, scratch, &mut setup_tracer)?;
    let setup_spans = setup_tracer.finish();
    let warm = workload.pass(&mut Tracer::off(), &mut Counters::new());
    let setup_s = epoch.elapsed().as_secs_f64();
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut pass_spans: Vec<Vec<Span>> = Vec::new();
    let mut pass_counts: Vec<Counters> = Vec::new();
    let cpu_start = cpu_ms();
    for pair in 0..pairs {
        // Alternate which of the two goes first, so neither side always runs
        // in the other's wake.
        for spans_on in [pair % 2 == 1, pair % 2 == 0] {
            if spans_on {
                let mut t = Tracer::recording(epoch);
                let mut c = Counters::new();
                traced.push(workload.pass(&mut t, &mut c));
                pass_spans.push(t.finish());
                pass_counts.push(c);
            } else {
                untraced.push(workload.pass(&mut Tracer::off(), &mut Counters::new()));
            }
        }
    }
    let cpu_per_pass = (cpu_ms() - cpu_start) / (2 * pairs) as f64;
    for p in untraced.iter().chain(&traced) {
        attempted += p.attempted;
        failed += p.failed;
    }

    let mut probe_tracer = Tracer::recording(epoch);
    let mut probe_counts = Counters::new();
    let last = pass_counts.last().expect("at least one traced pass");
    workload.probes(last, scratch, &mut probe_tracer, &mut probe_counts)?;
    let probe_spans = probe_tracer.finish();

    // `*.ms` of a pass: the median over traced passes of the per-pass sum of
    // self times. Probes and set-up ran once.
    let per_pass: Vec<BTreeMap<&str, f64>> = pass_spans.iter().map(|s| self_ms(s)).collect();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (&name, &v) in self_ms(&setup_spans).iter().chain(&self_ms(&probe_spans)) {
        values.insert(name, v);
    }
    for name in per_pass.iter().flat_map(|m| m.keys()) {
        let samples: Vec<f64> = per_pass
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        values.insert(name, median(&samples));
    }
    let mut counts = probe_counts;
    workload.setup_counters(&mut counts);
    // Several of a pass's values are medians taken inside the pass; the
    // median over passes keeps them steady. Exact counts are the same in
    // every pass, so their median is their value.
    for name in pass_counts.iter().flat_map(|c| c.keys()) {
        let samples: Vec<f64> = pass_counts
            .iter()
            .filter_map(|c| c.get(name).copied())
            .collect();
        counts.insert(name, median(&samples));
    }
    for (&name, &v) in &counts {
        values.entry(name).or_insert(v);
    }

    let get = |values: &BTreeMap<&str, f64>, name: &str| values.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let walls = |passes: &[PassStats]| passes.iter().map(|p| p.wall_ms).collect::<Vec<f64>>();
    let (plain, spanned) = (walls(&untraced), walls(&traced));
    let pair_ratios: Vec<f64> = spanned.iter().zip(&plain).map(|(t, u)| t / u).collect();
    let (hits, misses) = (
        get(&values, "core.cache.hits"),
        get(&values, "core.cache.misses"),
    );
    let (cycles, run_ms) = (
        get(&values, "machine.run.cycles"),
        get(&values, "machine.run.ms"),
    );
    let derived = [
        ("core.cache.hit_ratio", ratio(hits, hits + misses)),
        (
            "machine.run.ipc",
            ratio(get(&values, "machine.run.insts"), cycles),
        ),
        ("machine.run.ns_per_cycle", ratio(run_ms * 1e6, cycles)),
        (
            "machine.run.ns_per_tile_cycle",
            ratio(run_ms * 1e6, get(&values, "perf.tile_cycles")),
        ),
        (
            "core.service.memo_ratio",
            ratio(
                get(&values, "perf.memo_hits"),
                get(&values, "perf.requests"),
            ),
        ),
        ("perf.pass_ms_p50", median(&plain)),
        ("perf.pass_ms_p90", percentile(&plain, 90.0)),
        ("perf.cpu_ms_per_pass", cpu_per_pass),
        // The two passes of a pair run back to back, under the same weather;
        // the median of their ratios is steadier than a ratio of extremes.
        (
            "perf.trace_overhead_pct",
            100.0 * (median(&pair_ratios) - 1.0),
        ),
        ("perf.passes", pairs as f64),
        ("perf.ops_per_pass", workload.ops_per_pass() as f64),
    ];
    for (name, v) in derived {
        values.insert(name, v);
    }

    // Drift guard, timing half: measured inside the probes, where each
    // outside-timed repetition has a product compile right beside it.
    let phase_drift = get(&values, "perf.phase_drift_pct") / 100.0;

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: get(&values, name),
            unit,
        })
        .collect();
    let pass_ms = percentile(&plain, 0.0);
    let mut diagnostics = vec![("perf.untraced_pass_ms_min".to_string(), pass_ms)];
    // Layer shares of a pass, for the README's tables: each traced pass's
    // own layer time over its own wall time, then the median over passes.
    for name in [
        "machine.run.ms",
        "machine.load.ms",
        "core.compile.ms",
        "lang.parse.ms",
        "lang.unroll.ms",
        "lang.lower.ms",
    ] {
        let shares: Vec<f64> = (0..pairs)
            .filter_map(|i| {
                let ms = per_pass[i].get(name).or_else(|| pass_counts[i].get(name))?;
                Some(100.0 * ms / spanned[i])
            })
            .collect();
        if !shares.is_empty() {
            diagnostics.push((format!("share_pct.{name}"), median(&shares)));
        }
    }
    for (name, v) in &values {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            diagnostics.push(((*name).to_string(), *v));
        }
    }

    let (end_to_end, _) = end_to_end(workload.as_ref(), &[setup_s], &untraced, peak_rss_mb());
    for m in &end_to_end {
        diagnostics.push((format!("run.{}", m.name), m.value));
    }

    let mut all_spans = spans_value("setup", &setup_spans);
    all_spans.extend(spans_value(
        "pass",
        pass_spans.last().expect("a traced pass"),
    ));
    all_spans.extend(spans_value("probe", &probe_spans));
    Ok(Traced {
        record: Record {
            mode: "trace",
            workload: args.workload.clone(),
            seed: args.seed,
            inputs_hash: workload.inputs_hash(),
            passes: pairs,
            ops_per_pass: workload.ops_per_pass(),
            attempted,
            failed,
            metrics,
            diagnostics,
            pass_wall_ms: plain,
        },
        end_to_end,
        phase_drift,
        spans: Value::obj([
            (
                "columns",
                Value::Arr(
                    ["phase", "name", "start_ns", "end_ns", "parent", "op"]
                        .map(Value::str)
                        .to_vec(),
                ),
            ),
            ("spans", Value::Arr(all_spans)),
        ]),
    })
}

/// `check`: every workload traced for two passes (one plain, one with spans),
/// twice with one seed and once with another. Deterministic metrics must
/// repeat bit for bit under one seed, the inputs must differ under the other,
/// nothing may fail verification, and the outside-measured phase sum must
/// track the compiler's own.
fn check(args: &Args, scratch: &Path) -> Result<(), String> {
    let mut problems = Vec::new();
    for name in WORKLOADS {
        let at = |seed: u64| Args {
            workload: name.to_string(),
            seed,
            seconds: args.seconds,
            passes: None,
            out: args.out.clone(),
        };
        let (a, b, c) = (
            trace(&at(1), scratch, 1)?,
            trace(&at(1), scratch, 1)?,
            trace(&at(2), scratch, 1)?,
        );
        for m in ["sim_cycles", "speedup_geomean", "code_words"] {
            let of = |t: &Traced| {
                let metric = t.end_to_end.iter().find(|x| x.name == m);
                metric.map(|x| x.value.to_bits())
            };
            if of(&a) != of(&b) {
                problems.push(format!("{name}: {m} differs between two runs of seed 1"));
            }
        }
        for (x, y) in a.record.metrics.iter().zip(&b.record.metrics) {
            if is_exact_count(x.name, x.unit) && x.value.to_bits() != y.value.to_bits() {
                problems.push(format!(
                    "{name}: {} differs between two traces of seed 1 ({} and {})",
                    x.name, x.value, y.value
                ));
            }
        }
        if a.record.inputs_hash != b.record.inputs_hash {
            problems.push(format!("{name}: seed 1 generated two different input sets"));
        }
        if a.record.inputs_hash == c.record.inputs_hash {
            problems.push(format!("{name}: seeds 1 and 2 generated the same inputs"));
        }
        for r in [&a.record, &b.record, &c.record] {
            if r.failed > 0 {
                problems.push(format!(
                    "{name}: {} of {} ops failed",
                    r.failed, r.attempted
                ));
            }
        }
        // A burst on a shared box can push one trace's phase times past the
        // bound; all three past it mean the sequences differ.
        let drift = a.phase_drift.min(b.phase_drift).min(c.phase_drift);
        if drift > PHASE_DRIFT_BOUND {
            problems.push(format!(
                "{name}: outside-measured compile phases drift {:.1} % from CompileReport.timings",
                100.0 * drift
            ));
        }
        println!(
            "check {name}: inputs {:#018x} / {:#018x}, {} problems so far",
            a.record.inputs_hash,
            c.record.inputs_hash,
            problems.len()
        );
    }
    if problems.is_empty() {
        println!("check: all workloads deterministic, seeded, and verified");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn finish(record: &Record, path: &Path) -> Result<ExitCode, String> {
    write_file(path, &record.to_file())?;
    record.print_table();
    println!("{}", record.result_line());
    Ok(if record.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "raw-perf: {} of {} ops failed verification",
            record.failed, record.attempted
        );
        ExitCode::FAILURE
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let (command, flags) = match argv.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace" | "check")) => (Some(cmd), &argv[1..]),
        Some("diff") => {
            let [_, before, after] = argv else {
                return Err(usage());
            };
            let (report, regressed) = record::diff(Path::new(before), Path::new(after))?;
            print!("{report}");
            return Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            });
        }
        Some(flag) if flag.starts_with("--") => (None, argv),
        _ => return Err(usage()),
    };
    let (args, trace_flag) = parse_flags(flags)?;
    let traced = match (command, trace_flag) {
        (Some("trace"), None) => true,
        (Some("run" | "check"), None) => false,
        (None, Some(t)) => t,
        _ => return Err(usage()),
    };

    // A scratch directory of this process's own, under the output directory.
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = args.out.join(format!("scratch.{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = if command == Some("check") {
        check(&args, &scratch).map(|()| ExitCode::SUCCESS)
    } else if traced {
        trace(&args, &scratch, TRACE_PAIRS).and_then(|t| {
            if t.phase_drift > PHASE_DRIFT_BOUND {
                eprintln!(
                    "raw-perf: warning: compile phases measured outside drift {:.1} % from \
                     CompileReport.timings",
                    100.0 * t.phase_drift
                );
            }
            write_file(
                &args.out.join(format!("{}.trace.json", args.workload)),
                &t.spans.render(),
            )?;
            finish(
                &t.record,
                &args.out.join(format!("{}.layers.json", args.workload)),
            )
        })
    } else {
        run(&args, &scratch)
            .and_then(|r| finish(&r, &args.out.join(format!("{}.json", args.workload))))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn main() -> ExitCode {
    // The product reads these; the benchmark measures product defaults.
    for var in ["RAWCC_THREADS", "RAWCC_CACHE_DIR", "RAWCC_CACHE_VERIFY"] {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("raw-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
