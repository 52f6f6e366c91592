//! Records: what a run writes to `perf/out/`, what `raw-perf diff` reads
//! back, and the one-line result the benchmark driver parses.

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};
use raw_trace::json::{parse, Json};
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`crate::metrics`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run or trace reports.
#[derive(Clone, Debug)]
pub struct Record {
    /// `"run"` or `"trace"`.
    pub mode: &'static str,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Hash of the generated inputs.
    pub inputs_hash: u64,
    /// Timed (or traced) passes.
    pub passes: usize,
    /// Ops or requests per pass.
    pub ops_per_pass: usize,
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that errored, were refused, or failed verification.
    pub failed: u64,
    /// The gated metrics (end-to-end for a run, per-layer for a trace).
    pub metrics: Vec<Metric>,
    /// Ungated companions: medians, upper tails, sample counts.
    pub diagnostics: Vec<(String, f64)>,
    /// Wall time of every timed pass, ms, in order: what the percentiles
    /// above were taken from, kept so the host's noise can be read off a
    /// record.
    pub pass_wall_ms: Vec<f64>,
}

impl Record {
    /// `failed ÷ attempted`.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn metrics_value(&self) -> Value {
        Value::obj(self.metrics.iter().map(|m| {
            (
                m.name,
                Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
            )
        }))
    }

    /// The last line of standard output: exactly the keys the driver reads.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            ("metrics", self.metrics_value()),
        ])
        .render()
    }

    /// The record file: the result plus the header a later reader needs to
    /// judge it (host, toolchain, pass counts, input hash).
    pub fn to_file(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Value::obj([
            ("schema", Value::Int(1)),
            ("mode", Value::str(self.mode)),
            ("workload", Value::str(self.workload.clone())),
            ("seed", Value::Int(self.seed)),
            (
                "inputs_hash",
                Value::str(format!("{:#018x}", self.inputs_hash)),
            ),
            (
                "host",
                Value::obj([
                    ("nproc", Value::Int(nproc as u64)),
                    ("rustc", Value::str(env!("RAW_PERF_RUSTC"))),
                    ("os", Value::str(std::env::consts::OS)),
                ]),
            ),
            ("passes", Value::Int(self.passes as u64)),
            ("ops_per_pass", Value::Int(self.ops_per_pass as u64)),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            ("fail_ratio", Value::Num(self.fail_ratio())),
            ("metrics", self.metrics_value()),
            (
                "diagnostics",
                Value::obj(
                    self.diagnostics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v))),
                ),
            ),
            (
                "pass_wall_ms",
                Value::Arr(self.pass_wall_ms.iter().map(|v| Value::Num(*v)).collect()),
            ),
        ])
        .render_pretty()
    }

    /// Human-readable table on standard output.
    pub fn print_table(&self) {
        println!(
            "{} {} seed {} — {} passes x {} ops, inputs {:#018x}",
            self.mode, self.workload, self.seed, self.passes, self.ops_per_pass, self.inputs_hash
        );
        for m in &self.metrics {
            println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  {:<36} {:>16.6} ratio ({} of {} ops)",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        for (name, value) in &self.diagnostics {
            println!("  {name:<36} {value:>16.6}");
        }
    }
}

/// What `diff` needs from a record file.
#[derive(Debug)]
struct Loaded {
    workload: String,
    seed: f64,
    fail_ratio: f64,
    metrics: Vec<(String, f64)>,
}

fn load(path: &Path) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |key: &str| {
        json.get(key)
            .ok_or_else(|| format!("{}: no '{key}'", path.display()))
    };
    let Json::Obj(metrics) = field("metrics")? else {
        return Err(format!("{}: 'metrics' is not an object", path.display()));
    };
    Ok(Loaded {
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        seed: field("seed")?.as_f64().unwrap_or(-1.0),
        fail_ratio: field("fail_ratio")?.as_f64().unwrap_or(1.0),
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// By what share of `before` the metric got worse (negative = better).
pub fn worsening(better: Better, before: f64, after: f64) -> f64 {
    let delta = match better {
        Better::Lower => after - before,
        Better::Higher => before - after,
    };
    if before == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / before.abs()
    }
}

/// Compares two run records under the bounds of [`END_TO_END`]; returns the
/// report and whether any metric regressed.
///
/// # Errors
///
/// Unreadable files, or records of different workloads.
pub fn diff(before: &Path, after: &Path) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let (a, b) = (load(before)?, load(after)?);
    if a.workload != b.workload {
        return Err(format!(
            "records are of different workloads: {} and {}",
            a.workload, b.workload
        ));
    }
    let mut out = format!(
        "diff {} — {} -> {} (+ = worse)\n",
        a.workload,
        before.display(),
        after.display()
    );
    if a.seed != b.seed {
        writeln!(
            out,
            "  note: seeds differ ({} and {}); cycle and size metrics compare different inputs",
            a.seed, b.seed
        )
        .expect("write to String");
    }
    let mut regressed = false;
    for spec in END_TO_END {
        let find = |r: &Loaded| {
            r.metrics
                .iter()
                .find(|(n, _)| n == spec.name)
                .map(|(_, v)| *v)
        };
        let (Some(x), Some(y)) = (find(&a), find(&b)) else {
            writeln!(out, "  {:<18} missing from a record", spec.name).expect("write to String");
            regressed = true;
            continue;
        };
        let w = worsening(spec.better, x, y);
        let bad = w > spec.diff_bound;
        regressed |= bad;
        writeln!(
            out,
            "  {:<18} {:>16.6} -> {:>16.6} {:<7} {:>+8.2} % (bound {:.0} %){}",
            spec.name,
            x,
            y,
            spec.unit,
            // `+ 0.0` turns a negative zero into a plain one.
            100.0 * w + 0.0,
            100.0 * spec.diff_bound,
            if bad { "  REGRESSION" } else { "" }
        )
        .expect("write to String");
    }
    let bad = b.fail_ratio > a.fail_ratio;
    regressed |= bad;
    writeln!(
        out,
        "  {:<18} {:>16.6} -> {:>16.6} ratio   (any increase fails){}",
        "fail_ratio",
        a.fail_ratio,
        b.fail_ratio,
        if bad { "  REGRESSION" } else { "" }
    )
    .expect("write to String");
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pass_ms: f64, cycles: f64, speedup: f64, failed: u64) -> Record {
        let value = |name: &str| match name {
            "pass_ms" => pass_ms,
            "sim_cycles" => cycles,
            "speedup_geomean" => speedup,
            _ => 1.0,
        };
        Record {
            mode: "run",
            workload: "sim_dense".into(),
            seed: 1,
            inputs_hash: 0xabc,
            passes: 4,
            ops_per_pass: 5,
            attempted: 20,
            failed,
            metrics: END_TO_END
                .iter()
                .map(|e| Metric {
                    name: e.name,
                    value: value(e.name),
                    unit: e.unit,
                })
                .collect(),
            diagnostics: vec![("perf.pass_ms_p50".into(), 2.0)],
            pass_wall_ms: vec![pass_ms; 4],
        }
    }

    fn write(name: &str, r: &Record) -> std::path::PathBuf {
        let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("test-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, r.to_file()).unwrap();
        path
    }

    #[test]
    fn result_line_has_exactly_the_driver_keys() {
        let line = record(600.0, 1e6, 4.0, 0).result_line();
        let Json::Obj(fields) = parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(fields[0].1, Json::Bool(true));
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[1].0, "pass_ms");
        assert_eq!(
            metrics[1].1.get("value").and_then(Json::as_f64),
            Some(600.0)
        );
        assert_eq!(metrics[1].1.get("unit").and_then(Json::as_str), Some("ms"));
        assert!(record(600.0, 1e6, 4.0, 1)
            .result_line()
            .contains("\"correct\":false"));
    }

    #[test]
    fn diff_applies_each_metrics_bound_and_direction() {
        let base = write("base.json", &record(600.0, 1e6, 4.0, 0));
        // Within 10 % on time, identical cycles: clean.
        let ok = write("ok.json", &record(650.0, 1e6, 4.0, 0));
        assert!(!diff(&base, &ok).unwrap().1);
        // Time beyond its bound.
        let slow = write("slow.json", &record(700.0, 1e6, 4.0, 0));
        assert!(diff(&base, &slow).unwrap().1);
        // One more cycle fails the exact bound; fewer cycles do not.
        let worse = write("worse.json", &record(600.0, 1e6 + 1.0, 4.0, 0));
        assert!(diff(&base, &worse).unwrap().1);
        let better = write("better.json", &record(600.0, 1e6 - 1.0, 4.5, 0));
        assert!(!diff(&base, &better).unwrap().1);
        // Higher-is-better: a lower speedup is the regression.
        let slower_code = write("slower.json", &record(600.0, 1e6, 3.9, 0));
        let (report, bad) = diff(&base, &slower_code).unwrap();
        assert!(bad && report.contains("REGRESSION"));
        // Any new failure fails.
        let failing = write("failing.json", &record(600.0, 1e6, 4.0, 1));
        assert!(diff(&base, &failing).unwrap().1);
        std::fs::remove_dir_all(base.parent().unwrap()).unwrap();
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worsening(Better::Lower, 100.0, 90.0), -0.1);
        assert_eq!(worsening(Better::Higher, 4.0, 3.0), 0.25);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }
}
