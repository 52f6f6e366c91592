//! The `raw-bench trace` subcommand: compile a benchmark, run it with the
//! recording event sink, and render the observability reports — occupancy
//! table, link heatmap, critical path, predicted-vs-observed, the
//! per-source-line hotspot listing and the placement audit log — optionally
//! exporting a provenance-annotated Chrome-trace JSON file. Every line is a
//! function of the program and the mesh: host time is `raw-perf`'s.

use crate::args::{require_power_of_two, FlagParser};
use raw_machine::trace::StallReason;
use raw_machine::MachineConfig;
use raw_trace::annotate::{placement_audit, SourceAnnotation};
use raw_trace::oracle::check;
use raw_trace::{chrome, json, report, run_traced, TraceRun};
use rawcc::{compile, CompilerOptions};
use std::fmt::Write as _;

/// Parsed arguments of `raw-bench trace`.
#[derive(Clone, Debug)]
pub struct TraceArgs {
    /// Benchmark name (from the paper suite).
    pub bench: String,
    /// Machine size in tiles (power of two).
    pub tiles: u32,
    /// Rows per block in the placement audit.
    pub top: usize,
    /// Write Chrome-trace JSON here.
    pub chrome_out: Option<String>,
    /// Run through the oracle lane: interpreter, reference stepper, and an
    /// untraced twin must all agree with the traced run.
    pub selfcheck: bool,
    /// Use the scaled-down suite.
    pub quick: bool,
}

impl TraceArgs {
    /// Parses the argument list following the `trace` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<TraceArgs, String> {
        let mut out = TraceArgs {
            bench: "mxm".to_string(),
            tiles: 4,
            top: 5,
            chrome_out: None,
            selfcheck: false,
            quick: false,
        };
        let mut p = FlagParser::new("trace", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--bench" => out.bench = p.value()?.clone(),
                "--tiles" => out.tiles = p.value_parsed("an integer")?,
                "--top" => out.top = p.value_parsed("an integer")?,
                "--chrome" => out.chrome_out = Some(p.value()?.clone()),
                "--selfcheck" => out.selfcheck = true,
                "--quick" => out.quick = true,
                _ => return Err(p.unknown()),
            }
        }
        require_power_of_two(out.tiles)?;
        Ok(out)
    }
}

/// One-line summary of the dominant stall reason across all tiles and units.
fn top_stall_summary(run: &TraceRun) -> String {
    let accounts = run.trace.accounts();
    let mut by_reason = [0u64; 5];
    let mut windows = 0u64;
    for a in &accounts {
        for (i, slot) in by_reason.iter_mut().enumerate() {
            *slot += a.proc_stalls[i] + a.switch_stalls[i];
        }
        windows += a.proc_window + a.switch_window;
    }
    let (top, &cycles) = by_reason
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .expect("five stall reasons");
    if cycles == 0 {
        return "top stall: none (no stall cycles recorded)".to_string();
    }
    let pct = 100.0 * cycles as f64 / windows.max(1) as f64;
    format!(
        "top stall: {} — {cycles} cycles ({pct:.1}% of active windows)",
        StallReason::ALL[top].name()
    )
}

/// Runs the trace subcommand, returning the rendered report text.
///
/// # Errors
///
/// Returns a message on unknown benchmark, compile/simulation failure,
/// self-check divergence, attribution that fails to conserve the
/// active-window cycle accounting, or Chrome-export I/O failure.
pub fn trace_command(args: &TraceArgs) -> Result<String, String> {
    let bench = raw_benchmarks::by_name(&args.bench, args.quick)?;
    let program = bench
        .program(args.tiles)
        .map_err(|e| format!("{}: source compile failed: {e}", bench.name))?;
    let config = MachineConfig::square(args.tiles);
    let compiled = compile(&program, &config, &CompilerOptions::default())
        .map_err(|e| format!("{}: compile failed: {e}", bench.name))?;
    let run = if args.selfcheck {
        check(&compiled, &program, &[])?
    } else {
        run_traced(&compiled, &program)
            .map_err(|e| format!("{}: traced simulation failed: {e}", bench.name))?
    };
    let ann = SourceAnnotation::build(&run.trace, &compiled.provenance);
    ann.selfcheck().map_err(|(a, w)| {
        format!(
            "{}: provenance attribution lost cycles: {a} attributed vs {w} in active windows",
            bench.name
        )
    })?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} on {} tile(s) ({}x{} mesh), {} cycles, {} events\n",
        bench.name,
        args.tiles,
        config.rows,
        config.cols,
        run.report.cycles,
        run.trace.events.len()
    );
    out.push_str(&report::occupancy_table(&run.trace));
    let _ = writeln!(
        out,
        "static-network words: {}",
        run.report.stats.static_words
    );
    let mut blocks: Vec<_> = compiled.report.blocks.iter().enumerate().collect();
    blocks.sort_by_key(|(_, b)| std::cmp::Reverse(b.n_nodes));
    let _ = writeln!(out, "largest blocks:");
    for (i, b) in blocks.iter().take(5) {
        let _ = writeln!(
            out,
            "  block {i}: nodes={} clusters={} comm-paths={} est-makespan={} spills={}",
            b.n_nodes, b.n_clusters, b.n_comm_paths, b.makespan, b.spills
        );
    }
    out.push('\n');
    out.push_str(&report::link_heatmap(&run.trace));
    out.push('\n');
    out.push_str(&report::critical_path(&run.trace));
    out.push('\n');
    out.push_str(&report::predicted_vs_observed(&run.trace, &compiled.report));
    out.push('\n');
    out.push_str(&ann.render(bench.source()));
    out.push('\n');
    out.push_str(&placement_audit(
        &run.trace,
        &compiled.provenance,
        &compiled.report,
        args.top,
    ));

    if args.selfcheck {
        let _ = writeln!(
            out,
            "\nselfcheck: traced and untraced runs agree ({} cycles)",
            run.report.cycles
        );
    }

    if let Some(path) = &args.chrome_out {
        let doc = chrome::chrome_trace_annotated(&run.trace, Some(&compiled.provenance));
        json::parse(&doc).map_err(|e| format!("chrome export is not valid JSON: {e}"))?;
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            out,
            "\nchrome trace written to {path} ({} bytes); open via chrome://tracing or Perfetto",
            doc.len()
        );
    }
    let _ = writeln!(out, "\n{}", top_stall_summary(&run));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_full_flag_set() {
        let args: Vec<String> = [
            "--bench",
            "jacobi",
            "--tiles",
            "8",
            "--top",
            "3",
            "--chrome",
            "/tmp/x.json",
            "--selfcheck",
            "--quick",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let t = TraceArgs::parse(&args).unwrap();
        assert_eq!(t.bench, "jacobi");
        assert_eq!(t.tiles, 8);
        assert_eq!(t.top, 3);
        assert_eq!(t.chrome_out.as_deref(), Some("/tmp/x.json"));
        assert!(t.selfcheck && t.quick);
        let d = TraceArgs::parse(&[]).unwrap();
        assert_eq!((d.bench.as_str(), d.tiles, d.top), ("mxm", 4, 5));
    }

    #[test]
    fn parse_rejects_bad_input() {
        let bad = |list: &[&str]| {
            let v: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            TraceArgs::parse(&v).unwrap_err()
        };
        assert!(bad(&["--tiles", "3"]).contains("power of two"));
        assert!(bad(&["--bench"]).contains("requires a value"));
        assert!(bad(&["--frobnicate"]).contains("unknown trace flag"));
    }

    #[test]
    fn trace_command_runs_quick_benchmark() {
        let args = TraceArgs {
            bench: "mxm".to_string(),
            tiles: 4,
            top: 5,
            chrome_out: None,
            selfcheck: true,
            quick: true,
        };
        let text = trace_command(&args).unwrap();
        assert!(text.contains("per-tile occupancy"), "{text}");
        assert!(text.contains("static-network words: "), "{text}");
        assert!(text.contains("largest blocks:\n  block "), "{text}");
        assert!(text.contains("mesh link utilization"), "{text}");
        assert!(text.contains("observed critical path"), "{text}");
        assert!(text.contains("annotated source"), "{text}");
        assert!(text.contains(" cycles attributed == "), "{text}");
        assert!(text.contains("placement audit"), "{text}");
        assert_eq!(text.matches("top stall:").count(), 1, "{text}");
        assert!(
            text.contains("selfcheck: traced and untraced runs agree"),
            "{text}"
        );
    }

    #[test]
    fn trace_text_is_identical_across_runs() {
        let args = ["--bench", "mxm", "--tiles", "4", "--quick"].map(String::from);
        let args = TraceArgs::parse(&args).unwrap();
        assert_eq!(trace_command(&args), trace_command(&args));
    }

    #[test]
    fn trace_command_rejects_unknown_benchmark() {
        let args = TraceArgs {
            bench: "nope".to_string(),
            tiles: 2,
            top: 5,
            chrome_out: None,
            selfcheck: false,
            quick: true,
        };
        assert!(trace_command(&args)
            .unwrap_err()
            .contains("unknown benchmark"));
    }
}
