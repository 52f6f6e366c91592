//! The `raw-bench trace` and `raw-bench annotate` subcommands: compile a
//! benchmark, run it with the recording event sink, and render the
//! observability reports — occupancy table, link heatmap, critical path,
//! predicted-vs-observed, phase timings (`trace`), or the per-source-line
//! hotspot listing and placement audit log (`annotate`) — optionally
//! exporting a provenance-annotated Chrome-trace JSON file.

use crate::args::{require_power_of_two, FlagParser};
use raw_machine::trace::StallReason;
use raw_machine::MachineConfig;
use raw_trace::annotate::{placement_audit, SourceAnnotation};
use raw_trace::{chrome, json, report, run_traced, TraceRun};
use rawcc::{compile, CompiledProgram, CompilerOptions};
use std::fmt::Write as _;

/// Parsed arguments of `raw-bench trace`.
#[derive(Clone, Debug)]
pub struct TraceArgs {
    /// Benchmark name (from the paper suite).
    pub bench: String,
    /// Machine size in tiles (power of two).
    pub tiles: u32,
    /// Write Chrome-trace JSON here.
    pub chrome_out: Option<String>,
    /// Cross-check the traced run against an untraced one.
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
            chrome_out: None,
            selfcheck: false,
            quick: false,
        };
        let mut p = FlagParser::new("trace", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--bench" => out.bench = p.value()?.clone(),
                "--tiles" => out.tiles = p.value_parsed("an integer")?,
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

/// Compiles `name` from the chosen suite for a `tiles`-tile machine and runs
/// it under the recording sink.
fn compile_and_trace(
    name: &str,
    tiles: u32,
    quick: bool,
) -> Result<
    (
        raw_benchmarks::Benchmark,
        raw_ir::Program,
        CompiledProgram,
        TraceRun,
    ),
    String,
> {
    let suite = if quick {
        raw_benchmarks::tiny_suite()
    } else {
        raw_benchmarks::suite()
    };
    let bench = suite
        .iter()
        .find(|b| b.name == name)
        .cloned()
        .or_else(|| {
            raw_benchmarks::scenario_suite()
                .into_iter()
                .find(|b| b.name == name)
        })
        .ok_or_else(|| {
            let mut names: Vec<&str> = suite.iter().map(|b| b.name).collect();
            names.extend(raw_benchmarks::scenario_suite().iter().map(|b| b.name));
            format!(
                "unknown benchmark '{name}' (available: {})",
                names.join(", ")
            )
        })?;
    let program = bench
        .program(tiles)
        .map_err(|e| format!("{}: source compile failed: {e}", bench.name))?;
    let config = MachineConfig::square(tiles);
    let compiled = compile(&program, &config, &CompilerOptions::default())
        .map_err(|e| format!("{}: compile failed: {e}", bench.name))?;
    let run = run_traced(&compiled, &program)
        .map_err(|e| format!("{}: traced simulation failed: {e}", bench.name))?;
    Ok((bench, program, compiled, run))
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
/// self-check divergence, or Chrome-export I/O failure.
pub fn trace_command(args: &TraceArgs) -> Result<String, String> {
    let (bench, program, compiled, run) = compile_and_trace(&args.bench, args.tiles, args.quick)?;
    let config = MachineConfig::square(args.tiles);

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
    out.push_str(&report::phase_table(&compiled.report.timings));
    out.push('\n');
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

    if args.selfcheck {
        let (_, plain) = compiled
            .run(&program)
            .map_err(|e| format!("{}: untraced simulation failed: {e}", bench.name))?;
        if plain.cycles != run.report.cycles || plain.stats != run.report.stats {
            return Err(format!(
                "{}: traced run diverged from untraced run ({} vs {} cycles)",
                bench.name, run.report.cycles, plain.cycles
            ));
        }
        let _ = writeln!(
            out,
            "\nselfcheck: traced and untraced runs agree ({} cycles)",
            plain.cycles
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

/// Parsed arguments of `raw-bench annotate`.
#[derive(Clone, Debug)]
pub struct AnnotateArgs {
    /// Benchmark name (from the paper suite).
    pub bench: String,
    /// Machine size in tiles (power of two).
    pub tiles: u32,
    /// Rows per block in the placement audit.
    pub top: usize,
    /// Write a provenance-annotated Chrome-trace JSON file here.
    pub chrome_out: Option<String>,
    /// Use the scaled-down suite.
    pub quick: bool,
}

impl AnnotateArgs {
    /// Parses the argument list following the `annotate` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<AnnotateArgs, String> {
        let mut out = AnnotateArgs {
            bench: "mxm".to_string(),
            tiles: 16,
            top: 5,
            chrome_out: None,
            quick: false,
        };
        let mut p = FlagParser::new("annotate", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--bench" => out.bench = p.value()?.clone(),
                "--tiles" => out.tiles = p.value_parsed("an integer")?,
                "--top" => out.top = p.value_parsed("an integer")?,
                "--chrome" => out.chrome_out = Some(p.value()?.clone()),
                "--quick" => {
                    out.quick = true;
                    // The quick preset targets a small machine unless --tiles
                    // was given explicitly.
                    if !p.mentions("--tiles") {
                        out.tiles = 4;
                    }
                }
                _ => return Err(p.unknown()),
            }
        }
        require_power_of_two(out.tiles)?;
        Ok(out)
    }
}

/// Runs the annotate subcommand: the per-source-line hotspot listing followed
/// by the placement audit log.
///
/// # Errors
///
/// Returns a message on unknown benchmark, compile/simulation failure,
/// attribution that fails to conserve the active-window cycle accounting, or
/// Chrome-export I/O failure.
pub fn annotate_command(args: &AnnotateArgs) -> Result<String, String> {
    let (bench, _, compiled, run) = compile_and_trace(&args.bench, args.tiles, args.quick)?;
    let ann = SourceAnnotation::build(&run.trace, &compiled.provenance);
    let attributed = ann.selfcheck().map_err(|(a, w)| {
        format!(
            "{}: provenance attribution lost cycles: {a} attributed vs {w} in active windows",
            bench.name
        )
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "annotate: {} on {} tile(s), {} cycles, {attributed} attributed cycles\n",
        bench.name, args.tiles, run.report.cycles
    );
    out.push_str(&ann.render(bench.source()));
    out.push('\n');
    out.push_str(&placement_audit(
        &run.trace,
        &compiled.provenance,
        &compiled.report,
        args.top,
    ));
    if let Some(path) = &args.chrome_out {
        let doc = chrome::chrome_trace_annotated(&run.trace, Some(&compiled.provenance));
        json::parse(&doc).map_err(|e| format!("chrome export is not valid JSON: {e}"))?;
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            out,
            "\nchrome trace written to {path} ({} bytes, provenance args included)",
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
        assert_eq!(t.chrome_out.as_deref(), Some("/tmp/x.json"));
        assert!(t.selfcheck && t.quick);
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
        assert!(
            text.contains("selfcheck: traced and untraced runs agree"),
            "{text}"
        );
    }

    #[test]
    fn trace_command_rejects_unknown_benchmark() {
        let args = TraceArgs {
            bench: "nope".to_string(),
            tiles: 2,
            chrome_out: None,
            selfcheck: false,
            quick: true,
        };
        assert!(trace_command(&args)
            .unwrap_err()
            .contains("unknown benchmark"));
    }
}
