//! `raw-bench compile` — compile-time measurement for the parallel pipeline
//! and the content-addressed block cache.
//!
//! Per-workload output is one greppable line:
//!
//! ```text
//! mxm tiles=16 threads=8 blocks=12 wall_ms=41.3 cache_hits=0 cache_misses=12 cache_evictions=0 asm_hash=0x91b2...
//! ```
//!
//! `--table` instead sweeps threads ∈ {1, 4, 8} cold plus an 8-thread warm
//! re-compile and prints the speedup table recorded in `EXPERIMENTS.md`.

use crate::args::{require_power_of_two, FlagParser};
use raw_benchmarks::Benchmark;
use raw_machine::MachineProgram;
use raw_testkit::hash64;
use rawcc::exact::{format_gap_table, gap_row};
use rawcc::service::Client;
use rawcc::{
    compile_with_cache, BlockCache, CompiledProgram, CompilerOptions, PlacementAlgorithm, Strategy,
};
use std::fmt::Write as _;

/// Arguments of the `compile` subcommand.
pub struct CompileArgs {
    /// Machine size in tiles (power of two).
    pub tiles: u32,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Use the scaled-down suite.
    pub quick: bool,
    /// Restrict to one benchmark.
    pub bench: Option<String>,
    /// Annealing placement with this seed (heavier, placement-dominated
    /// compiles — the regime the cache and the worker pool are for).
    pub anneal: Option<u64>,
    /// Disk cache directory (cold in-memory cache when absent).
    pub cache_dir: Option<String>,
    /// Print the threads × cache-temperature sweep table.
    pub table: bool,
    /// Recompile each workload single-threaded on a cold cache and fail on
    /// any asm-hash drift (determinism self-check).
    pub selfcheck: bool,
    /// Compile through a running `rawcc-serve` daemon at this address instead
    /// of in-process.
    pub remote: Option<String>,
    /// Block-mapping strategy: `greedy`, `annealing`, `exact`, or `portfolio`
    /// (the portfolio and annealing seeds come from `--anneal`, default 0).
    pub strategy: Option<String>,
    /// Compile each workload with the heuristics and the exact strategy,
    /// print the optimality-gap table, and fail if a heuristic ever beats a
    /// certified optimum.
    pub gap_table: bool,
    /// After each stat line, dump the per-tile processor and switch streams
    /// in execution form, the first this-many instructions of each.
    pub dump_asm: Option<usize>,
}

impl CompileArgs {
    /// Parses the argument list following the `compile` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<CompileArgs, String> {
        let mut out = CompileArgs {
            tiles: 16,
            threads: 0,
            quick: false,
            bench: None,
            anneal: None,
            cache_dir: None,
            table: false,
            selfcheck: false,
            remote: None,
            strategy: None,
            gap_table: false,
            dump_asm: None,
        };
        // Context left empty: `compile` predates subcommand contexts and its
        // callers match on the short "unknown flag" wording.
        let mut p = FlagParser::new("", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--tiles" => out.tiles = p.value_parsed("an integer")?,
                "--threads" => out.threads = p.value_parsed("an integer")?,
                "--bench" => out.bench = Some(p.value()?.clone()),
                "--anneal" => out.anneal = Some(p.value_parsed("an integer seed")?),
                "--cache-dir" => out.cache_dir = Some(p.value()?.clone()),
                "--remote" => out.remote = Some(p.value()?.clone()),
                "--strategy" => out.strategy = Some(p.value()?.clone()),
                "--dump-asm" => out.dump_asm = Some(p.value_parsed("an instruction count")?),
                "--quick" => out.quick = true,
                "--table" => out.table = true,
                "--gap-table" => out.gap_table = true,
                "--selfcheck" => out.selfcheck = true,
                _ => return Err(p.unknown()),
            }
        }
        require_power_of_two(out.tiles)?;
        if let Some(name) = &out.strategy {
            if !["greedy", "annealing", "exact", "portfolio"].contains(&name.as_str()) {
                return Err(format!(
                    "unknown strategy '{name}' (expected greedy, annealing, exact, or portfolio)"
                ));
            }
        }
        if out.dump_asm.is_some() && (out.table || out.gap_table) {
            return Err("--dump-asm dumps a plain compile; drop --table/--gap-table".into());
        }
        if out.remote.is_some() && out.gap_table {
            return Err("--remote and --gap-table are incompatible".into());
        }
        if out.remote.is_some() && out.table {
            return Err("--remote and --table are incompatible".into());
        }
        if out.remote.is_some() && out.cache_dir.is_some() {
            return Err("--cache-dir is the daemon's to choose; drop it with --remote".into());
        }
        Ok(out)
    }

    fn options(&self, threads: usize) -> CompilerOptions {
        let mut options = CompilerOptions {
            threads,
            ..CompilerOptions::default()
        };
        if let Some(seed) = self.anneal {
            options.placement = PlacementAlgorithm::Annealing { seed };
        }
        match self.strategy.as_deref() {
            None | Some("greedy") => {}
            Some("annealing") => {
                options.placement = PlacementAlgorithm::Annealing {
                    seed: self.anneal.unwrap_or(0),
                };
            }
            Some("exact") => options.strategy = Strategy::Exact,
            Some("portfolio") => {
                options.strategy = Strategy::Portfolio {
                    seed: self.anneal.unwrap_or(0),
                };
            }
            Some(other) => unreachable!("strategy '{other}' rejected at parse time"),
        }
        options
    }

    fn suite(&self) -> Result<Vec<Benchmark>, String> {
        let mut suite = if self.quick {
            raw_benchmarks::tiny_suite()
        } else {
            raw_benchmarks::suite()
        };
        if let Some(name) = &self.bench {
            suite.retain(|b| b.name == name);
            if suite.is_empty() {
                // Fall back to the scenario kernels so they can be measured too.
                suite.extend(
                    raw_benchmarks::scenario_suite()
                        .into_iter()
                        .filter(|b| b.name == name),
                );
            }
            if suite.is_empty() {
                return Err(format!("unknown benchmark '{name}'"));
            }
        }
        Ok(suite)
    }
}

/// FNV over the full per-tile instruction streams: equal hash ⇔ equal asm for
/// all practical purposes, and a one-token summary for scripts to diff.
///
/// The replay harness hashes daemon responses through this same function, so
/// remote and in-process compiles are comparable token-for-token.
pub(crate) fn machine_asm_hash(machine_program: &MachineProgram) -> u64 {
    hash64(format!("{machine_program:?}").as_bytes())
}

fn asm_hash(compiled: &CompiledProgram) -> u64 {
    machine_asm_hash(&compiled.machine_program)
}

/// The per-tile instruction streams in execution form (`--dump-asm`).
fn dump_asm(out: &mut String, machine_program: &MachineProgram, max: usize) {
    fn stream<I: std::fmt::Display>(
        out: &mut String,
        t: usize,
        unit: &str,
        insts: &[I],
        max: usize,
    ) {
        let cut = if insts.len() > max {
            format!(", first {max}")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "=== tile{t} {unit} ({} instructions{cut}) ===",
            insts.len()
        );
        for (i, inst) in insts.iter().take(max).enumerate() {
            let _ = writeln!(out, "{i:5}: {inst}");
        }
    }
    for (t, tile) in machine_program.tiles.iter().enumerate() {
        stream(out, t, "processor", &tile.proc, max);
        stream(out, t, "switch", &tile.switch, max);
    }
}

fn stat_line(name: &str, tiles: u32, compiled: &CompiledProgram) -> String {
    let r = &compiled.report;
    format!(
        "{name} tiles={tiles} threads={} blocks={} wall_ms={:.1} cache_hits={} \
         cache_misses={} cache_evictions={} cache_evicted_bytes={} asm_hash={:#018x}",
        r.threads,
        r.blocks.len(),
        r.wall.as_secs_f64() * 1e3,
        r.cache.hits,
        r.cache.misses,
        r.cache.evictions,
        r.cache.evicted_bytes,
        asm_hash(compiled),
    )
}

/// Runs the `compile` subcommand and returns its stdout text.
///
/// # Errors
///
/// Returns a message on unknown benchmarks, unusable cache directories, or
/// compile failures.
pub fn compile_command(args: &CompileArgs) -> Result<String, String> {
    let suite = args.suite()?;
    let config = raw_machine::MachineConfig::square(args.tiles);
    let mut out = String::new();
    if args.table {
        return table_command(args, &suite, &config);
    }
    if args.gap_table {
        return gap_table_command(args, &suite, &config);
    }
    if let Some(addr) = &args.remote {
        return remote_compile_command(args, addr, &suite, &config);
    }
    let cache = match &args.cache_dir {
        Some(dir) => {
            BlockCache::with_disk(dir).map_err(|e| format!("cache dir '{dir}' unusable: {e}"))?
        }
        None => BlockCache::in_memory(),
    };
    for bench in &suite {
        let program = bench
            .program(args.tiles)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let compiled = compile_with_cache(&program, &config, &args.options(args.threads), &cache)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        if args.selfcheck {
            // Determinism oracle: a single-threaded cold-cache compile must
            // produce byte-identical code, whatever the measured run's thread
            // count or cache temperature.
            let reference = compile_with_cache(
                &program,
                &config,
                &args.options(1),
                &BlockCache::in_memory(),
            )
            .map_err(|e| format!("{}: selfcheck compile: {e}", bench.name))?;
            if asm_hash(&compiled) != asm_hash(&reference) {
                return Err(format!(
                    "{}: selfcheck failed: asm hash {:#018x} differs from \
                     single-threaded cold-cache reference {:#018x}",
                    bench.name,
                    asm_hash(&compiled),
                    asm_hash(&reference)
                ));
            }
        }
        out.push_str(&stat_line(bench.name, args.tiles, &compiled));
        out.push('\n');
        if let Some(max) = args.dump_asm {
            dump_asm(&mut out, &compiled.machine_program, max);
        }
    }
    if args.selfcheck {
        out.push_str("selfcheck: all asm hashes match the single-threaded cold-cache reference\n");
    }
    Ok(out)
}

/// The `--remote` path: each workload is sent to a running daemon and the
/// stat line is filled from the wire response. Field order matches the
/// in-process lines so scripts can diff the two without special cases;
/// `blocks` is hits+misses, since the daemon touches each block exactly once
/// per request.
fn remote_compile_command(
    args: &CompileArgs,
    addr: &str,
    suite: &[Benchmark],
    config: &raw_machine::MachineConfig,
) -> Result<String, String> {
    let mut client =
        Client::connect(addr, "raw-bench-compile").map_err(|e| format!("remote '{addr}': {e}"))?;
    let options = args.options(args.threads);
    let mut out = String::new();
    for bench in suite {
        let program = bench
            .program(args.tiles)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let resp = client
            .compile(&program, config, &options)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let remote_hash = machine_asm_hash(&resp.machine_program);
        if args.selfcheck {
            let reference =
                compile_with_cache(&program, config, &args.options(1), &BlockCache::in_memory())
                    .map_err(|e| format!("{}: selfcheck compile: {e}", bench.name))?;
            if remote_hash != asm_hash(&reference) {
                return Err(format!(
                    "{}: selfcheck failed: remote asm hash {:#018x} differs from \
                     single-threaded cold-cache reference {:#018x}",
                    bench.name,
                    remote_hash,
                    asm_hash(&reference)
                ));
            }
        }
        out.push_str(&format!(
            "{} tiles={} threads={} blocks={} wall_ms={:.1} cache_hits={} \
             cache_misses={} cache_evictions={} cache_evicted_bytes={} asm_hash={:#018x}\n",
            bench.name,
            args.tiles,
            resp.threads,
            resp.hits + resp.misses,
            resp.wall_us as f64 / 1e3,
            resp.hits,
            resp.misses,
            resp.evictions,
            resp.evicted_bytes,
            remote_hash,
        ));
        if let Some(max) = args.dump_asm {
            dump_asm(&mut out, &resp.machine_program, max);
        }
    }
    if args.selfcheck {
        out.push_str("selfcheck: all asm hashes match the single-threaded cold-cache reference\n");
    }
    Ok(out)
}

/// The `--gap-table` path: each workload is compiled twice — once with the
/// configured heuristics and once with `--strategy exact` — and the measured
/// optimality gap is printed as the deterministic table snapshotted in
/// `tests/golden/optimality_gap.txt`. Any certified block where the heuristic
/// beats the "optimum" is an error: the solver's certificate makes that a
/// cost-model bug, not a lucky heuristic.
fn gap_table_command(
    args: &CompileArgs,
    suite: &[Benchmark],
    config: &raw_machine::MachineConfig,
) -> Result<String, String> {
    let heuristic_options = CompilerOptions {
        strategy: Strategy::Heuristic,
        ..args.options(args.threads)
    };
    let exact_options = CompilerOptions {
        strategy: Strategy::Exact,
        ..heuristic_options
    };
    let mut rows = Vec::new();
    for bench in suite {
        let program = bench
            .program(args.tiles)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let heuristic = compile_with_cache(
            &program,
            config,
            &heuristic_options,
            &BlockCache::in_memory(),
        )
        .map_err(|e| format!("{}: {e}", bench.name))?;
        let exact = compile_with_cache(&program, config, &exact_options, &BlockCache::in_memory())
            .map_err(|e| format!("{}: {e}", bench.name))?;
        rows.push(gap_row(bench.name, &heuristic.report, &exact.report)?);
    }
    let mut out = format!(
        "optimality gap: {} tiles, heuristic={}\n",
        args.tiles,
        if args.anneal.is_some() {
            "annealing"
        } else {
            "greedy-swap"
        },
    );
    out.push_str(&format_gap_table(&rows));
    Ok(out)
}

/// The threads × cache-temperature sweep behind the EXPERIMENTS.md table.
fn table_command(
    args: &CompileArgs,
    suite: &[Benchmark],
    config: &raw_machine::MachineConfig,
) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(&format!(
        "compile-time sweep: {} tiles, placement={}\n",
        args.tiles,
        if args.anneal.is_some() {
            "annealing"
        } else {
            "greedy-swap"
        },
    ));
    out.push_str(
        "benchmark        blocks   serial_ms    t4_ms    t8_ms  warm8_ms   t8_speedup  warm_hit%\n",
    );
    let mut tot = [0.0f64; 4];
    for bench in suite {
        let program = bench
            .program(args.tiles)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let mut wall = [0.0f64; 3];
        let mut blocks = 0;
        for (slot, threads) in [1usize, 4, 8].into_iter().enumerate() {
            // Fresh cold cache per run: measures compilation, not caching.
            let compiled = compile_with_cache(
                &program,
                config,
                &args.options(threads),
                &BlockCache::in_memory(),
            )
            .map_err(|e| format!("{}: {e}", bench.name))?;
            wall[slot] = compiled.report.wall.as_secs_f64() * 1e3;
            blocks = compiled.report.blocks.len();
        }
        let shared = BlockCache::in_memory();
        let options = args.options(8);
        compile_with_cache(&program, config, &options, &shared)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let warm = compile_with_cache(&program, config, &options, &shared)
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let warm_ms = warm.report.wall.as_secs_f64() * 1e3;
        let hits = warm.report.cache.hits as f64;
        let lookups = hits + warm.report.cache.misses as f64;
        out.push_str(&format!(
            "{:<16} {:>6} {:>11.1} {:>8.1} {:>8.1} {:>9.2} {:>11.2}x {:>9.0}\n",
            bench.name,
            blocks,
            wall[0],
            wall[1],
            wall[2],
            warm_ms,
            wall[0] / wall[2].max(1e-9),
            100.0 * hits / lookups.max(1.0),
        ));
        tot[0] += wall[0];
        tot[1] += wall[1];
        tot[2] += wall[2];
        tot[3] += warm_ms;
    }
    out.push_str(&format!(
        "{:<16} {:>6} {:>11.1} {:>8.1} {:>8.1} {:>9.2} {:>11.2}x\n",
        "total",
        "",
        tot[0],
        tot[1],
        tot[2],
        tot[3],
        tot[0] / tot[2].max(1e-9),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let d = CompileArgs::parse(&[]).unwrap();
        assert_eq!(
            (d.tiles, d.threads, d.quick, d.table),
            (16, 0, false, false)
        );
        let p = CompileArgs::parse(&s(&[
            "--tiles",
            "4",
            "--threads",
            "2",
            "--quick",
            "--bench",
            "mxm",
            "--anneal",
            "7",
            "--table",
        ]))
        .unwrap();
        assert_eq!(p.tiles, 4);
        assert_eq!(p.threads, 2);
        assert!(p.quick && p.table);
        assert_eq!(p.bench.as_deref(), Some("mxm"));
        assert_eq!(p.anneal, Some(7));
        assert!(CompileArgs::parse(&s(&["--tiles", "3"])).is_err());
        assert!(CompileArgs::parse(&s(&["--frobnicate"])).is_err());
    }

    #[test]
    fn compile_lines_are_greppable_and_cache_aware() {
        let args = CompileArgs::parse(&s(&[
            "--tiles",
            "4",
            "--quick",
            "--bench",
            "mxm",
            "--selfcheck",
        ]))
        .unwrap();
        let text = compile_command(&args).unwrap();
        let line = text.lines().next().unwrap();
        assert!(line.starts_with("mxm tiles=4 "), "line: {line}");
        for field in [
            "threads=",
            "blocks=",
            "wall_ms=",
            "cache_hits=0",
            "cache_misses=",
            "cache_evictions=",
            "cache_evicted_bytes=",
            "asm_hash=0x",
        ] {
            assert!(line.contains(field), "missing '{field}' in: {line}");
        }
        assert!(text.contains("selfcheck: all asm hashes match"), "{text}");
    }

    #[test]
    fn scenario_kernels_compile_by_name() {
        let args = CompileArgs::parse(&s(&["--tiles", "4", "--bench", "pointer-chase"])).unwrap();
        let text = compile_command(&args).unwrap();
        assert!(text.starts_with("pointer-chase tiles=4 "), "{text}");
    }

    #[test]
    fn warm_disk_cache_hits_everything_and_preserves_asm_hash() {
        let dir = std::env::temp_dir().join(format!("raw-bench-ct-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = CompileArgs::parse(&s(&[
            "--tiles",
            "4",
            "--quick",
            "--bench",
            "mxm",
            "--cache-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let cold = compile_command(&args).unwrap();
        let warm = compile_command(&args).unwrap();
        let hash = |t: &str| t.split("asm_hash=").nth(1).unwrap().trim().to_string();
        assert_eq!(hash(&cold), hash(&warm), "cache changed the asm");
        assert!(
            warm.contains("cache_misses=0"),
            "warm run recompiled: {warm}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
