//! `raw-bench compile` — compile-time measurement for the parallel pipeline
//! and the content-addressed block cache.
//!
//! Per-workload output is one greppable line:
//!
//! ```text
//! mxm tiles=16 threads=8 blocks=12 wall_ms=41.3 cache_hits=0 cache_misses=12 cache_evictions=0 asm_hash=0x91b2...
//! ```
//!
//! Its `wall_ms` is one unrepeated sample; host time is measured by
//! `raw-perf`'s `compile_cold` workload (`perf/`).

use crate::args::{require_power_of_two, FlagParser};
use raw_benchmarks::Benchmark;
use raw_ir::Program;
use raw_machine::{MachineConfig, MachineProgram};
use rawcc::exact::{format_gap_table, gap_row};
use rawcc::service::Client;
use rawcc::wire::CompileResponse;
use rawcc::{
    asm_hash, compile_with_cache, BlockCache, CacheStats, CompiledProgram, CompilerOptions,
    DiskLayer, Strategy,
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
    /// Disk cache directory (cold in-memory cache when absent).
    pub cache_dir: Option<String>,
    /// Recompile each workload single-threaded on a cold cache and fail on
    /// any asm-hash drift (determinism self-check).
    pub selfcheck: bool,
    /// Compile through a running `rawcc-serve` daemon at this address instead
    /// of in-process.
    pub remote: Option<String>,
    /// Block-mapping strategy: `--strategy greedy` (the default heuristics)
    /// or `--strategy exact`.
    pub strategy: Strategy,
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
            cache_dir: None,
            selfcheck: false,
            remote: None,
            strategy: Strategy::Heuristic,
            gap_table: false,
            dump_asm: None,
        };
        let mut p = FlagParser::new("compile", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--tiles" => out.tiles = p.value_parsed("an integer")?,
                "--threads" => out.threads = p.value_parsed("an integer")?,
                "--bench" => out.bench = Some(p.value()?.clone()),
                "--cache-dir" => out.cache_dir = Some(p.value()?.clone()),
                "--remote" => out.remote = Some(p.value()?.clone()),
                "--strategy" => {
                    out.strategy = match p.value()?.as_str() {
                        "greedy" => Strategy::Heuristic,
                        "exact" => Strategy::Exact,
                        name => {
                            return Err(format!(
                                "unknown strategy '{name}' (expected greedy or exact)"
                            ))
                        }
                    }
                }
                "--dump-asm" => out.dump_asm = Some(p.value_parsed("an instruction count")?),
                "--quick" => out.quick = true,
                "--gap-table" => out.gap_table = true,
                "--selfcheck" => out.selfcheck = true,
                _ => return Err(p.unknown()),
            }
        }
        require_power_of_two(out.tiles)?;
        if out.dump_asm.is_some() && out.gap_table {
            return Err("--dump-asm dumps a plain compile; drop --gap-table".into());
        }
        if out.remote.is_some() && out.gap_table {
            return Err("--remote and --gap-table are incompatible".into());
        }
        if out.remote.is_some() && out.cache_dir.is_some() {
            return Err("--cache-dir is the daemon's to choose; drop it with --remote".into());
        }
        Ok(out)
    }

    fn options(&self, threads: usize) -> CompilerOptions {
        CompilerOptions {
            threads,
            strategy: self.strategy,
            ..CompilerOptions::default()
        }
    }

    fn suite(&self) -> Result<Vec<Benchmark>, String> {
        match &self.bench {
            Some(name) => Ok(vec![raw_benchmarks::by_name(name, self.quick)?]),
            None if self.quick => Ok(raw_benchmarks::tiny_suite()),
            None => Ok(raw_benchmarks::suite()),
        }
    }
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

/// The fields of one greppable compile stat line, whichever side compiled
/// it: the in-process and `--remote` lines share this one formatter, so the
/// lines scripts diff against each other cannot drift apart.
struct Stat {
    threads: usize,
    blocks: usize,
    wall_ms: f64,
    cache: CacheStats,
    asm_hash: u64,
}

impl Stat {
    fn local(compiled: &CompiledProgram) -> Stat {
        let r = &compiled.report;
        Stat {
            threads: r.threads,
            blocks: r.blocks.len(),
            wall_ms: r.wall.as_secs_f64() * 1e3,
            cache: r.cache,
            asm_hash: asm_hash(&compiled.machine_program),
        }
    }

    /// Filled from the wire response; `blocks` is hits+misses, since the
    /// daemon touches each block exactly once per request.
    fn remote(resp: &CompileResponse) -> Stat {
        Stat {
            threads: resp.threads as usize,
            blocks: (resp.hits + resp.misses) as usize,
            wall_ms: resp.wall_us as f64 / 1e3,
            cache: CacheStats {
                hits: resp.hits,
                misses: resp.misses,
                evictions: resp.evictions,
                evicted_bytes: resp.evicted_bytes,
                ..CacheStats::default()
            },
            asm_hash: asm_hash(&resp.machine_program),
        }
    }

    fn line(&self, name: &str, tiles: u32) -> String {
        format!(
            "{name} tiles={tiles} threads={} blocks={} wall_ms={:.1} cache_hits={} \
             cache_misses={} cache_evictions={} cache_evicted_bytes={} asm_hash={:#018x}\n",
            self.threads,
            self.blocks,
            self.wall_ms,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.evicted_bytes,
            self.asm_hash,
        )
    }
}

/// Determinism oracle: a single-threaded cold-cache compile must produce
/// byte-identical code, whatever the measured run's thread count, cache
/// temperature or compiling process. `what` names the hash under test.
fn selfcheck(
    args: &CompileArgs,
    name: &str,
    program: &Program,
    config: &MachineConfig,
    what: &str,
    hash: u64,
) -> Result<(), String> {
    let reference = compile_with_cache(program, config, &args.options(1), &BlockCache::in_memory())
        .map_err(|e| format!("{name}: selfcheck compile: {e}"))?;
    let want = asm_hash(&reference.machine_program);
    if hash == want {
        Ok(())
    } else {
        Err(format!(
            "{name}: selfcheck failed: {what} {hash:#018x} differs from \
             single-threaded cold-cache reference {want:#018x}"
        ))
    }
}

/// The last line of a `--selfcheck` run.
const SELFCHECK_PASSED: &str =
    "selfcheck: all asm hashes match the single-threaded cold-cache reference\n";

/// Deletes the entries another codec format version left in the cache
/// directory `dir` (no lookup reaches them), noting on stderr how many went.
///
/// # Errors
///
/// Returns a message when the directory cannot be opened or cleaned.
pub fn remove_stale_entries(dir: &str) -> Result<(), String> {
    let removed = DiskLayer::open(dir)
        .and_then(|disk| disk.remove_stale())
        .map_err(|e| format!("cache dir '{dir}' unusable: {e}"))?;
    if removed > 0 {
        eprintln!("cache dir '{dir}': removed {removed} entries of another format version");
    }
    Ok(())
}

/// Runs the `compile` subcommand and returns its stdout text.
///
/// # Errors
///
/// Returns a message on unknown benchmarks, unusable cache directories, or
/// compile failures.
pub fn compile_command(args: &CompileArgs) -> Result<String, String> {
    let suite = args.suite()?;
    let config = MachineConfig::square(args.tiles);
    let mut out = String::new();
    if args.gap_table {
        return gap_table_command(args, &suite, &config);
    }
    if let Some(addr) = &args.remote {
        return remote_compile_command(args, addr, &suite, &config);
    }
    let cache = match &args.cache_dir {
        Some(dir) => {
            remove_stale_entries(dir)?;
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
        let stat = Stat::local(&compiled);
        if args.selfcheck {
            selfcheck(
                args,
                bench.name,
                &program,
                &config,
                "asm hash",
                stat.asm_hash,
            )?;
        }
        out.push_str(&stat.line(bench.name, args.tiles));
        if let Some(max) = args.dump_asm {
            dump_asm(&mut out, &compiled.machine_program, max);
        }
    }
    if args.selfcheck {
        out.push_str(SELFCHECK_PASSED);
    }
    Ok(out)
}

/// The `--remote` path: each workload is sent to a running daemon and the
/// stat line is filled from the wire response.
fn remote_compile_command(
    args: &CompileArgs,
    addr: &str,
    suite: &[Benchmark],
    config: &MachineConfig,
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
        let stat = Stat::remote(&resp);
        if args.selfcheck {
            selfcheck(
                args,
                bench.name,
                &program,
                config,
                "remote asm hash",
                stat.asm_hash,
            )?;
        }
        out.push_str(&stat.line(bench.name, args.tiles));
        if let Some(max) = args.dump_asm {
            dump_asm(&mut out, &resp.machine_program, max);
        }
    }
    if args.selfcheck {
        out.push_str(SELFCHECK_PASSED);
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
    config: &MachineConfig,
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
        "optimality gap: {} tiles, heuristic=greedy-swap\n",
        args.tiles
    );
    out.push_str(&format_gap_table(&rows));
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
        assert_eq!((d.tiles, d.threads, d.quick), (16, 0, false));
        let p = CompileArgs::parse(&s(&[
            "--tiles",
            "4",
            "--threads",
            "2",
            "--quick",
            "--bench",
            "mxm",
            "--strategy",
            "exact",
        ]))
        .unwrap();
        assert_eq!(p.tiles, 4);
        assert_eq!(p.threads, 2);
        assert!(p.quick);
        assert_eq!(p.bench.as_deref(), Some("mxm"));
        assert_eq!(p.strategy, Strategy::Exact);
        assert!(CompileArgs::parse(&s(&["--tiles", "3"])).is_err());
        let err = |args: &[&str]| CompileArgs::parse(&s(args)).err().unwrap_or_default();
        assert_eq!(
            err(&["--frobnicate"]),
            "unknown compile flag '--frobnicate'"
        );
        // A retired flag fails loudly rather than being ignored.
        assert_eq!(err(&["--table"]), "unknown compile flag '--table'");
        assert!(err(&["--dump-asm", "3", "--gap-table"]).contains("drop --gap-table"));
        for retired in ["annealing", "portfolio"] {
            assert!(CompileArgs::parse(&s(&["--strategy", retired])).is_err());
        }
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
