//! `service_mix`: two closed-loop clients replaying a seeded request mix
//! against a fresh in-process daemon per pass.
//!
//! Set-up compiles every program the mix will ask for in-process, checks each
//! against the interpreter by simulating it, keeps its machine image as the
//! reference, and leaves the base programs' bundles in the daemon's cache
//! directory. A pass starts a daemon over that directory (memory cold, disk
//! warm). A request is a *memo* hit when its client has sent it before in the
//! pass, a *disk* hit on the first sighting of a base program, and *novel*
//! when it is an edited variant no daemon has seen: after each pass the
//! directory is put back to its set-up state, so novel requests stay novel
//! and every pass replays the same work.

use crate::inputs::{self, PipeInput};
use crate::layers::{self, bump, Counters, ProbeProgram};
use crate::ops::{self, code_words};
use crate::span::{self, Span, Tracer};
use crate::stats::{geomean, median};
use crate::workload::{PassStats, Workload};
use raw_ir::Program;
use raw_machine::{MachineConfig, MachineProgram};
use raw_testkit::Rng;
use rawcc::{compile_with_cache, BlockCache, Client, MetricsFormat, ServeOptions};
use std::collections::HashSet;
use std::ffi::OsString;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Closed-loop connections (= cores of the reference host).
pub const CLIENTS: usize = 2;
/// Requests each client sends per pass: 800 a pass, so the per-pass p95 has
/// 40 samples beyond it.
pub const REQUESTS_PER_CLIENT: usize = 400;
/// One request in this many is a never-seen edit.
pub const NOVEL_EVERY: usize = 16;
/// On/off pass pairs of the telemetry-overhead probe.
const TELEMETRY_PAIRS: usize = 8;

/// How the daemon will serve a request, known from the sequence alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Seen before in this pass by this client: whole-response memo.
    Memo,
    /// First sighting of a base program: every block read from disk.
    DiskHit,
    /// An edited variant: changed blocks compiled, encoded and written.
    Novel,
}

impl Class {
    fn span(self) -> &'static str {
        match self {
            Class::Memo => "core.service.memo",
            Class::DiskHit => "core.service.diskhit",
            Class::Novel => "core.service.novel",
        }
    }
}

/// One distinct program the mix asks for, with what set-up learned about it.
struct Served {
    label: String,
    program: Program,
    config: MachineConfig,
    /// The in-process compile's machine image: what a response must equal.
    image: MachineProgram,
    /// Cycles its validated simulation took.
    cycles: u64,
    /// One-tile baseline cycles (base programs only).
    base_cycles: u64,
    interp_insts: u64,
    /// Blocks a daemon with the base cache on disk must compile for it: none
    /// of a base program's, the changed ones of an edit.
    cold_blocks: Vec<usize>,
}

#[derive(Clone, Copy)]
struct Request {
    program: usize,
    class: Class,
}

/// What one client thread brings back from a pass.
#[derive(Default)]
struct ClientLog {
    lat_ms: Vec<f64>,
    failed: u64,
    errors: u64,
    sim_cycles: u64,
    code_words: u64,
    server_us: u64,
    compile_us: u64,
    compiled_blocks: u64,
    spans: Vec<Span>,
}

/// The `service_mix` workload after set-up.
pub struct ServiceWorkload {
    dir: PathBuf,
    base_files: HashSet<OsString>,
    served: Vec<Served>,
    streams: Vec<Vec<Request>>,
    hash: u64,
}

impl ServiceWorkload {
    /// Set-up (see the module docs). `scratch` must be private to this
    /// process; the cache directory lives under it.
    ///
    /// # Errors
    ///
    /// A product error, or a program whose simulation differs from the
    /// interpreter.
    pub fn setup(seed: u64, scratch: &Path, t: &mut Tracer) -> Result<Self, String> {
        let dir = scratch.join("service-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        let cache = BlockCache::with_disk(&dir).map_err(io)?;

        let base = inputs::service_programs(seed);
        let n_base = base.len();
        let mut rng = Rng::new(seed ^ 0x5e41_11ce);
        // Each client owns every other base program, so which requests are
        // first sightings never depends on how the two threads interleave.
        let pools: Vec<Vec<usize>> = (0..CLIENTS)
            .map(|c| (c..n_base).step_by(CLIENTS).collect())
            .collect();
        // Edit `k` of a client is of its `k`-th pool program, whatever the
        // seed: the set of programs a pass asks for (and so the cycles and code
        // words it sums) stays the same from seed to seed. The seed picks the
        // constants, so no two seeds send the same edited source.
        let novel_per_client = REQUESTS_PER_CLIENT / NOVEL_EVERY;
        let constant_base = 1000 * (1 + (seed % 1000) as u32);
        let mut inputs_all = base;
        let mut edits: Vec<Vec<usize>> = vec![Vec::new(); CLIENTS];
        for (c, pool) in pools.iter().enumerate() {
            for k in 0..novel_per_client {
                let constant = constant_base + (c * novel_per_client + k) as u32;
                edits[c].push(inputs_all.len());
                inputs_all.push(inputs::edited(&inputs_all[pool[k % pool.len()]], constant));
            }
        }

        let mut hash = 0u64;
        let mut served = Vec::with_capacity(inputs_all.len());
        let mut base_files = HashSet::new();
        for (i, input) in inputs_all.iter().enumerate() {
            if i == n_base {
                base_files = list_dir(&dir).map_err(io)?;
            }
            input.hash_into(&mut hash);
            let mut reference = serve_reference(input, i < n_base, &cache, t)?;
            if i < n_base {
                reference.cold_blocks.clear();
            }
            served.push(reference);
        }
        drop(cache);
        restore_dir(&dir, &base_files).map_err(io)?;

        let streams: Vec<Vec<Request>> = (0..CLIENTS)
            .map(|c| request_stream(&pools[c], &edits[c], &mut rng))
            .collect();
        let order: Vec<u8> = streams
            .iter()
            .flatten()
            .flat_map(|r| (r.program as u32).to_le_bytes())
            .collect();
        inputs::fold_hash(&mut hash, &order);
        Ok(ServiceWorkload {
            dir,
            base_files,
            served,
            streams,
            hash,
        })
    }

    /// Product defaults over the prepared cache directory; `telemetry`
    /// overrides the default only for the on-against-off probe.
    fn options(&self, telemetry: Option<bool>) -> ServeOptions {
        let defaults = ServeOptions::default();
        ServeOptions {
            cache_dir: Some(self.dir.clone()),
            telemetry: telemetry.unwrap_or(defaults.telemetry),
            ..defaults
        }
    }

    /// One pass against a fresh daemon. `after` runs against the still-warm
    /// daemon once the clock has stopped (stats and scrapes).
    fn run_pass(
        &self,
        telemetry: Option<bool>,
        t: &mut Tracer,
        after: &mut dyn FnMut(SocketAddr) -> Result<(), String>,
    ) -> Result<(PassStats, Vec<ClientLog>), String> {
        restore_dir(&self.dir, &self.base_files)
            .map_err(|e| format!("{}: {e}", self.dir.display()))?;
        let epoch = t.epoch();
        let pass_start = Instant::now();
        let s = t.enter("core.service.start_ms");
        let server = rawcc::service::serve(&self.options(telemetry));
        t.exit(s);
        let server = server.map_err(|e| format!("serve: {e}"))?;
        let addr = server.addr();
        let traced = t.enabled();
        let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .enumerate()
                .map(|(c, stream)| {
                    let served = &self.served;
                    scope.spawn(move || client_loop(addr, c, stream, served, traced, epoch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let wall_ms = pass_start.elapsed().as_secs_f64() * 1e3;
        let after_result = after(addr);
        let stop = Client::connect(addr, "raw-perf-stop")
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"));
        match &stop {
            Ok(()) => server.join(),
            // A daemon that cannot be told to stop would never be joined;
            // leave it to the failing process's exit.
            Err(_) => std::mem::forget(server),
        }
        after_result?;
        stop?;
        let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;

        let mut stats = PassStats {
            wall_ms,
            ..PassStats::default()
        };
        for log in &logs {
            stats.op_ms.extend_from_slice(&log.lat_ms);
            stats.attempted += log.lat_ms.len() as u64;
            stats.failed += log.failed;
            stats.sim_cycles += log.sim_cycles;
            stats.code_words += log.code_words;
        }
        Ok((stats, logs))
    }

    fn requests_per_pass(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

/// Files currently in `dir`.
fn list_dir(dir: &Path) -> std::io::Result<HashSet<OsString>> {
    std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.file_name()))
        .collect()
}

/// Deletes every file of `dir` that is not in `keep`.
fn restore_dir(dir: &Path, keep: &HashSet<OsString>) -> std::io::Result<()> {
    for name in list_dir(dir)? {
        if !keep.contains(&name) {
            std::fs::remove_file(dir.join(name))?;
        }
    }
    Ok(())
}

/// Compiles one program in-process through `cache`, validates it by
/// simulation against the interpreter, and records what a response to a
/// request for it must contain.
fn serve_reference(
    input: &PipeInput,
    with_baseline: bool,
    cache: &BlockCache,
    t: &mut Tracer,
) -> Result<Served, String> {
    let (program, refr) = ops::reference(input, with_baseline, t)?;
    let compiled = compile_with_cache(&program, &input.config, &ops::options(), cache)
        .map_err(|e| format!("{}: {e}", input.label))?;
    let (result, run) = compiled
        .run(&program)
        .map_err(|e| format!("{}: {e}", input.label))?;
    if !result.state_eq(&refr.golden) {
        return Err(format!(
            "{}: reference compile differs from the interpreter",
            input.label
        ));
    }
    let cold_blocks = compiled
        .report
        .block_cached
        .iter()
        .enumerate()
        .filter_map(|(b, &cached)| (!cached).then_some(b))
        .collect();
    Ok(Served {
        label: input.label.clone(),
        program,
        config: input.config.clone(),
        image: compiled.machine_program,
        cycles: run.cycles,
        base_cycles: refr.base_cycles,
        interp_insts: refr.interp_insts,
        cold_blocks,
    })
}

/// One client's request sequence. Its make-up is fixed — every
/// [`NOVEL_EVERY`]-th request a fresh edit, the other slots shared evenly among
/// the pool's programs — so every seed asks for the same amount of work; the
/// seed shuffles who comes when. A program's first sighting is a disk hit, the
/// rest are memo hits.
fn request_stream(pool: &[usize], edits: &[usize], rng: &mut Rng) -> Vec<Request> {
    let slots = REQUESTS_PER_CLIENT - edits.len();
    let mut draws: Vec<usize> = (0..slots).map(|i| pool[i % pool.len()]).collect();
    rng.shuffle(&mut draws);
    let (mut draws, mut edits) = (draws.into_iter(), edits.iter());
    let mut seen = HashSet::new();
    (0..REQUESTS_PER_CLIENT)
        .map(|i| {
            if i % NOVEL_EVERY == NOVEL_EVERY - 1 {
                Request {
                    program: *edits.next().expect("one edit per novel slot"),
                    class: Class::Novel,
                }
            } else {
                let program = draws.next().expect("one draw per other slot");
                Request {
                    program,
                    class: if seen.insert(program) {
                        Class::DiskHit
                    } else {
                        Class::Memo
                    },
                }
            }
        })
        .collect()
}

/// One closed-loop connection: send, wait, check, repeat.
fn client_loop(
    addr: SocketAddr,
    c: usize,
    stream: &[Request],
    served: &[Served],
    traced: bool,
    epoch: Instant,
) -> Result<ClientLog, String> {
    let mut t = if traced {
        Tracer::recording(epoch)
    } else {
        Tracer::off()
    };
    let options = ops::options();
    let mut client =
        Client::connect(addr, format!("raw-perf-{c}")).map_err(|e| format!("connect: {e}"))?;
    let mut log = ClientLog::default();
    for (i, request) in stream.iter().enumerate() {
        let want = &served[request.program];
        t.set_op((c * stream.len() + i) as u32);
        let s = t.enter(request.class.span());
        let start = Instant::now();
        let response = client.compile(&want.program, &want.config, &options);
        log.lat_ms.push(start.elapsed().as_secs_f64() * 1e3);
        t.exit(s);
        match response {
            Ok(resp) if resp.machine_program == want.image => {
                log.sim_cycles += want.cycles;
                log.code_words += code_words(&resp.machine_program);
                log.server_us += resp.wall_us;
                if request.class != Class::Memo {
                    log.compile_us += resp.wall_us;
                    log.compiled_blocks += resp.misses;
                }
            }
            Ok(_) => {
                eprintln!(
                    "raw-perf: {}: response differs from the reference",
                    want.label
                );
                log.failed += 1;
            }
            Err(e) => {
                eprintln!("raw-perf: {}: {e}", want.label);
                log.failed += 1;
                log.errors += 1;
            }
        }
    }
    log.spans = t.finish();
    Ok(log)
}

impl Workload for ServiceWorkload {
    fn ops_per_pass(&self) -> usize {
        self.requests_per_pass()
    }

    fn inputs_hash(&self) -> u64 {
        self.hash
    }

    fn pass(&mut self, t: &mut Tracer, c: &mut Counters) -> PassStats {
        let traced = t.enabled();
        let mut scrape = |addr: SocketAddr| -> Result<(), String> {
            if !traced {
                return Ok(());
            }
            let mut client =
                Client::connect(addr, "raw-perf-stats").map_err(|e| format!("connect: {e}"))?;
            let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
            bump(c, "core.cache.hits", stats.cache.hits() as f64);
            bump(c, "core.cache.misses", stats.cache.misses as f64);
            bump(c, "core.cache.coalesced", stats.cache.coalesced as f64);
            bump(c, "core.cache.evictions", stats.cache.evictions as f64);
            bump(
                c,
                "core.cache.disk_rejects",
                stats.cache.disk_rejects as f64,
            );
            bump(c, "perf.memo_hits", stats.memo_hits as f64);
            bump(c, "perf.requests", stats.requests as f64);
            Ok(())
        };
        match self.run_pass(None, t, &mut scrape) {
            Ok((stats, logs)) => {
                if traced {
                    let mut spans = Vec::new();
                    for log in logs {
                        bump(c, "core.service.errors", log.errors as f64);
                        bump(c, "core.service.server_ms", log.server_us as f64 / 1e3);
                        bump(
                            c,
                            "core.service.transport_ms",
                            log.lat_ms.iter().sum::<f64>() - log.server_us as f64 / 1e3,
                        );
                        bump(c, "core.compile.ms", log.compile_us as f64 / 1e3);
                        bump(c, "report.blocks", log.compiled_blocks as f64);
                        span::merge(&mut spans, log.spans);
                    }
                    for (class, metric) in [
                        (Class::Memo, "core.service.memo_ms_p50"),
                        (Class::DiskHit, "core.service.diskhit_ms_p50"),
                        (Class::Novel, "core.service.novel_ms_p50"),
                    ] {
                        let d = span::durations_ms(&spans, class.span());
                        if !d.is_empty() {
                            bump(c, metric, median(&d));
                        }
                    }
                    // The requests' spans join the pass's, for the trace file.
                    t.adopt(spans);
                }
                stats
            }
            Err(e) => {
                // No daemon, no answers: every request of the pass failed.
                eprintln!("raw-perf: service pass: {e}");
                let n = self.requests_per_pass() as u64;
                PassStats {
                    attempted: n,
                    failed: n,
                    ..PassStats::default()
                }
            }
        }
    }

    fn speedup_geomean(&self) -> f64 {
        let ratios: Vec<f64> = self
            .served
            .iter()
            .filter(|s| s.base_cycles > 0)
            .map(|s| s.base_cycles as f64 / s.cycles as f64)
            .collect();
        geomean(&ratios).unwrap_or(0.0)
    }

    fn setup_counters(&self, c: &mut Counters) {
        for s in &self.served {
            bump(c, "ir.interp.insts", s.interp_insts as f64);
        }
    }

    fn probes(
        &mut self,
        pass: &Counters,
        scratch: &Path,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<(), String> {
        // Compile phases over the blocks a pass's daemon really compiles.
        let items: Vec<ProbeProgram> = self
            .served
            .iter()
            .map(|s| ProbeProgram {
                label: s.label.clone(),
                program: s.program.clone(),
                config: s.config.clone(),
                compiled_blocks: Some(s.cold_blocks.clone()),
            })
            .collect();
        // Base programs are never compiled in a pass (disk hits); edits are.
        let edits: Vec<ProbeProgram> = items
            .iter()
            .zip(&self.served)
            .filter(|(_, s)| !s.cold_blocks.is_empty())
            .map(|(item, _)| item.clone())
            .collect();
        layers::phase_probe(&edits, t, c);
        let (ours, theirs) = (
            c.get("core.compile.blocks").copied().unwrap_or(0.0),
            pass.get("report.blocks").copied().unwrap_or(0.0),
        );
        if ours != theirs {
            return Err(format!(
                "drift guard: set-up saw {ours} cold blocks, the daemon reported {theirs} misses"
            ));
        }
        let linked = layers::link_probe(&items, t, c)?;
        layers::codec_disk_probe(&linked, scratch, t, c)?;
        layers::wire_probe(&items, &linked, t, c)?;

        // Round-trip floor and scrape cost, against a daemon one pass warm.
        let mut probe_daemon = |addr: SocketAddr| -> Result<(), String> {
            let mut client =
                Client::connect(addr, "raw-perf-probe").map_err(|e| format!("connect: {e}"))?;
            let mut pings = Vec::with_capacity(200);
            for _ in 0..200 {
                let start = Instant::now();
                client.ping(b"raw-perf").map_err(|e| format!("ping: {e}"))?;
                pings.push(start.elapsed().as_secs_f64() * 1e6);
            }
            bump(c, "core.service.ping_us", median(&pings));
            let mut scrapes = Vec::with_capacity(5);
            for _ in 0..5 {
                let start = Instant::now();
                client
                    .metrics(MetricsFormat::Prometheus)
                    .map_err(|e| format!("metrics: {e}"))?;
                scrapes.push(start.elapsed().as_secs_f64() * 1e3);
            }
            bump(c, "telemetry.scrape_ms", median(&scrapes));
            Ok(())
        };
        self.run_pass(None, &mut Tracer::off(), &mut probe_daemon)?;
        // Telemetry on against off: pairs of passes back to back, taking turns
        // to go first; the median of the pairs' ratios.
        let mut nothing = |_: SocketAddr| Ok(());
        let mut ratios = Vec::with_capacity(TELEMETRY_PAIRS);
        for pair in 0..TELEMETRY_PAIRS {
            let mut wall = [0.0; 2];
            for on in [pair % 2 == 0, pair % 2 == 1] {
                let (stats, _) = self.run_pass(Some(on), &mut Tracer::off(), &mut nothing)?;
                wall[usize::from(on)] = stats.wall_ms;
            }
            ratios.push(wall[1] / wall[0]);
        }
        bump(c, "telemetry.overhead_pct", 100.0 * (median(&ratios) - 1.0));
        Ok(())
    }
}

impl Drop for ServiceWorkload {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_has_the_advertised_mix() {
        let pool: Vec<usize> = (0..28).collect();
        let edits: Vec<usize> = (100..125).collect();
        let stream = request_stream(&pool, &edits, &mut Rng::new(9));
        assert_eq!(stream.len(), REQUESTS_PER_CLIENT);
        let count = |class| stream.iter().filter(|r| r.class == class).count();
        assert_eq!(count(Class::Novel), REQUESTS_PER_CLIENT / NOVEL_EVERY);
        // Every edit is asked for exactly once as novel, and first sightings
        // cannot outnumber the pool.
        let novel: Vec<usize> = stream
            .iter()
            .filter(|r| r.class == Class::Novel)
            .map(|r| r.program)
            .collect();
        assert_eq!(novel, edits);
        assert_eq!(count(Class::DiskHit), pool.len());
        assert_eq!(count(Class::Memo), REQUESTS_PER_CLIENT - 25 - 28);
        // A memo-classed request names something this client sent earlier.
        for (i, r) in stream.iter().enumerate() {
            let earlier = stream[..i].iter().any(|e| e.program == r.program);
            assert_eq!(earlier, r.class == Class::Memo, "request {i}");
        }
        // Another seed asks for the same programs equally often, in another order.
        let other = request_stream(&pool, &edits, &mut Rng::new(10));
        let tally = |s: &[Request]| {
            let mut t = vec![0; 125];
            s.iter().for_each(|r| t[r.program] += 1);
            t
        };
        assert_eq!(tally(&stream), tally(&other));
        assert!(stream
            .iter()
            .zip(&other)
            .any(|(a, b)| a.program != b.program));
    }

    #[test]
    fn restore_removes_only_what_a_pass_added() {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("test-restore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("base"), b"1").unwrap();
        let keep = list_dir(&dir).unwrap();
        std::fs::write(dir.join("added"), b"2").unwrap();
        restore_dir(&dir, &keep).unwrap();
        assert_eq!(list_dir(&dir).unwrap(), keep);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
