//! End-to-end tests of the daemon's one read-out: the zero-overhead-when-
//! disabled contract (byte-identical compile responses), bounded ledger
//! memory under a 10k-request soak, the pinned Prometheus exposition
//! surface, and counter/histogram conservation laws. Every scrape is read
//! back through `Snapshot::parse_prometheus`, the renderer's own inverse.

use raw_repro::cc::service::{serve, Client, ClientRow, ServeOptions, ServiceError, StatsResponse};
use raw_repro::cc::wire::{self, errcode, MetricsFormat, MetricsResponse};
use raw_repro::cc::{compile_with_cache, BlockCache, CompilerOptions};
use raw_repro::ir::Program;
use raw_repro::machine::MachineConfig;
use raw_repro::telemetry::registry::prom_labels;
use raw_repro::telemetry::{MetricKind, SeriesValue, Snapshot, SPAN_PHASE_NAMES};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};

/// A small workload of distinct multi-block programs.
fn workload() -> Vec<raw_repro::ir::Program> {
    [
        "int i; int s; int A[6];
         for (i = 0; i < 6; i = i + 1) A[i] = 2*i + 1;
         for (i = 0; i < 6; i = i + 1) s = s + A[i];",
        "int i; int p;
         p = 1;
         for (i = 1; i < 7; i = i + 1) p = p * i;",
        "int i; int j; int s; int B[4];
         for (i = 0; i < 4; i = i + 1) B[i] = i * i;
         for (j = 0; j < 4; j = j + 1) s = s + B[j] * 3;",
    ]
    .iter()
    .enumerate()
    .map(|(n, src)| raw_repro::lang::compile_source(&format!("tel{n}"), src, 2).unwrap())
    .collect()
}

fn request_options() -> (MachineConfig, CompilerOptions) {
    (
        MachineConfig::square(2),
        CompilerOptions {
            threads: 1,
            ..CompilerOptions::default()
        },
    )
}

/// Splits a `RESP_COMPILED` payload into its machine-program bytes and its
/// counters with the wall time cleared (the one legitimately
/// nondeterministic field).
fn without_wall_us(payload: &[u8]) -> (&[u8], wire::CompiledCounters) {
    let (program, counters) = wire::split_compiled_payload(payload).expect("a compile response");
    let counters = wire::CompiledCounters {
        wall_us: 0,
        ..counters
    };
    (program, counters)
}

/// The zero-overhead contract: a daemon with telemetry on and one with it
/// off produce byte-identical compile responses (wall time aside) for the
/// same requests — cold compiles and memo replays alike.
#[test]
fn telemetry_is_inert_on_the_compile_path() {
    let programs = workload();
    let (config, options) = request_options();
    let on = serve(&ServeOptions::default()).unwrap();
    let off = serve(&ServeOptions {
        telemetry: false,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client_on = Client::connect(on.addr(), "diff").unwrap();
    let mut client_off = Client::connect(off.addr(), "diff").unwrap();
    // Pass 1 exercises the compile path, pass 2 the memo-replay path.
    for pass in 0..2 {
        for program in &programs {
            let req = wire::encode_compile_request("diff", program, &config, &options);
            let a = client_on.compile_payload(&req).unwrap();
            let b = client_off.compile_payload(&req).unwrap();
            assert_eq!(
                without_wall_us(&a),
                without_wall_us(&b),
                "telemetry changed response bytes for {} on pass {pass}",
                program.name
            );
        }
    }
}

/// One frame out, one frame in, on a raw connection (so a session can send
/// frames `Client` never would).
fn exchange(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    wire::write_frame(stream, kind, payload).unwrap();
    wire::read_frame(stream).unwrap()
}

fn assert_error(reply: (u8, Vec<u8>), code: u8) {
    assert_eq!(reply.0, wire::RESP_ERROR);
    assert_eq!(wire::decode_error(&reply.1).unwrap().0, code);
}

/// Parses a scrape body, which must be a rendering the parser inverts.
fn parse(body: &str) -> Snapshot {
    Snapshot::parse_prometheus(body).unwrap_or_else(|e| panic!("{e}\n{body}"))
}

/// Every sample of a scrape whose value a session pins, keyed as the
/// exposition spells it (`name{k="v",…}`): all scalars and each histogram's
/// `_count`. Uptime and the bucket placement (and `_sum`) of the timing
/// histograms vary run to run.
fn pinned_series(snapshot: &Snapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for fam in &snapshot.families {
        for (name, labels, value) in fam.samples() {
            let timing = fam.kind == MetricKind::Histogram && !name.ends_with("_count");
            if !timing && fam.name != "rawcc_uptime_us" {
                out.insert(format!("{name}{}", prom_labels(&labels)), value);
            }
        }
    }
    out
}

/// What one scripted session leaves behind.
struct Session {
    /// Two scrapes: one mid-session, one at the end.
    scrapes: [Snapshot; 2],
    /// The final scrape, through [`pinned_series`].
    scrape: BTreeMap<String, u64>,
    /// The cold compile's response payload.
    cold: Vec<u8>,
}

/// Drives one daemon through every request kind and every error path: cold
/// compile, memo-hit compile, a scrape, ping, two more scrapes, a malformed
/// scrape, an unknown kind, the retired stats kind, a program that fails
/// verification, a non-power-of-two mesh, and a truncated frame on a second
/// connection.
fn scripted_session(opts: &ServeOptions, program: &Program) -> Session {
    let handle = serve(opts).unwrap();
    let (config, options) = request_options();
    let compile = |conn: &mut TcpStream, program: &Program, config: &MachineConfig| {
        let req = wire::encode_compile_request("acct", program, config, &options);
        exchange(conn, wire::REQ_COMPILE, &req)
    };
    let scrape = |conn: &mut TcpStream, format| {
        let (kind, payload) = exchange(
            conn,
            wire::REQ_METRICS,
            &wire::encode_metrics_request(format),
        );
        assert_eq!(kind, wire::RESP_METRICS);
        MetricsResponse::decode(&payload).unwrap().body
    };

    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    let (kind, cold) = compile(&mut conn, program, &config);
    assert_eq!(kind, wire::RESP_COMPILED);
    assert_eq!(compile(&mut conn, program, &config).0, wire::RESP_COMPILED);
    let mid = parse(&scrape(&mut conn, MetricsFormat::Prometheus));
    assert_eq!(
        exchange(&mut conn, wire::REQ_PING, b"p"),
        (wire::RESP_PONG, b"p".to_vec())
    );
    scrape(&mut conn, MetricsFormat::Prometheus);
    scrape(&mut conn, MetricsFormat::Prometheus);
    assert_error(
        exchange(&mut conn, wire::REQ_METRICS, &[0xFF; 3]),
        errcode::MALFORMED,
    );
    assert_error(exchange(&mut conn, 0x7F, b"?"), errcode::UNKNOWN_KIND);
    assert_error(exchange(&mut conn, 0x02, &[]), errcode::UNKNOWN_KIND);
    let mut bad = program.clone();
    bad.entry = raw_repro::ir::BlockId::from_raw(bad.blocks.len() as u32 + 7);
    assert_error(compile(&mut conn, &bad, &config), errcode::BAD_PROGRAM);
    let three_by_three = MachineConfig::grid(3, 3);
    assert_error(
        compile(&mut conn, program, &three_by_three),
        errcode::COMPILE,
    );

    // A frame that promises 100 payload bytes and delivers 3: a protocol
    // error, then the server closes that connection (and has counted the
    // close by the time the client sees it).
    let mut torn = TcpStream::connect(handle.addr()).unwrap();
    let mut frame = Vec::from(wire::FRAME_MAGIC);
    frame.push(wire::REQ_PING);
    frame.extend_from_slice(&100u32.to_le_bytes());
    frame.extend_from_slice(b"abc");
    torn.write_all(&frame).unwrap();
    torn.shutdown(Shutdown::Write).unwrap();
    assert_error(wire::read_frame(&mut torn).unwrap(), errcode::PROTOCOL);
    assert!(matches!(
        wire::read_frame(&mut torn),
        Err(wire::WireError::Closed)
    ));

    let last = parse(&scrape(&mut conn, MetricsFormat::Prometheus));
    Session {
        scrape: pinned_series(&last),
        scrapes: [mid, last],
        cold,
    }
}

/// Pins the daemon's accounting: after one scripted session every counter,
/// gauge and histogram count has an exact value, per-client series
/// included, and the stats folded from its scrapes are exact but for their
/// timing fields. A daemon with telemetry off scrapes as disabled.
#[test]
fn one_session_pins_every_counter() {
    let program = &workload()[0];
    let (config, options) = request_options();
    // The same compile on a private cache: the daemon's cache must end up
    // exactly where this one does (the failing compiles never reach it).
    let reference = BlockCache::in_memory();
    compile_with_cache(program, &config, &options, &reference).unwrap();
    let cache = reference.stats();

    let on = scripted_session(&ServeOptions::default(), program);
    let (_, cold) = wire::split_compiled_payload(&on.cold).unwrap();
    assert_eq!((cold.misses, cold.hits), (cache.misses, cache.hits()));
    let blocks = cold.hits + cold.misses;

    let want_stats = StatsResponse {
        cache,
        requests: 2,
        memo_hits: 1,
        clients: vec![ClientRow {
            client: "acct".into(),
            requests: 2,
            hits: cold.hits + blocks,
            misses: cold.misses,
            coalesced: cold.coalesced,
        }],
        ..StatsResponse::default()
    };
    // The timing fields are the scrape's: its uptime and wall quantiles.
    for scrape in &on.scrapes {
        let wall = scrape.hist("rawcc_compile_wall_us", &[]).unwrap();
        let mut want = want_stats.clone();
        [want.p50_us, want.p90_us, want.p99_us] = [0.50, 0.90, 0.99].map(|q| wall.quantile(q));
        want.uptime_us = scrape.scalar("rawcc_uptime_us", &[]);
        assert_eq!(StatsResponse::from_scrape(scrape).unwrap(), want);
    }

    let mut want: BTreeMap<String, u64> = [
        ("rawcc_cache_coalesced_total", cache.coalesced),
        ("rawcc_cache_disk_rejects_total", cache.disk_rejects),
        ("rawcc_cache_entries", cache.entries),
        ("rawcc_cache_evicted_bytes_total", cache.evicted_bytes),
        ("rawcc_cache_evictions_total", cache.evictions),
        ("rawcc_cache_hits_total{tier=\"mem\"}", cache.hits_mem),
        ("rawcc_cache_hits_total{tier=\"disk\"}", cache.hits_disk),
        ("rawcc_cache_misses_total", cache.misses),
        ("rawcc_cache_resident_bytes", cache.resident_bytes),
        ("rawcc_compile_responses_total", 2),
        ("rawcc_compile_wall_us_count", 2),
        ("rawcc_connections_closed_total", 1),
        ("rawcc_connections_open", 1),
        ("rawcc_connections_opened_total", 2),
        ("rawcc_memo_entries", 1),
        ("rawcc_memo_evictions_total", 0),
        ("rawcc_memo_hits_total", 1),
        ("rawcc_memo_insertions_total", 1),
        ("rawcc_memo_resident_bytes", on.cold.len() as u64),
        ("rawcc_request_errors_total{code=\"malformed\"}", 1),
        ("rawcc_request_errors_total{code=\"unknown_kind\"}", 2),
        ("rawcc_request_errors_total{code=\"bad_program\"}", 1),
        ("rawcc_request_errors_total{code=\"compile\"}", 1),
        ("rawcc_request_errors_total{code=\"protocol\"}", 1),
        // The final scrape counts itself; unknown kinds count only as errors.
        ("rawcc_requests_total{kind=\"compile\"}", 4),
        ("rawcc_requests_total{kind=\"ping\"}", 1),
        ("rawcc_requests_total{kind=\"shutdown\"}", 0),
        ("rawcc_requests_total{kind=\"metrics\"}", 5),
        ("rawcc_telemetry_enabled", 1),
    ]
    .into_iter()
    .map(|(series, value)| (series.to_string(), value))
    .collect();
    let row = [2, cold.hits + blocks, cold.misses, cold.coalesced];
    for (count, value) in ["requests", "hits", "misses", "coalesced"].iter().zip(row) {
        let series = format!("rawcc_client_{count}_total{{client=\"acct\"}}");
        want.insert(series, value);
    }
    let [_, last] = &on.scrapes;
    assert_eq!(last.series_count("rawcc_client_requests_total"), 1);
    // Only the cold compile ran the pipeline.
    for phase in SPAN_PHASE_NAMES {
        want.insert(
            format!("rawcc_compile_phase_us_count{{phase=\"{phase}\"}}"),
            1,
        );
    }
    assert_eq!(on.scrape, want);

    let off = scripted_session(
        &ServeOptions {
            telemetry: false,
            ..ServeOptions::default()
        },
        program,
    );
    let disabled = BTreeMap::from([("rawcc_telemetry_enabled".to_string(), 0)]);
    assert_eq!(off.scrape, disabled);
}

/// 10k+ requests from rotating client names: the latency histogram and
/// per-client table must stay at their fixed capacities (the old implementation pushed every latency into an unbounded
/// `Vec`).
#[test]
fn soak_keeps_observability_memory_bounded() {
    let programs = workload();
    let (config, options) = request_options();
    let handle = serve(&ServeOptions::default()).unwrap();
    let addr = handle.addr();

    const THREADS: usize = 4;
    const PER_THREAD: usize = 2_560; // 10_240 total
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (programs, config, options) = (&programs, &config, &options);
            scope.spawn(move || {
                let mut client = Client::connect(addr, format!("soak-conn-{t}")).unwrap();
                let program = &programs[t % programs.len()];
                for i in 0..PER_THREAD {
                    // 128 distinct request-client names overflow the 64-row
                    // cap, forcing the "(other)" fold-over path.
                    let name = format!("soak-{}", (t * PER_THREAD + i) % 128);
                    let req = wire::encode_compile_request(&name, program, config, options);
                    client.compile_payload(&req).unwrap();
                }
            });
        }
    });

    let total = (THREADS * PER_THREAD) as u64;
    let mut client = Client::connect(addr, "soak-stats").unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, total);

    let scrape = parse(&client.metrics(MetricsFormat::Prometheus).unwrap().body);
    assert_eq!(
        scrape.scalar("rawcc_requests_total", &[("kind", "compile")]),
        total,
        "one compile frame counted per request"
    );
    let rows = scrape.series_count("rawcc_client_requests_total");
    assert!(
        rows <= 65,
        "client table must fold past 64 rows, got {rows}"
    );
    let buckets = scrape
        .hist("rawcc_compile_wall_us", &[])
        .unwrap()
        .bounds
        .len();
    assert!(
        buckets < 128,
        "latency histogram is a fixed table, got {buckets}"
    );
    // The fold-over row exists and absorbed the overflow names.
    assert!(stats.clients.iter().any(|r| r.client == "(other)"));
    // Percentiles still come out of the bounded histogram.
    assert!(stats.p50_us <= stats.p90_us && stats.p90_us <= stats.p99_us);
    assert!(stats.p99_us > 0);
}

/// Normalizes a scrape to its stable surface: family lines (name + type)
/// and per-series label *keys* of every sample line it renders (values
/// change run to run, names and labels must not drift without a conscious
/// golden update).
fn prometheus_signature(snapshot: &Snapshot) -> String {
    let mut lines = std::collections::BTreeSet::new();
    for fam in &snapshot.families {
        lines.insert(format!("family {} {}\n", fam.name, fam.kind.as_str()));
        for (name, labels, _) in fam.samples() {
            let mut keys: Vec<&str> = labels.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            lines.insert(format!("series {name}{{{}}}\n", keys.join(",")));
        }
    }
    lines.into_iter().collect()
}

/// The exposition surface is pinned as a golden file: adding, renaming, or
/// relabelling a metric is a conscious, reviewed change.
#[test]
fn prometheus_rendering_matches_golden_surface() {
    let programs = workload();
    let (config, options) = request_options();
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(handle.addr(), "golden").unwrap();
    for program in &programs {
        client.compile(program, &config, &options).unwrap();
    }
    client.ping(b"x").unwrap();
    let resp = client.metrics(MetricsFormat::Prometheus).unwrap();
    assert_eq!(resp.format, MetricsFormat::Prometheus);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/metrics_surface.txt");
    raw_testkit::check_golden(&path, &prometheus_signature(&parse(&resp.body)));
}

/// A scrape parses back into a snapshot that obeys the conservation laws:
/// families in sorted order, cumulative buckets monotone with the `+Inf`
/// bucket equal to `_count`, and the wall-histogram count equal to the
/// served request counter and to the client's series. The client's name,
/// a label value the daemon did not write, comes back verbatim.
#[test]
fn metrics_scrape_parses_and_conserves_counts() {
    let programs = workload();
    let (config, options) = request_options();
    let handle = serve(&ServeOptions::default()).unwrap();
    let name = "a\"b}\n c";
    let mut client = Client::connect(handle.addr(), name).unwrap();
    for _pass in 0..3 {
        for program in &programs {
            client.compile(program, &config, &options).unwrap();
        }
    }

    let resp = client.metrics(MetricsFormat::Prometheus).unwrap();
    assert_eq!(resp.format, MetricsFormat::Prometheus);
    let snapshot = parse(&resp.body);

    assert!(snapshot.families.len() >= 15, "expected a rich registry");
    for fam in &snapshot.families {
        for s in &fam.series {
            let hist = match &s.value {
                SeriesValue::Hist(h) => h,
                SeriesValue::Scalar(_) => {
                    assert_ne!(fam.kind, MetricKind::Histogram, "{}", fam.name);
                    continue;
                }
            };
            assert_eq!(fam.kind, MetricKind::Histogram, "{}", fam.name);
            let cumulative = &hist.cumulative;
            assert!(
                cumulative.is_sorted(),
                "cumulative buckets must be monotone"
            );
            assert_eq!(
                cumulative.last(),
                Some(&hist.count),
                "+Inf must equal count"
            );
        }
    }
    let names = snapshot.families.iter().map(|f| &f.name);
    assert!(names.is_sorted(), "families render in sorted order");

    let served = snapshot.scalar_sum("rawcc_compile_responses_total");
    assert_eq!(served, 9);
    let wall = snapshot.hist("rawcc_compile_wall_us", &[]).unwrap();
    assert_eq!(wall.count, served, "every served request is timed");
    let clients = client.stats().unwrap().clients;
    let one = matches!(&clients[..], [row] if row.client == name && row.requests == served);
    assert!(one, "{clients:?}");
    // 3 cold compiles + 6 memo replays.
    assert_eq!(snapshot.scalar_sum("rawcc_memo_hits_total"), 6);
    // Phase histograms only see the cold (non-memo) compiles.
    for phase in SPAN_PHASE_NAMES {
        let hist = snapshot.hist("rawcc_compile_phase_us", &[("phase", phase)]);
        let hist = hist.unwrap();
        assert_eq!(hist.count, 3, "one {phase} sample per cold compile");
    }
}

/// A disabled daemon still answers metrics scrapes — with the single
/// `rawcc_telemetry_enabled 0` gauge — so `Client::stats` has nothing to
/// fold.
#[test]
fn disabled_daemon_reports_disabled() {
    let handle = serve(&ServeOptions {
        telemetry: false,
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), "off").unwrap();
    let (config, options) = request_options();
    client.compile(&workload()[0], &config, &options).unwrap();
    let text = client.metrics(MetricsFormat::Prometheus).unwrap().body;
    assert!(text.contains("rawcc_telemetry_enabled 0"), "{text}");
    let snapshot = parse(&text);
    assert_eq!(snapshot.families.len(), 1, "{text}");
    assert_eq!(snapshot.scalar("rawcc_telemetry_enabled", &[]), 0);
    let stats = client.stats();
    assert!(matches!(stats, Err(ServiceError::TelemetryDisabled)));
}
