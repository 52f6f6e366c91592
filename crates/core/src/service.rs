//! The compile service: a long-running daemon that serves concurrent compile
//! requests from one shared [`BlockCache`], plus the matching in-process
//! [`Client`].
//!
//! ## Shape
//!
//! [`serve`] binds a `std::net::TcpListener`, spawns one accept-loop thread,
//! and one thread per connection. Every connection speaks the framed protocol
//! of [`crate::wire`]: requests are answered in order on the same connection,
//! so clients can pipeline. All connections share:
//!
//! - one sharded [`BlockCache`] (so two clients compiling the same program hit
//!   each other's blocks, and duplicate in-flight blocks are single-flighted);
//! - one bounded latency histogram (compile wall-times, served as
//!   p50/p90/p99 — constant memory no matter how long the daemon lives);
//! - one per-client accounting table keyed by the name each compile request
//!   carries, bounded at [`MAX_CLIENT_ROWS`] rows (overflow folds into an
//!   `"(other)"` row);
//! - optionally, one telemetry [`Registry`] plus a per-request [`SpanRing`]
//!   (see below).
//!
//! ## Telemetry
//!
//! With [`ServeOptions::telemetry`] on (the default), the daemon maintains a
//! metrics registry (request/error/connection counters, cache and memo
//! occupancy, per-phase compile-latency histograms) and records one
//! [`SpanRecord`] per compile request into a bounded ring plus a slow-request
//! log. A [`REQ_METRICS`](wire::REQ_METRICS) frame renders the registry as
//! Prometheus text or JSON. Everything on the request path is allocation-free
//! (atomic bumps and fixed-size span writes), and with telemetry *off* the
//! instrumented paths are inert: compile responses are byte-identical either
//! way (proven by a differential test), and a metrics scrape reports only
//! `rawcc_telemetry_enabled 0`. The naming scheme and bucket layout are
//! documented in DESIGN.md §15.
//!
//! ## Error policy
//!
//! A *payload* problem (malformed compile request, unknown request kind,
//! program that fails IR verification, compile error) gets a typed
//! [`RESP_ERROR`](crate::wire::RESP_ERROR) response and the connection stays
//! open — a misbehaving client can never take the daemon down. A *frame*
//! problem (bad magic, oversized length, truncated stream) is unrecoverable
//! by definition — the byte stream is out of sync — so the server sends a
//! best-effort protocol error and closes that one connection. The daemon
//! itself keeps serving either way.
//!
//! ## Shutdown
//!
//! A [`REQ_SHUTDOWN`](crate::wire::REQ_SHUTDOWN) frame is acknowledged, then
//! the accept loop is unblocked (self-connect) and exits. Connection threads
//! exit when their client disconnects; the daemon process exits as soon as
//! [`ServerHandle::join`] returns, which requires only the accept loop.

use crate::blockcache::{BlockCache, CacheTotals, Fifo, DEFAULT_CAPACITY};
use crate::codec::hash128;
use crate::driver::compile_with_cache;
use crate::options::CompilerOptions;
use crate::wire::{
    self, encode_compile_request, errcode, read_frame, write_frame, ClientRow, CompileRequest,
    CompileResponse, MetricsFormat, MetricsResponse, StatsResponse, WireError,
};
use raw_ir::Program;
use raw_machine::MachineConfig;
use raw_telemetry::{
    Buckets, Counter, Gauge, Histogram, Label, Registry, SpanRecord, SpanRing, SPAN_PHASES,
    SPAN_PHASE_NAMES,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept resident in the telemetry ring.
pub const SPAN_RING_CAPACITY: usize = 256;
/// Slow-request log size (top-K compile requests by wall time).
pub const SLOW_LOG_CAPACITY: usize = 16;
/// Per-client stats rows are bounded; once this many distinct client names
/// have rows, further names fold into [`OTHER_CLIENTS_ROW`].
pub const MAX_CLIENT_ROWS: usize = 64;
/// The fold-over row name for clients beyond [`MAX_CLIENT_ROWS`].
pub const OTHER_CLIENTS_ROW: &str = "(other)";
/// Byte budget of the whole-response memo. The memo replays the encoded
/// response for byte-identical requests, skipping decode/verify/compile/
/// encode entirely; [`ServeOptions::verify`] turns it off so paranoia mode
/// re-checks every request.
const MEMO_BUDGET: usize = 64 << 20;

/// Configuration for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (read it from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Cache shard count (rounded up to a power of two).
    pub shards: usize,
    /// Global in-memory byte budget, split across shards.
    pub byte_budget: usize,
    /// Optional disk layer shared by all clients.
    pub cache_dir: Option<PathBuf>,
    /// Recompile and check every cache hit (server-side paranoia mode); also
    /// turns the whole-response memo off.
    pub verify: bool,
    /// Maintain the metrics registry and span ring (the default). Off, the
    /// daemon still serves bounded stats percentiles, but a metrics scrape
    /// reports only `rawcc_telemetry_enabled 0` and no spans are recorded.
    pub telemetry: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            shards: 16,
            byte_budget: 64 << 20,
            cache_dir: None,
            verify: false,
            telemetry: true,
        }
    }
}

/// Anything [`serve`] or [`Client`] can fail with.
#[derive(Debug)]
pub enum ServiceError {
    /// Could not bind the listen address.
    Bind(std::io::Error),
    /// Could not open the cache directory.
    CacheDir(std::io::Error),
    /// Could not connect to the server.
    Connect(std::io::Error),
    /// Protocol-level failure (including typed server errors, as
    /// [`WireError::Remote`]).
    Wire(WireError),
    /// The server answered with a frame kind the client did not expect.
    UnexpectedResponse(u8),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Bind(e) => write!(f, "bind failed: {e}"),
            ServiceError::CacheDir(e) => write!(f, "cache dir unusable: {e}"),
            ServiceError::Connect(e) => write!(f, "connect failed: {e}"),
            ServiceError::Wire(e) => write!(f, "{e}"),
            ServiceError::UnexpectedResponse(kind) => {
                write!(f, "unexpected response kind {kind:#04x}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

/// One memoised response: the encoded `RESP_COMPILED` payload plus the block
/// count the compile touched (replayed as `hits` on memo hits) and the
/// program name for span provenance.
struct MemoEntry {
    bytes: Arc<Vec<u8>>,
    blocks: u64,
    program: Label,
}

/// Whole-response memo, FIFO-evicted under a byte budget alone. Keys hash the
/// compile request payload *minus* the leading client name, so requests from
/// different clients for the same (program, config, options) share entries.
type Memo = Fifo<u128, MemoEntry>;

/// 128-bit content key for the memo: the block cache's two-pass hash.
fn memo_key(rest: &[u8]) -> u128 {
    let (first, second) = hash128(&[rest]);
    (u128::from(first) << 64) | u128::from(second)
}

/// The metrics registry plus everything registered in it that the request
/// path bumps directly. Present only when [`ServeOptions::telemetry`] is on.
///
/// All closures registered into the registry capture `Arc`s to the shared
/// pieces (cache, memo, client table, span ring) — never the
/// [`ServerState`] that owns this struct, so there is no reference cycle.
struct Telemetry {
    registry: Registry,
    spans: Arc<SpanRing>,
    /// Request counters indexed by [`req_index`]: compile, stats, ping,
    /// shutdown, metrics.
    req_kind: [Arc<Counter>; 5],
    /// Typed-error counters indexed by `errcode - 1`.
    errors: [Arc<Counter>; 5],
    conn_opened: Arc<Counter>,
    conn_closed: Arc<Counter>,
    conn_open: Arc<Gauge>,
    memo_insertions: Arc<Counter>,
    memo_evictions: Arc<Counter>,
    /// Per-phase compile-latency histograms, indexed like
    /// [`SPAN_PHASE_NAMES`].
    phase_us: [Arc<Histogram>; SPAN_PHASES],
}

/// Registry index for a request-kind counter.
fn req_index(kind: u8) -> usize {
    match kind {
        wire::REQ_COMPILE => 0,
        wire::REQ_STATS => 1,
        wire::REQ_PING => 2,
        wire::REQ_SHUTDOWN => 3,
        _ => 4, // REQ_METRICS
    }
}

impl Telemetry {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cache: &Arc<BlockCache>,
        latency: &Arc<Histogram>,
        clients: &Arc<Mutex<HashMap<String, ClientRow>>>,
        requests: &Arc<Counter>,
        memo: &Arc<Mutex<Memo>>,
        memo_hits: &Arc<Counter>,
        started: Instant,
    ) -> Self {
        let registry = Registry::new();
        let spans = Arc::new(SpanRing::new(SPAN_RING_CAPACITY, SLOW_LOG_CAPACITY));

        registry
            .gauge(
                "rawcc_telemetry_enabled",
                "1 when the telemetry subsystem is active",
            )
            .set(1);
        registry.gauge_fn(
            "rawcc_uptime_us",
            "microseconds since the daemon started serving",
            &[],
            move || started.elapsed().as_micros() as u64,
        );

        // Requests and errors. `rawcc_requests_total` counts every request
        // frame by kind (compile includes ones that end in a typed error);
        // `rawcc_compile_responses_total` counts served compile responses
        // (the stats `requests` field), so errors are the difference.
        let req_kind = ["compile", "stats", "ping", "shutdown", "metrics"].map(|kind| {
            registry.counter_with(
                "rawcc_requests_total",
                "request frames served, by request kind",
                &[("kind", kind)],
            )
        });
        let errors = [
            "malformed",
            "unknown_kind",
            "bad_program",
            "compile",
            "protocol",
        ]
        .map(|code| {
            registry.counter_with(
                "rawcc_request_errors_total",
                "typed error responses, by error code",
                &[("code", code)],
            )
        });
        {
            let requests = requests.clone();
            registry.counter_fn(
                "rawcc_compile_responses_total",
                "compile requests answered successfully (including memo replays)",
                &[],
                move || requests.get(),
            );
        }

        // Connection lifecycle.
        let conn_opened = registry.counter(
            "rawcc_connections_opened_total",
            "connections accepted since startup",
        );
        let conn_closed = registry.counter(
            "rawcc_connections_closed_total",
            "connections closed since startup",
        );
        let conn_open = registry.gauge("rawcc_connections_open", "currently open connections");

        // Whole-response memo.
        {
            let memo_hits = memo_hits.clone();
            registry.counter_fn(
                "rawcc_memo_hits_total",
                "compile responses replayed verbatim from the whole-response memo",
                &[],
                move || memo_hits.get(),
            );
        }
        let memo_insertions = registry.counter(
            "rawcc_memo_insertions_total",
            "responses inserted into the whole-response memo",
        );
        let memo_evictions = registry.counter(
            "rawcc_memo_evictions_total",
            "memo entries evicted by the byte budget",
        );
        {
            let memo = memo.clone();
            registry.gauge_fn(
                "rawcc_memo_resident_bytes",
                "encoded response bytes resident in the memo",
                &[],
                move || memo.lock().unwrap().bytes() as u64,
            );
        }
        {
            let memo = memo.clone();
            registry.gauge_fn(
                "rawcc_memo_entries",
                "responses resident in the memo",
                &[],
                move || memo.lock().unwrap().len() as u64,
            );
        }

        // Block cache: every series reads one field of the cache's own
        // counter snapshot at scrape time.
        type CacheScrape = fn(&CacheTotals) -> u64;
        let cache_counters: [(&str, &str, CacheScrape); 5] = [
            (
                "rawcc_cache_misses_total",
                "block-cache misses (each one compiled a block)",
                |t| t.misses,
            ),
            (
                "rawcc_cache_coalesced_total",
                "block compiles avoided by single-flight coalescing",
                |t| t.coalesced,
            ),
            (
                "rawcc_cache_evictions_total",
                "bundles evicted from the in-memory cache",
                |t| t.evictions,
            ),
            (
                "rawcc_cache_evicted_bytes_total",
                "encoded bytes evicted from the in-memory cache",
                |t| t.evicted_bytes,
            ),
            (
                "rawcc_cache_disk_rejects_total",
                "disk-layer entries rejected as corrupt or stale",
                |t| t.disk_rejects,
            ),
        ];
        for (name, help, read) in cache_counters {
            let cache = cache.clone();
            registry.counter_fn(name, help, &[], move || read(&cache.stats()));
        }
        let hit_tiers: [(&str, CacheScrape); 2] =
            [("mem", |t| t.hits_mem), ("disk", |t| t.hits_disk)];
        for (tier, read) in hit_tiers {
            let cache = cache.clone();
            registry.counter_fn(
                "rawcc_cache_hits_total",
                "block-cache hits, by serving tier",
                &[("tier", tier)],
                move || read(&cache.stats()),
            );
        }
        let occupancy: [(&str, &str, CacheScrape); 2] = [
            (
                "rawcc_cache_entries",
                "bundles resident in the sharded cache",
                |t| t.entries,
            ),
            (
                "rawcc_cache_resident_bytes",
                "encoded bundle bytes resident in the sharded cache",
                |t| t.resident_bytes,
            ),
        ];
        for (name, help, read) in occupancy {
            let cache = cache.clone();
            registry.gauge_fn(name, help, &[], move || read(&cache.stats()));
        }

        // Latency. The wall histogram is the same storage that backs the
        // stats percentiles; per-phase histograms are span-fed.
        registry.histogram_existing(
            "rawcc_compile_wall_us",
            "server-side compile wall time per request, microseconds",
            &[],
            latency,
        );
        let phase_us = SPAN_PHASE_NAMES.map(|phase| {
            registry.histogram_with(
                "rawcc_compile_phase_us",
                "compile pipeline phase wall time, microseconds",
                &[("phase", phase)],
                Buckets::latency_us(),
            )
        });

        // Span ring and accounting-table occupancy.
        {
            let spans = spans.clone();
            registry.counter_fn(
                "rawcc_spans_total",
                "compile spans ever recorded",
                &[],
                move || spans.total(),
            );
        }
        {
            let spans = spans.clone();
            registry.gauge_fn(
                "rawcc_spans_resident",
                "spans resident in the bounded ring",
                &[],
                move || spans.len() as u64,
            );
        }
        {
            let spans = spans.clone();
            registry.gauge_fn(
                "rawcc_slow_log_resident",
                "entries in the slow-request log",
                &[],
                move || spans.slow_len() as u64,
            );
        }
        {
            let clients = clients.clone();
            registry.gauge_fn(
                "rawcc_client_rows",
                "per-client accounting rows (bounded; overflow folds into one row)",
                &[],
                move || clients.lock().unwrap().len() as u64,
            );
        }

        Telemetry {
            registry,
            spans,
            req_kind,
            errors,
            conn_opened,
            conn_closed,
            conn_open,
            memo_insertions,
            memo_evictions,
            phase_us,
        }
    }

    fn count_request(&self, kind: u8) {
        self.req_kind[req_index(kind)].inc();
    }

    fn count_error(&self, code: u8) {
        // Codes are 1-based (errcode module); clamp so an out-of-range code
        // can never panic the counter path.
        self.errors[(code.max(1) as usize - 1).min(self.errors.len() - 1)].inc();
    }
}

/// Decrements the open-connection gauge however the connection ends.
struct ConnGuard<'a>(Option<&'a Telemetry>);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        if let Some(tel) = self.0 {
            tel.conn_closed.inc();
            tel.conn_open.sub(1);
        }
    }
}

struct ServerState {
    cache: Arc<BlockCache>,
    /// Compile wall-times, bucketed. Always present (it backs the stats
    /// percentiles) — this replaces the old unbounded `Vec<u64>` reservoir,
    /// so stats memory is constant for the life of the daemon.
    latency: Arc<Histogram>,
    clients: Arc<Mutex<HashMap<String, ClientRow>>>,
    requests: Arc<Counter>,
    shutting_down: AtomicBool,
    memo: Arc<Mutex<Memo>>,
    memo_hits: Arc<Counter>,
    started: Instant,
    telemetry: Option<Telemetry>,
}

impl ServerState {
    fn stats_response(&self) -> StatsResponse {
        let mut clients: Vec<ClientRow> = self.clients.lock().unwrap().values().cloned().collect();
        clients.sort_by(|a, b| a.client.cmp(&b.client));
        StatsResponse {
            cache: self.cache.stats(),
            requests: self.requests.get(),
            memo_hits: self.memo_hits.get(),
            p50_us: self.latency.quantile(0.50),
            p90_us: self.latency.quantile(0.90),
            p99_us: self.latency.quantile(0.99),
            uptime_us: self.started.elapsed().as_micros() as u64,
            clients,
        }
    }

    /// Renders the telemetry snapshot (or the minimal disabled form, which
    /// still parses as the same format).
    fn render_metrics(&self, format: MetricsFormat) -> String {
        let disabled;
        let snapshot = match &self.telemetry {
            Some(tel) => tel.registry.snapshot(),
            None => {
                disabled = Registry::new();
                disabled
                    .gauge(
                        "rawcc_telemetry_enabled",
                        "1 when the telemetry subsystem is active",
                    )
                    .set(0);
                disabled.snapshot()
            }
        };
        match format {
            MetricsFormat::Prometheus => snapshot.render_prometheus(),
            MetricsFormat::Json => snapshot.render_json(),
        }
    }

    /// The bounded-row entry point for per-client accounting.
    fn client_row<'a>(
        clients: &'a mut HashMap<String, ClientRow>,
        client: &str,
    ) -> &'a mut ClientRow {
        let name = if clients.contains_key(client) || clients.len() < MAX_CLIENT_ROWS {
            client
        } else {
            OTHER_CLIENTS_ROW
        };
        clients
            .entry(name.to_string())
            .or_insert_with(|| ClientRow {
                client: name.to_string(),
                ..ClientRow::default()
            })
    }

    fn record(&self, client: &str, resp: &CompileResponse) {
        self.requests.inc();
        self.latency.record(resp.wall_us);
        let mut clients = self.clients.lock().unwrap();
        let row = Self::client_row(&mut clients, client);
        row.requests += 1;
        row.hits += resp.hits;
        row.misses += resp.misses;
        row.coalesced += resp.coalesced;
    }

    /// Accounts a memo hit: the request counts like a compile whose blocks
    /// were all cache hits.
    fn record_memo(&self, client: &str, blocks: u64, wall_us: u64) {
        self.requests.inc();
        self.memo_hits.inc();
        self.latency.record(wall_us);
        let mut clients = self.clients.lock().unwrap();
        let row = Self::client_row(&mut clients, client);
        row.requests += 1;
        row.hits += blocks;
    }

    fn memo_get(&self, key: u128) -> Option<MemoEntry> {
        let memo = self.memo.lock().unwrap();
        memo.get(&key).map(|e| MemoEntry {
            bytes: e.bytes.clone(),
            blocks: e.blocks,
            program: e.program,
        })
    }

    fn memo_insert(&self, key: u128, bytes: &[u8], blocks: u64, program: Label) {
        let mut memo = self.memo.lock().unwrap();
        // A response over the whole budget (any response, once the memo is
        // disabled by a zero budget) is not worth evicting everything for.
        if bytes.len() > memo.max_bytes() || memo.get(&key).is_some() {
            return;
        }
        let entry = MemoEntry {
            bytes: Arc::new(bytes.to_vec()),
            blocks,
            program,
        };
        let evicted = memo.insert(key, entry, bytes.len());
        drop(memo);
        if let Some(tel) = &self.telemetry {
            tel.memo_insertions.inc();
            tel.memo_evictions.add(evicted.entries);
        }
    }
}

/// Bounded-memory sizes of the observability structures, for soak tests and
/// debugging. All capacities are fixed at startup; the `*_resident` values
/// can only ever reach them, never exceed them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryFootprint {
    /// Spans resident in the ring (≤ `spans_capacity`).
    pub spans_resident: usize,
    /// Ring capacity ([`SPAN_RING_CAPACITY`]; 0 with telemetry off).
    pub spans_capacity: usize,
    /// Spans ever recorded (monotone; storage does not grow with it).
    pub spans_total: u64,
    /// Slow-log entries resident (≤ `slow_capacity`).
    pub slow_resident: usize,
    /// Slow-log capacity ([`SLOW_LOG_CAPACITY`]; 0 with telemetry off).
    pub slow_capacity: usize,
    /// Per-client accounting rows (≤ [`MAX_CLIENT_ROWS`] + 1).
    pub client_rows: usize,
    /// Latency-histogram buckets (fixed at startup).
    pub latency_buckets: usize,
}

/// A running server. Dropping the handle shuts the server down (best-effort)
/// if nobody has already; [`join`](Self::join) blocks until the accept loop
/// exits.
pub struct ServerHandle {
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sizes of the bounded observability structures — what a soak test
    /// asserts to prove stats memory does not grow with request count.
    pub fn telemetry_footprint(&self) -> TelemetryFootprint {
        let state = &self.state;
        let mut fp = TelemetryFootprint {
            client_rows: state.clients.lock().unwrap().len(),
            latency_buckets: state.latency.buckets().len(),
            ..TelemetryFootprint::default()
        };
        if let Some(tel) = &state.telemetry {
            fp.spans_resident = tel.spans.len();
            fp.spans_capacity = tel.spans.capacity();
            fp.spans_total = tel.spans.total();
            fp.slow_resident = tel.spans.slow_len();
            fp.slow_capacity = tel.spans.slow_capacity();
        }
        fp
    }

    /// The slow-request log (slowest first; empty with telemetry off).
    pub fn slow_requests(&self) -> Vec<SpanRecord> {
        self.state
            .telemetry
            .as_ref()
            .map_or_else(Vec::new, |tel| tel.spans.slowest())
    }

    /// Waits for the accept loop to exit (i.e. until some client sends
    /// shutdown).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            if !self.state.shutting_down.load(Ordering::SeqCst) {
                if let Ok(mut c) = Client::connect(self.addr, "server-drop") {
                    let _ = c.shutdown();
                }
            }
            let _ = h.join();
        }
    }
}

/// Starts the compile daemon. Returns once the listener is bound; serving
/// happens on background threads until a shutdown request arrives.
///
/// # Errors
///
/// [`ServiceError::Bind`] / [`ServiceError::CacheDir`] for setup failures.
pub fn serve(opts: &ServeOptions) -> Result<ServerHandle, ServiceError> {
    let mut cache = BlockCache::with_budget(opts.shards, DEFAULT_CAPACITY, opts.byte_budget);
    if let Some(dir) = &opts.cache_dir {
        cache = cache.on_disk(dir).map_err(ServiceError::CacheDir)?;
    }
    cache.set_verify(opts.verify);
    let cache = Arc::new(cache);
    let listener = TcpListener::bind(opts.addr.as_str()).map_err(ServiceError::Bind)?;
    let addr = listener.local_addr().map_err(ServiceError::Bind)?;
    // Verify mode must actually re-run every compile, so it turns the
    // response memo off.
    let memo_budget = if opts.verify { 0 } else { MEMO_BUDGET };

    let latency = Arc::new(Histogram::new(Buckets::latency_us()));
    let clients = Arc::new(Mutex::new(HashMap::new()));
    let requests = Arc::new(Counter::new());
    let memo = Arc::new(Mutex::new(Memo::new(usize::MAX, memo_budget)));
    let memo_hits = Arc::new(Counter::new());
    let started = Instant::now();
    let telemetry = opts.telemetry.then(|| {
        Telemetry::new(
            &cache, &latency, &clients, &requests, &memo, &memo_hits, started,
        )
    });
    let state = Arc::new(ServerState {
        cache,
        latency,
        clients,
        requests,
        shutting_down: AtomicBool::new(false),
        memo,
        memo_hits,
        started,
        telemetry,
    });

    let accept_state = state.clone();
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Frames are written header-then-payload; without nodelay the
            // small header write interacts with delayed ACKs and adds tens of
            // milliseconds to every response.
            let _ = stream.set_nodelay(true);
            let conn_state = accept_state.clone();
            // Connection threads are detached: they exit when their client
            // disconnects, and the module docs' shutdown contract only needs
            // the accept loop to terminate.
            std::thread::spawn(move || handle_connection(&conn_state, stream));
        }
    });

    Ok(ServerHandle {
        addr,
        accept: Some(accept),
        state,
    })
}

/// Serves one connection until the client disconnects, an unrecoverable frame
/// error occurs, or a shutdown request arrives.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let tel = state.telemetry.as_ref();
    if let Some(tel) = tel {
        tel.conn_opened.inc();
        tel.conn_open.add(1);
    }
    let _guard = ConnGuard(tel);
    loop {
        match read_frame(&mut stream) {
            Ok((wire::REQ_PING, payload)) => {
                if let Some(tel) = tel {
                    tel.count_request(wire::REQ_PING);
                }
                if write_frame(&mut stream, wire::RESP_PONG, &payload).is_err() {
                    return;
                }
            }
            Ok((wire::REQ_STATS, _)) => {
                if let Some(tel) = tel {
                    tel.count_request(wire::REQ_STATS);
                }
                let resp = state.stats_response().encode();
                if write_frame(&mut stream, wire::RESP_STATS, &resp).is_err() {
                    return;
                }
            }
            Ok((wire::REQ_METRICS, payload)) => {
                if let Some(tel) = tel {
                    tel.count_request(wire::REQ_METRICS);
                }
                let (kind, bytes) = match wire::decode_metrics_request(&payload) {
                    Ok(format) => {
                        let resp = MetricsResponse {
                            format,
                            body: state.render_metrics(format),
                        };
                        (wire::RESP_METRICS, resp.encode())
                    }
                    Err(e) => {
                        if let Some(tel) = tel {
                            tel.count_error(errcode::MALFORMED);
                        }
                        (
                            wire::RESP_ERROR,
                            wire::encode_error(errcode::MALFORMED, &e.to_string()),
                        )
                    }
                };
                if write_frame(&mut stream, kind, &bytes).is_err() {
                    return;
                }
            }
            Ok((wire::REQ_SHUTDOWN, _)) => {
                if let Some(tel) = tel {
                    tel.count_request(wire::REQ_SHUTDOWN);
                }
                let _ = write_frame(&mut stream, wire::RESP_SHUTDOWN, &[]);
                state.shutting_down.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag. The
                // listener address is our own peer address' counterpart.
                if let Ok(local) = stream.local_addr() {
                    let _ = TcpStream::connect(local);
                }
                return;
            }
            Ok((wire::REQ_COMPILE, payload)) => {
                let started = Instant::now();
                if let Some(tel) = tel {
                    tel.count_request(wire::REQ_COMPILE);
                }
                // Whole-response memo: identical (program, config, options)
                // bytes — whoever sent them — map to identical responses
                // under a deterministic compiler, so the encoded answer is
                // replayed verbatim with only the counter tail rewritten.
                let memo_key = wire::split_compile_client(&payload)
                    .map(|(client, rest)| (client.to_string(), memo_key(rest)));
                if let Some((client, key)) = &memo_key {
                    if let Some(entry) = state.memo_get(*key) {
                        let mut bytes = entry.bytes.as_ref().clone();
                        let wall_us = started.elapsed().as_micros() as u64;
                        wire::patch_compiled_counters(&mut bytes, entry.blocks, wall_us);
                        state.record_memo(client, entry.blocks, wall_us);
                        if let Some(tel) = tel {
                            tel.spans.record(SpanRecord {
                                client: Label::new(client),
                                program: entry.program,
                                key_hi: (*key >> 64) as u64,
                                key_lo: *key as u64,
                                wall_us,
                                blocks: entry.blocks as u32,
                                block_hits: entry.blocks as u32,
                                memo_hit: true,
                                ..SpanRecord::default()
                            });
                        }
                        if write_frame(&mut stream, wire::RESP_COMPILED, &bytes).is_err() {
                            return;
                        }
                        continue;
                    }
                }
                let reply = compile_reply(state, &payload);
                let (kind, bytes) = match &reply {
                    Ok(out) => (wire::RESP_COMPILED, out.resp.encode()),
                    Err((code, msg)) => (wire::RESP_ERROR, wire::encode_error(*code, msg)),
                };
                match &reply {
                    Ok(out) => {
                        if let Some((_, key)) = &memo_key {
                            state.memo_insert(
                                *key,
                                &bytes,
                                out.resp.hits + out.resp.misses,
                                out.program,
                            );
                        }
                        if let Some(tel) = tel {
                            for (i, &us) in out.phase_us.iter().enumerate() {
                                tel.phase_us[i].record(us);
                            }
                            tel.spans.record(SpanRecord {
                                client: out.client,
                                program: out.program,
                                key_hi: out.key_hi,
                                key_lo: out.key_lo,
                                wall_us: started.elapsed().as_micros() as u64,
                                phase_us: out.phase_us,
                                blocks: out.blocks,
                                block_hits: out.block_hits,
                                ..SpanRecord::default()
                            });
                        }
                    }
                    Err((code, _)) => {
                        if let Some(tel) = tel {
                            tel.count_error(*code);
                            tel.spans.record(SpanRecord {
                                client: memo_key
                                    .as_ref()
                                    .map_or_else(Label::default, |(c, _)| Label::new(c)),
                                wall_us: started.elapsed().as_micros() as u64,
                                error: true,
                                ..SpanRecord::default()
                            });
                        }
                    }
                }
                if write_frame(&mut stream, kind, &bytes).is_err() {
                    return;
                }
            }
            Ok((kind, _)) => {
                // Unknown kind: typed error, connection stays usable (framing
                // is still in sync — we read a well-formed frame).
                if let Some(tel) = tel {
                    tel.count_error(errcode::UNKNOWN_KIND);
                }
                let err = wire::encode_error(
                    errcode::UNKNOWN_KIND,
                    &WireError::UnknownKind(kind).to_string(),
                );
                if write_frame(&mut stream, wire::RESP_ERROR, &err).is_err() {
                    return;
                }
            }
            Err(WireError::Closed) => return,
            Err(e @ (WireError::BadMagic | WireError::Oversized(_) | WireError::Truncated)) => {
                // Stream out of sync: answer (best-effort) and drop the
                // connection. The daemon keeps serving everyone else.
                if let Some(tel) = tel {
                    tel.count_error(errcode::PROTOCOL);
                }
                let err = wire::encode_error(errcode::PROTOCOL, &e.to_string());
                let _ = write_frame(&mut stream, wire::RESP_ERROR, &err);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Everything a successful compile produces: the response plus the span
/// fields the telemetry layer records (cheaply copyable, so building it
/// costs nothing when telemetry is off).
struct CompileOutcome {
    resp: CompileResponse,
    client: Label,
    program: Label,
    /// Entry block's content-addressed cache key (provenance).
    key_hi: u64,
    key_lo: u64,
    phase_us: [u64; SPAN_PHASES],
    blocks: u32,
    block_hits: u32,
}

/// Decodes, verifies, and compiles one request against the shared cache.
fn compile_reply(state: &ServerState, payload: &[u8]) -> Result<CompileOutcome, (u8, String)> {
    // "parse" span phase: wire decode plus IR verification.
    let parse_start = Instant::now();
    let req = CompileRequest::decode(payload).map_err(|e| (errcode::MALFORMED, e.to_string()))?;
    // A decoded program is structurally arbitrary (the codec checks shape,
    // not semantics); verify before letting the compiler assume invariants.
    raw_ir::verify::verify(&req.program).map_err(|e| (errcode::BAD_PROGRAM, e.to_string()))?;
    let parse_us = parse_start.elapsed().as_micros() as u64;
    let start = Instant::now();
    let compiled = compile_with_cache(&req.program, &req.config, &req.options, &state.cache)
        .map_err(|e| (errcode::COMPILE, e.to_string()))?;
    let report = &compiled.report;
    // Promote `CompileReport.timings` into the span's phase vector, matching
    // rows by name (the span order is pipeline order, the report's struct
    // order differs).
    let mut phase_us = [0u64; SPAN_PHASES];
    phase_us[0] = parse_us;
    for (name, dur) in report.timings.rows() {
        if let Some(i) = SPAN_PHASE_NAMES.iter().position(|&p| p == name) {
            phase_us[i] = dur.as_micros() as u64;
        }
    }
    let key = report.block_keys.first().copied();
    let outcome = CompileOutcome {
        client: Label::new(&req.client),
        program: Label::new(&req.program.name),
        key_hi: key.map_or(0, |k| k.hi),
        key_lo: key.map_or(0, |k| k.lo),
        phase_us,
        blocks: report.blocks.len() as u32,
        block_hits: report.cache.hits as u32,
        resp: CompileResponse {
            hits: report.cache.hits,
            misses: report.cache.misses,
            coalesced: report.cache.coalesced,
            evictions: report.cache.evictions,
            evicted_bytes: report.cache.evicted_bytes,
            wall_us: start.elapsed().as_micros() as u64,
            threads: report.threads as u32,
            machine_program: compiled.machine_program,
        },
    };
    state.record(&req.client, &outcome.resp);
    Ok(outcome)
}

/// A blocking client for the compile service. One request at a time per
/// client; open several clients for concurrency.
pub struct Client {
    stream: TcpStream,
    name: String,
}

impl Client {
    /// Connects to a running daemon. `name` keys the server's per-client
    /// stats rows.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Connect`] when the server is unreachable.
    pub fn connect(
        addr: impl ToSocketAddrs,
        name: impl Into<String>,
    ) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(ServiceError::Connect)?;
        stream.set_nodelay(true).map_err(ServiceError::Connect)?;
        Ok(Client {
            stream,
            name: name.into(),
        })
    }

    /// This client's name, as reported to the server.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn roundtrip(&mut self, kind: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), ServiceError> {
        write_frame(&mut self.stream, kind, payload).map_err(WireError::from)?;
        let (kind, payload) = read_frame(&mut self.stream)?;
        if kind == wire::RESP_ERROR {
            let (code, msg) = wire::decode_error(&payload)?;
            return Err(ServiceError::Wire(WireError::Remote(code, msg)));
        }
        Ok((kind, payload))
    }

    /// Compiles `program` remotely, returning the machine image plus the
    /// request's cache counters.
    ///
    /// # Errors
    ///
    /// Typed server errors surface as
    /// [`WireError::Remote`] inside [`ServiceError::Wire`].
    pub fn compile(
        &mut self,
        program: &Program,
        config: &MachineConfig,
        options: &CompilerOptions,
    ) -> Result<CompileResponse, ServiceError> {
        let request = encode_compile_request(&self.name, program, config, options);
        let payload = self.compile_payload(&request)?;
        Ok(CompileResponse::decode(&payload)?)
    }

    /// Sends a pre-encoded compile request (as produced by
    /// [`wire::encode_compile_request`]) and returns the raw
    /// [`RESP_COMPILED`](wire::RESP_COMPILED) payload, undecoded.
    ///
    /// This is the throughput path: a stress harness can encode each request
    /// once, replay it many times, and verify responses byte-for-byte via
    /// [`wire::split_compiled_payload`] without ever decoding a machine
    /// program.
    ///
    /// # Errors
    ///
    /// Typed server errors surface as
    /// [`WireError::Remote`] inside [`ServiceError::Wire`].
    pub fn compile_payload(&mut self, request: &[u8]) -> Result<Vec<u8>, ServiceError> {
        let (kind, payload) = self.roundtrip(wire::REQ_COMPILE, request)?;
        if kind != wire::RESP_COMPILED {
            return Err(ServiceError::UnexpectedResponse(kind));
        }
        Ok(payload)
    }

    /// Fetches the server-wide stats snapshot.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn stats(&mut self) -> Result<StatsResponse, ServiceError> {
        let (kind, payload) = self.roundtrip(wire::REQ_STATS, &[])?;
        if kind != wire::RESP_STATS {
            return Err(ServiceError::UnexpectedResponse(kind));
        }
        Ok(StatsResponse::decode(&payload)?)
    }

    /// Fetches a rendered telemetry snapshot in `format`.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<MetricsResponse, ServiceError> {
        let request = wire::encode_metrics_request(format);
        let (kind, payload) = self.roundtrip(wire::REQ_METRICS, &request)?;
        if kind != wire::RESP_METRICS {
            return Err(ServiceError::UnexpectedResponse(kind));
        }
        Ok(MetricsResponse::decode(&payload)?)
    }

    /// Liveness probe; the server echoes `payload`.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>, ServiceError> {
        let (kind, payload) = self.roundtrip(wire::REQ_PING, payload)?;
        if kind != wire::RESP_PONG {
            return Err(ServiceError::UnexpectedResponse(kind));
        }
        Ok(payload)
    }

    /// Asks the daemon to shut down; returns once it acknowledges.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        let (kind, _) = self.roundtrip(wire::REQ_SHUTDOWN, &[])?;
        if kind != wire::RESP_SHUTDOWN {
            return Err(ServiceError::UnexpectedResponse(kind));
        }
        Ok(())
    }
}
