//! The compile service: a long-running daemon that serves concurrent compile
//! requests from one shared [`BlockCache`], plus the matching in-process
//! [`Client`].
//!
//! ## Shape
//!
//! [`serve`] binds a `std::net::TcpListener`, spawns one accept-loop thread,
//! and one thread per connection. Every connection speaks the framed protocol
//! of [`crate::wire`]: requests are answered in order on the same connection,
//! so clients can pipeline. All connections share one sharded [`BlockCache`]
//! (clients hit each other's blocks; duplicate in-flight blocks are
//! single-flighted), one whole-response memo, and one ledger.
//!
//! A connection is one loop: read a frame, count its kind, build the reply
//! (one match arm per kind — frame errors, unknown kinds, shutdown and memo
//! hits included — none touching the socket or a counter), book the reply in
//! the ledger, write it, and stop if the reply closes the connection. The
//! ledger owns every count the daemon keeps — requests, errors, connections,
//! memo traffic, fixed-bucket wall and phase histograms, the per-client table
//! (bounded at [`MAX_CLIENT_ROWS`] rows) and the start time — and is always
//! maintained. Its one read-out is the metrics registry's Prometheus text
//! ([`REQ_METRICS`](wire::REQ_METRICS)), client rows as `client`-labelled
//! series; [`Client::stats`] folds a scrape into a [`StatsResponse`]. With
//! [`ServeOptions::telemetry`] off the read-out is hidden, and compile
//! responses are byte-identical either way. DESIGN.md §14–§15 hold the
//! invariants.
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
    self, encode_compile_request, errcode, read_frame, write_frame, CompileRequest,
    CompileResponse, CompiledCounters, MetricsFormat, MetricsResponse, WireError,
};
use raw_ir::Program;
use raw_machine::MachineConfig;
use raw_telemetry::{
    Buckets, Counter, Histogram, Registry, Snapshot, SPAN_PHASES, SPAN_PHASE_NAMES,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-client rows are bounded; once this many distinct client names have
/// rows, further names fold into [`OTHER_CLIENTS_ROW`].
pub const MAX_CLIENT_ROWS: usize = 64;
/// The fold-over row name for clients beyond [`MAX_CLIENT_ROWS`].
pub const OTHER_CLIENTS_ROW: &str = "(other)";
/// Longest client name, in bytes, a compile request may carry (a longer one
/// is `MALFORMED`): names are label values of every scrape.
pub const MAX_CLIENT_NAME: usize = 64;
/// Byte budget of the whole-response memo. The memo replays the encoded
/// response for byte-identical requests, skipping decode/verify/compile/
/// encode entirely.
const MEMO_BUDGET: usize = 64 << 20;
/// Shard count of the daemon's block cache.
const SHARDS: usize = 16;

/// Each request kind and its `rawcc_requests_total` label.
const REQUEST_KINDS: [(u8, &str); 4] = [
    (wire::REQ_COMPILE, "compile"),
    (wire::REQ_PING, "ping"),
    (wire::REQ_SHUTDOWN, "shutdown"),
    (wire::REQ_METRICS, "metrics"),
];

/// A client row's counts, each the `client`-labelled counter family
/// `rawcc_client_{count}_total`.
const CLIENT_COUNTS: [&str; 4] = ["requests", "hits", "misses", "coalesced"];

/// One client's row, indexed like [`CLIENT_COUNTS`].
type ClientCounts = [u64; 4];

/// The `rawcc_request_errors_total` label of each typed error code, indexed
/// by `errcode - 1`.
const ERROR_CODES: [&str; 5] = [
    "malformed",
    "unknown_kind",
    "bad_program",
    "compile",
    "protocol",
];

/// Configuration for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (read it from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Global in-memory byte budget, split across the cache's shards.
    pub byte_budget: usize,
    /// Optional disk layer shared by all clients.
    pub cache_dir: Option<PathBuf>,
    /// Expose the daemon's read-out, the metrics registry (the default).
    /// Off, the daemon still keeps every count, but a scrape reports only
    /// `rawcc_telemetry_enabled 0` and [`Client::stats`] fails.
    pub telemetry: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            byte_budget: 64 << 20,
            cache_dir: None,
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
    /// The daemon runs with telemetry off, so it has no read-out to fold.
    TelemetryDisabled,
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
            ServiceError::TelemetryDisabled => write!(f, "the daemon runs with telemetry off"),
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
/// count the compile touched (replayed as `hits` on memo hits).
#[derive(Clone)]
struct MemoEntry {
    bytes: Arc<Vec<u8>>,
    blocks: u64,
}

/// Whole-response memo, FIFO-evicted under a byte budget alone. Keys hash the
/// compile request payload *minus* the leading client name, so requests from
/// different clients for the same (program, config, options) share entries.
type Memo = Fifo<u128, MemoEntry>;

/// 128-bit content key for the memo: the block cache's content hash. On a
/// memo hit it is most of the server's work.
fn memo_key(rest: &[u8]) -> u128 {
    let (lo, hi) = hash128(&[rest]);
    (u128::from(lo) << 64) | u128::from(hi)
}

/// Every count the daemon keeps. Always maintained: the request-kind and
/// connection counts are bumped by the connection loop, everything else by
/// [`Ledger::account`] from a reply.
struct Ledger {
    started: Instant,
    /// Request frames by kind, indexed like [`REQUEST_KINDS`].
    requests: [Counter; 4],
    /// Typed error replies by code, indexed like [`ERROR_CODES`].
    errors: [Counter; 5],
    /// Compile responses served, memo replays included (errors are the
    /// difference to the compile kind).
    compiles: Counter,
    memo_hits: Counter,
    memo_insertions: Counter,
    memo_evictions: Counter,
    conn_opened: Counter,
    conn_closed: Counter,
    /// Compile wall times of served compiles.
    wall_us: Histogram,
    /// Fresh-compile phase times, indexed like [`SPAN_PHASE_NAMES`].
    phase_us: [Histogram; SPAN_PHASES],
    /// Per-client rows, sorted by name as the scrape lists them.
    clients: Mutex<BTreeMap<String, ClientCounts>>,
}

/// Counts a connection closed when it drops.
struct OpenConnection<'a>(&'a Ledger);

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.conn_closed.inc();
    }
}

impl Ledger {
    fn new() -> Self {
        let histogram = || Histogram::new(Buckets::latency_us());
        Ledger {
            started: Instant::now(),
            requests: Default::default(),
            errors: Default::default(),
            compiles: Counter::new(),
            memo_hits: Counter::new(),
            memo_insertions: Counter::new(),
            memo_evictions: Counter::new(),
            conn_opened: Counter::new(),
            conn_closed: Counter::new(),
            wall_us: histogram(),
            phase_us: std::array::from_fn(|_| histogram()),
            clients: Mutex::default(),
        }
    }

    fn connection(&self) -> OpenConnection<'_> {
        self.conn_opened.inc();
        OpenConnection(self)
    }

    /// Counts a request frame before its reply is built, so a metrics scrape
    /// counts itself. Unknown kinds count only as errors.
    fn count_request(&self, kind: u8) {
        if let Some(i) = REQUEST_KINDS.iter().position(|&(k, _)| k == kind) {
            self.requests[i].inc();
        }
    }

    /// Books one reply: every counter, histogram and client row it changes.
    fn account(&self, reply: &Reply) {
        if let Some(code) = reply.error {
            // Replies carry only the 1-based `errcode` constants.
            self.errors[usize::from(code) - 1].inc();
        }
        if let Some(evicted) = reply.memo_insert {
            self.memo_insertions.inc();
            self.memo_evictions.add(evicted);
        }
        if let Some((client, counters)) = reply.served {
            self.compiles.inc();
            self.wall_us.record(counters.wall_us);
            let counts = [1, counters.hits, counters.misses, counters.coalesced];
            let mut clients = self.clients.lock().unwrap();
            // Rows are bounded: once MAX_CLIENT_ROWS names have one, further
            // names fold into OTHER_CLIENTS_ROW. Only a new row allocates.
            let full = clients.len() >= MAX_CLIENT_ROWS && !clients.contains_key(client);
            let name = if full { OTHER_CLIENTS_ROW } else { client };
            match clients.get_mut(name) {
                Some(row) => row.iter_mut().zip(counts).for_each(|(n, add)| *n += add),
                None => _ = clients.insert(name.to_owned(), counts),
            }
        }
        if reply.memo_hit {
            self.memo_hits.inc();
        }
        if let Some(phase_us) = &reply.phase_us {
            for (histogram, &us) in self.phase_us.iter().zip(phase_us) {
                histogram.record(us);
            }
        }
    }
}

/// One reply: the frame to write, whether the connection closes after it,
/// and what the ledger books for it beyond its request kind.
#[derive(Default)]
struct Reply<'a> {
    kind: u8,
    payload: Cow<'a, [u8]>,
    close: bool,
    /// The code of a typed error reply.
    error: Option<u8>,
    /// A served compile: the requesting client and the reply's counters.
    served: Option<(&'a str, CompiledCounters)>,
    /// Memo entries evicted by memoising the reply, when it was memoised.
    memo_insert: Option<u64>,
    /// A fresh compile's phase times, indexed like [`SPAN_PHASE_NAMES`].
    phase_us: Option<[u64; SPAN_PHASES]>,
    /// The reply was replayed from the whole-response memo.
    memo_hit: bool,
}

impl<'a> Reply<'a> {
    fn ok(kind: u8, payload: impl Into<Cow<'a, [u8]>>) -> Self {
        Reply {
            kind,
            payload: payload.into(),
            ..Reply::default()
        }
    }

    fn error(code: u8, message: impl std::fmt::Display) -> Self {
        let payload = wire::encode_error(code, &message.to_string());
        let mut reply = Reply::ok(wire::RESP_ERROR, payload);
        reply.error = Some(code);
        reply
    }
}

struct ServerState {
    cache: BlockCache,
    memo: Mutex<Memo>,
    ledger: Ledger,
    /// Scrape entries over this state; with telemetry off, only the
    /// `rawcc_telemetry_enabled 0` gauge.
    registry: Registry<ServerState>,
    shutting_down: AtomicBool,
}

/// A scalar scrape entry's reading of the daemon.
type Read = fn(&ServerState) -> u64;

/// The metrics registry: one scrape entry per series, each reading the
/// daemon state when a scrape renders it.
fn registry(telemetry: bool) -> Registry<ServerState> {
    let mut registry = Registry::new();
    registry.gauge_fn(
        "rawcc_telemetry_enabled",
        "1 when the telemetry subsystem is active",
        &[],
        move |_| u64::from(telemetry),
    );
    if !telemetry {
        return registry;
    }
    let counters: [(&str, &str, Read); 11] = [
        (
            "rawcc_compile_responses_total",
            "compile requests answered successfully (including memo replays)",
            |s| s.ledger.compiles.get(),
        ),
        (
            "rawcc_connections_opened_total",
            "connections accepted since startup",
            |s| s.ledger.conn_opened.get(),
        ),
        (
            "rawcc_connections_closed_total",
            "connections closed since startup",
            |s| s.ledger.conn_closed.get(),
        ),
        (
            "rawcc_memo_hits_total",
            "compile responses replayed verbatim from the whole-response memo",
            |s| s.ledger.memo_hits.get(),
        ),
        (
            "rawcc_memo_insertions_total",
            "responses inserted into the whole-response memo",
            |s| s.ledger.memo_insertions.get(),
        ),
        (
            "rawcc_memo_evictions_total",
            "memo entries evicted by the byte budget",
            |s| s.ledger.memo_evictions.get(),
        ),
        (
            "rawcc_cache_misses_total",
            "block-cache misses (each one compiled a block)",
            |s| s.cache.misses.get(),
        ),
        (
            "rawcc_cache_coalesced_total",
            "block compiles avoided by single-flight coalescing",
            |s| s.cache.coalesced.get(),
        ),
        (
            "rawcc_cache_evictions_total",
            "bundles evicted from the in-memory cache",
            |s| s.cache.evictions.get(),
        ),
        (
            "rawcc_cache_evicted_bytes_total",
            "encoded bytes evicted from the in-memory cache",
            |s| s.cache.evicted_bytes.get(),
        ),
        (
            "rawcc_cache_disk_rejects_total",
            "disk-layer entries rejected as corrupt or stale",
            |s| s.cache.disk_rejects(),
        ),
    ];
    let gauges: [(&str, &str, Read); 6] = [
        (
            "rawcc_uptime_us",
            "microseconds since the daemon started serving",
            |s| s.ledger.started.elapsed().as_micros() as u64,
        ),
        (
            "rawcc_connections_open",
            "currently open connections",
            |s| {
                let closed = s.ledger.conn_closed.get();
                s.ledger.conn_opened.get().saturating_sub(closed)
            },
        ),
        (
            "rawcc_memo_resident_bytes",
            "encoded response bytes resident in the memo",
            |s| s.memo.lock().unwrap().bytes() as u64,
        ),
        (
            "rawcc_memo_entries",
            "responses resident in the memo",
            |s| s.memo.lock().unwrap().len() as u64,
        ),
        (
            "rawcc_cache_entries",
            "bundles resident in the sharded cache",
            |s| s.cache.resident().0,
        ),
        (
            "rawcc_cache_resident_bytes",
            "encoded bundle bytes resident in the sharded cache",
            |s| s.cache.resident().1,
        ),
    ];
    for (name, help, read) in counters {
        registry.counter_fn(name, help, &[], read);
    }
    for (name, help, read) in gauges {
        registry.gauge_fn(name, help, &[], read);
    }
    // `rawcc_requests_total` counts every request frame by kind (compile
    // includes ones that end in a typed error).
    for (i, (_, kind)) in REQUEST_KINDS.into_iter().enumerate() {
        let help = "request frames served, by request kind";
        registry.counter_fn("rawcc_requests_total", help, &[("kind", kind)], move |s| {
            s.ledger.requests[i].get()
        });
    }
    for (i, code) in ERROR_CODES.into_iter().enumerate() {
        let help = "typed error responses, by error code";
        registry.counter_fn(
            "rawcc_request_errors_total",
            help,
            &[("code", code)],
            move |s| s.ledger.errors[i].get(),
        );
    }
    let hit_tiers: [(&str, Read); 2] = [
        ("mem", |s| s.cache.hits_mem.get()),
        ("disk", |s| s.cache.hits_disk.get()),
    ];
    for (tier, read) in hit_tiers {
        let help = "block-cache hits, by serving tier";
        registry.counter_fn("rawcc_cache_hits_total", help, &[("tier", tier)], read);
    }
    // The client families are one table, read under one lock per scrape.
    let help = "served compile requests and their block-cache hits, misses, coalesced, by client";
    let names = CLIENT_COUNTS.map(|count| format!("rawcc_client_{count}_total"));
    registry.counter_table_fn(names, help, "client", |s| {
        let clients = s.ledger.clients.lock().unwrap();
        clients.iter().map(|(c, n)| (c.clone(), n.into())).collect()
    });
    let help = "server-side compile wall time per request, microseconds";
    registry.histogram_fn("rawcc_compile_wall_us", help, &[], |s| &s.ledger.wall_us);
    for (i, phase) in SPAN_PHASE_NAMES.into_iter().enumerate() {
        let help = "compile pipeline phase wall time, microseconds";
        registry.histogram_fn(
            "rawcc_compile_phase_us",
            help,
            &[("phase", phase)],
            move |s| &s.ledger.phase_us[i],
        );
    }
    registry
}

impl ServerState {
    /// A scrape of the registry in `format`, encoded as a metrics reply.
    fn metrics(&self, format: MetricsFormat) -> Vec<u8> {
        let body = self.registry.snapshot(self).render_prometheus();
        MetricsResponse { format, body }.encode()
    }

    /// Maps one frame read to its reply; `None` closes the connection without
    /// a word (clean EOF or a transport error). Touches neither the socket
    /// nor a counter: the connection loop books the reply, then writes it.
    fn respond<'a>(&self, frame: &'a Result<(u8, Vec<u8>), WireError>) -> Option<Reply<'a>> {
        let (kind, payload) = match frame {
            Ok((kind, payload)) => (*kind, payload.as_slice()),
            Err(e @ (WireError::BadMagic | WireError::Oversized(_) | WireError::Truncated)) => {
                // Stream out of sync: answer (best-effort) and drop the
                // connection. The daemon keeps serving everyone else.
                let mut reply = Reply::error(errcode::PROTOCOL, e);
                reply.close = true;
                return Some(reply);
            }
            Err(_) => return None,
        };
        Some(match kind {
            wire::REQ_COMPILE => self.compile(payload),
            wire::REQ_PING => Reply::ok(wire::RESP_PONG, payload),
            wire::REQ_METRICS => match wire::decode_metrics_request(payload) {
                Ok(format) => Reply::ok(wire::RESP_METRICS, self.metrics(format)),
                Err(e) => Reply::error(errcode::MALFORMED, e),
            },
            wire::REQ_SHUTDOWN => Reply {
                close: true,
                ..Reply::ok(wire::RESP_SHUTDOWN, Vec::new())
            },
            // Unknown kind: typed error, the connection stays usable
            // (framing is still in sync — we read a well-formed frame).
            _ => Reply::error(errcode::UNKNOWN_KIND, WireError::UnknownKind(kind)),
        })
    }

    /// A compile request: replayed from the memo when its bytes were seen
    /// before, compiled fresh (and memoised) otherwise.
    fn compile<'a>(&self, payload: &'a [u8]) -> Reply<'a> {
        let started = Instant::now();
        let split = wire::split_compile_client(payload);
        let client = split.map_or("", |(client, _)| client);
        let len = client.len();
        if len > MAX_CLIENT_NAME {
            let why =
                format!("client name of {len} bytes is over the {MAX_CLIENT_NAME}-byte limit");
            return Reply::error(errcode::MALFORMED, why);
        }
        // Whole-response memo: identical (program, config, options) bytes —
        // whoever sent them — map to identical responses under a
        // deterministic compiler, so the encoded answer is replayed verbatim
        // with only the counter tail rewritten.
        let key = split.map(|(_, rest)| memo_key(rest));
        let memoised = key.and_then(|key| self.memo.lock().unwrap().get(&key).cloned());
        if let Some(entry) = memoised {
            let counters = CompiledCounters {
                hits: entry.blocks,
                wall_us: started.elapsed().as_micros() as u64,
                ..CompiledCounters::default()
            };
            let mut bytes = entry.bytes.as_ref().clone();
            wire::patch_compiled_counters(&mut bytes, counters.hits, counters.wall_us);
            let mut reply = Reply::ok(wire::RESP_COMPILED, bytes);
            reply.served = Some((client, counters));
            reply.memo_hit = true;
            return reply;
        }
        match self.compile_fresh(payload) {
            Ok((resp, phase_us)) => {
                let bytes = resp.encode();
                let blocks = resp.hits + resp.misses;
                let memo_insert = key.and_then(|key| self.memoise(key, &bytes, blocks));
                let mut reply = Reply::ok(wire::RESP_COMPILED, bytes);
                reply.served = Some((client, resp.counters()));
                reply.memo_insert = memo_insert;
                reply.phase_us = Some(phase_us);
                reply
            }
            Err((code, message)) => Reply::error(code, message),
        }
    }

    /// Memoises an encoded response. Returns the entries the insertion
    /// evicted, or `None` when the response was not inserted.
    fn memoise(&self, key: u128, bytes: &[u8], blocks: u64) -> Option<u64> {
        let mut memo = self.memo.lock().unwrap();
        // A response over the whole budget (any response, once the memo is
        // disabled by a zero budget) is not worth evicting everything for.
        if bytes.len() > memo.max_bytes() || memo.get(&key).is_some() {
            return None;
        }
        let entry = MemoEntry {
            bytes: Arc::new(bytes.to_vec()),
            blocks,
        };
        Some(memo.insert(key, entry, bytes.len()).entries)
    }

    /// Decodes, verifies, and compiles one request against the shared cache,
    /// returning the response and its phase times.
    fn compile_fresh(
        &self,
        payload: &[u8],
    ) -> Result<(CompileResponse, [u64; SPAN_PHASES]), (u8, String)> {
        // The "parse" phase: wire decode plus IR verification.
        let parse_start = Instant::now();
        let req =
            CompileRequest::decode(payload).map_err(|e| (errcode::MALFORMED, e.to_string()))?;
        // A decoded program is structurally arbitrary (the codec checks
        // shape, not semantics); verify before letting the compiler assume
        // invariants.
        raw_ir::verify::verify(&req.program).map_err(|e| (errcode::BAD_PROGRAM, e.to_string()))?;
        let parse_us = parse_start.elapsed().as_micros() as u64;
        let start = Instant::now();
        let compiled = compile_with_cache(&req.program, &req.config, &req.options, &self.cache)
            .map_err(|e| (errcode::COMPILE, e.to_string()))?;
        let report = &compiled.report;
        // The phases are `parse`, then the report's rows in their order.
        let mut phase_us = [0; SPAN_PHASES];
        phase_us[0] = parse_us;
        for (slot, (_, dur)) in phase_us[1..].iter_mut().zip(report.timings.rows()) {
            *slot = dur.as_micros() as u64;
        }
        let resp = CompileResponse {
            hits: report.cache.hits,
            misses: report.cache.misses,
            coalesced: report.cache.coalesced,
            evictions: report.cache.evictions,
            evicted_bytes: report.cache.evicted_bytes,
            wall_us: start.elapsed().as_micros() as u64,
            threads: report.threads as u32,
            machine_program: compiled.machine_program,
        };
        Ok((resp, phase_us))
    }
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
    let mut cache = BlockCache::with_budget(SHARDS, DEFAULT_CAPACITY, opts.byte_budget);
    if let Some(dir) = &opts.cache_dir {
        cache = cache.on_disk(dir).map_err(ServiceError::CacheDir)?;
    }
    let listener = TcpListener::bind(opts.addr.as_str()).map_err(ServiceError::Bind)?;
    let addr = listener.local_addr().map_err(ServiceError::Bind)?;
    let state = Arc::new(ServerState {
        cache,
        memo: Mutex::new(Memo::new(usize::MAX, MEMO_BUDGET)),
        ledger: Ledger::new(),
        registry: registry(opts.telemetry),
        shutting_down: AtomicBool::new(false),
    });

    let accept_state = state.clone();
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Each frame is one write (`wire::write_frame`), so nodelay sends
            // it at once as one segment when it fits; without nodelay a small
            // reply waits on the peer's delayed ACK, tens of milliseconds.
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

/// Serves one connection until the client disconnects, a reply closes it, or
/// the transport fails. The one place replies are written.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    // A local drops before the `stream` parameter, so the close is counted
    // before the client can see it.
    let _open = state.ledger.connection();
    loop {
        let frame = read_frame(&mut stream);
        if let Ok((kind, _)) = &frame {
            state.ledger.count_request(*kind);
        }
        let Some(reply) = state.respond(&frame) else {
            return;
        };
        state.ledger.account(&reply);
        let written = write_frame(&mut stream, reply.kind, &reply.payload).is_ok();
        if reply.kind == wire::RESP_SHUTDOWN {
            // Acknowledged: unblock the accept loop so it observes the flag.
            // The listener address is our own peer address' counterpart.
            state.shutting_down.store(true, Ordering::SeqCst);
            if let Ok(local) = stream.local_addr() {
                let _ = TcpStream::connect(local);
            }
        }
        if !written || reply.close {
            return;
        }
    }
}

/// One client's row of a [`StatsResponse`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientRow {
    /// Client name as sent in its compile requests.
    pub client: String,
    /// Compile requests served.
    pub requests: u64,
    /// Cache hits across those requests.
    pub hits: u64,
    /// Fresh compiles across those requests.
    pub misses: u64,
    /// Single-flight coalesced hits across those requests.
    pub coalesced: u64,
}

/// Service-wide stats, as [`Client::stats`] folds them out of one scrape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsResponse {
    /// Global block-cache counters.
    pub cache: CacheTotals,
    /// Compile requests served since startup.
    pub requests: u64,
    /// Compile wall-time percentiles in microseconds (0 when no requests yet).
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Requests answered verbatim from the whole-response memo (identical
    /// request bytes seen before).
    pub memo_hits: u64,
    /// Microseconds since the daemon started serving.
    pub uptime_us: u64,
    /// Per-client rows, sorted by client name.
    pub clients: Vec<ClientRow>,
}

impl StatsResponse {
    /// Reads the stats out of a parsed scrape: the cache, memo and uptime
    /// series, the percentiles of `rawcc_compile_wall_us` and one row per
    /// `client` label of the per-client families.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TelemetryDisabled`] when the scrape reports
    /// `rawcc_telemetry_enabled 0`.
    pub fn from_scrape(s: &Snapshot) -> Result<Self, ServiceError> {
        if s.scalar("rawcc_telemetry_enabled", &[]) == 0 {
            return Err(ServiceError::TelemetryDisabled);
        }
        let tier = |tier| s.scalar("rawcc_cache_hits_total", &[("tier", tier)]);
        let cache = CacheTotals {
            hits_mem: tier("mem"),
            hits_disk: tier("disk"),
            misses: s.scalar("rawcc_cache_misses_total", &[]),
            coalesced: s.scalar("rawcc_cache_coalesced_total", &[]),
            evictions: s.scalar("rawcc_cache_evictions_total", &[]),
            evicted_bytes: s.scalar("rawcc_cache_evicted_bytes_total", &[]),
            resident_bytes: s.scalar("rawcc_cache_resident_bytes", &[]),
            entries: s.scalar("rawcc_cache_entries", &[]),
            disk_rejects: s.scalar("rawcc_cache_disk_rejects_total", &[]),
        };
        let wall = s.hist("rawcc_compile_wall_us", &[]);
        let quantile = |q| wall.map_or(0, |h| h.quantile(q));
        let count = |count, client| {
            let family = format!("rawcc_client_{count}_total");
            s.scalar(&family, &[("client", client)])
        };
        // One row per series of the requests family, in name order.
        let requests = s
            .families
            .iter()
            .filter(|f| f.name == "rawcc_client_requests_total");
        let clients = requests.flat_map(|f| &f.series).filter_map(|series| {
            let (_, client) = series.labels.first()?;
            Some(ClientRow {
                client: client.clone(),
                requests: count("requests", client),
                hits: count("hits", client),
                misses: count("misses", client),
                coalesced: count("coalesced", client),
            })
        });
        Ok(StatsResponse {
            cache,
            requests: s.scalar("rawcc_compile_responses_total", &[]),
            p50_us: quantile(0.50),
            p90_us: quantile(0.90),
            p99_us: quantile(0.99),
            memo_hits: s.scalar("rawcc_memo_hits_total", &[]),
            uptime_us: s.scalar("rawcc_uptime_us", &[]),
            clients: clients.collect(),
        })
    }
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

    /// Sends one request and returns the payload of its reply, which must be
    /// of kind `want` (a typed error reply surfaces as [`WireError::Remote`]).
    fn roundtrip(&mut self, kind: u8, payload: &[u8], want: u8) -> Result<Vec<u8>, ServiceError> {
        write_frame(&mut self.stream, kind, payload).map_err(WireError::from)?;
        let (kind, payload) = read_frame(&mut self.stream)?;
        if kind == wire::RESP_ERROR {
            let (code, msg) = wire::decode_error(&payload)?;
            return Err(ServiceError::Wire(WireError::Remote(code, msg)));
        }
        if kind != want {
            return Err(ServiceError::UnexpectedResponse(kind));
        }
        Ok(payload)
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
        self.roundtrip(wire::REQ_COMPILE, request, wire::RESP_COMPILED)
    }

    /// Fetches the server-wide stats: one scrape, folded by
    /// [`StatsResponse::from_scrape`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::TelemetryDisabled`] against a daemon with telemetry
    /// off, and transport/protocol failures (text that does not parse is
    /// [`WireError::Malformed`]).
    pub fn stats(&mut self) -> Result<StatsResponse, ServiceError> {
        let body = self.metrics(MetricsFormat::Prometheus)?.body;
        let snapshot = Snapshot::parse_prometheus(&body);
        StatsResponse::from_scrape(&snapshot.map_err(|_| WireError::Malformed("metrics text"))?)
    }

    /// Fetches a rendered telemetry snapshot in `format`.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<MetricsResponse, ServiceError> {
        let request = wire::encode_metrics_request(format);
        let payload = self.roundtrip(wire::REQ_METRICS, &request, wire::RESP_METRICS)?;
        Ok(MetricsResponse::decode(&payload)?)
    }

    /// Liveness probe; the server echoes `payload`.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>, ServiceError> {
        self.roundtrip(wire::REQ_PING, payload, wire::RESP_PONG)
    }

    /// Asks the daemon to shut down; returns once it acknowledges.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        self.roundtrip(wire::REQ_SHUTDOWN, &[], wire::RESP_SHUTDOWN)?;
        Ok(())
    }
}
