//! Wire protocol of the compile service — a tiny length-prefixed frame codec
//! over any `Read`/`Write` pair (in practice a `std::net::TcpStream`), grown
//! in-tree the way `crates/trace` grew its own JSON parser: zero external
//! dependencies, and every decoder is total (returns a typed [`WireError`]
//! on arbitrary bytes; never panics, never over-allocates).
//!
//! ## Frame format
//!
//! ```text
//! +---------+------+-----------+-----------------+
//! | "RWS1"  | kind | len (LE)  | payload         |
//! | 4 bytes | u8   | u32       | len bytes       |
//! +---------+------+-----------+-----------------+
//! ```
//!
//! `len` is bounded by [`MAX_FRAME`]; an oversized header is rejected before
//! any allocation. Payloads are the `Codec` impls of `codec.rs` — the same
//! bytes the block cache keys and stores — so a corrupt length inside a
//! payload can neither panic nor allocate beyond the frame.
//!
//! ## Request/response kinds
//!
//! | kind | payload |
//! |------|---------|
//! | [`REQ_COMPILE`] | client name + [`raw_ir::Program`] + [`MachineConfig`] + [`CompilerOptions`] |
//! | [`REQ_PING`] | arbitrary bytes (echoed) |
//! | [`REQ_SHUTDOWN`] | empty |
//! | [`REQ_METRICS`] | one [`MetricsFormat`] byte, or empty (both mean Prometheus text) |
//! | [`RESP_COMPILED`] | [`MachineProgram`] + per-request cache counters + wall time |
//! | [`RESP_PONG`] | echoed bytes |
//! | [`RESP_SHUTDOWN`] | empty |
//! | [`RESP_METRICS`] | format byte + rendered telemetry snapshot (text) |
//! | [`RESP_ERROR`] | error code + message string |
//!
//! Every request gets exactly one response frame on the same connection, in
//! order, so clients can pipeline.
//!
//! The metrics scrape is the daemon's one read-out (`Client::stats` folds it).
//! Kind `0x02` named a retired stats request: it answers
//! [`errcode::UNKNOWN_KIND`] like any unknown kind.

use crate::codec::{self, Codec};
use crate::options::CompilerOptions;
use raw_ir::Program;
use raw_machine::{MachineConfig, MachineProgram};
use std::io::{ErrorKind, IoSlice, Read, Write};

/// Frame magic ("raw service v1").
pub const FRAME_MAGIC: [u8; 4] = *b"RWS1";
/// Maximum payload bytes per frame; larger headers are rejected unread.
pub const MAX_FRAME: u32 = 64 << 20;

/// Compile request: client name + program + config + options.
pub const REQ_COMPILE: u8 = 0x01;
/// Liveness probe; payload is echoed back.
pub const REQ_PING: u8 = 0x03;
/// Graceful shutdown request (empty payload).
pub const REQ_SHUTDOWN: u8 = 0x04;
/// Telemetry scrape request (one [`MetricsFormat`] byte, or empty).
pub const REQ_METRICS: u8 = 0x05;
/// Successful compile response.
pub const RESP_COMPILED: u8 = 0x81;
/// Ping echo.
pub const RESP_PONG: u8 = 0x83;
/// Shutdown acknowledged; the daemon exits after this frame.
pub const RESP_SHUTDOWN: u8 = 0x84;
/// Telemetry scrape response (format byte + rendered snapshot).
pub const RESP_METRICS: u8 = 0x85;
/// Typed error response (code + message).
pub const RESP_ERROR: u8 = 0xEE;

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The 4-byte frame magic did not match — the peer is not speaking this
    /// protocol, so the connection is unrecoverable.
    BadMagic,
    /// Frame kind byte is not one of the defined request/response kinds.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// The stream ended mid-frame.
    Truncated,
    /// The payload bytes do not decode as the kind's message.
    Malformed(&'static str),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Transport error.
    Io(std::io::Error),
    /// The server answered with [`RESP_ERROR`]; code and message as sent.
    Remote(u8, String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic (peer not speaking RWS1)"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Oversized(n) => {
                write!(f, "frame payload {n} bytes exceeds limit {MAX_FRAME}")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Remote(code, msg) => write!(f, "server error {code}: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// Stable error codes carried in [`RESP_ERROR`] payloads.
pub mod errcode {
    /// Request payload failed to decode.
    pub const MALFORMED: u8 = 1;
    /// Frame kind is not a request the server understands.
    pub const UNKNOWN_KIND: u8 = 2;
    /// The program failed IR verification.
    pub const BAD_PROGRAM: u8 = 3;
    /// The compiler rejected the request (shape errors etc.).
    pub const COMPILE: u8 = 4;
    /// Frame-level protocol violation (bad magic / oversized / truncated).
    pub const PROTOCOL: u8 = 5;
}

/// Writes one frame: header and payload go out in one vectored write, so
/// on a socket a frame is one syscall and (under `TCP_NODELAY`) one segment
/// when it fits, and the reader wakes once for it. Only a short write
/// loops, over what is left.
///
/// # Errors
///
/// Propagates transport errors; a write that takes no bytes is
/// [`ErrorKind::WriteZero`].
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    let mut header = [0u8; 9];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = kind;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut left = &mut bufs[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame, returning `(kind, payload)`.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF at a frame boundary, and the other
/// variants for protocol violations. The kind byte is *not* validated here —
/// callers decide which kinds they accept (so an unknown kind can get a typed
/// error response rather than a dropped connection).
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), WireError> {
    let mut header = [0u8; 9];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let [m0, m1, m2, m3, kind, l0, l1, l2, l3] = header;
    if [m0, m1, m2, m3] != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((kind, payload))
}

// ---------------------------------------------------------------------------
// Messages. Their bytes are declared once, in `codec.rs`.
// ---------------------------------------------------------------------------

/// Decodes a whole payload as one `T`; a malformed or trailing byte is
/// [`WireError::Malformed`] naming `what`.
fn decode_msg<T: Codec>(bytes: &[u8], what: &'static str) -> Result<T, WireError> {
    codec::decode(bytes).ok_or(WireError::Malformed(what))
}

/// One compile request, as carried by a [`REQ_COMPILE`] frame.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Client identity for the per-client series (at most
    /// `service::MAX_CLIENT_NAME` bytes).
    pub client: String,
    /// The program to compile.
    pub program: Program,
    /// Target machine shape.
    pub config: MachineConfig,
    /// Compiler options; `threads` applies server-side per request.
    pub options: CompilerOptions,
}

/// Serializes a [`REQ_COMPILE`] payload; the one encoder of the message,
/// borrowing the program rather than owning it.
pub fn encode_compile_request(
    client: &str,
    program: &Program,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_request(&mut out, client, program, config, options);
    out
}

/// Splits a [`REQ_COMPILE`] payload into the client name and the remaining
/// `(program, config, options)` bytes without decoding the program. The rest
/// is a content key for whole-response memoization: a deterministic compiler
/// maps identical rest-bytes to identical responses, whoever sent them.
#[must_use]
pub fn split_compile_client(payload: &[u8]) -> Option<(&str, &[u8])> {
    codec::split_str(payload)
}

impl CompileRequest {
    /// Decodes a [`REQ_COMPILE`] payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the bytes do not decode; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        decode_msg(bytes, "compile request")
    }
}

/// One compile result, as carried by a [`RESP_COMPILED`] frame.
#[derive(Clone, Debug)]
pub struct CompileResponse {
    /// The linked per-tile machine image.
    pub machine_program: MachineProgram,
    /// Block-cache hits this request observed.
    pub hits: u64,
    /// Blocks this request compiled fresh.
    pub misses: u64,
    /// Hits that waited on another request's in-flight compile.
    pub coalesced: u64,
    /// Bundles this request's inserts evicted from the shared cache.
    pub evictions: u64,
    /// Encoded bytes those evictions released.
    pub evicted_bytes: u64,
    /// Server-side wall time for the compile, in microseconds.
    pub wall_us: u64,
    /// Worker threads the server used for the block fan-out.
    pub threads: u32,
}

impl CompileResponse {
    /// Serializes into a [`RESP_COMPILED`] payload.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a [`RESP_COMPILED`] payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the bytes do not decode; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        decode_msg(bytes, "compile response")
    }

    /// The counter tail that follows the machine program.
    pub(crate) fn counters(&self) -> CompiledCounters {
        CompiledCounters {
            hits: self.hits,
            misses: self.misses,
            coalesced: self.coalesced,
            evictions: self.evictions,
            evicted_bytes: self.evicted_bytes,
            wall_us: self.wall_us,
            threads: self.threads,
        }
    }

    pub(crate) fn from_parts(machine_program: MachineProgram, c: CompiledCounters) -> Self {
        CompileResponse {
            machine_program,
            hits: c.hits,
            misses: c.misses,
            coalesced: c.coalesced,
            evictions: c.evictions,
            evicted_bytes: c.evicted_bytes,
            wall_us: c.wall_us,
            threads: c.threads,
        }
    }
}

/// Byte size of the encoded [`CompiledCounters`] tail of a [`RESP_COMPILED`]
/// payload: six `u64` counters plus the `u32` thread count.
const COMPILED_TAIL: usize = 6 * 8 + 4;

/// Overwrites the cache counters and wall time in an already-encoded
/// [`RESP_COMPILED`] payload, leaving the machine-program bytes and the
/// thread count untouched. This is how a memoized response is re-served as
/// an all-hits answer without re-encoding the program. Returns `false` (no
/// change) if `payload` is too short to be a compile response.
pub fn patch_compiled_counters(payload: &mut [u8], hits: u64, wall_us: u64) -> bool {
    let Some((program, old)) = split_compiled_payload(payload) else {
        return false;
    };
    let tail_at = program.len();
    let patched = CompiledCounters {
        hits,
        wall_us,
        threads: old.threads,
        ..CompiledCounters::default()
    };
    // Counters always encode to exactly `COMPILED_TAIL` bytes.
    payload[tail_at..].copy_from_slice(&codec::encode(&patched));
    true
}

/// The counter tail of a [`RESP_COMPILED`] payload, parsed without touching
/// the machine-program bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompiledCounters {
    /// Block-cache hits this request observed.
    pub hits: u64,
    /// Blocks this request compiled fresh.
    pub misses: u64,
    /// Hits that waited on another request's in-flight compile.
    pub coalesced: u64,
    /// Bundles this request's inserts evicted from the shared cache.
    pub evictions: u64,
    /// Encoded bytes those evictions released.
    pub evicted_bytes: u64,
    /// Server-side wall time for the compile, in microseconds.
    pub wall_us: u64,
    /// Worker threads the server used for the block fan-out.
    pub threads: u32,
}

/// Splits a [`RESP_COMPILED`] payload into the still-encoded machine-program
/// bytes and the parsed counter tail. This is the cheap path for harnesses
/// that verify responses byte-for-byte: no program decode, no allocation.
pub fn split_compiled_payload(payload: &[u8]) -> Option<(&[u8], CompiledCounters)> {
    let tail_at = payload.len().checked_sub(COMPILED_TAIL)?;
    let (program, tail) = payload.split_at(tail_at);
    Some((program, codec::decode(tail)?))
}

/// Encodes a machine program exactly as [`CompileResponse::encode`] lays it
/// out, so callers can compare a raw response payload (via
/// [`split_compiled_payload`]) byte-for-byte against a local compile.
pub fn encode_machine_program(mp: &MachineProgram) -> Vec<u8> {
    codec::encode(mp)
}

/// Rendering requested by (and echoed in) a telemetry scrape. Prometheus
/// text is the only one; its code 1 named a retired JSON rendering and is
/// reserved, so a request carrying it is malformed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition format 0.0.4, read back by
    /// `raw_telemetry::Snapshot::parse_prometheus`.
    #[default]
    Prometheus,
}

/// Serializes a [`REQ_METRICS`] payload.
pub fn encode_metrics_request(format: MetricsFormat) -> Vec<u8> {
    codec::encode(&format)
}

/// Decodes a [`REQ_METRICS`] payload. An empty payload means Prometheus
/// text, so a bare scrape needs no arguments.
///
/// # Errors
///
/// [`WireError::Malformed`] when the bytes do not decode; never panics.
pub fn decode_metrics_request(bytes: &[u8]) -> Result<MetricsFormat, WireError> {
    if bytes.is_empty() {
        return Ok(MetricsFormat::Prometheus);
    }
    decode_msg(bytes, "metrics request")
}

/// A rendered telemetry snapshot, as carried by a [`RESP_METRICS`] frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsResponse {
    /// The rendering the body is in (echoes the request).
    pub format: MetricsFormat,
    /// The rendered snapshot, Prometheus text.
    pub body: String,
}

impl MetricsResponse {
    /// Serializes into a [`RESP_METRICS`] payload.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a [`RESP_METRICS`] payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the bytes do not decode; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        decode_msg(bytes, "metrics response")
    }
}

/// Serializes a [`RESP_ERROR`] payload.
pub fn encode_error(code: u8, message: &str) -> Vec<u8> {
    codec::encode(&(code, message.to_owned()))
}

/// Decodes a [`RESP_ERROR`] payload.
///
/// # Errors
///
/// [`WireError::Malformed`] when the bytes do not decode; never panics.
pub fn decode_error(bytes: &[u8]) -> Result<(u8, String), WireError> {
    decode_msg(bytes, "error response")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{PlacementAlgorithm, Strategy};
    use raw_ir::builder::ProgramBuilder;
    use raw_machine::{TileId, TileMask};

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new("wire-sample");
        let out = b.var_i32("out", 0);
        let xv = b.var_i32("x", 6);
        let x = b.read_var(xv);
        let y = b.const_i32(7);
        let p = b.mul(x, y);
        b.write_var(out, p);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_PING, b"hello").unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, REQ_PING);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn frame_rejects_bad_magic_and_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_PING, b"x").unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::BadMagic)
        ));

        let mut over = Vec::new();
        over.extend_from_slice(&FRAME_MAGIC);
        over.push(REQ_PING);
        over.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut over.as_slice()),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn frame_distinguishes_close_from_truncation() {
        assert!(matches!(read_frame(&mut (&[][..])), Err(WireError::Closed)));
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_PING, b"hello").unwrap();
        buf.truncate(6);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Truncated)
        ));
        let mut buf2 = Vec::new();
        write_frame(&mut buf2, REQ_PING, b"hello").unwrap();
        buf2.truncate(11);
        assert!(matches!(
            read_frame(&mut buf2.as_slice()),
            Err(WireError::Truncated)
        ));
    }

    /// A socket stand-in: each vectored write takes at most `max` bytes
    /// across the slices it is given, after failing its first `interrupts`
    /// calls with `Interrupted`; `calls` counts every call.
    struct Sink {
        bytes: Vec<u8>,
        calls: usize,
        max: usize,
        interrupts: usize,
    }

    impl Sink {
        fn new(max: usize, interrupts: usize) -> Self {
            Sink {
                bytes: Vec::new(),
                calls: 0,
                max,
                interrupts,
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(ErrorKind::Interrupted.into());
            }
            let start = self.bytes.len();
            for buf in bufs {
                let room = self.max - (self.bytes.len() - start);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.bytes.len() - start)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The frame's bytes, spelled out apart from `write_frame`.
    fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
        let len = (payload.len() as u32).to_le_bytes();
        [&FRAME_MAGIC[..], &[kind], &len, payload].concat()
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [vec![], vec![7], vec![0xA5; 1 << 20]] {
            let mut sink = Sink::new(usize::MAX, 0);
            write_frame(&mut sink, RESP_COMPILED, &payload).unwrap();
            assert_eq!(sink.calls, 1, "{} payload bytes", payload.len());
            assert_eq!(sink.bytes, frame_bytes(RESP_COMPILED, &payload));
        }
    }

    #[test]
    fn short_and_interrupted_writes_finish_the_frame() {
        for payload in [&b""[..], b"x", b"hello, world"] {
            let want = frame_bytes(REQ_PING, payload);
            let mut short = Sink::new(3, 0);
            write_frame(&mut short, REQ_PING, payload).unwrap();
            assert_eq!(short.bytes, want);
            assert_eq!(short.calls, want.len().div_ceil(3));
            let mut interrupted = Sink::new(usize::MAX, 1);
            write_frame(&mut interrupted, REQ_PING, payload).unwrap();
            assert_eq!(interrupted.bytes, want);
            assert_eq!(interrupted.calls, 2);
        }
    }

    #[test]
    fn a_write_of_nothing_fails_the_frame() {
        let err = write_frame(&mut Sink::new(0, 0), REQ_PING, b"x").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn compile_request_roundtrip() {
        let req = CompileRequest {
            client: "test-client".into(),
            program: sample_program(),
            config: MachineConfig::square(4).with_faulty(TileMask::of(&[TileId::from_raw(2)])),
            options: CompilerOptions {
                placement: PlacementAlgorithm::None,
                strategy: Strategy::Portfolio { seed: 41 },
                exact_budget: 123_456,
                threads: 3,
                ..CompilerOptions::default()
            },
        };
        let bytes = encode_compile_request(&req.client, &req.program, &req.config, &req.options);
        let back = CompileRequest::decode(&bytes).unwrap();
        assert_eq!(back.client, req.client);
        assert_eq!(back.program, req.program);
        assert_eq!(back.config, req.config);
        assert_eq!(back.options.threads, 3);
        assert_eq!(back.options.placement, PlacementAlgorithm::None);
        assert_eq!(back.options.strategy, Strategy::Portfolio { seed: 41 });
        assert_eq!(back.options.exact_budget, 123_456);

        // Placement tag 1 is reserved: a request naming it is malformed.
        let options = codec::encode(&req.options);
        let at = bytes
            .windows(options.len())
            .rposition(|w| w == options)
            .expect("the request carries its options record");
        let mut reserved = bytes.clone();
        reserved[at + 1] = 1;
        assert!(matches!(
            CompileRequest::decode(&reserved),
            Err(WireError::Malformed("compile request"))
        ));
    }

    #[test]
    fn an_array_past_u32_elements_decodes_then_fails_verify() {
        // The codec checks shape, not semantics: the daemon's verify (run on
        // every decoded program) is what rejects the overflowing array.
        let mut program = sample_program();
        program.arrays.push(raw_ir::ArrayDecl {
            name: "huge".into(),
            ty: raw_ir::Ty::I32,
            dims: vec![65536, 65536],
            init: Vec::new(),
        });
        let bytes = encode_compile_request(
            "c",
            &program,
            &MachineConfig::square(4),
            &CompilerOptions::default(),
        );
        let back = CompileRequest::decode(&bytes).unwrap();
        assert_eq!(
            raw_ir::verify::verify(&back.program),
            Err(raw_ir::verify::VerifyError::ArrayTooLarge {
                array: raw_ir::ArrayId::from_raw(0)
            })
        );
    }

    #[test]
    fn split_compile_client_reads_the_name_without_decoding() {
        let program = sample_program();
        let config = MachineConfig::square(4);
        let options = CompilerOptions::default();
        let a = encode_compile_request("alice", &program, &config, &options);
        let b = encode_compile_request("bob", &program, &config, &options);
        let (client_a, rest_a) = split_compile_client(&a).unwrap();
        let (client_b, rest_b) = split_compile_client(&b).unwrap();
        assert_eq!((client_a, client_b), ("alice", "bob"));
        // The rest is client-independent: the memo key for identical work.
        assert_eq!(rest_a, rest_b);
        assert!(!rest_a.is_empty());
        assert!(split_compile_client(&[1, 2, 3]).is_none());
        assert!(split_compile_client(&u64::MAX.to_le_bytes()).is_none());
    }

    #[test]
    fn patch_compiled_counters_rewrites_only_the_tail() {
        let resp = CompileResponse {
            machine_program: MachineProgram::default(),
            hits: 1,
            misses: 9,
            coalesced: 2,
            evictions: 3,
            evicted_bytes: 4096,
            wall_us: 77,
            threads: 4,
        };
        let mut bytes = resp.encode();
        assert!(patch_compiled_counters(&mut bytes, 10, 123));
        let back = CompileResponse::decode(&bytes).unwrap();
        assert_eq!(back.hits, 10);
        assert_eq!(
            (
                back.misses,
                back.coalesced,
                back.evictions,
                back.evicted_bytes
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(back.wall_us, 123);
        assert_eq!(back.threads, 4);
        assert_eq!(
            format!("{:?}", back.machine_program),
            format!("{:?}", resp.machine_program),
        );
        let mut short = vec![0u8; 10];
        assert!(!patch_compiled_counters(&mut short, 1, 1));
    }

    #[test]
    fn metrics_request_roundtrip_and_empty_default() {
        let prometheus = MetricsFormat::Prometheus;
        assert_eq!(encode_metrics_request(prometheus), [0]);
        assert_eq!(decode_metrics_request(&[0]).unwrap(), prometheus);
        // A bare scrape defaults to Prometheus text.
        assert_eq!(decode_metrics_request(&[]).unwrap(), prometheus);
        // Code 1 is reserved: a scrape asking for it is malformed.
        assert!(matches!(
            decode_metrics_request(&[1]),
            Err(WireError::Malformed("metrics request"))
        ));
        assert!(decode_metrics_request(&[9]).is_err());
        assert!(decode_metrics_request(&[0, 0]).is_err());
    }

    #[test]
    fn metrics_response_roundtrip() {
        let resp = MetricsResponse {
            format: MetricsFormat::Prometheus,
            body: "# TYPE rawcc_telemetry_enabled gauge\nrawcc_telemetry_enabled 1\n".into(),
        };
        assert_eq!(MetricsResponse::decode(&resp.encode()).unwrap(), resp);
        assert!(MetricsResponse::decode(&[1]).is_err());
    }

    #[test]
    fn compile_response_roundtrip_preserves_machine_program() {
        let program = sample_program();
        let config = MachineConfig::square(4);
        let compiled = crate::compile(&program, &config, &CompilerOptions::default()).unwrap();
        let resp = CompileResponse {
            machine_program: compiled.machine_program.clone(),
            hits: 1,
            misses: 2,
            coalesced: 0,
            evictions: 0,
            evicted_bytes: 0,
            wall_us: 1234,
            threads: 1,
        };
        let back = CompileResponse::decode(&resp.encode()).unwrap();
        assert_eq!(
            format!("{:?}", back.machine_program),
            format!("{:?}", compiled.machine_program),
            "decoded machine program must be Debug-identical (asm_hash basis)"
        );
        assert_eq!(back.wall_us, 1234);
    }
}
