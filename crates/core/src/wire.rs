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
//! any allocation. Payloads are built from the shared encoders of
//! `codec.rs` — the same bytes the block cache keys and stores — so a
//! corrupt length inside a payload can neither panic nor allocate beyond the
//! frame.
//!
//! ## Request/response kinds
//!
//! | kind | payload |
//! |------|---------|
//! | [`REQ_COMPILE`] | client name + [`raw_ir::Program`] + [`MachineConfig`] + [`CompilerOptions`] |
//! | [`REQ_STATS`] | empty |
//! | [`REQ_PING`] | arbitrary bytes (echoed) |
//! | [`REQ_SHUTDOWN`] | empty |
//! | [`REQ_METRICS`] | one [`MetricsFormat`] byte (empty payload = Prometheus text) |
//! | [`RESP_COMPILED`] | [`MachineProgram`] + per-request cache counters + wall time |
//! | [`RESP_STATS`] | global counters + latency percentiles + per-client rows |
//! | [`RESP_PONG`] | echoed bytes |
//! | [`RESP_SHUTDOWN`] | empty |
//! | [`RESP_METRICS`] | format byte + rendered telemetry snapshot (text) |
//! | [`RESP_ERROR`] | error code + message string |
//!
//! Every request gets exactly one response frame on the same connection, in
//! order, so clients can pipeline.

use crate::blockcache::CacheTotals;
use crate::codec::{
    get_config, get_imm, get_ir_inst, get_options, get_pinst, get_sdst, get_ssrc, get_str,
    put_config, put_imm, put_ir_inst, put_options, put_pinst, put_sdst, put_ssrc, put_str, put_u16,
    put_u32, put_u64, Dec,
};
use crate::options::CompilerOptions;
use raw_ir::{ArrayDecl, Block, BlockId, Program, Terminator, Ty, ValueId, VarDecl};
use raw_machine::isa::SInst;
use raw_machine::{MachineConfig, MachineProgram, TileCode};
use std::io::{Read, Write};

/// Frame magic ("raw service v1").
pub const FRAME_MAGIC: [u8; 4] = *b"RWS1";
/// Maximum payload bytes per frame; larger headers are rejected unread.
pub const MAX_FRAME: u32 = 64 << 20;

/// Compile request: client name + program + config + options.
pub const REQ_COMPILE: u8 = 0x01;
/// Stats snapshot request (empty payload).
pub const REQ_STATS: u8 = 0x02;
/// Liveness probe; payload is echoed back.
pub const REQ_PING: u8 = 0x03;
/// Graceful shutdown request (empty payload).
pub const REQ_SHUTDOWN: u8 = 0x04;
/// Telemetry scrape request (one [`MetricsFormat`] byte; empty = Prometheus).
pub const REQ_METRICS: u8 = 0x05;
/// Successful compile response.
pub const RESP_COMPILED: u8 = 0x81;
/// Stats snapshot response.
pub const RESP_STATS: u8 = 0x82;
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
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
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

/// Whether `kind` is a defined *request* kind.
pub fn is_request_kind(kind: u8) -> bool {
    matches!(
        kind,
        REQ_COMPILE | REQ_STATS | REQ_PING | REQ_SHUTDOWN | REQ_METRICS
    )
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    let mut header = [0u8; 9];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = kind;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
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
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if header[..4] != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let kind = header[4];
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((kind, payload))
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

fn put_ty(out: &mut Vec<u8>, ty: Ty) {
    out.push(match ty {
        Ty::I32 => 0,
        Ty::F32 => 1,
    });
}

fn get_ty(d: &mut Dec<'_>) -> Option<Ty> {
    match d.u8()? {
        0 => Some(Ty::I32),
        1 => Some(Ty::F32),
        _ => None,
    }
}

fn put_program(out: &mut Vec<u8>, p: &Program) {
    put_str(out, &p.name);
    put_u64(out, p.vars.len() as u64);
    for v in &p.vars {
        put_str(out, &v.name);
        put_ty(out, v.ty);
        put_imm(out, v.init);
    }
    put_u64(out, p.arrays.len() as u64);
    for a in &p.arrays {
        put_str(out, &a.name);
        put_ty(out, a.ty);
        put_u64(out, a.dims.len() as u64);
        for &dim in &a.dims {
            put_u32(out, dim);
        }
        put_u64(out, a.init.len() as u64);
        for &imm in &a.init {
            put_imm(out, imm);
        }
    }
    put_u64(out, p.blocks.len() as u64);
    for b in &p.blocks {
        put_str(out, &b.name);
        put_u64(out, b.insts.len() as u64);
        for inst in &b.insts {
            put_ir_inst(out, inst, &mut |v| v.index() as u32);
        }
        match &b.term {
            Terminator::Jump(t) => {
                out.push(0);
                put_u32(out, t.index() as u32);
            }
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                out.push(1);
                put_u32(out, cond.index() as u32);
                put_u32(out, if_true.index() as u32);
                put_u32(out, if_false.index() as u32);
            }
            Terminator::Halt => out.push(2),
        }
    }
    put_u32(out, p.entry.index() as u32);
    put_u64(out, p.value_types.len() as u64);
    for &ty in &p.value_types {
        put_ty(out, ty);
    }
    // Deterministic order so identical programs encode identically.
    let mut names: Vec<(u32, &str)> = p
        .value_names
        .iter()
        .map(|(v, n)| (v.index() as u32, n.as_str()))
        .collect();
    names.sort_unstable();
    put_u64(out, names.len() as u64);
    for (v, n) in names {
        put_u32(out, v);
        put_str(out, n);
    }
}

fn get_program(d: &mut Dec<'_>) -> Option<Program> {
    let name = get_str(d)?;
    let n_vars = d.len(1)?;
    let mut vars = Vec::with_capacity(n_vars);
    for _ in 0..n_vars {
        vars.push(VarDecl {
            name: get_str(d)?,
            ty: get_ty(d)?,
            init: get_imm(d)?,
        });
    }
    let n_arrays = d.len(1)?;
    let mut arrays = Vec::with_capacity(n_arrays);
    for _ in 0..n_arrays {
        let name = get_str(d)?;
        let ty = get_ty(d)?;
        let n_dims = d.len(4)?;
        let mut dims = Vec::with_capacity(n_dims);
        for _ in 0..n_dims {
            dims.push(d.u32()?);
        }
        let n_init = d.len(1)?;
        let mut init = Vec::with_capacity(n_init);
        for _ in 0..n_init {
            init.push(get_imm(d)?);
        }
        arrays.push(ArrayDecl {
            name,
            ty,
            dims,
            init,
        });
    }
    let n_blocks = d.len(1)?;
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let name = get_str(d)?;
        let n_insts = d.len(1)?;
        let mut insts = Vec::with_capacity(n_insts);
        for _ in 0..n_insts {
            insts.push(get_ir_inst(d)?);
        }
        let term = match d.u8()? {
            0 => Terminator::Jump(BlockId::from_raw(d.u32()?)),
            1 => Terminator::Branch {
                cond: ValueId::from_raw(d.u32()?),
                if_true: BlockId::from_raw(d.u32()?),
                if_false: BlockId::from_raw(d.u32()?),
            },
            2 => Terminator::Halt,
            _ => return None,
        };
        blocks.push(Block { name, insts, term });
    }
    let entry = BlockId::from_raw(d.u32()?);
    let n_types = d.len(1)?;
    let mut value_types = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        value_types.push(get_ty(d)?);
    }
    let n_names = d.len(1)?;
    let mut value_names = std::collections::HashMap::with_capacity(n_names);
    for _ in 0..n_names {
        let v = ValueId::from_raw(d.u32()?);
        value_names.insert(v, get_str(d)?);
    }
    Some(Program {
        name,
        vars,
        arrays,
        blocks,
        entry,
        value_types,
        value_names,
    })
}

fn put_sinst(out: &mut Vec<u8>, inst: &SInst) {
    match inst {
        SInst::Route(pairs) => {
            out.push(0);
            put_u16(out, pairs.len() as u16);
            for &(s, dst) in pairs {
                put_ssrc(out, s);
                put_sdst(out, dst);
            }
        }
        SInst::Bnez { reg, target } => {
            out.push(1);
            out.push(*reg);
            put_u64(out, *target as u64);
        }
        SInst::Beqz { reg, target } => {
            out.push(2);
            out.push(*reg);
            put_u64(out, *target as u64);
        }
        SInst::Jump(target) => {
            out.push(3);
            put_u64(out, *target as u64);
        }
        SInst::Halt => out.push(4),
        SInst::Nop => out.push(5),
    }
}

fn get_sinst(d: &mut Dec<'_>) -> Option<SInst> {
    Some(match d.u8()? {
        0 => {
            let n = d.u16()? as usize;
            let mut pairs = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                pairs.push((get_ssrc(d)?, get_sdst(d)?));
            }
            SInst::Route(pairs)
        }
        1 => SInst::Bnez {
            reg: d.u8()?,
            target: d.u64()? as usize,
        },
        2 => SInst::Beqz {
            reg: d.u8()?,
            target: d.u64()? as usize,
        },
        3 => SInst::Jump(d.u64()? as usize),
        4 => SInst::Halt,
        5 => SInst::Nop,
        _ => return None,
    })
}

fn put_machine_program(out: &mut Vec<u8>, mp: &MachineProgram) {
    put_u64(out, mp.tiles.len() as u64);
    for tile in &mp.tiles {
        put_u64(out, tile.proc.len() as u64);
        for inst in &tile.proc {
            put_pinst(out, inst);
        }
        put_u64(out, tile.switch.len() as u64);
        for inst in &tile.switch {
            put_sinst(out, inst);
        }
    }
}

fn get_machine_program(d: &mut Dec<'_>) -> Option<MachineProgram> {
    let n_tiles = d.len(1)?;
    let mut tiles = Vec::with_capacity(n_tiles);
    for _ in 0..n_tiles {
        let n_proc = d.len(1)?;
        let mut proc = Vec::with_capacity(n_proc);
        for _ in 0..n_proc {
            proc.push(get_pinst(d)?);
        }
        let n_switch = d.len(1)?;
        let mut switch = Vec::with_capacity(n_switch);
        for _ in 0..n_switch {
            switch.push(get_sinst(d)?);
        }
        tiles.push(TileCode { proc, switch });
    }
    Some(MachineProgram { tiles })
}

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

/// One compile request, as carried by a [`REQ_COMPILE`] frame.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Client identity for per-client stats rows.
    pub client: String,
    /// The program to compile.
    pub program: Program,
    /// Target machine shape.
    pub config: MachineConfig,
    /// Compiler options; `threads` applies server-side per request.
    pub options: CompilerOptions,
}

/// Serializes a [`REQ_COMPILE`] payload without cloning the program (the
/// borrow-side counterpart of [`CompileRequest::encode`]).
pub fn encode_compile_request(
    client: &str,
    program: &Program,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, client);
    put_program(&mut out, program);
    put_config(&mut out, config);
    put_options(&mut out, options);
    // The one option outside the cache key: it sizes the server's worker
    // pool and changes no artifact.
    put_u64(&mut out, options.threads as u64);
    out
}

/// Splits a [`REQ_COMPILE`] payload into the client name and the remaining
/// `(program, config, options)` bytes without decoding the program. The rest
/// is a content key for whole-response memoization: a deterministic compiler
/// maps identical rest-bytes to identical responses, whoever sent them.
#[must_use]
pub fn split_compile_client(payload: &[u8]) -> Option<(&str, &[u8])> {
    let n = usize::try_from(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?)).ok()?;
    let rest_at = 8usize.checked_add(n)?;
    let client = std::str::from_utf8(payload.get(8..rest_at)?).ok()?;
    Some((client, &payload[rest_at..]))
}

impl CompileRequest {
    /// Serializes into a [`REQ_COMPILE`] payload.
    pub fn encode(&self) -> Vec<u8> {
        encode_compile_request(&self.client, &self.program, &self.config, &self.options)
    }

    /// Decodes a [`REQ_COMPILE`] payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the bytes do not decode; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        let req = (|| {
            let client = get_str(&mut d)?;
            let program = get_program(&mut d)?;
            let config = get_config(&mut d)?;
            let mut options = get_options(&mut d)?;
            options.threads = d.u64()? as usize;
            Some(CompileRequest {
                client,
                program,
                config,
                options,
            })
        })()
        .ok_or(WireError::Malformed("compile request"))?;
        if !d.at_end() {
            return Err(WireError::Malformed("trailing bytes after compile request"));
        }
        Ok(req)
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
        let mut out = Vec::new();
        put_machine_program(&mut out, &self.machine_program);
        put_u64(&mut out, self.hits);
        put_u64(&mut out, self.misses);
        put_u64(&mut out, self.coalesced);
        put_u64(&mut out, self.evictions);
        put_u64(&mut out, self.evicted_bytes);
        put_u64(&mut out, self.wall_us);
        put_u32(&mut out, self.threads);
        out
    }

    /// Decodes a [`RESP_COMPILED`] payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the bytes do not decode; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        (|| {
            let machine_program = get_machine_program(&mut d)?;
            let hits = d.u64()?;
            let misses = d.u64()?;
            let coalesced = d.u64()?;
            let evictions = d.u64()?;
            let evicted_bytes = d.u64()?;
            let wall_us = d.u64()?;
            let threads = d.u32()?;
            d.at_end().then_some(CompileResponse {
                machine_program,
                hits,
                misses,
                coalesced,
                evictions,
                evicted_bytes,
                wall_us,
                threads,
            })
        })()
        .ok_or(WireError::Malformed("compile response"))
    }
}

/// Byte size of the fixed counter tail of a [`RESP_COMPILED`] payload
/// (six `u64` counters plus the `u32` thread count; the machine program
/// precedes it).
const COMPILED_TAIL: usize = 6 * 8 + 4;

/// Overwrites the cache counters and wall time in an already-encoded
/// [`RESP_COMPILED`] payload, leaving the machine-program bytes and the
/// thread count untouched. This is how a memoized response is re-served as
/// an all-hits answer without re-encoding the program. Returns `false` (no
/// change) if `payload` is too short to be a compile response.
pub fn patch_compiled_counters(payload: &mut [u8], hits: u64, wall_us: u64) -> bool {
    let Some(tail_at) = payload.len().checked_sub(COMPILED_TAIL) else {
        return false;
    };
    // Tail layout: hits, misses, coalesced, evictions, evicted_bytes,
    // wall_us, threads — see `CompileResponse::encode`.
    payload[tail_at..tail_at + 8].copy_from_slice(&hits.to_le_bytes());
    for slot in 1..5 {
        payload[tail_at + slot * 8..tail_at + (slot + 1) * 8].copy_from_slice(&0u64.to_le_bytes());
    }
    payload[tail_at + 40..tail_at + 48].copy_from_slice(&wall_us.to_le_bytes());
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
    let u64_at = |i: usize| u64::from_le_bytes(tail[i * 8..(i + 1) * 8].try_into().unwrap());
    Some((
        program,
        CompiledCounters {
            hits: u64_at(0),
            misses: u64_at(1),
            coalesced: u64_at(2),
            evictions: u64_at(3),
            evicted_bytes: u64_at(4),
            wall_us: u64_at(5),
            threads: u32::from_le_bytes(tail[48..52].try_into().unwrap()),
        },
    ))
}

/// Encodes a machine program exactly as [`CompileResponse::encode`] lays it
/// out, so callers can compare a raw response payload (via
/// [`split_compiled_payload`]) byte-for-byte against a local compile.
pub fn encode_machine_program(mp: &MachineProgram) -> Vec<u8> {
    let mut out = Vec::new();
    put_machine_program(&mut out, mp);
    out
}

/// Per-client accounting row in a [`StatsResponse`].
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

/// Service-wide snapshot, as carried by a [`RESP_STATS`] frame.
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
    /// Serializes into a [`RESP_STATS`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let c = &self.cache;
        for v in [
            c.hits_mem,
            c.hits_disk,
            c.misses,
            c.coalesced,
            c.evictions,
            c.evicted_bytes,
            c.resident_bytes,
            c.entries,
            c.disk_rejects,
            self.requests,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.memo_hits,
            self.uptime_us,
        ] {
            put_u64(&mut out, v);
        }
        put_u64(&mut out, self.clients.len() as u64);
        for row in &self.clients {
            put_str(&mut out, &row.client);
            put_u64(&mut out, row.requests);
            put_u64(&mut out, row.hits);
            put_u64(&mut out, row.misses);
            put_u64(&mut out, row.coalesced);
        }
        out
    }

    /// Decodes a [`RESP_STATS`] payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the bytes do not decode; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        (|| {
            let mut v = [0u64; 15];
            for slot in &mut v {
                *slot = d.u64()?;
            }
            let n = d.len(1)?;
            let mut clients = Vec::with_capacity(n);
            for _ in 0..n {
                clients.push(ClientRow {
                    client: get_str(&mut d)?,
                    requests: d.u64()?,
                    hits: d.u64()?,
                    misses: d.u64()?,
                    coalesced: d.u64()?,
                });
            }
            d.at_end().then_some(StatsResponse {
                cache: CacheTotals {
                    hits_mem: v[0],
                    hits_disk: v[1],
                    misses: v[2],
                    coalesced: v[3],
                    evictions: v[4],
                    evicted_bytes: v[5],
                    resident_bytes: v[6],
                    entries: v[7],
                    disk_rejects: v[8],
                },
                requests: v[9],
                p50_us: v[10],
                p90_us: v[11],
                p99_us: v[12],
                memo_hits: v[13],
                uptime_us: v[14],
                clients,
            })
        })()
        .ok_or(WireError::Malformed("stats response"))
    }
}

/// Rendering requested by (and echoed in) a telemetry scrape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition format 0.0.4.
    #[default]
    Prometheus,
    /// JSON, parseable by `raw-trace`'s in-tree parser.
    Json,
}

impl MetricsFormat {
    fn code(self) -> u8 {
        match self {
            MetricsFormat::Prometheus => 0,
            MetricsFormat::Json => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(MetricsFormat::Prometheus),
            1 => Some(MetricsFormat::Json),
            _ => None,
        }
    }
}

/// Serializes a [`REQ_METRICS`] payload.
pub fn encode_metrics_request(format: MetricsFormat) -> Vec<u8> {
    vec![format.code()]
}

/// Decodes a [`REQ_METRICS`] payload. An empty payload means Prometheus
/// text, so a bare scrape needs no arguments.
///
/// # Errors
///
/// [`WireError::Malformed`] when the bytes do not decode; never panics.
pub fn decode_metrics_request(bytes: &[u8]) -> Result<MetricsFormat, WireError> {
    match bytes {
        [] => Ok(MetricsFormat::Prometheus),
        [code] => MetricsFormat::from_code(*code).ok_or(WireError::Malformed("metrics format")),
        _ => Err(WireError::Malformed("metrics request")),
    }
}

/// A rendered telemetry snapshot, as carried by a [`RESP_METRICS`] frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsResponse {
    /// The rendering the body is in (echoes the request).
    pub format: MetricsFormat,
    /// The rendered snapshot: Prometheus text or a JSON document.
    pub body: String,
}

impl MetricsResponse {
    /// Serializes into a [`RESP_METRICS`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 9);
        out.push(self.format.code());
        put_str(&mut out, &self.body);
        out
    }

    /// Decodes a [`RESP_METRICS`] payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the bytes do not decode; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(bytes);
        (|| {
            let format = MetricsFormat::from_code(d.u8()?)?;
            let body = get_str(&mut d)?;
            d.at_end().then_some(MetricsResponse { format, body })
        })()
        .ok_or(WireError::Malformed("metrics response"))
    }
}

/// Serializes a [`RESP_ERROR`] payload.
pub fn encode_error(code: u8, message: &str) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(code);
    put_str(&mut out, message);
    out
}

/// Decodes a [`RESP_ERROR`] payload.
///
/// # Errors
///
/// [`WireError::Malformed`] when the bytes do not decode; never panics.
pub fn decode_error(bytes: &[u8]) -> Result<(u8, String), WireError> {
    let mut d = Dec::new(bytes);
    (|| {
        let code = d.u8()?;
        let message = get_str(&mut d)?;
        d.at_end().then_some((code, message))
    })()
    .ok_or(WireError::Malformed("error response"))
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
        let x = b.const_i32(6);
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

    #[test]
    fn compile_request_roundtrip() {
        let req = CompileRequest {
            client: "test-client".into(),
            program: sample_program(),
            config: MachineConfig::square(4).with_faulty(TileMask::of(&[TileId::from_raw(2)])),
            options: CompilerOptions {
                placement: PlacementAlgorithm::Annealing { seed: 99 },
                strategy: Strategy::Portfolio { seed: 41 },
                exact_budget: 123_456,
                threads: 3,
                ..CompilerOptions::default()
            },
        };
        let bytes = req.encode();
        let back = CompileRequest::decode(&bytes).unwrap();
        assert_eq!(back.client, req.client);
        assert_eq!(back.program, req.program);
        assert_eq!(back.config, req.config);
        assert_eq!(back.options.threads, 3);
        assert!(matches!(
            back.options.placement,
            PlacementAlgorithm::Annealing { seed: 99 }
        ));
        assert_eq!(back.options.strategy, Strategy::Portfolio { seed: 41 });
        assert_eq!(back.options.exact_budget, 123_456);
    }

    #[test]
    fn stats_response_roundtrip() {
        let resp = StatsResponse {
            cache: CacheTotals {
                hits_mem: 10,
                hits_disk: 2,
                misses: 3,
                coalesced: 4,
                evictions: 1,
                evicted_bytes: 4096,
                resident_bytes: 1 << 20,
                entries: 17,
                disk_rejects: 1,
            },
            requests: 15,
            p50_us: 100,
            p90_us: 900,
            p99_us: 9900,
            memo_hits: 6,
            uptime_us: 12_345_678,
            clients: vec![ClientRow {
                client: "a".into(),
                requests: 5,
                hits: 4,
                misses: 1,
                coalesced: 0,
            }],
        };
        assert_eq!(StatsResponse::decode(&resp.encode()).unwrap(), resp);
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
        for format in [MetricsFormat::Prometheus, MetricsFormat::Json] {
            let bytes = encode_metrics_request(format);
            assert_eq!(decode_metrics_request(&bytes).unwrap(), format);
        }
        assert_eq!(
            decode_metrics_request(&[]).unwrap(),
            MetricsFormat::Prometheus,
            "bare scrape defaults to Prometheus text"
        );
        assert!(decode_metrics_request(&[9]).is_err());
        assert!(decode_metrics_request(&[0, 0]).is_err());
    }

    #[test]
    fn metrics_response_roundtrip() {
        let resp = MetricsResponse {
            format: MetricsFormat::Json,
            body: "{\"families\":[]}".into(),
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
