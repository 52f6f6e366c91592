//! The one byte encoding behind the cache key, the disk entry and the wire
//! protocol: little-endian, length-prefixed, no external dependencies.
//!
//! ## Key invariants
//!
//! 1. **Total decoders.** Every `get_*` returns `None` on bytes it cannot
//!    decode — truncated, bit-flipped or random input never panics. Disk
//!    entries and wire frames are adversarial input.
//! 2. **Length-prefix allocation guard.** A sequence length is read through
//!    [`Dec::len`], which rejects a count that could not fit in the bytes that
//!    remain, so a corrupt length never allocates beyond the buffer it came
//!    in.
//! 3. **Identical bytes for key, disk and wire.** [`KeyContext`], the disk
//!    envelope and [`crate::wire`] all call the encoders below, so a new
//!    `CompilerOptions` or `MachineConfig` field is one edit here and lands
//!    in the cache key and the request bytes together. Changing any encoding
//!    changes keys and stored bundles: bump the cache's format version.
//!
//! [`KeyContext`]: crate::blockcache::KeyContext

use crate::options::{CompilerOptions, PlacementAlgorithm, PriorityScheme, Strategy};
use crate::partition::CLUSTER_COMM_COST;
use raw_ir::{ArrayId, BinOp, Imm, Inst, InstKind, MemHome, SourceSpan, UnOp, ValueId, VarId};
use raw_machine::isa::{AluOp, Dir, Dst, PInst, SDst, SSrc, Src};
use raw_machine::{LatencyModel, MachineConfig, TileId, TileMask};
use raw_testkit::{hash64, hash64_with};

/// Basis of the second, independent FNV pass.
const HI_BASIS: u64 = 0x8422_2325_cbf2_9ce4;

/// 128-bit content hash of the concatenation of `parts`: two FNV-1a passes
/// from independent bases, returned as `(standard-basis pass, second pass)`.
pub(crate) fn hash128(parts: &[&[u8]]) -> (u64, u64) {
    let pass = |basis| parts.iter().fold(basis, |h, part| hash64_with(h, part));
    // Hashing nothing yields the standard FNV-1a offset basis.
    (pass(hash64(&[])), pass(HI_BASIS))
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(d: &mut Dec<'_>) -> Option<String> {
    let n = d.len(1)?;
    let bytes = d.take(n)?;
    String::from_utf8(bytes.to_vec()).ok()
}

pub(crate) fn get_bool(d: &mut Dec<'_>) -> Option<bool> {
    match d.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// Defensive little-endian reader: every accessor returns `None` past the end.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
    pub(crate) fn i32(&mut self) -> Option<i32> {
        self.u32().map(|v| v as i32)
    }
    pub(crate) fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }
    /// Length prefix for a sequence whose elements occupy ≥ `min_elem` bytes:
    /// rejects lengths that could not possibly fit in the remaining buffer, so
    /// a corrupt length cannot cause a huge allocation.
    pub(crate) fn len(&mut self, min_elem: usize) -> Option<usize> {
        let n = self.u64()? as usize;
        if n.checked_mul(min_elem.max(1))? > self.buf.len() - self.pos {
            return None;
        }
        Some(n)
    }
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Operator code tables: an operator's code is its position.
// ---------------------------------------------------------------------------

const BINOPS: [BinOp; 22] = {
    use BinOp::*;
    [
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Shru, Slt, Sle, Seq, Sne, AddF, SubF,
        MulF, DivF, FLt, FLe, FEq,
    ]
};

const UNOPS: [UnOp; 8] = {
    use UnOp::*;
    [Neg, Not, Mov, NegF, AbsF, SqrtF, CvtIF, CvtFI]
};

fn code_of<T: Copy + PartialEq>(table: &[T], op: T) -> u8 {
    let code = table.iter().position(|&o| o == op);
    code.expect("every operator has a row in its code table") as u8
}

pub(crate) fn binop_code(op: BinOp) -> u8 {
    code_of(&BINOPS, op)
}

pub(crate) fn binop_from(code: u8) -> Option<BinOp> {
    BINOPS.get(code as usize).copied()
}

pub(crate) fn unop_code(op: UnOp) -> u8 {
    code_of(&UNOPS, op)
}

pub(crate) fn unop_from(code: u8) -> Option<UnOp> {
    UNOPS.get(code as usize).copied()
}

// ---------------------------------------------------------------------------
// IR instructions.
// ---------------------------------------------------------------------------

pub(crate) fn put_imm(out: &mut Vec<u8>, imm: Imm) {
    match imm {
        Imm::I(v) => {
            out.push(0);
            put_u32(out, v as u32);
        }
        Imm::F(v) => {
            out.push(1);
            put_u32(out, v.to_bits());
        }
    }
}

pub(crate) fn get_imm(d: &mut Dec<'_>) -> Option<Imm> {
    Some(match d.u8()? {
        0 => Imm::I(d.i32()?),
        1 => Imm::F(f32::from_bits(d.u32()?)),
        _ => return None,
    })
}

fn put_mem_home(out: &mut Vec<u8>, home: MemHome) {
    match home {
        MemHome::Static(r) => {
            out.push(0);
            put_u32(out, r);
        }
        MemHome::Dynamic => out.push(1),
    }
}

fn get_mem_home(d: &mut Dec<'_>) -> Option<MemHome> {
    match d.u8()? {
        0 => Some(MemHome::Static(d.u32()?)),
        1 => Some(MemHome::Dynamic),
        _ => None,
    }
}

/// Encodes one IR instruction, writing each [`ValueId`] as `number(v)`: the
/// wire protocol passes the identity, the cache key a renumbering by first
/// appearance.
pub(crate) fn put_ir_inst(out: &mut Vec<u8>, inst: &Inst, number: &mut impl FnMut(ValueId) -> u32) {
    let mut value = |out: &mut Vec<u8>, v: ValueId| put_u32(out, number(v));
    let SourceSpan { line, col } = inst.span;
    put_u32(out, line);
    put_u32(out, col);
    match inst.dst {
        Some(v) => {
            out.push(1);
            value(out, v);
        }
        None => out.push(0),
    }
    match &inst.kind {
        InstKind::Const(imm) => {
            out.push(0);
            put_imm(out, *imm);
        }
        InstKind::Un(op, a) => {
            out.push(1);
            out.push(unop_code(*op));
            value(out, *a);
        }
        InstKind::Bin(op, a, b) => {
            out.push(2);
            out.push(binop_code(*op));
            value(out, *a);
            value(out, *b);
        }
        InstKind::Load { array, index, home } => {
            out.push(3);
            put_u32(out, array.index() as u32);
            value(out, *index);
            put_mem_home(out, *home);
        }
        InstKind::Store {
            array,
            index,
            value: stored,
            home,
        } => {
            out.push(4);
            put_u32(out, array.index() as u32);
            value(out, *index);
            value(out, *stored);
            put_mem_home(out, *home);
        }
        InstKind::ReadVar(v) => {
            out.push(5);
            put_u32(out, v.index() as u32);
        }
        InstKind::WriteVar(v, x) => {
            out.push(6);
            put_u32(out, v.index() as u32);
            value(out, *x);
        }
    }
}

pub(crate) fn get_ir_inst(d: &mut Dec<'_>) -> Option<Inst> {
    let line = d.u32()?;
    let col = d.u32()?;
    let dst = match d.u8()? {
        0 => None,
        1 => Some(ValueId::from_raw(d.u32()?)),
        _ => return None,
    };
    let kind = match d.u8()? {
        0 => InstKind::Const(get_imm(d)?),
        1 => {
            let op = unop_from(d.u8()?)?;
            InstKind::Un(op, ValueId::from_raw(d.u32()?))
        }
        2 => {
            let op = binop_from(d.u8()?)?;
            InstKind::Bin(op, ValueId::from_raw(d.u32()?), ValueId::from_raw(d.u32()?))
        }
        3 => InstKind::Load {
            array: ArrayId::from_raw(d.u32()?),
            index: ValueId::from_raw(d.u32()?),
            home: get_mem_home(d)?,
        },
        4 => InstKind::Store {
            array: ArrayId::from_raw(d.u32()?),
            index: ValueId::from_raw(d.u32()?),
            value: ValueId::from_raw(d.u32()?),
            home: get_mem_home(d)?,
        },
        5 => InstKind::ReadVar(VarId::from_raw(d.u32()?)),
        6 => InstKind::WriteVar(VarId::from_raw(d.u32()?), ValueId::from_raw(d.u32()?)),
        _ => return None,
    };
    Some(Inst {
        dst,
        kind,
        span: SourceSpan { line, col },
    })
}

// ---------------------------------------------------------------------------
// Machine config and compiler options.
// ---------------------------------------------------------------------------

/// Every field of the machine config. Two fault masks with the same live
/// count produce different placements, so the mask bits themselves are
/// encoded.
pub(crate) fn put_config(out: &mut Vec<u8>, c: &MachineConfig) {
    put_u32(out, c.rows);
    put_u32(out, c.cols);
    put_u32(out, c.gprs);
    put_u32(out, c.switch_regs);
    put_u32(out, c.mem_latency);
    put_u32(out, c.mem_words);
    out.push(match c.latency {
        LatencyModel::Table1 => 0,
        LatencyModel::Unit => 1,
    });
    put_u64(out, c.port_capacity as u64);
    put_u64(out, c.dyn_fifo as u64);
    put_u64(out, c.step_limit);
    put_u64(out, c.faulty.bits());
}

pub(crate) fn get_config(d: &mut Dec<'_>) -> Option<MachineConfig> {
    let rows = d.u32()?;
    let cols = d.u32()?;
    let gprs = d.u32()?;
    let switch_regs = d.u32()?;
    let mem_latency = d.u32()?;
    let mem_words = d.u32()?;
    let latency = match d.u8()? {
        0 => LatencyModel::Table1,
        1 => LatencyModel::Unit,
        _ => return None,
    };
    let port_capacity = d.u64()? as usize;
    let dyn_fifo = d.u64()? as usize;
    let step_limit = d.u64()?;
    let bits = d.u64()?;
    let mut faulty = TileMask::EMPTY;
    for i in 0..64 {
        if bits >> i & 1 == 1 {
            faulty.insert(TileId::from_raw(i));
        }
    }
    Some(MachineConfig {
        rows,
        cols,
        gprs,
        switch_regs,
        mem_latency,
        mem_words,
        latency,
        port_capacity,
        dyn_fifo,
        step_limit,
        faulty,
    })
}

/// Every *semantic* compiler option — the fields that can change an
/// artifact. `threads` cannot, so it is not here: the cache key stops at
/// these bytes and the wire protocol appends the thread count itself.
pub(crate) fn put_options(out: &mut Vec<u8>, o: &CompilerOptions) {
    out.push(o.clustering as u8);
    match o.placement {
        PlacementAlgorithm::GreedySwap => out.push(0),
        PlacementAlgorithm::Annealing { seed } => {
            out.push(1);
            put_u64(out, seed);
        }
        PlacementAlgorithm::None => out.push(2),
    }
    // Reserved: the byte a retired boolean alias of `placement: None` used to
    // occupy. Always written as 1 so keys and frames keep their layout.
    out.push(1);
    out.push(match o.priority {
        PriorityScheme::LevelFertility => 0,
        PriorityScheme::LevelOnly => 1,
        PriorityScheme::SourceOrder => 2,
    });
    // Where the retired clustering-latency option sat: now the constant, so
    // keys and frames keep their layout (and a changed constant changes the
    // key). Ignored on read.
    put_u32(out, CLUSTER_COMM_COST as u32);
    out.push(o.fold_communication as u8);
    // A cached heuristic bundle must never satisfy a portfolio request (and
    // vice versa), so the strategy and its seed are semantic.
    match o.strategy {
        Strategy::Heuristic => out.push(0),
        Strategy::Exact => out.push(1),
        Strategy::Portfolio { seed } => {
            out.push(2);
            put_u64(out, seed);
        }
    }
    put_u64(out, o.exact_budget);
}

/// Inverse of [`put_options`]; `threads` is left at 0 for the caller to fill.
pub(crate) fn get_options(d: &mut Dec<'_>) -> Option<CompilerOptions> {
    let clustering = get_bool(d)?;
    let placement = match d.u8()? {
        0 => PlacementAlgorithm::GreedySwap,
        1 => PlacementAlgorithm::Annealing { seed: d.u64()? },
        2 => PlacementAlgorithm::None,
        _ => return None,
    };
    // Reserved byte (see `put_options`): an old writer's 0 meant "no
    // placement", whatever algorithm the byte before it named.
    let placement = if get_bool(d)? {
        placement
    } else {
        PlacementAlgorithm::None
    };
    let priority = match d.u8()? {
        0 => PriorityScheme::LevelFertility,
        1 => PriorityScheme::LevelOnly,
        2 => PriorityScheme::SourceOrder,
        _ => return None,
    };
    d.u32()?; // reserved (see `put_options`)
    let fold_communication = get_bool(d)?;
    let strategy = match d.u8()? {
        0 => Strategy::Heuristic,
        1 => Strategy::Exact,
        2 => Strategy::Portfolio { seed: d.u64()? },
        _ => return None,
    };
    let exact_budget = d.u64()?;
    Some(CompilerOptions {
        clustering,
        placement,
        priority,
        fold_communication,
        strategy,
        exact_budget,
        threads: 0,
    })
}

// ---------------------------------------------------------------------------
// Machine instructions (bundles on disk, machine programs on the wire).
// ---------------------------------------------------------------------------

fn put_src(out: &mut Vec<u8>, s: Src) {
    match s {
        Src::Reg(r) => {
            out.push(0);
            put_u16(out, r);
        }
        Src::Imm(imm) => {
            out.push(1);
            put_imm(out, imm);
        }
        Src::PortIn => out.push(2),
    }
}

fn get_src(d: &mut Dec<'_>) -> Option<Src> {
    Some(match d.u8()? {
        0 => Src::Reg(d.u16()?),
        1 => Src::Imm(get_imm(d)?),
        2 => Src::PortIn,
        _ => return None,
    })
}

fn put_dst(out: &mut Vec<u8>, dst: Dst) {
    match dst {
        Dst::Reg(r) => {
            out.push(0);
            put_u16(out, r);
        }
        Dst::PortOut => out.push(1),
    }
}

fn get_dst(d: &mut Dec<'_>) -> Option<Dst> {
    Some(match d.u8()? {
        0 => Dst::Reg(d.u16()?),
        1 => Dst::PortOut,
        _ => return None,
    })
}

pub(crate) fn put_pinst(out: &mut Vec<u8>, inst: &PInst) {
    match inst {
        PInst::Alu { op, dst, a, b } => {
            out.push(0);
            match op {
                AluOp::Bin(o) => {
                    out.push(0);
                    out.push(binop_code(*o));
                }
                AluOp::Un(o) => {
                    out.push(1);
                    out.push(unop_code(*o));
                }
            }
            put_dst(out, *dst);
            put_src(out, *a);
            put_src(out, *b);
        }
        PInst::Load { dst, addr, offset } => {
            out.push(1);
            put_dst(out, *dst);
            put_src(out, *addr);
            put_u32(out, *offset as u32);
        }
        PInst::Store {
            value,
            addr,
            offset,
        } => {
            out.push(2);
            put_src(out, *value);
            put_src(out, *addr);
            put_u32(out, *offset as u32);
        }
        PInst::DLoad { dst, gaddr } => {
            out.push(3);
            put_dst(out, *dst);
            put_src(out, *gaddr);
        }
        PInst::DStore { gaddr, value } => {
            out.push(4);
            put_src(out, *gaddr);
            put_src(out, *value);
        }
        PInst::Jump(t) => {
            out.push(5);
            put_u64(out, *t as u64);
        }
        PInst::Bnez { cond, target } => {
            out.push(6);
            put_src(out, *cond);
            put_u64(out, *target as u64);
        }
        PInst::Beqz { cond, target } => {
            out.push(7);
            put_src(out, *cond);
            put_u64(out, *target as u64);
        }
        PInst::Halt => out.push(8),
        PInst::Nop => out.push(9),
    }
}

pub(crate) fn get_pinst(d: &mut Dec<'_>) -> Option<PInst> {
    Some(match d.u8()? {
        0 => {
            let op = match d.u8()? {
                0 => AluOp::Bin(binop_from(d.u8()?)?),
                1 => AluOp::Un(unop_from(d.u8()?)?),
                _ => return None,
            };
            PInst::Alu {
                op,
                dst: get_dst(d)?,
                a: get_src(d)?,
                b: get_src(d)?,
            }
        }
        1 => PInst::Load {
            dst: get_dst(d)?,
            addr: get_src(d)?,
            offset: d.i32()?,
        },
        2 => PInst::Store {
            value: get_src(d)?,
            addr: get_src(d)?,
            offset: d.i32()?,
        },
        3 => PInst::DLoad {
            dst: get_dst(d)?,
            gaddr: get_src(d)?,
        },
        4 => PInst::DStore {
            gaddr: get_src(d)?,
            value: get_src(d)?,
        },
        5 => PInst::Jump(d.u64()? as usize),
        6 => PInst::Bnez {
            cond: get_src(d)?,
            target: d.u64()? as usize,
        },
        7 => PInst::Beqz {
            cond: get_src(d)?,
            target: d.u64()? as usize,
        },
        8 => PInst::Halt,
        9 => PInst::Nop,
        _ => return None,
    })
}

fn dir_from(code: u8) -> Option<Dir> {
    Dir::ALL.get(code as usize).copied()
}

pub(crate) fn put_ssrc(out: &mut Vec<u8>, s: SSrc) {
    match s {
        SSrc::Dir(dir) => {
            out.push(0);
            out.push(dir.index() as u8);
        }
        SSrc::Proc => out.push(1),
        SSrc::Reg(r) => {
            out.push(2);
            out.push(r);
        }
    }
}

pub(crate) fn get_ssrc(d: &mut Dec<'_>) -> Option<SSrc> {
    Some(match d.u8()? {
        0 => SSrc::Dir(dir_from(d.u8()?)?),
        1 => SSrc::Proc,
        2 => SSrc::Reg(d.u8()?),
        _ => return None,
    })
}

pub(crate) fn put_sdst(out: &mut Vec<u8>, s: SDst) {
    match s {
        SDst::Dir(dir) => {
            out.push(0);
            out.push(dir.index() as u8);
        }
        SDst::Proc => out.push(1),
        SDst::Reg(r) => {
            out.push(2);
            out.push(r);
        }
    }
}

pub(crate) fn get_sdst(d: &mut Dec<'_>) -> Option<SDst> {
    Some(match d.u8()? {
        0 => SDst::Dir(dir_from(d.u8()?)?),
        1 => SDst::Proc,
        2 => SDst::Reg(d.u8()?),
        _ => return None,
    })
}
