//! The one byte encoding behind the cache key, the disk entry and the wire
//! protocol: little-endian, length-prefixed, no external dependencies.
//!
//! ## Key invariants
//!
//! 1. **Total decoders.** Every [`Codec::get`] returns `None` on bytes it
//!    cannot decode — truncated, bit-flipped or random input never panics.
//!    Disk entries and wire frames are adversarial input.
//! 2. **Length-prefix allocation guard.** Every sequence count is read
//!    through [`Dec::len`], which rejects a count larger than the bytes that
//!    remain (every element encodes to at least one byte), and a decoded
//!    sequence never reserves more memory than those bytes. A corrupt length
//!    cannot allocate beyond the buffer it came in.
//! 3. **Identical bytes for key, disk and wire.** [`KeyContext`], the disk
//!    envelope and [`crate::wire`] all write through the impls below, so a
//!    new `CompilerOptions` or `MachineConfig` field is one edit here and
//!    lands in the cache key and the request bytes together. Changing any
//!    encoding changes keys and stored bundles: bump [`FORMAT_VERSION`].
//! 4. **One declaration per type.** Each encoded type has one [`Codec`] impl,
//!    here and nowhere else, that writes and reads it. Structs list their
//!    fields once ([`record!`]), enums their tags once ([`tagged!`]), and
//!    unit-like enums are their position in a code table ([`coded!`]). The
//!    deliberate exceptions are spelled out where they occur: the key's value
//!    renumbering and terminator form ([`canonical_block_bytes`]), the
//!    reserved bytes of [`CompilerOptions`], the `u16` pair count of
//!    [`SInst::Route`] and the sorted order of a program's value names.
//!
//! [`KeyContext`]: crate::blockcache::KeyContext

use crate::blockcache::{BlockBundle, CacheKey, CacheTotals};
use crate::driver::BlockReport;
use crate::exact::{ExactOutcome, ExactReport, Lane};
use crate::layout::{ArrayClass, DataLayout};
use crate::options::{CompilerOptions, PlacementAlgorithm, PriorityScheme, Strategy};
use crate::partition::{PlacementLog, PlacementStep, CLUSTER_COMM_COST};
use crate::regalloc::AllocResult;
use crate::schedule::{PredOpKind, PredictedBlock};
use crate::wire::{
    ClientRow, CompileRequest, CompileResponse, CompiledCounters, MetricsFormat, MetricsResponse,
    StatsResponse,
};
use raw_ir::{
    ArrayDecl, ArrayId, BinOp, Block, BlockId, Imm, Inst, InstKind, MemHome, Program, SourceSpan,
    Terminator, Ty, UnOp, ValueId, VarDecl, VarId,
};
use raw_machine::isa::{AluOp, Dir, Dst, PInst, SDst, SInst, SSrc, Src};
use raw_machine::{
    LatencyModel, MachineConfig, MachineProgram, TileCode, TileId, TileMask, MAX_TILES,
};
use raw_testkit::{hash64, hash64_with};
use std::collections::HashMap;

/// Basis of the second, independent FNV pass.
const HI_BASIS: u64 = 0x8422_2325_cbf2_9ce4;

/// Magic prefix of on-disk cache entries.
const MAGIC: [u8; 8] = *b"RAWCCBC\n";
/// Bump whenever the bundle encoding or key derivation changes.
pub(crate) const FORMAT_VERSION: u32 = 3;

/// 128-bit content hash of the concatenation of `parts`: two FNV-1a passes
/// from independent bases, returned as `(standard-basis pass, second pass)`.
pub(crate) fn hash128(parts: &[&[u8]]) -> (u64, u64) {
    let pass = |basis| parts.iter().fold(basis, |h, part| hash64_with(h, part));
    // Hashing nothing yields the standard FNV-1a offset basis.
    (pass(hash64(&[])), pass(HI_BASIS))
}

/// A type with one byte encoding, written by `put` and read back by `get`.
pub(crate) trait Codec {
    /// Appends the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value; `None` on any bytes `put` could not have written.
    fn get(d: &mut Dec<'_>) -> Option<Self>
    where
        Self: Sized;
}

/// The encoding of `v` alone.
pub(crate) fn encode<T: Codec>(v: &T) -> Vec<u8> {
    // Most bundles fit, so the common encode never regrows.
    let mut out = Vec::with_capacity(1024);
    v.put(&mut out);
    out
}

/// Decodes a whole buffer as one `T`: `None` on malformed or trailing bytes.
pub(crate) fn decode<T: Codec>(bytes: &[u8]) -> Option<T> {
    let mut d = Dec::new(bytes);
    let value = T::get(&mut d)?;
    d.at_end().then_some(value)
}

/// Defensive little-endian reader: every accessor returns `None` past the end.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }
    fn u8(&mut self) -> Option<u8> {
        let [b] = self.array()?;
        Some(b)
    }
    /// A sequence count: rejects one larger than the bytes that remain, since
    /// every element encodes to at least one byte.
    fn len(&mut self) -> Option<usize> {
        let n = usize::get(self)?;
        (n <= self.remaining()).then_some(n)
    }
    fn str(&mut self) -> Option<&'a str> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).ok()
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Declaration macros: each writes one `Codec` impl from one list.
// ---------------------------------------------------------------------------

/// One field of a [`record!`]: its own encoding, or its code in `$table`.
macro_rules! field {
    (put $out:ident, $v:expr) => {
        $v.put($out)
    };
    (put $out:ident, $v:expr, $table:ident) => {
        $out.push(code_of(&$table, &$v))
    };
    (get $d:ident) => {
        Codec::get($d)?
    };
    (get $d:ident, $table:ident) => {
        from_code($d, &$table)?
    };
}

/// A struct encoded as the listed fields, in order. `field in TABLE` writes
/// the field as its position in a code table; `if check` rejects a decoded
/// value the compiler must never see.
macro_rules! record {
    ($($ty:ident { $($field:ident $(in $table:ident)?),* $(,)? } $(if $check:path)?;)*) => {$(
        impl Codec for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(field!(put out, self.$field $(, $table)?);)*
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Option<Self> {
                let value = $ty { $($field: field!(get d $(, $table)?)),* };
                $(if !$check(&value) {
                    return None;
                })?
                Some(value)
            }
        }
    )*};
}

/// An enum encoded as a tag byte, then the variant's fields in the order
/// listed.
macro_rules! tagged {
    ($($ty:ident {
        $($tag:literal => $variant:ident $(($($pos:ident),*))? $({ $($named:ident),* })?),* $(,)?
    })*) => {$(
        impl Codec for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($($pos),*))? $({ $($named),* })? => {
                        out.push($tag);
                        $($($pos.put(out);)*)?
                        $($($named.put(out);)*)?
                    })*
                }
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Option<Self> {
                Some(match d.u8()? {
                    $($tag => $ty::$variant
                        $(($({
                            let $pos = Codec::get(d)?;
                            $pos
                        }),*))?
                        $({ $($named: Codec::get(d)?),* })?,)*
                    _ => return None,
                })
            }
        }
    )*};
}

/// Unit-like values encoded as their position in a code table.
macro_rules! coded {
    ($($ty:ty: $table:expr;)*) => {$(
        impl Codec for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.push(code_of(&$table, self));
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Option<Self> {
                from_code(d, &$table)
            }
        }
    )*};
}

/// Fixed-width integers, little-endian.
macro_rules! le_int {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Option<Self> {
                Some(<$ty>::from_le_bytes(d.array()?))
            }
        }
    )*};
}

/// Index newtypes, as their `u32` index.
macro_rules! id {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                // Every id is minted from a u32.
                (self.index() as u32).put(out);
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Option<Self> {
                u32::get(d).map(<$ty>::from_raw)
            }
        }
    )*};
}

fn code_of<T: PartialEq>(table: &[T], value: &T) -> u8 {
    // Each table lists every value its type can take.
    let code = table.iter().position(|t| t == value);
    code.expect("every value has a row in its code table") as u8
}

fn from_code<T: Copy>(d: &mut Dec<'_>, table: &[T]) -> Option<T> {
    table.get(usize::from(d.u8()?)).copied()
}

// ---------------------------------------------------------------------------
// Primitives and containers.
// ---------------------------------------------------------------------------

le_int!(u8, u16, u32, u64, i32, i64);
id!(ValueId, BlockId, ArrayId, VarId, TileId);

impl Codec for usize {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        usize::try_from(u64::get(d)?).ok()
    }
}

impl Codec for f32 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        u32::get(d).map(f32::from_bits)
    }
}

impl Codec for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        match d.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Codec for str {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Codec for String {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.as_str().put(out);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        d.str().map(str::to_owned)
    }
}

impl<T: Codec> Codec for Option<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        match d.u8()? {
            0 => Some(None),
            1 => T::get(d).map(Some),
            _ => None,
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::get(d)?, B::get(d)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        let n = d.len()?;
        let mut v = Vec::with_capacity(n.min(d.remaining() / size_of::<T>().max(1)));
        for _ in 0..n {
            v.push(T::get(d)?);
        }
        Some(v)
    }
}

// ---------------------------------------------------------------------------
// Code tables: a value's code is its position.
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

/// The winning lane, `None` for the plain heuristic strategy.
const LANES: [Option<Lane>; 4] = [
    None,
    Some(Lane::Greedy),
    Some(Lane::Annealing),
    Some(Lane::Exact),
];

const PLACEMENTS: [&str; 4] = ["identity", "greedy-swap", "annealing", "exact"];

coded! {
    BinOp: BINOPS;
    UnOp: UNOPS;
    Dir: Dir::ALL;
    Ty: [Ty::I32, Ty::F32];
    LatencyModel: [LatencyModel::Table1, LatencyModel::Unit];
    PriorityScheme: {
        use PriorityScheme::*;
        [LevelFertility, LevelOnly, SourceOrder]
    };
    PredOpKind: [PredOpKind::Comp, PredOpKind::Send, PredOpKind::Recv];
    ExactOutcome: [ExactOutcome::Certified, ExactOutcome::Budget, ExactOutcome::TooLarge];
    MetricsFormat: [MetricsFormat::Prometheus, MetricsFormat::Json];
}

// ---------------------------------------------------------------------------
// IR: programs on the wire, blocks in the cache key.
// ---------------------------------------------------------------------------

tagged! {
    Imm { 0 => I(v), 1 => F(v) }
    MemHome { 0 => Static(residue), 1 => Dynamic }
    InstKind {
        0 => Const(imm),
        1 => Un(op, a),
        2 => Bin(op, a, b),
        3 => Load { array, index, home },
        4 => Store { array, index, value, home },
        5 => ReadVar(var),
        6 => WriteVar(var, x),
    }
    Terminator { 0 => Jump(target), 1 => Branch { cond, if_true, if_false }, 2 => Halt }
}

record! {
    SourceSpan { line, col };
    Inst { span, dst, kind };
    VarDecl { name, ty, init };
    ArrayDecl { name, ty, dims, init };
    Block { name, insts, term };
    Program { name, vars, arrays, blocks, entry, value_types, value_names };
}

/// Value names go out sorted by value, so equal programs encode to equal
/// bytes.
impl Codec for HashMap<ValueId, String> {
    fn put(&self, out: &mut Vec<u8>) {
        let mut names: Vec<_> = self.iter().collect();
        names.sort_unstable();
        names.len().put(out);
        for (v, name) in names {
            v.put(out);
            name.put(out);
        }
    }
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        Some(Vec::<(ValueId, String)>::get(d)?.into_iter().collect())
    }
}

/// Canonical byte encoding of one block's compile-relevant IR, the block's
/// half of its cache key.
///
/// Instructions are written as on the wire, but with `ValueId`s renumbered
/// by first appearance (block-local values are monotone in definition order,
/// so this is a bijection that preserves every ordering the compiler
/// observes): two blocks identical up to the program-global numbering, such
/// as unroll clones, share a key. The block name and jump targets are left
/// out — only the link phase reads them — but the terminator's kind and a
/// branch's condition are kept, since they change codegen; spans are kept,
/// since they are provenance output.
pub fn canonical_block_bytes(block: &Block) -> Vec<u8> {
    let mut out = Vec::with_capacity(block.insts.len() * 16 + 16);
    let mut rank: HashMap<ValueId, u32> = HashMap::new();
    let mut canon = |v: ValueId| {
        let next = rank.len() as u32;
        ValueId::from_raw(*rank.entry(v).or_insert(next))
    };
    block.insts.len().put(&mut out);
    for inst in &block.insts {
        // Operands are renumbered in the order the encoding writes them.
        let dst = inst.dst.map(&mut canon);
        let kind = match inst.kind {
            InstKind::Un(op, a) => InstKind::Un(op, canon(a)),
            InstKind::Bin(op, a, b) => InstKind::Bin(op, canon(a), canon(b)),
            InstKind::Load { array, index, home } => InstKind::Load {
                array,
                index: canon(index),
                home,
            },
            InstKind::Store {
                array,
                index,
                value,
                home,
            } => InstKind::Store {
                array,
                index: canon(index),
                value: canon(value),
                home,
            },
            InstKind::WriteVar(var, x) => InstKind::WriteVar(var, canon(x)),
            InstKind::Const(_) | InstKind::ReadVar(_) => inst.kind.clone(),
        };
        let span = inst.span;
        Inst { dst, kind, span }.put(&mut out);
    }
    match block.term {
        Terminator::Jump(_) => out.push(0),
        Terminator::Halt => out.push(1),
        Terminator::Branch { cond, .. } => {
            out.push(2);
            canon(cond).put(&mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Machine config and compiler options.
// ---------------------------------------------------------------------------

/// A decoded mesh the machine can model; anything larger would make the
/// compiler allocate per tile pair before it found out.
fn mesh_fits(c: &MachineConfig) -> bool {
    c.rows.checked_mul(c.cols).is_some_and(|n| n <= MAX_TILES)
}

// Every field of the machine config. Two fault masks with the same live
// count produce different placements, so the mask bits themselves go in.
record! {
    MachineConfig {
        rows, cols, gprs, switch_regs, mem_latency, mem_words, latency, port_capacity, dyn_fifo,
        step_limit, faulty,
    } if mesh_fits;
}

impl Codec for TileMask {
    fn put(&self, out: &mut Vec<u8>) {
        self.bits().put(out);
    }
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        let bits = u64::get(d)?;
        let mut mask = TileMask::EMPTY;
        for i in (0..64).filter(|i| bits >> i & 1 == 1) {
            mask.insert(TileId::from_raw(i));
        }
        Some(mask)
    }
}

tagged! {
    PlacementAlgorithm { 0 => GreedySwap, 1 => Annealing { seed }, 2 => None }
    Strategy { 0 => Heuristic, 1 => Exact, 2 => Portfolio { seed } }
}

/// Every *semantic* compiler option — the fields that can change an
/// artifact. `threads` cannot, so it is not here: the cache key stops at
/// these bytes, the wire protocol appends the thread count itself, and a
/// decoded `threads` is 0 for the caller to fill.
impl Codec for CompilerOptions {
    fn put(&self, out: &mut Vec<u8>) {
        self.clustering.put(out);
        self.placement.put(out);
        // Reserved: the byte a retired boolean alias of `placement: None`
        // used to occupy. Always written as 1 so keys and frames keep their
        // layout.
        out.push(1);
        self.priority.put(out);
        // Where the retired clustering-latency option sat: now the constant,
        // so keys and frames keep their layout (and a changed constant
        // changes the key). Ignored on read.
        (CLUSTER_COMM_COST as u32).put(out);
        self.fold_communication.put(out);
        // A cached heuristic bundle must never satisfy a portfolio request
        // (and vice versa), so the strategy and its seed are semantic.
        self.strategy.put(out);
        self.exact_budget.put(out);
    }
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        let clustering = bool::get(d)?;
        let placement = PlacementAlgorithm::get(d)?;
        // An old writer's 0 in the reserved byte meant "no placement",
        // whatever algorithm the byte before it named.
        let placement = if bool::get(d)? {
            placement
        } else {
            PlacementAlgorithm::None
        };
        let priority = PriorityScheme::get(d)?;
        u32::get(d)?; // the retired clustering latency
        Some(CompilerOptions {
            clustering,
            placement,
            priority,
            fold_communication: bool::get(d)?,
            strategy: Strategy::get(d)?,
            exact_budget: u64::get(d)?,
            threads: 0,
        })
    }
}

tagged! {
    ArrayClass { 0 => Static, 1 => Dynamic { issue_tile } }
}

// The data layout, every field in declaration order (the cache key's
// environment half, with the config and options).
record! {
    DataLayout { n_tiles, live, var_home, var_addr, array_base, array_class, spill_base };
}

// ---------------------------------------------------------------------------
// Machine instructions (bundles on disk, machine programs on the wire).
// ---------------------------------------------------------------------------

tagged! {
    Src { 0 => Reg(r), 1 => Imm(imm), 2 => PortIn }
    Dst { 0 => Reg(r), 1 => PortOut }
    AluOp { 0 => Bin(op), 1 => Un(op) }
    PInst {
        0 => Alu { op, dst, a, b },
        1 => Load { dst, addr, offset },
        2 => Store { value, addr, offset },
        3 => DLoad { dst, gaddr },
        4 => DStore { gaddr, value },
        5 => Jump(target),
        6 => Bnez { cond, target },
        7 => Beqz { cond, target },
        8 => Halt,
        9 => Nop,
    }
    SSrc { 0 => Dir(dir), 1 => Proc, 2 => Reg(r) }
    SDst { 0 => Dir(dir), 1 => Proc, 2 => Reg(r) }
}

impl Codec for SInst {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            SInst::Route(pairs) => {
                out.push(0);
                // A `u16` count, unlike every other sequence: a route has at
                // most one pair per switch output.
                (pairs.len() as u16).put(out);
                for pair in pairs {
                    pair.put(out);
                }
            }
            SInst::Bnez { reg, target } => {
                out.push(1);
                reg.put(out);
                target.put(out);
            }
            SInst::Beqz { reg, target } => {
                out.push(2);
                reg.put(out);
                target.put(out);
            }
            SInst::Jump(target) => {
                out.push(3);
                target.put(out);
            }
            SInst::Halt => out.push(4),
            SInst::Nop => out.push(5),
        }
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.u8()? {
            0 => {
                let n = u16::get(d)?;
                let mut pairs = Vec::with_capacity(usize::from(n).min(d.remaining()));
                for _ in 0..n {
                    pairs.push(Codec::get(d)?);
                }
                SInst::Route(pairs)
            }
            1 => SInst::Bnez {
                reg: u8::get(d)?,
                target: usize::get(d)?,
            },
            2 => SInst::Beqz {
                reg: u8::get(d)?,
                target: usize::get(d)?,
            },
            3 => SInst::Jump(usize::get(d)?),
            4 => SInst::Halt,
            5 => SInst::Nop,
            _ => return None,
        })
    }
}

record! {
    TileCode { proc, switch };
    MachineProgram { tiles };
}

// ---------------------------------------------------------------------------
// Block bundles and their disk entries.
// ---------------------------------------------------------------------------

record! {
    AllocResult { insts, prov, cond_reg, n_spilled, spill_slots };
    PredictedBlock { makespan, proc_ops, route_cycles };
    PlacementStep { step, bins, delta };
    PlacementLog { algorithm in PLACEMENTS, initial_cost, final_cost, steps };
    ExactReport { outcome, makespan, lower_bound, expanded };
    BlockReport {
        n_nodes, n_clusters, n_comm_paths, makespan, spills, predicted, placement,
        lane in LANES, exact,
    };
    BlockBundle { report, phys, switch, cond_producer, cond_node, node_tile, node_bin };
    CacheKey { lo, hi };
}

/// A disk entry for `key`: magic, format version, key, the payload's length
/// and checksum, then the payload.
pub(crate) fn seal(key: &CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut entry = Vec::with_capacity(payload.len() + 44);
    entry.extend_from_slice(&MAGIC);
    FORMAT_VERSION.put(&mut entry);
    key.put(&mut entry);
    payload.len().put(&mut entry);
    hash64(payload).put(&mut entry);
    entry.extend_from_slice(payload);
    entry
}

/// The payload of a [`seal`]ed entry for `expect`; `None` on any mismatch of
/// magic, version, key, length or checksum.
pub(crate) fn unseal<'a>(entry: &'a [u8], expect: &CacheKey) -> Option<&'a [u8]> {
    let mut d = Dec::new(entry);
    if d.take(MAGIC.len())? != MAGIC
        || u32::get(&mut d)? != FORMAT_VERSION
        || CacheKey::get(&mut d)? != *expect
    {
        return None;
    }
    let len = usize::get(&mut d)?;
    let sum = u64::get(&mut d)?;
    let payload = d.rest();
    (payload.len() == len && hash64(payload) == sum).then_some(payload)
}

// ---------------------------------------------------------------------------
// Wire messages.
// ---------------------------------------------------------------------------

/// The compile request's parts, borrowed, so a client encodes a program
/// without cloning it.
pub(crate) fn put_request(
    out: &mut Vec<u8>,
    client: &str,
    program: &Program,
    config: &MachineConfig,
    options: &CompilerOptions,
) {
    client.put(out);
    program.put(out);
    config.put(out);
    options.put(out);
    // The one option outside the cache key: it sizes the server's worker
    // pool and changes no artifact.
    options.threads.put(out);
}

impl Codec for CompileRequest {
    fn put(&self, out: &mut Vec<u8>) {
        put_request(
            out,
            &self.client,
            &self.program,
            &self.config,
            &self.options,
        );
    }
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        let client = String::get(d)?;
        let program = Program::get(d)?;
        let config = MachineConfig::get(d)?;
        let mut options = CompilerOptions::get(d)?;
        options.threads = usize::get(d)?;
        Some(CompileRequest {
            client,
            program,
            config,
            options,
        })
    }
}

/// Splits `bytes` after one leading string: the string and the rest,
/// undecoded.
pub(crate) fn split_str(bytes: &[u8]) -> Option<(&str, &[u8])> {
    let mut d = Dec::new(bytes);
    let s = d.str()?;
    Some((s, d.rest()))
}

record! {
    CompiledCounters { hits, misses, coalesced, evictions, evicted_bytes, wall_us, threads };
    CacheTotals {
        hits_mem, hits_disk, misses, coalesced, evictions, evicted_bytes, resident_bytes, entries,
        disk_rejects,
    };
    ClientRow { client, requests, hits, misses, coalesced };
    StatsResponse { cache, requests, p50_us, p90_us, p99_us, memo_hits, uptime_us, clients };
    MetricsResponse { format, body };
}

/// The machine program, then its counters as one [`CompiledCounters`] tail.
impl Codec for CompileResponse {
    fn put(&self, out: &mut Vec<u8>) {
        self.machine_program.put(out);
        self.counters().put(out);
    }
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        let machine_program = MachineProgram::get(d)?;
        let counters = CompiledCounters::get(d)?;
        Some(CompileResponse::from_parts(machine_program, counters))
    }
}
