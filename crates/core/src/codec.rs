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
//!    [`SInst::Route`] (a bundle's [`RoutePairs`] count is a `usize`; both
//!    decode through the ISA's checked [`RoutePairs::push`]) and the
//!    sorted order of a program's value names.
//! 5. **One content hash.** [`hash128`] addresses the bytes these impls
//!    write: the block cache key, the daemon's memo key and (one 64-bit
//!    half) the disk entry's payload checksum. It reads 16 little-endian
//!    bytes per round through two folded-multiply lanes and gives the same
//!    value on every host. It is fast, not collision-resistant: a cache
//!    directory or daemon shared with an adversary is trusted as before.
//! 6. **A bundle stores what its readers read.** Its per-tile instruction
//!    and switch streams are the block's schedule; the [`BlockReport`]
//!    beside them keeps only per-tile issue and route counts of it
//!    ([`TileCounts`]), never a second per-slot copy.
//!
//! [`KeyContext`]: crate::blockcache::KeyContext

use crate::blockcache::{BlockBundle, CacheKey};
use crate::driver::{BlockReport, TileCounts};
use crate::exact::{ExactOutcome, ExactReport, Lane};
use crate::layout::{ArrayClass, DataLayout};
use crate::options::{CompilerOptions, PlacementAlgorithm, PriorityScheme, Strategy};
use crate::partition::{PlacementLog, PlacementStep, CLUSTER_COMM_COST};
use crate::regalloc::AllocResult;
use crate::wire::{
    CompileRequest, CompileResponse, CompiledCounters, MetricsFormat, MetricsResponse,
};
use raw_ir::{
    ArrayDecl, ArrayId, BinOp, Block, BlockId, Imm, Inst, InstKind, MemHome, Program, SourceSpan,
    Terminator, Ty, UnOp, ValueId, VarDecl, VarId,
};
use raw_machine::isa::{AluOp, Dir, Dst, PInst, RoutePairs, SDst, SInst, SSrc, Src};
use raw_machine::{LatencyModel, MachineConfig, MachineProgram, TileCode, TileId, TileMask};
use std::collections::HashMap;

/// Magic prefix of on-disk cache entries.
const MAGIC: [u8; 8] = *b"RAWCCBC\n";
/// Bump whenever the bundle encoding, key derivation or content hash
/// changes, or the compiler makes a different bundle from the same key.
pub(crate) const FORMAT_VERSION: u32 = 7;

// ---------------------------------------------------------------------------
// The content hash (key invariant 5).
// ---------------------------------------------------------------------------

/// Odd 64-bit constants with balanced bits: the lanes' round secrets (0, 1),
/// their starting states (2, 3), and the finalization's secrets (all four).
const SECRET: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// Folded multiply: the 128-bit product of `a` and `b`, high half XOR low
/// half, so the low bits carry the well-mixed middle of the product too.
#[inline(always)]
fn mum(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

/// The running state of [`hash128`]: two lanes, the byte count, and the
/// bytes of a round that a part boundary left incomplete.
struct Hash128 {
    lanes: [u64; 2],
    len: u64,
    pending: [u8; 16],
    fill: usize,
}

impl Hash128 {
    fn new() -> Self {
        Hash128 {
            lanes: [SECRET[2], SECRET[3]],
            len: 0,
            pending: [0; 16],
            fill: 0,
        }
    }

    /// One round: both lanes read both words, each with its own secret and
    /// the word order swapped, and fold in their own previous state.
    #[inline(always)]
    fn round(&mut self, bytes: &[u8; 16]) {
        let w0 = u64::from_le_bytes(bytes[..8].try_into().expect("a round is two words"));
        let w1 = u64::from_le_bytes(bytes[8..].try_into().expect("a round is two words"));
        let [a, b] = self.lanes;
        self.lanes = [mum(w0 ^ SECRET[0], w1 ^ a), mum(w1 ^ SECRET[1], w0 ^ b)];
    }

    /// Absorbs `bytes` as if appended to everything written so far.
    fn write(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.fill > 0 {
            let n = bytes.len().min(16 - self.fill);
            self.pending[self.fill..self.fill + n].copy_from_slice(&bytes[..n]);
            self.fill += n;
            bytes = &bytes[n..];
            if self.fill < 16 {
                return;
            }
            let full = self.pending;
            self.round(&full);
            self.fill = 0;
        }
        let mut rounds = bytes.chunks_exact(16);
        for round in &mut rounds {
            self.round(round.try_into().expect("exact 16-byte chunks"));
        }
        let rest = rounds.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    /// Zero-pads a last partial round, then crosses the lanes with the
    /// length: each half depends on both lanes, so a change that reaches
    /// either lane moves both halves, and a zero-padded tail differs from
    /// real zero bytes by its length.
    fn finish(mut self) -> (u64, u64) {
        if self.fill > 0 {
            self.pending[self.fill..].fill(0);
            let last = self.pending;
            self.round(&last);
        }
        let [a, b] = self.lanes;
        let n = self.len;
        (
            mum(a ^ SECRET[1], b ^ n ^ SECRET[2]),
            mum(b ^ SECRET[0], a ^ n ^ SECRET[3]),
        )
    }
}

/// 128-bit content hash of the concatenation of `parts`, as `(lo, hi)`.
/// Split points do not matter: `hash128(&[a, b]) == hash128(&[ab])`.
pub(crate) fn hash128(parts: &[&[u8]]) -> (u64, u64) {
    let mut h = Hash128::new();
    for part in parts {
        h.write(part);
    }
    h.finish()
}

/// A disk entry's payload checksum: the low half of its [`hash128`].
fn checksum(payload: &[u8]) -> u64 {
    hash128(&[payload]).0
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

/// The same bytes as the `Vec` of its pairs.
impl Codec for RoutePairs {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for pair in self.iter() {
            pair.put(out);
        }
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Option<Self> {
        let n = d.len()?;
        route_pairs(d, n)
    }
}

/// `n` route pairs, built through the ISA's checked [`RoutePairs::push`]:
/// more than six pairs or a repeated destination is no route.
fn route_pairs(d: &mut Dec<'_>, n: usize) -> Option<RoutePairs> {
    let mut pairs = RoutePairs::EMPTY;
    for _ in 0..n {
        pairs.push(Codec::get(d)?).ok()?;
    }
    Some(pairs)
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

/// The lane that shipped a block's schedule, `None` for the plain heuristic
/// strategy. `Lane::Annealing` is never produced but keeps its code.
const LANES: [Option<Lane>; 4] = [
    None,
    Some(Lane::Greedy),
    Some(Lane::Annealing),
    Some(Lane::Exact),
];

/// Placement-log algorithm names. The retired `"annealing"` keeps its code,
/// so `"exact"` stays at 3.
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
    ExactOutcome: [ExactOutcome::Certified, ExactOutcome::Budget, ExactOutcome::TooLarge];
    // Code 1 is reserved: it named a retired JSON rendering.
    MetricsFormat: [MetricsFormat::Prometheus];
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
        3 => Load { array, index, offset, home },
        4 => Store { array, index, offset, value, home },
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
            InstKind::Load {
                array,
                index,
                offset,
                home,
            } => InstKind::Load {
                array,
                index: canon(index),
                offset,
                home,
            },
            InstKind::Store {
                array,
                index,
                offset,
                value,
                home,
            } => InstKind::Store {
                array,
                index: canon(index),
                offset,
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
    c.within_max_tiles()
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

// Placement tag 1 is reserved: it named a retired seeded placement, and a
// request carrying it is malformed.
tagged! {
    PlacementAlgorithm { 0 => GreedySwap, 2 => None }
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
        // A cached heuristic bundle must never satisfy an exact request (and
        // vice versa), so the strategy is semantic.
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
        3 => DLoad { dst, gaddr, offset },
        4 => DStore { value, gaddr, offset },
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
                // A `u16` count, unlike every other sequence (a bundle's
                // `RoutePairs` included): a route has at most six pairs.
                (pairs.len() as u16).put(out);
                for pair in pairs.iter() {
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
                SInst::Route(route_pairs(d, n.into())?)
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
    TileCounts { issues, routes };
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
    checksum(payload).put(&mut entry);
    entry.extend_from_slice(payload);
    entry
}

/// Bytes of a [`seal`]ed entry's header: magic, then format version.
pub(crate) const HEADER_LEN: usize = MAGIC.len() + 4;

/// The format version a disk entry's header declares; `None` when `header`
/// does not start with the entry magic.
pub(crate) fn entry_version(header: &[u8]) -> Option<u32> {
    let mut d = Dec::new(header);
    if d.take(MAGIC.len())? != MAGIC {
        return None;
    }
    u32::get(&mut d)
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
    (payload.len() == len && checksum(payload) == sum).then_some(payload)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_pairs_encode_as_the_vec_of_their_pairs() {
        let all = [
            (SSrc::Proc, SDst::Reg(0)),
            (SSrc::Proc, SDst::Proc),
            (SSrc::Dir(Dir::North), SDst::Dir(Dir::East)),
            (SSrc::Reg(3), SDst::Dir(Dir::South)),
            (SSrc::Proc, SDst::Dir(Dir::West)),
            (SSrc::Proc, SDst::Dir(Dir::North)),
        ];
        for n in 0..=all.len() {
            let pairs: RoutePairs = all[..n].iter().copied().collect();
            let bytes = encode(&pairs);
            assert_eq!(bytes, encode(&all[..n].to_vec()), "{n} pairs");
            assert_eq!(decode::<RoutePairs>(&bytes), Some(pairs));
            let inst = SInst::Route(pairs);
            assert_eq!(encode(&inst), [&[0, n as u8, 0], &bytes[8..]].concat());
            assert_eq!(decode::<SInst>(&encode(&inst)), Some(inst));
        }
        // A seventh pair or a repeated destination is no route, in a bundle
        // or behind a switch instruction's tag 0 and `u16` count.
        let seventh = [&all[..], &[(SSrc::Proc, SDst::Reg(1))]].concat();
        let twice = [&all[..3], &[(SSrc::Dir(Dir::West), SDst::Proc)]].concat();
        for bad in [seventh, twice] {
            let bytes = encode(&bad);
            assert_eq!(decode::<RoutePairs>(&bytes), None, "{bad:?}");
            let inst = [&[0, bad.len() as u8, 0], &bytes[8..]].concat();
            assert_eq!(decode::<SInst>(&inst), None, "{bad:?}");
        }
        // Six inline pairs keep a switch instruction within 32 bytes.
        assert!(size_of::<SInst>() <= 32);
    }

    /// `len` bytes of a fixed pattern that repeats only every 256 bytes.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(167).wrapping_add(13))
            .collect()
    }

    #[test]
    fn hash128_is_pinned() {
        // A moved value orphans every cache directory and every daemon memo:
        // change it only together with FORMAT_VERSION.
        const PINNED: [(usize, u64, u64); 12] = [
            (0, 0x33c5_fbba_1f62_a133, 0x75ad_c8bb_5071_9ca7),
            (1, 0xfd5e_1fa8_47ec_d823, 0xf878_0e07_a42c_d777),
            (7, 0xcfe9_5b5a_2507_f81a, 0x853b_a051_89d9_dfb6),
            (8, 0xf035_1d57_f9c0_f074, 0x5f0e_d0e7_8297_3035),
            (9, 0xa216_a930_640d_470c, 0x6ff1_300c_4a2a_81a5),
            (15, 0xa89e_6bcf_4b87_93cd, 0xe816_2dbd_df0c_31c2),
            (16, 0x833a_3245_c015_dcdf, 0x8aa2_30cf_71c4_3cfa),
            (17, 0x16a5_c6d5_7641_3127, 0x7210_ee03_7ebe_9026),
            (31, 0x7ca5_dd1a_3a00_57eb, 0xa27f_4631_20ee_42d4),
            (32, 0xc87b_3206_cc24_4e86, 0xa1d9_8b11_8669_8c35),
            (33, 0xeca6_bd82_1423_7c4e, 0x769b_c0e6_c5b6_ce41),
            (4096, 0x84c9_3745_3fa5_b259, 0xf1ae_2ea1_bcff_8b56),
        ];
        for (len, lo, hi) in PINNED {
            assert_eq!(hash128(&[&pattern(len)]), (lo, hi), "{len} bytes");
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_moves_both_halves() {
        for len in [64, 1024] {
            let mut bytes = pattern(len);
            let (lo, hi) = hash128(&[&bytes]);
            let moved = |(l, h): (u64, u64)| l != lo && h != hi;
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert!(moved(hash128(&[&bytes])), "{len} bytes, bit {bit} flipped");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            for n in 0..len {
                assert!(moved(hash128(&[&bytes[..n]])), "{len} bytes cut to {n}");
            }
        }
    }

    #[test]
    fn split_points_do_not_matter() {
        // Two and three parts, empty ones included, so a round is completed
        // across one and across two part boundaries.
        let bytes = pattern(48);
        let whole = hash128(&[&bytes]);
        for i in 0..=bytes.len() {
            let (a, rest) = bytes.split_at(i);
            assert_eq!(hash128(&[a, rest]), whole, "split at {i}");
            for j in 0..=rest.len() {
                let (b, c) = rest.split_at(j);
                assert_eq!(hash128(&[a, b, c]), whole, "split at {i} and {}", i + j);
            }
        }
    }

    #[test]
    fn key_low_bits_spread_evenly_over_the_shards() {
        // DESIGN.md §11 shard residency: a key lives in shard `lo & 15`.
        // Consecutive counters, bare and followed by a fixed environment
        // the way a block's bytes are followed by its compile's.
        let env = pattern(200);
        for suffix in [&[][..], &env] {
            let mut shards = [0u32; 16];
            for i in 0u64..10_000 {
                shards[(hash128(&[&i.to_le_bytes(), suffix]).0 & 15) as usize] += 1;
            }
            // Chi-squared over 16 shards (15 degrees of freedom): 37.7 is
            // its 0.1 % upper tail.
            let expect = 10_000.0 / 16.0;
            let chi2: f64 = shards
                .iter()
                .map(|&n| (f64::from(n) - expect).powi(2) / expect)
                .sum();
            assert!(chi2 < 37.7, "chi2 {chi2:.1}: {shards:?}");
        }
    }
}
