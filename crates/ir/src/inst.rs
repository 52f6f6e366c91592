//! Instructions, operators, immediates, and the Raw-prototype latency model.
//!
//! Operator latencies follow Table 1 of the paper:
//!
//! | Int op | Cycles | Fp op  | Cycles |
//! |--------|--------|--------|--------|
//! | ADD    | 1      | ADDF   | 2      |
//! | SUB    | 1      | SUBF   | 2      |
//! | MUL    | 12     | MULF   | 4      |
//! | DIV    | 35     | DIVF   | 12     |
//!
//! Two documented extensions beyond Table 1 (see `DESIGN.md`): `SqrtF` (needed by
//! cholesky/tomcatv, priced like `DivF` at 12 cycles) and `AbsF` (sign-bit
//! manipulation, 1 cycle). Logic, shift, compare, move, and conversion ops are
//! single-cycle like `ADD`.

use crate::ids::{ArrayId, ValueId, VarId};
use std::fmt;

/// Source position an instruction was lowered from (1-based line and column).
///
/// `SourceSpan::NONE` (line 0) marks compiler-synthesized instructions with no
/// source counterpart. Spans ride along through every transformation — the
/// unroller, renaming, value numbering, decomposition — so the trace
/// layer can attribute machine cycles back to Mini-C lines. They are metadata
/// only: [`Inst`] equality ignores them (see `DESIGN.md` §10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct SourceSpan {
    /// 1-based source line, or 0 when synthesized.
    pub line: u32,
    /// 1-based source column, or 0 when synthesized.
    pub col: u32,
}

impl SourceSpan {
    /// The "no source position" span (line 0, col 0).
    pub const NONE: SourceSpan = SourceSpan { line: 0, col: 0 };

    /// Creates a span at a 1-based line and column.
    pub fn new(line: u32, col: u32) -> Self {
        SourceSpan { line, col }
    }

    /// True if this span points at real source text.
    pub fn is_some(self) -> bool {
        self.line != 0
    }
}

impl fmt::Display for SourceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_some() {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            f.write_str("<none>")
        }
    }
}

/// The two value types of the Raw prototype.
///
/// The prototype has no double-precision floats; the paper converts all FP to
/// single precision (§6), and so do we.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Ty {
    /// 32-bit two's-complement integer.
    #[default]
    I32,
    /// 32-bit IEEE-754 single-precision float.
    F32,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I32 => write!(f, "i32"),
            Ty::F32 => write!(f, "f32"),
        }
    }
}

/// A compile-time immediate: one machine word, integer or float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Imm {
    /// Integer immediate.
    I(i32),
    /// Single-precision float immediate.
    F(f32),
}

impl Imm {
    /// The type of this immediate.
    pub fn ty(self) -> Ty {
        match self {
            Imm::I(_) => Ty::I32,
            Imm::F(_) => Ty::F32,
        }
    }

    /// Raw 32-bit encoding (floats as IEEE-754 bits), as stored in tile memory.
    pub fn to_bits(self) -> u32 {
        match self {
            Imm::I(v) => v as u32,
            Imm::F(v) => v.to_bits(),
        }
    }

    /// Decodes a raw word under the given type.
    pub fn from_bits(bits: u32, ty: Ty) -> Self {
        match ty {
            Ty::I32 => Imm::I(bits as i32),
            Ty::F32 => Imm::F(f32::from_bits(bits)),
        }
    }

    /// Bit-exact equality (distinguishes NaN payloads, unlike `PartialEq` on `f32`).
    pub fn bits_eq(self, other: Imm) -> bool {
        self.ty() == other.ty() && self.to_bits() == other.to_bits()
    }
}

impl From<i32> for Imm {
    fn from(v: i32) -> Self {
        Imm::I(v)
    }
}

impl From<f32> for Imm {
    fn from(v: f32) -> Self {
        Imm::F(v)
    }
}

impl fmt::Display for Imm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Imm::I(v) => write!(f, "{v}"),
            Imm::F(v) => write!(f, "{v:?}f"),
        }
    }
}

/// Binary operators in three-operand form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    // Integer arithmetic (Table 1).
    /// Integer add, 1 cycle.
    Add,
    /// Integer subtract, 1 cycle.
    Sub,
    /// Integer multiply, 12 cycles.
    Mul,
    /// Integer divide, 35 cycles.
    Div,
    /// Integer remainder, 35 cycles (shares the divider).
    Rem,
    // Bitwise / shifts, 1 cycle.
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left logical (shift amount taken mod 32).
    Shl,
    /// Shift right arithmetic (shift amount taken mod 32).
    Shr,
    /// Shift right logical (shift amount taken mod 32).
    Shru,
    // Integer comparisons, 1 cycle, produce 0/1.
    /// Set if less-than (signed).
    Slt,
    /// Set if less-or-equal (signed).
    Sle,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
    // Floating point (Table 1).
    /// FP add, 2 cycles.
    AddF,
    /// FP subtract, 2 cycles.
    SubF,
    /// FP multiply, 4 cycles.
    MulF,
    /// FP divide, 12 cycles.
    DivF,
    // FP comparisons, 2 cycles (priced like AddF), produce integer 0/1.
    /// Set if FP less-than.
    FLt,
    /// Set if FP less-or-equal.
    FLe,
    /// Set if FP equal.
    FEq,
}

impl BinOp {
    /// Latency in cycles on the Raw prototype (Table 1 plus documented extensions).
    pub fn latency(self) -> u32 {
        use BinOp::*;
        match self {
            Add | Sub | And | Or | Xor | Shl | Shr | Shru | Slt | Sle | Seq | Sne => 1,
            Mul => 12,
            Div | Rem => 35,
            AddF | SubF | FLt | FLe | FEq => 2,
            MulF => 4,
            DivF => 12,
        }
    }

    /// Result type of the operator.
    pub fn result_ty(self) -> Ty {
        use BinOp::*;
        match self {
            AddF | SubF | MulF | DivF => Ty::F32,
            _ => Ty::I32,
        }
    }

    /// True if swapping the operands leaves the result unchanged.
    pub fn commutes(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            Add | Mul | And | Or | Xor | Seq | Sne | AddF | MulF | FEq
        )
    }

    /// Operand type expected by the operator.
    pub fn operand_ty(self) -> Ty {
        use BinOp::*;
        match self {
            AddF | SubF | MulF | DivF | FLt | FLe | FEq => Ty::F32,
            _ => Ty::I32,
        }
    }

    /// Evaluates the operator on two immediates (reference semantics).
    ///
    /// Integer overflow wraps; integer division by zero yields 0 (the simulator
    /// does the same, so golden-model comparisons stay meaningful on degenerate
    /// inputs from property tests).
    pub fn eval(self, a: Imm, b: Imm) -> Imm {
        use BinOp::*;
        match self {
            Add => Imm::I(a.as_i32().wrapping_add(b.as_i32())),
            Sub => Imm::I(a.as_i32().wrapping_sub(b.as_i32())),
            Mul => Imm::I(a.as_i32().wrapping_mul(b.as_i32())),
            Div => {
                let (x, y) = (a.as_i32(), b.as_i32());
                Imm::I(if y == 0 { 0 } else { x.wrapping_div(y) })
            }
            Rem => {
                let (x, y) = (a.as_i32(), b.as_i32());
                Imm::I(if y == 0 { 0 } else { x.wrapping_rem(y) })
            }
            And => Imm::I(a.as_i32() & b.as_i32()),
            Or => Imm::I(a.as_i32() | b.as_i32()),
            Xor => Imm::I(a.as_i32() ^ b.as_i32()),
            Shl => Imm::I(a.as_i32().wrapping_shl(b.as_i32() as u32)),
            Shr => Imm::I(a.as_i32().wrapping_shr(b.as_i32() as u32)),
            Shru => Imm::I(((a.as_i32() as u32).wrapping_shr(b.as_i32() as u32)) as i32),
            Slt => Imm::I((a.as_i32() < b.as_i32()) as i32),
            Sle => Imm::I((a.as_i32() <= b.as_i32()) as i32),
            Seq => Imm::I((a.as_i32() == b.as_i32()) as i32),
            Sne => Imm::I((a.as_i32() != b.as_i32()) as i32),
            AddF => Imm::F(a.as_f32() + b.as_f32()),
            SubF => Imm::F(a.as_f32() - b.as_f32()),
            MulF => Imm::F(a.as_f32() * b.as_f32()),
            DivF => Imm::F(a.as_f32() / b.as_f32()),
            FLt => Imm::I((a.as_f32() < b.as_f32()) as i32),
            FLe => Imm::I((a.as_f32() <= b.as_f32()) as i32),
            FEq => Imm::I((a.as_f32() == b.as_f32()) as i32),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Shru => "shru",
            BinOp::Slt => "slt",
            BinOp::Sle => "sle",
            BinOp::Seq => "seq",
            BinOp::Sne => "sne",
            BinOp::AddF => "add.f",
            BinOp::SubF => "sub.f",
            BinOp::MulF => "mul.f",
            BinOp::DivF => "div.f",
            BinOp::FLt => "lt.f",
            BinOp::FLe => "le.f",
            BinOp::FEq => "eq.f",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negate, 1 cycle.
    Neg,
    /// Bitwise not, 1 cycle.
    Not,
    /// Copy (register move), 1 cycle. Polymorphic over the operand type.
    Mov,
    /// FP negate, 1 cycle (sign-bit flip).
    NegF,
    /// FP absolute value, 1 cycle (sign-bit clear). Documented extension.
    AbsF,
    /// FP square root, 12 cycles (priced like DivF). Documented extension.
    SqrtF,
    /// Convert integer to float, 2 cycles.
    CvtIF,
    /// Convert float to integer (truncate), 2 cycles.
    CvtFI,
}

impl UnOp {
    /// Latency in cycles on the Raw prototype.
    pub fn latency(self) -> u32 {
        use UnOp::*;
        match self {
            Neg | Not | Mov | NegF | AbsF => 1,
            CvtIF | CvtFI => 2,
            SqrtF => 12,
        }
    }

    /// Result type, given the operand type (only `Mov` is polymorphic).
    pub fn result_ty(self, operand: Ty) -> Ty {
        use UnOp::*;
        match self {
            Neg | Not | CvtFI => Ty::I32,
            NegF | AbsF | SqrtF | CvtIF => Ty::F32,
            Mov => operand,
        }
    }

    /// Operand type expected by the operator, or `None` if polymorphic (`Mov`).
    pub fn operand_ty(self) -> Option<Ty> {
        use UnOp::*;
        match self {
            Neg | Not | CvtIF => Some(Ty::I32),
            NegF | AbsF | SqrtF | CvtFI => Some(Ty::F32),
            Mov => None,
        }
    }

    /// Evaluates the operator (reference semantics).
    pub fn eval(self, a: Imm) -> Imm {
        use UnOp::*;
        match self {
            Neg => Imm::I(a.as_i32().wrapping_neg()),
            Not => Imm::I(!a.as_i32()),
            Mov => a,
            NegF => Imm::F(-a.as_f32()),
            AbsF => Imm::F(a.as_f32().abs()),
            SqrtF => Imm::F(a.as_f32().sqrt()),
            CvtIF => Imm::F(a.as_i32() as f32),
            CvtFI => {
                let v = a.as_f32();
                // Saturating truncation matching Rust's `as` cast.
                Imm::I(v as i32)
            }
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Mov => "mov",
            UnOp::NegF => "neg.f",
            UnOp::AbsF => "abs.f",
            UnOp::SqrtF => "sqrt.f",
            UnOp::CvtIF => "cvt.i.f",
            UnOp::CvtFI => "cvt.f.i",
        };
        f.write_str(s)
    }
}

impl Imm {
    fn as_i32(self) -> i32 {
        match self {
            Imm::I(v) => v,
            Imm::F(v) => v as i32,
        }
    }

    fn as_f32(self) -> f32 {
        match self {
            Imm::I(v) => v as f32,
            Imm::F(v) => v,
        }
    }
}

/// Where a memory reference's data lives, as known at compile time (paper §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MemHome {
    /// The referenced element's home tile is a compile-time constant: the access
    /// can be pinned to that tile and serviced entirely over the static network.
    ///
    /// The payload is the element index *modulo the interleaving width* — i.e. the
    /// residue class that determines the home tile under element-wise low-order
    /// interleaving. The compiler converts it to a concrete tile given the machine
    /// size.
    Static(u32),
    /// The home tile is unknown at compile time: the access goes through the
    /// dynamic (wormhole-routed) network to a remote-memory handler.
    #[default]
    Dynamic,
}

/// The body of an instruction: operation plus source operands.
#[derive(Clone, Debug, PartialEq)]
pub enum InstKind {
    /// Materialize an immediate (assembles to `li`), 1 cycle.
    Const(Imm),
    /// Unary operation.
    Un(UnOp, ValueId),
    /// Binary operation.
    Bin(BinOp, ValueId, ValueId),
    /// Load one element of `array` at the (linearized) element index
    /// `index + offset`.
    Load {
        /// Array being read.
        array: ArrayId,
        /// Value holding the non-constant part of the linearized index.
        index: ValueId,
        /// Constant part of the linearized index, folded into the memory
        /// instruction's immediate.
        offset: i32,
        /// Static/dynamic classification of the element's home tile.
        home: MemHome,
    },
    /// Store `value` into `array` at element index `index + offset`.
    Store {
        /// Array being written.
        array: ArrayId,
        /// Value holding the non-constant part of the linearized index.
        index: ValueId,
        /// Constant part of the linearized index.
        offset: i32,
        /// Value being stored.
        value: ValueId,
        /// Static/dynamic classification of the element's home tile.
        home: MemHome,
    },
    /// Read the block-entry value of a persistent variable.
    ReadVar(VarId),
    /// Commit a new persistent value for a variable (visible to successor blocks).
    WriteVar(VarId, ValueId),
}

/// A three-operand instruction: optional destination value plus [`InstKind`].
///
/// All kinds except `Store` and `WriteVar` define a destination.
///
/// Equality compares `dst` and `kind` only; the provenance [`span`](Self::span)
/// is metadata and two instructions differing only in span are equal.
#[derive(Clone, Debug)]
pub struct Inst {
    /// Destination value, if the instruction produces one.
    pub dst: Option<ValueId>,
    /// Operation and sources.
    pub kind: InstKind,
    /// Source position this instruction was lowered from (provenance).
    pub span: SourceSpan,
}

impl PartialEq for Inst {
    fn eq(&self, other: &Self) -> bool {
        self.dst == other.dst && self.kind == other.kind
    }
}

impl Inst {
    /// Creates an instruction with no source span ([`SourceSpan::NONE`]).
    pub fn new(dst: Option<ValueId>, kind: InstKind) -> Self {
        Inst {
            dst,
            kind,
            span: SourceSpan::NONE,
        }
    }

    /// Estimated execution latency in cycles, used as the task-graph node cost
    /// (paper §3.3 "nodes are labeled with the estimated costs").
    ///
    /// `mem_latency` is the local cache-hit latency (2 cycles on the prototype).
    /// `ReadVar`/`WriteVar` are costed as a local memory access on the home tile.
    pub fn cost(&self, mem_latency: u32) -> u32 {
        match &self.kind {
            InstKind::Const(_) => 1,
            InstKind::Un(op, _) => op.latency(),
            InstKind::Bin(op, _, _) => op.latency(),
            InstKind::Load { .. } => mem_latency,
            InstKind::Store { .. } => 1,
            InstKind::ReadVar(_) => mem_latency,
            InstKind::WriteVar(_, _) => 1,
        }
    }

    /// Iterates over the source values the instruction uses.
    pub fn sources(&self) -> impl Iterator<Item = ValueId> + '_ {
        let (a, b) = match &self.kind {
            InstKind::Const(_) | InstKind::ReadVar(_) => (None, None),
            InstKind::Un(_, s) => (Some(*s), None),
            InstKind::Bin(_, l, r) => (Some(*l), Some(*r)),
            InstKind::Load { index, .. } => (Some(*index), None),
            InstKind::Store { index, value, .. } => (Some(*index), Some(*value)),
            InstKind::WriteVar(_, s) => (Some(*s), None),
        };
        a.into_iter().chain(b)
    }

    /// True if the instruction touches memory or a persistent variable (and thus
    /// may be pinned to a home tile by the partitioner).
    pub fn is_memory(&self) -> bool {
        matches!(
            self.kind,
            InstKind::Load { .. }
                | InstKind::Store { .. }
                | InstKind::ReadVar(_)
                | InstKind::WriteVar(_, _)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latencies() {
        // Table 1 of the paper, verbatim.
        assert_eq!(BinOp::Add.latency(), 1);
        assert_eq!(BinOp::Sub.latency(), 1);
        assert_eq!(BinOp::Mul.latency(), 12);
        assert_eq!(BinOp::Div.latency(), 35);
        assert_eq!(BinOp::AddF.latency(), 2);
        assert_eq!(BinOp::SubF.latency(), 2);
        assert_eq!(BinOp::MulF.latency(), 4);
        assert_eq!(BinOp::DivF.latency(), 12);
    }

    #[test]
    fn int_arithmetic_wraps() {
        assert_eq!(
            BinOp::Add.eval(Imm::I(i32::MAX), Imm::I(1)),
            Imm::I(i32::MIN)
        );
        assert_eq!(BinOp::Mul.eval(Imm::I(1 << 20), Imm::I(1 << 20)), Imm::I(0));
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(BinOp::Div.eval(Imm::I(5), Imm::I(0)), Imm::I(0));
        assert_eq!(BinOp::Rem.eval(Imm::I(5), Imm::I(0)), Imm::I(0));
    }

    #[test]
    fn comparisons_produce_zero_one() {
        assert_eq!(BinOp::Slt.eval(Imm::I(1), Imm::I(2)), Imm::I(1));
        assert_eq!(BinOp::Slt.eval(Imm::I(2), Imm::I(1)), Imm::I(0));
        assert_eq!(BinOp::FLe.eval(Imm::F(1.5), Imm::F(1.5)), Imm::I(1));
    }

    #[test]
    fn float_ops_match_ieee() {
        assert_eq!(BinOp::MulF.eval(Imm::F(1.5), Imm::F(2.0)), Imm::F(3.0));
        assert_eq!(UnOp::SqrtF.eval(Imm::F(9.0)), Imm::F(3.0));
        assert_eq!(UnOp::AbsF.eval(Imm::F(-2.5)), Imm::F(2.5));
        assert_eq!(UnOp::CvtIF.eval(Imm::I(7)), Imm::F(7.0));
        assert_eq!(UnOp::CvtFI.eval(Imm::F(7.9)), Imm::I(7));
    }

    #[test]
    fn imm_bits_round_trip() {
        for imm in [Imm::I(-3), Imm::F(1.25), Imm::F(f32::NAN)] {
            let back = Imm::from_bits(imm.to_bits(), imm.ty());
            assert!(imm.bits_eq(back));
        }
    }

    #[test]
    fn sources_enumerates_operands() {
        let i = Inst::new(
            Some(ValueId::from_raw(2)),
            InstKind::Bin(BinOp::Add, ValueId::from_raw(0), ValueId::from_raw(1)),
        );
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![ValueId::from_raw(0), ValueId::from_raw(1)]);
    }

    #[test]
    fn memory_classification() {
        let load = Inst::new(
            Some(ValueId::from_raw(0)),
            InstKind::Load {
                array: ArrayId::from_raw(0),
                index: ValueId::from_raw(1),
                offset: 0,
                home: MemHome::Dynamic,
            },
        );
        assert!(load.is_memory());
        let add = Inst::new(
            Some(ValueId::from_raw(0)),
            InstKind::Bin(BinOp::Add, ValueId::from_raw(1), ValueId::from_raw(2)),
        );
        assert!(!add.is_memory());
    }
}
