//! End-to-end provenance: joining machine-level events back to source lines.
//!
//! Every task-graph node keeps the [`SourceSpan`] its IR instruction was
//! lowered from (stamped by the front end, preserved by unrolling, renaming,
//! and optimization). Code generation and register allocation carry a node id
//! alongside every emitted machine instruction, and the linker converts those
//! ids into per-tile **pc → provenance record** tables for both the processor
//! and the switch instruction streams. A trace consumer can then attribute any
//! runtime event — issue, stall, route — to the source line that caused it.
//!
//! Records are identified by a dense `u32` index into [`ProvenanceMap::records`];
//! [`NO_PROV`] marks machine instructions with no source counterpart (jumps,
//! halts, the spilled-condition reload).

use raw_ir::{InstKind, SourceSpan, ValueId};

/// Sentinel provenance id: "no source-level origin".
pub const NO_PROV: u32 = u32::MAX;

/// Provenance of one task-graph node: where it came from and where the
/// compiler put it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvRecord {
    /// Source position the IR instruction was lowered from (`SourceSpan::NONE`
    /// for compiler-synthesized instructions).
    pub span: SourceSpan,
    /// The value the node defines, if any.
    pub value: Option<ValueId>,
    /// Basic-block index (program order).
    pub block: u32,
    /// Task-graph node id within the block.
    pub node: u32,
    /// Tile the partitioner assigned the node to.
    pub tile: u32,
    /// Placement bin the node's cluster was merged into (`u32::MAX` when the
    /// block was empty). Joins against the block's
    /// [`PlacementLog`](crate::partition::PlacementLog) to recover the placement
    /// swap that put the node on its tile.
    pub bin: u32,
    /// Short operation mnemonic for display.
    pub kind: &'static str,
}

/// Whole-program provenance tables produced by [`compile`](crate::compile).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProvenanceMap {
    /// One record per (block, task-graph node), blocks in program order and
    /// nodes in graph order within each block.
    pub records: Vec<ProvRecord>,
    /// Base record index of each block: block `b`'s node `n` is record
    /// `block_base[b] + n`.
    pub block_base: Vec<u32>,
    /// Per tile: processor pc → record index (or [`NO_PROV`]), parallel to the
    /// linked processor instruction stream.
    pub proc_pc: Vec<Vec<u32>>,
    /// Per tile: switch pc → record index (or [`NO_PROV`]), parallel to the
    /// linked switch instruction stream.
    pub switch_pc: Vec<Vec<u32>>,
}

impl ProvenanceMap {
    /// Record id behind processor instruction `pc` on `tile` ([`NO_PROV`] when
    /// out of range or unattributed).
    pub fn proc_id(&self, tile: usize, pc: usize) -> u32 {
        self.proc_pc
            .get(tile)
            .and_then(|v| v.get(pc))
            .copied()
            .unwrap_or(NO_PROV)
    }

    /// Record id behind switch instruction `pc` on `tile` ([`NO_PROV`] when
    /// out of range or unattributed).
    pub fn switch_id(&self, tile: usize, pc: usize) -> u32 {
        self.switch_pc
            .get(tile)
            .and_then(|v| v.get(pc))
            .copied()
            .unwrap_or(NO_PROV)
    }
}

/// Display mnemonic for an IR operation.
pub fn mnemonic(kind: &InstKind) -> &'static str {
    use raw_ir::{BinOp, UnOp};
    match kind {
        InstKind::Const(_) => "const",
        InstKind::Un(UnOp::Mov, _) => "mov",
        InstKind::Un(UnOp::Neg, _) => "neg",
        InstKind::Un(UnOp::Not, _) => "not",
        InstKind::Un(UnOp::NegF, _) => "negf",
        InstKind::Un(UnOp::AbsF, _) => "absf",
        InstKind::Un(UnOp::SqrtF, _) => "sqrtf",
        InstKind::Un(UnOp::CvtIF, _) => "cvtif",
        InstKind::Un(UnOp::CvtFI, _) => "cvtfi",
        InstKind::Bin(BinOp::Add, ..) => "add",
        InstKind::Bin(BinOp::Sub, ..) => "sub",
        InstKind::Bin(BinOp::Mul, ..) => "mul",
        InstKind::Bin(BinOp::Div, ..) => "div",
        InstKind::Bin(BinOp::Rem, ..) => "rem",
        InstKind::Bin(BinOp::And, ..) => "and",
        InstKind::Bin(BinOp::Or, ..) => "or",
        InstKind::Bin(BinOp::Xor, ..) => "xor",
        InstKind::Bin(BinOp::Shl, ..) => "shl",
        InstKind::Bin(BinOp::Shr, ..) => "shr",
        InstKind::Bin(BinOp::Shru, ..) => "shru",
        InstKind::Bin(BinOp::Slt, ..) => "slt",
        InstKind::Bin(BinOp::Sle, ..) => "sle",
        InstKind::Bin(BinOp::Seq, ..) => "seq",
        InstKind::Bin(BinOp::Sne, ..) => "sne",
        InstKind::Bin(BinOp::FLt, ..) => "flt",
        InstKind::Bin(BinOp::FLe, ..) => "fle",
        InstKind::Bin(BinOp::FEq, ..) => "feq",
        InstKind::Bin(BinOp::AddF, ..) => "addf",
        InstKind::Bin(BinOp::SubF, ..) => "subf",
        InstKind::Bin(BinOp::MulF, ..) => "mulf",
        InstKind::Bin(BinOp::DivF, ..) => "divf",
        InstKind::Load { .. } => "load",
        InstKind::Store { .. } => "store",
        InstKind::ReadVar(_) => "rdvar",
        InstKind::WriteVar(..) => "wrvar",
    }
}
