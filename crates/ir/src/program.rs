//! Programs: declarations, basic blocks, and control flow.

use crate::ids::{ArrayId, BlockId, ValueId, VarId};
use crate::inst::{Imm, Inst, Ty};
use std::collections::HashMap;

/// Declaration of a persistent scalar variable.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// Source-level name (used in diagnostics and pretty-printing).
    pub name: String,
    /// Value type.
    pub ty: Ty,
    /// Initial value before the entry block runs.
    pub init: Imm,
}

/// Declaration of an array object.
///
/// Arrays are addressed by linearized element index; `dims` records the
/// source-level shape for pretty-printing and bounds reasoning.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Source-level dimensions (row-major). Product equals `len()`.
    pub dims: Vec<u32>,
    /// Initial element values. Empty means zero-initialized.
    pub init: Vec<Imm>,
}

impl ArrayDecl {
    /// Total number of elements ([`verify`](crate::verify::verify) rejects
    /// an array whose count overflows `u32`).
    pub fn len(&self) -> u32 {
        self.dims.iter().product()
    }

    /// Total number of elements, or `None` if the count overflows `u32`.
    pub fn checked_len(&self) -> Option<u32> {
        self.dims.iter().try_fold(1u32, |n, &d| n.checked_mul(d))
    }

    /// True if the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Initial value of element `index` (zero if no explicit initializer).
    pub fn init_value(&self, index: u32) -> Imm {
        self.init
            .get(index as usize)
            .copied()
            .unwrap_or(match self.ty {
                Ty::I32 => Imm::I(0),
                Ty::F32 => Imm::F(0.0),
            })
    }
}

/// How a basic block transfers control.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on an integer condition value (non-zero takes `if_true`).
    Branch {
        /// Block-local condition value.
        cond: ValueId,
        /// Successor when `cond != 0`.
        if_true: BlockId,
        /// Successor when `cond == 0`.
        if_false: BlockId,
    },
    /// Program termination.
    Halt,
}

impl Terminator {
    /// Successor blocks, in branch order.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match self {
            Terminator::Jump(t) => (Some(*t), None),
            Terminator::Branch {
                if_true, if_false, ..
            } => (Some(*if_true), Some(*if_false)),
            Terminator::Halt => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Optional label for diagnostics.
    pub name: String,
    /// Instructions in program order.
    pub insts: Vec<Inst>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

/// A whole program: declarations, blocks, and the entry point.
///
/// Construct with [`ProgramBuilder`](crate::builder::ProgramBuilder); the builder
/// runs [`verify`](crate::verify::verify) so a `Program` obtained from
/// [`finish`](crate::builder::ProgramBuilder::finish) always satisfies the
/// structural invariants documented at the crate root.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Program name, used in reports.
    pub name: String,
    /// Scalar variable declarations, indexed by [`VarId`].
    pub vars: Vec<VarDecl>,
    /// Array declarations, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Types of all values, indexed by [`ValueId`].
    pub value_types: Vec<Ty>,
    /// Optional debug names for values (e.g. `y_1` in Figure-6 style output).
    pub value_names: HashMap<ValueId, String>,
}

impl Program {
    /// Number of values in the program.
    pub fn num_values(&self) -> usize {
        self.value_types.len()
    }

    /// Type of a value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this program.
    pub fn ty(&self, v: ValueId) -> Ty {
        self.value_types[v.index()]
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range for this program.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Variable declaration by id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&self, v: VarId) -> &VarDecl {
        &self.vars[v.index()]
    }

    /// Array declaration by id.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn array(&self, a: ArrayId) -> &ArrayDecl {
        &self.arrays[a.index()]
    }

    /// Looks up a variable by source name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId::from_raw(i as u32))
    }

    /// Looks up an array by source name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId::from_raw(i as u32))
    }

    /// Total instruction count across all blocks (excluding terminators).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Iterates over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::from_raw(i as u32), b))
    }

    /// The debug name of a value if one was recorded, else its id rendering.
    pub fn value_name(&self, v: ValueId) -> String {
        self.value_names
            .get(&v)
            .cloned()
            .unwrap_or_else(|| v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let x = b.var_i32("x", 1);
        let v = b.read_var(x);
        let one = b.const_i32(1);
        let s = b.add(v, one);
        b.write_var(x, s);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let p = tiny();
        assert!(p.var_by_name("x").is_some());
        assert!(p.var_by_name("missing").is_none());
        assert!(p.array_by_name("missing").is_none());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: ValueId::from_raw(0),
            if_true: BlockId::from_raw(1),
            if_false: BlockId::from_raw(2),
        };
        let s: Vec<_> = t.successors().collect();
        assert_eq!(s, vec![BlockId::from_raw(1), BlockId::from_raw(2)]);
        assert_eq!(Terminator::Halt.successors().count(), 0);
    }

    #[test]
    fn array_decl_len_and_init() {
        let a = ArrayDecl {
            name: "a".into(),
            ty: Ty::F32,
            dims: vec![4, 8],
            init: vec![Imm::F(2.0)],
        };
        assert_eq!(a.len(), 32);
        assert!(!a.is_empty());
        assert_eq!(a.init_value(0), Imm::F(2.0));
        assert_eq!(a.init_value(5), Imm::F(0.0));
    }
}
