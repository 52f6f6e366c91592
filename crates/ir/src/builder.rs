//! Ergonomic construction of [`Program`]s.
//!
//! The builder mints fresh [`ValueId`]s for every emitted instruction, so
//! programs it produces are single-assignment by construction. [`finish`]
//! additionally runs the [`verify`] pass, so a successfully built
//! program satisfies every structural invariant the compiler relies on.
//!
//! [`finish`]: ProgramBuilder::finish

use crate::ids::{ArrayId, BlockId, ValueId, VarId};
use crate::inst::{BinOp, Imm, Inst, InstKind, MemHome, SourceSpan, Ty, UnOp};
use crate::program::{ArrayDecl, Block, Program, Terminator, VarDecl};
use crate::verify::{self, VerifyError};
use std::collections::HashMap;

/// Incremental builder for [`Program`]s.
///
/// See the crate-level docs for a complete example.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    vars: Vec<VarDecl>,
    arrays: Vec<ArrayDecl>,
    blocks: Vec<PendingBlock>,
    current: BlockId,
    value_types: Vec<Ty>,
    value_names: HashMap<ValueId, String>,
    span: SourceSpan,
}

#[derive(Debug)]
struct PendingBlock {
    name: String,
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

impl ProgramBuilder {
    /// Creates a builder with a single (entry) block selected for emission.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            vars: Vec::new(),
            arrays: Vec::new(),
            blocks: vec![PendingBlock {
                name: "entry".into(),
                insts: Vec::new(),
                term: None,
            }],
            current: BlockId::from_raw(0),
            value_types: Vec::new(),
            value_names: HashMap::new(),
            span: SourceSpan::NONE,
        }
    }

    /// Sets the source span stamped on subsequently emitted instructions.
    ///
    /// Frontends call this as they walk the AST; instructions emitted before
    /// the first call carry [`SourceSpan::NONE`].
    pub fn set_span(&mut self, span: SourceSpan) {
        self.span = span;
    }

    /// The entry block id (always `bb0`).
    pub fn entry(&self) -> BlockId {
        BlockId::from_raw(0)
    }

    /// Declares a persistent integer variable.
    pub fn var_i32(&mut self, name: impl Into<String>, init: i32) -> VarId {
        self.declare_var(name, Ty::I32, Imm::I(init))
    }

    /// Declares a persistent float variable.
    pub fn var_f32(&mut self, name: impl Into<String>, init: f32) -> VarId {
        self.declare_var(name, Ty::F32, Imm::F(init))
    }

    /// Declares a persistent variable with explicit type and initial value.
    pub fn declare_var(&mut self, name: impl Into<String>, ty: Ty, init: Imm) -> VarId {
        let id = VarId::from_raw(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: name.into(),
            ty,
            init,
        });
        id
    }

    /// Declares a zero-initialized array with the given shape (row-major).
    pub fn array(&mut self, name: impl Into<String>, ty: Ty, dims: &[u32]) -> ArrayId {
        let id = ArrayId::from_raw(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            name: name.into(),
            ty,
            dims: dims.to_vec(),
            init: Vec::new(),
        });
        id
    }

    /// Sets explicit initial contents for an array.
    ///
    /// # Panics
    ///
    /// Panics if `values` is longer than the array.
    pub fn set_array_init(&mut self, array: ArrayId, values: Vec<Imm>) {
        let decl = &mut self.arrays[array.index()];
        assert!(
            values.len() <= decl.len() as usize,
            "initializer longer than array {}",
            decl.name
        );
        decl.init = values;
    }

    /// Creates a new, empty block (does not switch to it).
    pub fn new_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::from_raw(self.blocks.len() as u32);
        self.blocks.push(PendingBlock {
            name: name.into(),
            insts: Vec::new(),
            term: None,
        });
        id
    }

    /// Selects the block that subsequent emissions append to.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            self.blocks[block.index()].term.is_none(),
            "block {} already terminated",
            block
        );
        self.current = block;
    }

    fn fresh(&mut self, ty: Ty) -> ValueId {
        let id = ValueId::from_raw(self.value_types.len() as u32);
        self.value_types.push(ty);
        id
    }

    fn push(&mut self, mut inst: Inst) {
        inst.span = self.span;
        let cur = &mut self.blocks[self.current.index()];
        assert!(cur.term.is_none(), "emitting into terminated block");
        cur.insts.push(inst);
    }

    /// Records a debug name for a value (shows up in pretty-printed IR).
    pub fn name_value(&mut self, v: ValueId, name: impl Into<String>) {
        self.value_names.insert(v, name.into());
    }

    /// Emits `li` of an immediate.
    pub fn const_imm(&mut self, imm: Imm) -> ValueId {
        let dst = self.fresh(imm.ty());
        self.push(Inst::new(Some(dst), InstKind::Const(imm)));
        dst
    }

    /// Emits an integer constant.
    pub fn const_i32(&mut self, v: i32) -> ValueId {
        self.const_imm(Imm::I(v))
    }

    /// Emits a float constant.
    pub fn const_f32(&mut self, v: f32) -> ValueId {
        self.const_imm(Imm::F(v))
    }

    /// Emits a unary operation.
    pub fn un(&mut self, op: UnOp, src: ValueId) -> ValueId {
        let src_ty = self.value_types[src.index()];
        let dst = self.fresh(op.result_ty(src_ty));
        self.push(Inst::new(Some(dst), InstKind::Un(op, src)));
        dst
    }

    /// Emits a binary operation.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let dst = self.fresh(op.result_ty());
        self.push(Inst::new(Some(dst), InstKind::Bin(op, lhs, rhs)));
        dst
    }

    /// Emits a load of element `index + offset` of `array`. `home` classifies
    /// the access per paper §5.1.
    pub fn load(&mut self, array: ArrayId, index: ValueId, offset: i32, home: MemHome) -> ValueId {
        let ty = self.arrays[array.index()].ty;
        let dst = self.fresh(ty);
        self.push(Inst::new(
            Some(dst),
            InstKind::Load {
                array,
                index,
                offset,
                home,
            },
        ));
        dst
    }

    /// Emits a store of `value` to element `index + offset` of `array`.
    pub fn store(
        &mut self,
        array: ArrayId,
        index: ValueId,
        offset: i32,
        value: ValueId,
        home: MemHome,
    ) {
        self.push(Inst::new(
            None,
            InstKind::Store {
                array,
                index,
                offset,
                value,
                home,
            },
        ));
    }

    /// Emits a read of a persistent variable's block-entry value.
    pub fn read_var(&mut self, var: VarId) -> ValueId {
        let ty = self.vars[var.index()].ty;
        let dst = self.fresh(ty);
        self.push(Inst::new(Some(dst), InstKind::ReadVar(var)));
        dst
    }

    /// Emits a persistent write of `value` to `var`.
    pub fn write_var(&mut self, var: VarId, value: ValueId) {
        self.push(Inst::new(None, InstKind::WriteVar(var, value)));
    }

    fn terminate(&mut self, term: Terminator) {
        let cur = &mut self.blocks[self.current.index()];
        assert!(
            cur.term.is_none(),
            "block {} already terminated",
            self.current
        );
        cur.term = Some(term);
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: ValueId, if_true: BlockId, if_false: BlockId) {
        self.terminate(Terminator::Branch {
            cond,
            if_true,
            if_false,
        });
    }

    /// Terminates the current block with program halt.
    pub fn halt(&mut self) {
        self.terminate(Terminator::Halt);
    }

    /// Finishes and verifies the program.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] if any block is unterminated or the program
    /// violates a structural invariant (see [`verify`](crate::verify::verify)).
    pub fn finish(self) -> Result<Program, VerifyError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, pb) in self.blocks.into_iter().enumerate() {
            let term = pb.term.ok_or(VerifyError::UnterminatedBlock {
                block: BlockId::from_raw(i as u32),
            })?;
            blocks.push(Block {
                name: pb.name,
                insts: pb.insts,
                term,
            });
        }
        let program = Program {
            name: self.name,
            vars: self.vars,
            arrays: self.arrays,
            blocks,
            entry: BlockId::from_raw(0),
            value_types: self.value_types,
            value_names: self.value_names,
        };
        verify::verify(&program)?;
        Ok(program)
    }
}

// Arithmetic sugar: thin wrappers over `bin`/`un` for the common operators.
macro_rules! sugar_bin {
    ($($(#[$doc:meta])* $fn_name:ident => $op:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                $(#[$doc])*
                pub fn $fn_name(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
                    self.bin(BinOp::$op, lhs, rhs)
                }
            )*
        }
    };
}

sugar_bin! {
    /// Emits an integer add.
    add => Add,
    /// Emits an integer subtract.
    sub => Sub,
    /// Emits an integer multiply.
    mul => Mul,
    /// Emits an integer divide.
    div => Div,
    /// Emits an FP add.
    add_f => AddF,
    /// Emits an FP subtract.
    sub_f => SubF,
    /// Emits an FP multiply.
    mul_f => MulF,
    /// Emits an FP divide.
    div_f => DivF,
    /// Emits a signed less-than compare.
    slt => Slt,
    /// Emits an equality compare.
    seq => Seq,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unterminated_block_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        let _ = b.const_i32(1);
        assert!(matches!(
            b.finish(),
            Err(VerifyError::UnterminatedBlock { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn emitting_into_terminated_block_panics() {
        let mut b = ProgramBuilder::new("t");
        b.halt();
        b.const_i32(1);
    }

    #[test]
    fn multi_block_program_builds() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var_i32("x", 0);
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let v = b.read_var(x);
        let ten = b.const_i32(10);
        let c = b.slt(v, ten);
        b.branch(c, body, exit);
        b.switch_to(body);
        let v2 = b.read_var(x);
        let one = b.const_i32(1);
        let s = b.add(v2, one);
        b.write_var(x, s);
        b.jump(exit);
        b.switch_to(exit);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.blocks.len(), 3);
    }

    #[test]
    fn value_types_follow_operators() {
        let mut b = ProgramBuilder::new("t");
        let f = b.const_f32(1.0);
        let i = b.const_i32(1);
        let fi = b.un(UnOp::CvtIF, i);
        let s = b.add_f(f, fi);
        let c = b.bin(BinOp::FLt, s, f);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.ty(s), Ty::F32);
        assert_eq!(p.ty(c), Ty::I32);
    }

    #[test]
    fn array_init_and_load_store() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", Ty::I32, &[4]);
        b.set_array_init(a, vec![Imm::I(5), Imm::I(6)]);
        let idx = b.const_i32(1);
        let v = b.load(a, idx, 0, MemHome::Static(1));
        let idx2 = b.const_i32(2);
        b.store(a, idx2, 0, v, MemHome::Dynamic);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.array(a).init_value(1), Imm::I(6));
        assert_eq!(p.num_insts(), 4);
    }
}
