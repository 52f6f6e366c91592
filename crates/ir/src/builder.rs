//! Ergonomic construction of [`Program`]s.
//!
//! The builder mints a fresh [`ValueId`] for every instruction it emits, so
//! programs it produces are single-assignment by construction. [`finish`]
//! additionally runs the [`verify`] pass, so a successfully built
//! program satisfies every structural invariant the compiler relies on.
//!
//! It also numbers values as it emits them: every distinct pure expression
//! in a block produces exactly one value. A `Const`, unary or binary
//! operator (commutative operands sorted) or `ReadVar` whose key the
//! current block already holds returns the value already there. An operator
//! whose operands are all constants of the current block, of the type
//! [`verify`] accepts for it, folds through [`UnOp::eval`]/[`BinOp::eval`]
//! (the simulator's semantics, bit-exact for floats) into the block's
//! constant of its result; any other operand is left for [`finish`] to
//! report. Loads, stores and variable writes are always emitted.
//!
//! [`finish`]: ProgramBuilder::finish

use crate::ids::{ArrayId, BlockId, ValueId, VarId};
use crate::inst::{BinOp, Imm, Inst, InstKind, MemHome, SourceSpan, Ty, UnOp};
use crate::program::{ArrayDecl, Block, Program, Terminator, VarDecl};
use crate::verify::{self, VerifyError};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// What makes two pure instructions of one block compute the same value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Key {
    Const(u32, Ty),
    Un(UnOp, ValueId),
    Bin(BinOp, ValueId, ValueId),
    ReadVar(VarId),
}

/// One 16-byte write per key: the default hasher pays per write, and a
/// derived `Hash` makes four (each discriminant a word of its own).
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (tag, op, a, b) = match *self {
            Key::Const(bits, ty) => (0, ty as u32, bits, 0),
            Key::Un(op, v) => (1, op as u32, v.0, 0),
            Key::Bin(op, x, y) => (2, op as u32, x.0, y.0),
            Key::ReadVar(var) => (3, 0, var.0, 0),
        };
        state.write_u128(u128::from(tag << 8 | op) << 64 | u128::from(a) << 32 | u128::from(b));
    }
}

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
    /// The immediate of each value a `Const` defines; `None` elsewhere.
    consts: Vec<Option<Imm>>,
    value_names: HashMap<ValueId, String>,
    span: SourceSpan,
    /// An empty value-numbering table with capacity, handed to the next
    /// block that numbers a value: a terminated block's table, cleared, or
    /// one sized by [`reserve_values`](Self::reserve_values). Blocks share
    /// its allocation, never its entries.
    spare: HashMap<Key, ValueId>,
}

#[derive(Debug, Default)]
struct PendingBlock {
    name: String,
    insts: Vec<Inst>,
    term: Option<Terminator>,
    /// The value of each pure expression emitted so far; handed on (its
    /// entries cleared) as the builder's spare once the block is terminated.
    numbered: HashMap<Key, ValueId>,
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
                ..PendingBlock::default()
            }],
            current: BlockId::from_raw(0),
            value_types: Vec::new(),
            consts: Vec::new(),
            value_names: HashMap::new(),
            span: SourceSpan::NONE,
            spare: HashMap::new(),
        }
    }

    /// Sizes the value-numbering table for blocks of up to about `values`
    /// distinct pure expressions, so the largest block does not grow its
    /// table by doubling. A capacity hint only: what a block numbers, folds
    /// or emits does not depend on it.
    pub fn reserve_values(&mut self, values: usize) {
        self.spare.reserve(values);
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
            ..PendingBlock::default()
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
        self.consts.push(None);
        id
    }

    /// Emits the pure instruction `kind` under `key`, unless the current
    /// block already holds that key: then returns the value it maps to.
    fn numbered(&mut self, key: Key, ty: Ty, kind: InstKind) -> ValueId {
        let next = ValueId::from_raw(self.value_types.len() as u32);
        let cur = &mut self.blocks[self.current.index()];
        assert!(cur.term.is_none(), "emitting into terminated block");
        if cur.numbered.capacity() == 0 {
            cur.numbered = std::mem::take(&mut self.spare);
        }
        let dst = *cur.numbered.entry(key).or_insert(next);
        if dst == next {
            self.fresh(ty);
            self.push(Inst::new(Some(dst), kind));
        }
        dst
    }

    /// The immediate of `v` if a `Const` of the current block defines it
    /// with type `want` (any type when `None`).
    fn local_const(&self, v: ValueId, want: Option<Ty>) -> Option<Imm> {
        let imm = (*self.consts.get(v.index())?)?;
        let key = Key::Const(imm.to_bits(), imm.ty());
        let local = self.blocks[self.current.index()].numbered.get(&key) == Some(&v);
        (local && want.is_none_or(|t| t == imm.ty())).then_some(imm)
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

    /// Emits `li` of an immediate, once per block.
    pub fn const_imm(&mut self, imm: Imm) -> ValueId {
        let key = Key::Const(imm.to_bits(), imm.ty());
        let dst = self.numbered(key, imm.ty(), InstKind::Const(imm));
        self.consts[dst.index()] = Some(imm);
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

    /// Emits a unary operation, folded if its operand is a constant.
    pub fn un(&mut self, op: UnOp, src: ValueId) -> ValueId {
        if let Some(a) = self.local_const(src, op.operand_ty()) {
            return self.const_imm(op.eval(a));
        }
        let ty = op.result_ty(self.value_types[src.index()]);
        self.numbered(Key::Un(op, src), ty, InstKind::Un(op, src))
    }

    /// Emits a binary operation, folded if both operands are constants.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let want = Some(op.operand_ty());
        if let Some(a) = self.local_const(lhs, want) {
            if let Some(b) = self.local_const(rhs, want) {
                return self.const_imm(op.eval(a, b));
            }
        }
        let key = if op.commutes() && rhs < lhs {
            Key::Bin(op, rhs, lhs)
        } else {
            Key::Bin(op, lhs, rhs)
        };
        self.numbered(key, op.result_ty(), InstKind::Bin(op, lhs, rhs))
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

    /// Emits a read of a persistent variable's block-entry value, once per
    /// block.
    pub fn read_var(&mut self, var: VarId) -> ValueId {
        let ty = self.vars[var.index()].ty;
        self.numbered(Key::ReadVar(var), ty, InstKind::ReadVar(var))
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
        let mut table = std::mem::take(&mut cur.numbered);
        if table.capacity() > self.spare.capacity() {
            table.clear();
            self.spare = table;
        }
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
    use crate::interp::Interpreter;

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
        let iv = b.var_i32("i", 1);
        let i = b.read_var(iv);
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

    fn count(p: &Program, pred: impl Fn(&InstKind) -> bool) -> usize {
        p.blocks[0].insts.iter().filter(|i| pred(&i.kind)).count()
    }

    #[test]
    fn constants_fold_through_chains() {
        let mut b = ProgramBuilder::new("t");
        let out = b.var_i32("out", 0);
        let two = b.const_i32(2);
        let three = b.const_i32(3);
        let six = b.mul(two, three); // foldable
        let twelve = b.add(six, six); // foldable via chain
        b.write_var(out, twelve);
        b.halt();
        let mut p = b.finish().unwrap();
        assert!(count(&p, |k| matches!(k, InstKind::Const(Imm::I(6)))) == 1);
        assert_eq!(count(&p, |k| matches!(k, InstKind::Bin(..))), 0);
        crate::opt::dce(&mut p);
        // Only one surviving constant (12) feeds the write.
        let survivors = &p.blocks[0].insts;
        assert_eq!(survivors.len(), 2, "{survivors:?}");
        assert_eq!(survivors[0].kind, InstKind::Const(Imm::I(12)));
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.var_value(out), Imm::I(12));
    }

    #[test]
    fn float_folding_is_bit_exact() {
        // The same sum twice: folded from constants, and computed by the
        // interpreter from variables holding the same two values.
        let mut b = ProgramBuilder::new("t");
        let folded = b.var_f32("folded", 0.0);
        let computed = b.var_f32("computed", 0.0);
        let xv = b.var_f32("x", 0.1);
        let yv = b.var_f32("y", 0.2);
        let x = b.const_f32(0.1);
        let y = b.const_f32(0.2);
        let s = b.add_f(x, y);
        b.write_var(folded, s);
        let xr = b.read_var(xv);
        let yr = b.read_var(yv);
        let t = b.add_f(xr, yr);
        b.write_var(computed, t);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(count(&p, |k| matches!(k, InstKind::Bin(..))), 1);
        let r = Interpreter::new(&p).run().unwrap();
        assert!(r.var_value(folded).bits_eq(r.var_value(computed)));
        assert!(r.var_value(folded).bits_eq(Imm::F(0.1 + 0.2)));
    }

    #[test]
    fn non_constant_operands_not_folded() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var_i32("x", 7);
        let out = b.var_i32("out", 0);
        let v = b.read_var(x);
        let one = b.const_i32(1);
        let s = b.add(v, one);
        b.write_var(out, s);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(count(&p, |k| matches!(k, InstKind::Bin(BinOp::Add, ..))), 1);
    }

    #[test]
    fn repeated_address_arithmetic_is_one_value() {
        let mut b = ProgramBuilder::new("t");
        let out = b.var_i32("out", 0);
        let i = b.var_i32("i", 3);
        let v1 = b.read_var(i);
        let c1 = b.const_i32(32);
        let m1 = b.mul(v1, c1);
        // Duplicate triple: read, const, mul.
        let v2 = b.read_var(i);
        let c2 = b.const_i32(32);
        let m2 = b.mul(v2, c2);
        assert_eq!((v2, c2, m2), (v1, c1, m1));
        let s = b.add(m1, m2);
        b.write_var(out, s);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.num_insts(), 5);
        assert_eq!(p.num_values(), 4);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.var_value(out), Imm::I(192));
    }

    #[test]
    fn commutative_operands_merge() {
        let mut b = ProgramBuilder::new("t");
        let out = b.var_i32("out", 0);
        let xv = b.var_i32("xv", 6);
        let yv = b.var_i32("yv", 7);
        let x = b.read_var(xv);
        let y = b.read_var(yv);
        let m1 = b.mul(x, y);
        let m2 = b.mul(y, x); // same product
        assert_eq!(m1, m2);
        let s = b.add(m1, m2);
        b.write_var(out, s);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(count(&p, |k| matches!(k, InstKind::Bin(BinOp::Mul, ..))), 1);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.var_value(out), Imm::I(84));
    }

    #[test]
    fn non_commutative_not_merged() {
        let mut b = ProgramBuilder::new("t");
        let out = b.var_i32("out", 0);
        let xv = b.var_i32("xv", 10);
        let yv = b.var_i32("yv", 3);
        let x = b.read_var(xv);
        let y = b.read_var(yv);
        let d1 = b.sub(x, y);
        let d2 = b.sub(y, x);
        assert_ne!(d1, d2);
        let s = b.add(d1, d2);
        b.write_var(out, s);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(count(&p, |k| matches!(k, InstKind::Bin(BinOp::Sub, ..))), 2);
    }

    #[test]
    fn readvar_duplicates_merge() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var_i32("x", 2);
        let out = b.var_i32("out", 0);
        let r1 = b.read_var(x);
        let r2 = b.read_var(x);
        assert_eq!(r1, r2);
        let s = b.add(r1, r2);
        b.write_var(out, s);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(count(&p, |k| matches!(k, InstKind::ReadVar(_))), 1);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.var_value(out), Imm::I(4));
    }

    #[test]
    fn branch_condition_is_the_numbered_value() {
        let mut b = ProgramBuilder::new("t");
        let exit = b.new_block("exit");
        let other = b.new_block("other");
        let x = b.const_i32(1);
        let y1 = b.const_i32(5);
        let y2 = b.const_i32(5); // the same value as y1
        assert_eq!(y1, y2);
        let c = b.slt(x, y2); // folds to the block's constant 1
        assert_eq!(c, x);
        let _unused = b.add(y1, y2);
        b.branch(c, exit, other);
        b.switch_to(exit);
        b.halt();
        b.switch_to(other);
        b.halt();
        let mut p = b.finish().unwrap();
        crate::opt::dce(&mut p);
        assert!(matches!(p.blocks[0].term, Terminator::Branch { cond, .. } if cond == x));
        assert_eq!(p.blocks[0].insts.len(), 1);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.blocks_executed, 2);
    }

    #[test]
    fn blocks_number_their_values_apart() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var_i32("x", 0);
        let next = b.new_block("next");
        let c0 = b.const_i32(4);
        let r0 = b.read_var(x);
        b.jump(next);
        b.switch_to(next);
        assert_ne!(b.const_i32(4), c0);
        assert_ne!(b.read_var(x), r0);
        b.halt();
        b.finish().unwrap();
    }

    #[test]
    fn open_blocks_keep_their_own_tables() {
        // A block left unterminated and selected again still numbers its
        // own values, while another block's table is handed on; a reserved
        // capacity changes nothing that is numbered.
        for reserve in [0, 64] {
            let mut b = ProgramBuilder::new("t");
            b.reserve_values(reserve);
            let other = b.new_block("other");
            let c = b.const_i32(7);
            b.switch_to(other);
            let d = b.const_i32(7);
            assert_ne!(c, d);
            b.switch_to(b.entry());
            assert_eq!(b.const_i32(7), c);
            b.jump(other);
            b.switch_to(other);
            assert_eq!(b.const_i32(7), d);
            b.halt();
            b.finish().unwrap();
        }
    }

    #[test]
    fn a_constant_of_another_block_is_not_folded() {
        let mut b = ProgramBuilder::new("t");
        let out = b.var_i32("out", 0);
        let next = b.new_block("next");
        let c = b.const_i32(2);
        b.jump(next);
        b.switch_to(next);
        let one = b.const_i32(1);
        let s = b.add(c, one);
        b.write_var(out, s);
        b.halt();
        assert_eq!(
            b.finish(),
            Err(VerifyError::UseBeforeDef {
                value: c,
                block: next
            })
        );
    }

    #[test]
    fn an_ill_typed_constant_operation_is_not_folded() {
        let mut b = ProgramBuilder::new("t");
        let x = b.const_f32(1.0);
        let y = b.const_f32(2.0);
        let _ = b.add(x, y);
        b.halt();
        assert!(matches!(
            b.finish(),
            Err(VerifyError::TypeMismatch { inst: 2, .. })
        ));
    }
}
