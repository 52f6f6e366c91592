//! Local (per-block) optimizations: common-subexpression elimination and
//! dead-code elimination.
//!
//! These are the standard clean-ups any real compiler performs and that the
//! paper's SUIF-based frontend provided; without them, unrolled loop bodies
//! recompute the same address arithmetic once per access, inflating both node
//! counts and critical paths.
//!
//! Both passes are purely block-local (values never cross blocks), preserve
//! single-assignment form, and leave memory operations alone except for
//! removing loads whose results are never used.
//!
//! Their per-value tables are dense: one `Vec` indexed by [`ValueId`] per
//! program, reset after each block by the entries that block touched, so a
//! pass costs the program's instructions plus one table, never blocks ×
//! values. Only CSE's expression table is a map (keyed by operator and
//! operands), built per block with the block's length as capacity. The
//! tables are indexed by value, so every pass takes a program that passes
//! [`verify`](crate::verify::verify) (every id inside the value table).

use crate::ids::ValueId;
use crate::inst::{BinOp, Imm, InstKind};
use crate::program::{Program, Terminator};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Runs constant folding, local CSE, and DCE on every block.
pub fn optimize(program: &mut Program) {
    fold_constants(program);
    local_cse(program);
    dce(program);
    debug_assert_eq!(crate::verify::verify(program), Ok(()));
}

/// Folds pure operations over constant operands into constants.
///
/// Integer semantics follow the reference interpreter (wrapping arithmetic,
/// division by zero yields 0); float folding is bit-exact with the simulator
/// because both use the same [`BinOp::eval`]/[`UnOp::eval`](crate::UnOp::eval) reference
/// implementations.
pub fn fold_constants(program: &mut Program) {
    let mut known: Vec<Option<Imm>> = vec![None; program.value_types.len()];
    for block in &mut program.blocks {
        for inst in &mut block.insts {
            let folded: Option<Imm> = match &inst.kind {
                InstKind::Const(imm) => Some(*imm),
                InstKind::Un(op, s) => known[s.index()].map(|v| op.eval(v)),
                InstKind::Bin(op, a, b) => match (known[a.index()], known[b.index()]) {
                    (Some(x), Some(y)) => Some(op.eval(x, y)),
                    _ => None,
                },
                _ => None,
            };
            if let (Some(v), Some(dst)) = (folded, inst.dst) {
                known[dst.index()] = Some(v);
                if !matches!(inst.kind, InstKind::Const(_)) {
                    inst.kind = InstKind::Const(v);
                }
            }
        }
        for dst in block.insts.iter().filter_map(|inst| inst.dst) {
            known[dst.index()] = None;
        }
    }
}

fn commutative(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        Add | Mul | And | Or | Xor | Seq | Sne | AddF | MulF | FEq
    )
}

/// Common-subexpression elimination within each block.
///
/// Pure instructions (`Const`, unary, binary) and `ReadVar` (all reads observe
/// the block-entry value, so duplicates are identical) are deduplicated;
/// memory accesses are left untouched.
pub fn local_cse(program: &mut Program) {
    // The surviving equal value of each dropped duplicate; `None` elsewhere.
    let mut remap: Vec<Option<ValueId>> = vec![None; program.value_types.len()];
    let mut dropped: Vec<ValueId> = Vec::new();
    let lookup = |remap: &[Option<ValueId>], v: ValueId| remap[v.index()].unwrap_or(v);
    for block in &mut program.blocks {
        let mut table: HashMap<Key, ValueId> = HashMap::with_capacity(block.insts.len());
        let mut kept = Vec::with_capacity(block.insts.len());
        for mut inst in block.insts.drain(..) {
            // Remap sources through earlier eliminations.
            match &mut inst.kind {
                InstKind::Const(_) | InstKind::ReadVar(_) => {}
                InstKind::Un(_, s) => *s = lookup(&remap, *s),
                InstKind::Bin(_, a, b) => {
                    *a = lookup(&remap, *a);
                    *b = lookup(&remap, *b);
                }
                InstKind::Load { index, .. } => *index = lookup(&remap, *index),
                InstKind::Store { index, value, .. } => {
                    *index = lookup(&remap, *index);
                    *value = lookup(&remap, *value);
                }
                InstKind::WriteVar(_, s) => *s = lookup(&remap, *s),
            }
            // Key for pure instructions.
            let key = match &inst.kind {
                InstKind::Const(imm) => Some(Key::Const(imm.to_bits(), imm.ty() as u8)),
                InstKind::Un(op, s) => Some(Key::Un(*op as u8, *s)),
                InstKind::Bin(op, a, b) => {
                    let (a, b) = if commutative(*op) && b < a {
                        (*b, *a)
                    } else {
                        (*a, *b)
                    };
                    Some(Key::Bin(*op as u8, a, b))
                }
                InstKind::ReadVar(v) => Some(Key::ReadVar(v.index() as u32)),
                _ => None,
            };
            if let (Some(key), Some(dst)) = (key, inst.dst) {
                match table.entry(key) {
                    Entry::Occupied(prior) => {
                        remap[dst.index()] = Some(*prior.get());
                        dropped.push(dst);
                        continue; // drop the duplicate
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(dst);
                    }
                }
            }
            kept.push(inst);
        }
        block.insts = kept;
        if let Terminator::Branch { cond, .. } = &mut block.term {
            *cond = lookup(&remap, *cond);
        }
        for v in dropped.drain(..) {
            remap[v.index()] = None;
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Const(u32, u8),
    Un(u8, ValueId),
    Bin(u8, ValueId, ValueId),
    ReadVar(u32),
}

/// Dead-code elimination within each block: drops instructions whose result
/// is never used. Stores and variable writes are roots; dead *loads* are
/// removed as well (a dead load has no architectural effect on the Raw
/// prototype).
pub fn dce(program: &mut Program) {
    let mut used = vec![false; program.value_types.len()];
    let mut live = Vec::new();
    for block in &mut program.blocks {
        let cond = match block.term {
            Terminator::Branch { cond, .. } => Some(cond),
            _ => None,
        };
        if let Some(cond) = cond {
            used[cond.index()] = true;
        }
        // Backward sweep: an instruction is live if it has a side effect or
        // its destination is used later.
        live.clear();
        live.resize(block.insts.len(), false);
        for (i, inst) in block.insts.iter().enumerate().rev() {
            let side_effect = matches!(inst.kind, InstKind::Store { .. } | InstKind::WriteVar(..));
            let needed = side_effect || inst.dst.map(|d| used[d.index()]).unwrap_or(false);
            if needed {
                live[i] = true;
                for s in inst.sources() {
                    used[s.index()] = true;
                }
            }
        }
        let mut keep = live.iter();
        block.insts.retain(|_| *keep.next().unwrap());
        // Every entry set above is the condition or a kept instruction's
        // source.
        for s in block
            .insts
            .iter()
            .flat_map(|inst| inst.sources())
            .chain(cond)
        {
            used[s.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::MemHome;
    use crate::interp::Interpreter;
    use crate::Ty;

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
        optimize(&mut p);
        // Only one surviving constant (12) feeds the write after CSE+DCE.
        let survivors: Vec<_> = p.blocks[0].insts.iter().collect();
        assert!(
            survivors
                .iter()
                .any(|i| matches!(i.kind, InstKind::Const(crate::Imm::I(12)))),
            "{survivors:?}"
        );
        assert!(!survivors
            .iter()
            .any(|i| matches!(i.kind, InstKind::Bin(..))));
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.var_value(out), crate::Imm::I(12));
    }

    #[test]
    fn float_folding_is_bit_exact() {
        let mut b = ProgramBuilder::new("t");
        let out = b.var_f32("out", 0.0);
        let x = b.const_f32(0.1);
        let y = b.const_f32(0.2);
        let s = b.add_f(x, y);
        b.write_var(out, s);
        b.halt();
        let mut p = b.finish().unwrap();
        let unopt = Interpreter::new(&p).run().unwrap();
        optimize(&mut p);
        let opt = Interpreter::new(&p).run().unwrap();
        assert!(opt.state_eq(&unopt));
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
        let mut p = b.finish().unwrap();
        optimize(&mut p);
        assert!(p.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Bin(BinOp::Add, ..))));
    }

    #[test]
    fn cse_deduplicates_address_arithmetic() {
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
        let s = b.add(m1, m2);
        b.write_var(out, s);
        b.halt();
        let mut p = b.finish().unwrap();
        let before = p.num_insts();
        optimize(&mut p);
        assert_eq!(p.num_insts(), before - 3);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.var_value(out), crate::Imm::I(192));
    }

    #[test]
    fn cse_respects_commutativity() {
        let mut b = ProgramBuilder::new("t");
        let out = b.var_i32("out", 0);
        let xv = b.var_i32("xv", 6);
        let yv = b.var_i32("yv", 7);
        let x = b.read_var(xv);
        let y = b.read_var(yv);
        let m1 = b.mul(x, y);
        let m2 = b.mul(y, x); // same product
        let s = b.add(m1, m2);
        b.write_var(out, s);
        b.halt();
        let mut p = b.finish().unwrap();
        optimize(&mut p);
        // One of the muls must be gone.
        let muls = p.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Bin(BinOp::Mul, _, _)))
            .count();
        assert_eq!(muls, 1);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.var_value(out), crate::Imm::I(84));
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
        let s = b.add(d1, d2);
        b.write_var(out, s);
        b.halt();
        let mut p = b.finish().unwrap();
        optimize(&mut p);
        let subs = p.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Bin(BinOp::Sub, _, _)))
            .count();
        assert_eq!(subs, 2);
    }

    #[test]
    fn loads_never_cse_but_dead_loads_drop() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", Ty::I32, &[4]);
        let i0 = b.const_i32(0);
        let l1 = b.load(a, i0, 0, MemHome::Static(0));
        let one = b.const_i32(1);
        let w = b.add(l1, one);
        b.store(a, i0, 0, w, MemHome::Static(0));
        let _dead = b.load(a, i0, 0, MemHome::Static(0)); // unused
        b.halt();
        let mut p = b.finish().unwrap();
        optimize(&mut p);
        let loads = p.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Load { .. }))
            .count();
        assert_eq!(loads, 1, "{:#?}", p.blocks[0].insts);
    }

    #[test]
    fn branch_condition_stays_live_and_remapped() {
        let mut b = ProgramBuilder::new("t");
        let exit = b.new_block("exit");
        let other = b.new_block("other");
        let x = b.const_i32(1);
        let y1 = b.const_i32(5);
        let y2 = b.const_i32(5); // CSE'd into y1
        let c = b.slt(x, y2);
        let _unused = b.add(y1, y2);
        b.branch(c, exit, other);
        b.switch_to(exit);
        b.halt();
        b.switch_to(other);
        b.halt();
        let mut p = b.finish().unwrap();
        optimize(&mut p);
        let r = Interpreter::new(&p).run().unwrap();
        assert!(r.blocks_executed >= 2);
    }

    #[test]
    fn readvar_duplicates_merge() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var_i32("x", 2);
        let out = b.var_i32("out", 0);
        let r1 = b.read_var(x);
        let r2 = b.read_var(x);
        let s = b.add(r1, r2);
        b.write_var(out, s);
        b.halt();
        let mut p = b.finish().unwrap();
        optimize(&mut p);
        let reads = p.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::ReadVar(_)))
            .count();
        assert_eq!(reads, 1);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.var_value(out), crate::Imm::I(4));
    }
}
