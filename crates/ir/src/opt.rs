//! Dead-code elimination.
//!
//! The builder already emits each distinct pure expression of a block once
//! and folds operators over constants (see [`builder`](crate::builder)); what
//! it cannot know while emitting is whether a value is used. [`dce`] drops
//! the instructions whose results nothing reads: the constants a fold left
//! behind, and address arithmetic or loads an access no longer needs.
//!
//! The pass is block-local (values never cross blocks) and preserves
//! single-assignment form. Its `used` table is dense: one `Vec` indexed by
//! [`ValueId`](crate::ValueId) per program, reset after each block by the
//! entries that block touched, so it costs the program's instructions plus one
//! table, never blocks × values. The table is indexed by value, so [`dce`]
//! takes a program that passes [`verify`](crate::verify::verify) (every id
//! inside the value table).

use crate::inst::InstKind;
use crate::program::{Program, Terminator};

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
    use crate::Ty;

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
        assert_eq!(p.num_insts(), 6);
        dce(&mut p);
        let loads = p.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Load { .. }))
            .count();
        assert_eq!(loads, 1, "{:#?}", p.blocks[0].insts);
    }
}
