//! Structural verification of [`Program`]s.
//!
//! The compiler assumes the invariants checked here; running [`verify`] after
//! any hand construction or transformation catches violations early with a
//! precise error instead of a mis-compile.

use crate::ids::{ArrayId, BlockId, ValueId, VarId};
use crate::inst::{InstKind, Ty, UnOp};
use crate::program::{Program, Terminator};
use std::error::Error;
use std::fmt;

/// A violation of the IR's structural invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A block was never given a terminator (builder-level error).
    UnterminatedBlock {
        /// The offending block.
        block: BlockId,
    },
    /// A value id is outside the program's value table.
    ValueOutOfRange {
        /// The offending value.
        value: ValueId,
        /// Block where it appeared.
        block: BlockId,
    },
    /// A value is defined more than once (single-assignment violation).
    Redefinition {
        /// The value defined twice.
        value: ValueId,
        /// Block of the second definition.
        block: BlockId,
    },
    /// A value is used before (or without) a definition in its block.
    ///
    /// Cross-block uses also produce this error: all inter-block dataflow must
    /// go through variables.
    UseBeforeDef {
        /// The value used.
        value: ValueId,
        /// Block of the use.
        block: BlockId,
    },
    /// Operand or destination type does not match the operator.
    TypeMismatch {
        /// Block of the ill-typed instruction.
        block: BlockId,
        /// Index of the instruction within the block.
        inst: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A block, variable, or array id is out of range.
    BadReference {
        /// Block where the reference appeared.
        block: BlockId,
        /// Description of the dangling reference.
        detail: String,
    },
    /// An array's element count overflows `u32`.
    ArrayTooLarge {
        /// The offending array.
        array: ArrayId,
    },
    /// More than one `WriteVar` to the same variable within one block.
    ///
    /// The renaming performed by initial code transformation guarantees a single
    /// persistent write per variable per block (paper §3.3, footnote 2).
    MultipleVarWrites {
        /// The variable written twice.
        var: VarId,
        /// The offending block.
        block: BlockId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnterminatedBlock { block } => {
                write!(f, "block {block} has no terminator")
            }
            VerifyError::ValueOutOfRange { value, block } => {
                write!(f, "value {value} referenced in {block} is out of range")
            }
            VerifyError::Redefinition { value, block } => {
                write!(f, "value {value} redefined in {block}")
            }
            VerifyError::UseBeforeDef { value, block } => {
                write!(f, "value {value} used in {block} before definition")
            }
            VerifyError::TypeMismatch {
                block,
                inst,
                detail,
            } => write!(f, "type mismatch in {block} instruction {inst}: {detail}"),
            VerifyError::BadReference { block, detail } => {
                write!(f, "dangling reference in {block}: {detail}")
            }
            VerifyError::ArrayTooLarge { array } => {
                write!(f, "array {array} has more than {} elements", u32::MAX)
            }
            VerifyError::MultipleVarWrites { var, block } => {
                write!(f, "variable {var} written more than once in {block}")
            }
        }
    }
}

impl Error for VerifyError {}

/// Checks all structural invariants of `program`.
///
/// # Errors
///
/// Returns the first violation found; see [`VerifyError`] for the catalogue.
pub fn verify(program: &Program) -> Result<(), VerifyError> {
    let n_values = program.num_values();
    // Global single-definition tracking.
    let mut defined_in: Vec<Option<BlockId>> = vec![None; n_values];

    if program.entry.index() >= program.blocks.len() {
        return Err(VerifyError::BadReference {
            block: program.entry,
            detail: format!("entry block {} out of range", program.entry),
        });
    }
    if let Some(i) = program
        .arrays
        .iter()
        .position(|a| a.checked_len().is_none())
    {
        return Err(VerifyError::ArrayTooLarge {
            array: ArrayId::from_raw(i as u32),
        });
    }

    for (bid, block) in program.iter_blocks() {
        // Values are single-definition, so a use is local iff its value was
        // defined in this block: `defined_in` holds only earlier definitions
        // when a use is checked.
        let check_use = |v: ValueId, defined_in: &[Option<BlockId>]| -> Result<(), VerifyError> {
            if v.index() >= n_values {
                return Err(VerifyError::ValueOutOfRange {
                    value: v,
                    block: bid,
                });
            }
            if defined_in[v.index()] != Some(bid) {
                return Err(VerifyError::UseBeforeDef {
                    value: v,
                    block: bid,
                });
            }
            Ok(())
        };

        let mut written_vars: Vec<VarId> = Vec::new();

        for (i, inst) in block.insts.iter().enumerate() {
            // Uses first.
            for src in inst.sources() {
                check_use(src, &defined_in)?;
            }
            // Kind-specific checks.
            match &inst.kind {
                InstKind::Const(imm) => {
                    self::expect_dst_ty(program, bid, i, inst.dst, imm.ty())?;
                }
                InstKind::Un(op, src) => {
                    if let Some(want) = op.operand_ty() {
                        expect_ty(program, bid, i, *src, want, "unary operand")?;
                    }
                    let src_ty = program.ty(*src);
                    self::expect_dst_ty(program, bid, i, inst.dst, op.result_ty(src_ty))?;
                    if *op == UnOp::Mov {
                        // mov preserves type
                        self::expect_dst_ty(program, bid, i, inst.dst, src_ty)?;
                    }
                }
                InstKind::Bin(op, lhs, rhs) => {
                    expect_ty(program, bid, i, *lhs, op.operand_ty(), "left operand")?;
                    expect_ty(program, bid, i, *rhs, op.operand_ty(), "right operand")?;
                    self::expect_dst_ty(program, bid, i, inst.dst, op.result_ty())?;
                }
                InstKind::Load { array, index, .. } => {
                    if array.index() >= program.arrays.len() {
                        return Err(VerifyError::BadReference {
                            block: bid,
                            detail: format!("array {array}"),
                        });
                    }
                    expect_ty(program, bid, i, *index, Ty::I32, "load index")?;
                    self::expect_dst_ty(program, bid, i, inst.dst, program.array(*array).ty)?;
                }
                InstKind::Store {
                    array,
                    index,
                    value,
                    ..
                } => {
                    if array.index() >= program.arrays.len() {
                        return Err(VerifyError::BadReference {
                            block: bid,
                            detail: format!("array {array}"),
                        });
                    }
                    expect_ty(program, bid, i, *index, Ty::I32, "store index")?;
                    expect_ty(
                        program,
                        bid,
                        i,
                        *value,
                        program.array(*array).ty,
                        "store value",
                    )?;
                    if inst.dst.is_some() {
                        return Err(VerifyError::TypeMismatch {
                            block: bid,
                            inst: i,
                            detail: "store must not define a value".into(),
                        });
                    }
                }
                InstKind::ReadVar(var) => {
                    if var.index() >= program.vars.len() {
                        return Err(VerifyError::BadReference {
                            block: bid,
                            detail: format!("variable {var}"),
                        });
                    }
                    self::expect_dst_ty(program, bid, i, inst.dst, program.var(*var).ty)?;
                }
                InstKind::WriteVar(var, value) => {
                    if var.index() >= program.vars.len() {
                        return Err(VerifyError::BadReference {
                            block: bid,
                            detail: format!("variable {var}"),
                        });
                    }
                    expect_ty(program, bid, i, *value, program.var(*var).ty, "var write")?;
                    if written_vars.contains(var) {
                        return Err(VerifyError::MultipleVarWrites {
                            var: *var,
                            block: bid,
                        });
                    }
                    written_vars.push(*var);
                    if inst.dst.is_some() {
                        return Err(VerifyError::TypeMismatch {
                            block: bid,
                            inst: i,
                            detail: "write_var must not define a value".into(),
                        });
                    }
                }
            }
            // Definition last.
            if let Some(dst) = inst.dst {
                if dst.index() >= n_values {
                    return Err(VerifyError::ValueOutOfRange {
                        value: dst,
                        block: bid,
                    });
                }
                if defined_in[dst.index()].is_some() {
                    return Err(VerifyError::Redefinition {
                        value: dst,
                        block: bid,
                    });
                }
                defined_in[dst.index()] = Some(bid);
            }
        }

        // Terminator checks.
        match &block.term {
            Terminator::Jump(t) => {
                if t.index() >= program.blocks.len() {
                    return Err(VerifyError::BadReference {
                        block: bid,
                        detail: format!("jump target {t}"),
                    });
                }
            }
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                check_use(*cond, &defined_in)?;
                if program.ty(*cond) != Ty::I32 {
                    return Err(VerifyError::TypeMismatch {
                        block: bid,
                        inst: block.insts.len(),
                        detail: "branch condition must be i32".into(),
                    });
                }
                for t in [if_true, if_false] {
                    if t.index() >= program.blocks.len() {
                        return Err(VerifyError::BadReference {
                            block: bid,
                            detail: format!("branch target {t}"),
                        });
                    }
                }
            }
            Terminator::Halt => {}
        }
    }
    Ok(())
}

fn expect_ty(
    program: &Program,
    block: BlockId,
    inst: usize,
    v: ValueId,
    want: Ty,
    what: &str,
) -> Result<(), VerifyError> {
    let got = program.ty(v);
    if got != want {
        return Err(VerifyError::TypeMismatch {
            block,
            inst,
            detail: format!("{what} {v}: expected {want}, found {got}"),
        });
    }
    Ok(())
}

fn expect_dst_ty(
    program: &Program,
    block: BlockId,
    inst: usize,
    dst: Option<ValueId>,
    want: Ty,
) -> Result<(), VerifyError> {
    match dst {
        Some(d) => expect_ty(program, block, inst, d, want, "destination"),
        None => Err(VerifyError::TypeMismatch {
            block,
            inst,
            detail: "instruction must define a value".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{BinOp, Imm, Inst};
    use crate::program::Block;

    #[test]
    fn valid_program_passes() {
        let mut b = ProgramBuilder::new("ok");
        let x = b.var_i32("x", 0);
        let v = b.read_var(x);
        let w = b.add(v, v);
        b.write_var(x, w);
        b.halt();
        assert!(b.finish().is_ok());
    }

    #[test]
    fn use_before_def_rejected() {
        // Hand-build a broken program (the builder cannot produce this).
        let program = Program {
            name: "bad".into(),
            vars: vec![],
            arrays: vec![],
            blocks: vec![Block {
                name: "entry".into(),
                insts: vec![Inst::new(
                    Some(ValueId::from_raw(1)),
                    InstKind::Bin(BinOp::Add, ValueId::from_raw(0), ValueId::from_raw(0)),
                )],
                term: Terminator::Halt,
            }],
            entry: BlockId::from_raw(0),
            value_types: vec![Ty::I32, Ty::I32],
            value_names: Default::default(),
        };
        assert!(matches!(
            verify(&program),
            Err(VerifyError::UseBeforeDef { .. })
        ));
    }

    #[test]
    fn cross_block_use_rejected() {
        let program = Program {
            value_types: vec![Ty::I32],
            blocks: vec![
                Block {
                    name: "a".into(),
                    insts: vec![Inst::new(
                        Some(ValueId::from_raw(0)),
                        InstKind::Const(Imm::I(1)),
                    )],
                    term: Terminator::Jump(BlockId::from_raw(1)),
                },
                Block {
                    name: "b".into(),
                    insts: vec![],
                    term: Terminator::Branch {
                        cond: ValueId::from_raw(0),
                        if_true: BlockId::from_raw(0),
                        if_false: BlockId::from_raw(1),
                    },
                },
            ],
            ..Program::default()
        };
        assert!(matches!(
            verify(&program),
            Err(VerifyError::UseBeforeDef { .. })
        ));
    }

    #[test]
    fn a_use_needs_a_definition_earlier_in_its_own_block() {
        let v = ValueId::from_raw;
        let def = |dst, imm| Inst::new(Some(v(dst)), InstKind::Const(Imm::I(imm)));
        let add = |dst, a, b| Inst::new(Some(v(dst)), InstKind::Bin(BinOp::Add, v(a), v(b)));
        let block = |name: &str, insts, term| Block {
            name: name.into(),
            insts,
            term,
        };
        // v1 is defined in block a and used by the add in block b.
        let later_block = Program {
            value_types: vec![Ty::I32; 4],
            blocks: vec![
                block(
                    "a",
                    vec![def(0, 1), def(1, 2)],
                    Terminator::Jump(BlockId::from_raw(1)),
                ),
                block("b", vec![def(2, 3), add(3, 2, 1)], Terminator::Halt),
            ],
            ..Program::default()
        };
        assert_eq!(
            verify(&later_block),
            Err(VerifyError::UseBeforeDef {
                value: v(1),
                block: BlockId::from_raw(1),
            })
        );
        // v2 is used by the add before the const after it defines it.
        let same_block = Program {
            value_types: vec![Ty::I32; 3],
            blocks: vec![block(
                "a",
                vec![def(0, 1), add(1, 0, 2), def(2, 3)],
                Terminator::Halt,
            )],
            ..Program::default()
        };
        assert_eq!(
            verify(&same_block),
            Err(VerifyError::UseBeforeDef {
                value: v(2),
                block: BlockId::from_raw(0),
            })
        );
    }

    #[test]
    fn type_mismatch_rejected() {
        let program = Program {
            value_types: vec![Ty::F32, Ty::I32],
            blocks: vec![Block {
                name: "a".into(),
                insts: vec![
                    Inst::new(Some(ValueId::from_raw(0)), InstKind::Const(Imm::F(1.0))),
                    Inst::new(
                        Some(ValueId::from_raw(1)),
                        InstKind::Bin(BinOp::Add, ValueId::from_raw(0), ValueId::from_raw(0)),
                    ),
                ],
                term: Terminator::Halt,
            }],
            ..Program::default()
        };
        assert!(matches!(
            verify(&program),
            Err(VerifyError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn double_var_write_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let x = b.var_i32("x", 0);
        let v = b.const_i32(1);
        b.write_var(x, v);
        b.write_var(x, v);
        b.halt();
        assert!(matches!(
            b.finish(),
            Err(VerifyError::MultipleVarWrites { .. })
        ));
    }

    #[test]
    fn array_element_count_past_u32_rejected() {
        let mut b = ProgramBuilder::new("bad");
        b.array("A", Ty::I32, &[4]);
        let big = b.array("B", Ty::I32, &[65536, 65536]);
        b.halt();
        assert_eq!(b.finish(), Err(VerifyError::ArrayTooLarge { array: big }));
        let mut b = ProgramBuilder::new("ok");
        b.array("B", Ty::I32, &[65536, 65535]);
        b.halt();
        assert!(b.finish().is_ok());
    }

    #[test]
    fn bad_branch_target_rejected() {
        let program = Program {
            blocks: vec![Block {
                name: "a".into(),
                insts: vec![],
                term: Terminator::Jump(BlockId::from_raw(7)),
            }],
            ..Program::default()
        };
        assert!(matches!(
            verify(&program),
            Err(VerifyError::BadReference { .. })
        ));
    }
}
