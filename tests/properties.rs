//! Property-based tests: random programs through the whole pipeline.
//!
//! The central invariant of the reproduction — *space-time scheduling
//! preserves sequential semantics* — is checked on randomly generated
//! straight-line dataflow programs, random affine loop nests, and random
//! register-pressure shapes.

use raw_repro::cc::{compile, CompilerOptions};
use raw_repro::ir::builder::ProgramBuilder;
use raw_repro::ir::interp::Interpreter;
use raw_repro::ir::{BinOp, Imm, InstKind, MemHome, Program, Ty, UnOp, ValueId, VarId};
use raw_repro::machine::MachineConfig;
use raw_testkit::prelude::*;

/// One random straight-line op over previously defined values.
#[derive(Clone, Debug)]
enum Op {
    ConstI(i16),
    ConstF(i16),
    IntBin(u8, usize, usize),
    FloatBin(u8, usize, usize),
    FloatUn(u8, usize),
    Load(usize),
    Store(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i16>().prop_map(Op::ConstI),
        any::<i16>().prop_map(Op::ConstF),
        (0u8..6, any::<usize>(), any::<usize>()).prop_map(|(o, a, b)| Op::IntBin(o, a, b)),
        (0u8..4, any::<usize>(), any::<usize>()).prop_map(|(o, a, b)| Op::FloatBin(o, a, b)),
        (0u8..3, any::<usize>()).prop_map(|(o, a)| Op::FloatUn(o, a)),
        any::<usize>().prop_map(Op::Load),
        (any::<usize>(), any::<usize>()).prop_map(|(i, v)| Op::Store(i, v)),
    ]
}

/// Builds a valid straight-line program from a random op tape. Every operand
/// index is taken modulo the values of the right type defined so far, so any
/// tape yields a structurally valid program.
fn build_program(ops: &[Op], n_tiles: u32) -> Program {
    let mut b = ProgramBuilder::new("prop");
    let arr = b.array("M", Ty::I32, &[16]);
    b.set_array_init(arr, (0..16).map(|k| Imm::I(k * 3 - 7)).collect());
    let out_i = b.var_i32("out_i", 0);
    let out_f = b.var_f32("out_f", 0.0);
    // The tape starts from variable reads: the builder folds an operator
    // over constants, so values seeded from constants alone would never
    // reach the machine as arithmetic.
    let in_i = b.var_i32("in_i", 5);
    let in_f = b.var_f32("in_f", 1.5);

    let mut ints: Vec<ValueId> = vec![b.read_var(in_i)];
    let mut floats: Vec<ValueId> = vec![b.read_var(in_f)];

    for op in ops {
        match op {
            Op::ConstI(v) => ints.push(b.const_i32(*v as i32)),
            Op::ConstF(v) => floats.push(b.const_f32(*v as f32 / 64.0)),
            Op::IntBin(o, x, y) => {
                let l = ints[x % ints.len()];
                let r = ints[y % ints.len()];
                let op = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::And,
                    BinOp::Xor,
                    BinOp::Slt,
                ][*o as usize % 6];
                ints.push(b.bin(op, l, r));
            }
            Op::FloatBin(o, x, y) => {
                let l = floats[x % floats.len()];
                let r = floats[y % floats.len()];
                let op = [BinOp::AddF, BinOp::SubF, BinOp::MulF, BinOp::MulF][*o as usize % 4];
                floats.push(b.bin(op, l, r));
            }
            Op::FloatUn(o, x) => {
                let s = floats[x % floats.len()];
                let op = [UnOp::NegF, UnOp::AbsF, UnOp::Mov][*o as usize % 3];
                floats.push(b.un(op, s));
            }
            Op::Load(i) => {
                // In-bounds masked index with a compile-time-known residue so
                // the access is static.
                let k = (i % 16) as u32;
                let idx = b.const_i32(k as i32);
                ints.push(b.load(arr, idx, 0, MemHome::Static(k % n_tiles)));
            }
            Op::Store(i, v) => {
                let k = (i % 16) as u32;
                let idx = b.const_i32(k as i32);
                let val = ints[v % ints.len()];
                b.store(arr, idx, 0, val, MemHome::Static(k % n_tiles));
            }
        }
    }
    let vi = *ints.last().unwrap();
    let vf = *floats.last().unwrap();
    b.write_var(out_i, vi);
    b.write_var(out_f, vf);
    b.halt();
    b.finish().expect("generated program is valid")
}

proptest! {
    #![cases(24)]

    /// Random straight-line dataflow programs compile, simulate without
    /// deadlock, and match the interpreter bit-exactly on 1, 2, and 4 tiles.
    #[test]
    fn random_dag_programs_roundtrip(ops in vec(op_strategy(), 1..60)) {
        for n in [1u32, 2, 4] {
            let program = build_program(&ops, n);
            let golden = Interpreter::new(&program).run().unwrap();
            let config = MachineConfig::square(n);
            let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
            let (result, _) = compiled.run(&program).unwrap();
            prop_assert!(result.state_eq(&golden), "diverged at {} tiles", n);
        }
    }

    /// Random affine loop kernels: the unrolled/staticized program computes
    /// the same array contents as the rolled original, and the compiled code
    /// matches its interpreter.
    #[test]
    fn random_affine_loops_roundtrip(
        stride in 1i64..4,
        offset in 0i64..8,
        trip in 1i64..12,
        mulk in 1i64..5,
    ) {
        // for (i = 0; i < trip; i++) A[stride*i + offset] = mulk*i + A[...];
        let max_index = stride * (trip - 1) + offset;
        let len = (max_index + 1).max(1);
        let src = format!(
            "int i; int A[{len}];
             for (i = 0; i < {trip}; i = i + 1)
               A[{stride}*i + {offset}] = A[{stride}*i + {offset}] + {mulk}*i;"
        );
        let rolled = raw_repro::lang::compile_source_with(
            "rolled", &src, 1,
            raw_repro::lang::UnrollOptions { ilp_factor: 1, reassociate: false },
        ).unwrap();
        let golden = Interpreter::new(&rolled).run().unwrap();
        let a_ref = rolled.array_by_name("A").unwrap();

        for n in [2u32, 4] {
            let program = raw_repro::lang::compile_source("unrolled", &src, n).unwrap();
            let check = Interpreter::new(&program).run().unwrap();
            let a = program.array_by_name("A").unwrap();
            prop_assert_eq!(
                check.array_values(a),
                golden.array_values(a_ref),
                "unrolling changed semantics at {} tiles", n
            );
            let config = MachineConfig::square(n);
            let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
            let (result, _) = compiled.run(&program).unwrap();
            prop_assert!(result.state_eq(&check), "compiled diverged at {} tiles", n);
        }
    }

    /// Register pressure: the same program compiled under tight and abundant
    /// register budgets must agree (spilling preserves semantics end to end).
    #[test]
    fn register_budgets_agree(ops in vec(op_strategy(), 30..80)) {
        let program = build_program(&ops, 2);
        let golden = Interpreter::new(&program).run().unwrap();
        for gprs in [4u32, 8, 32, 1 << 12] {
            let mut config = MachineConfig::square(2);
            config.gprs = gprs;
            let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
            let (result, _) = compiled.run(&program).unwrap();
            prop_assert!(result.state_eq(&golden), "diverged with {} registers", gprs);
        }
    }
}

/// What makes two pure instructions of one block compute the same value.
#[derive(PartialEq, Eq, Hash)]
enum PureKey {
    Const(u32, Ty),
    Un(UnOp, ValueId),
    Bin(BinOp, ValueId, ValueId),
    ReadVar(VarId),
}

/// Every lowered program of the three benchmark suites, at 1 to 32 tiles:
/// no block holds two pure instructions with equal keys (the builder emits
/// each distinct pure expression of a block once), and no unary or binary
/// operator has only constant operands (the builder folds those).
#[test]
fn lowered_blocks_hold_each_pure_expression_once() {
    use std::collections::HashSet;
    let suites = [
        raw_repro::benchmarks::suite(),
        raw_repro::benchmarks::scenario_suite(),
        raw_repro::benchmarks::tiny_suite(),
    ];
    let mut checked = 0;
    for bench in suites.iter().flatten() {
        for tiles in [1, 2, 4, 8, 16, 32] {
            let program = bench.program(tiles).unwrap();
            for (bid, block) in program.iter_blocks() {
                let at = format!("{}@{tiles} {bid}", bench.name);
                let mut keys = HashSet::new();
                let mut consts = HashSet::new();
                for inst in &block.insts {
                    let key = match inst.kind {
                        InstKind::Const(imm) => {
                            consts.insert(inst.dst.unwrap());
                            PureKey::Const(imm.to_bits(), imm.ty())
                        }
                        InstKind::Un(op, a) => {
                            assert!(!consts.contains(&a), "{at}: {op} of a constant");
                            PureKey::Un(op, a)
                        }
                        InstKind::Bin(op, a, b) => {
                            assert!(
                                !(consts.contains(&a) && consts.contains(&b)),
                                "{at}: {op} of two constants"
                            );
                            let (a, b) = if op.commutes() && b < a {
                                (b, a)
                            } else {
                                (a, b)
                            };
                            PureKey::Bin(op, a, b)
                        }
                        InstKind::ReadVar(var) => PureKey::ReadVar(var),
                        _ => continue,
                    };
                    assert!(keys.insert(key), "{at}: {} repeats", program.fmt_inst(inst));
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0);
}
