//! Property tests for the reference interpreter: random arithmetic folds
//! must match host evaluation exactly, and execution must be deterministic.

use raw_ir::builder::ProgramBuilder;
use raw_ir::interp::Interpreter;
use raw_ir::{BinOp, Imm};
use raw_testkit::prelude::*;

raw_testkit::proptest! {
    /// A random chain of overflow-safe integer ops evaluates exactly as on
    /// the host.
    #[test]
    fn interpreter_matches_host_arithmetic(
        vals in vec(any::<i16>(), 1..40),
        ops in vec(0u8..4, 1..40),
    ) {
        let mut b = ProgramBuilder::new("prop-arith");
        let out = b.var_i32("out", 0);
        // Seeded from a variable, so the interpreter evaluates every
        // operator (the builder folds operators over constants).
        let seed = b.var_i32("seed", 1);
        let mut acc_host: i32 = 1;
        let mut acc = b.read_var(seed);
        for (&v, &o) in vals.iter().zip(ops.iter()) {
            let rhs_host = v as i32;
            let rhs = b.const_i32(rhs_host);
            let op = [BinOp::Add, BinOp::Sub, BinOp::And, BinOp::Xor][o as usize];
            acc_host = match op {
                BinOp::Add => acc_host + rhs_host,
                BinOp::Sub => acc_host - rhs_host,
                BinOp::And => acc_host & rhs_host,
                _ => acc_host ^ rhs_host,
            };
            acc = b.bin(op, acc, rhs);
        }
        b.write_var(out, acc);
        b.halt();
        let p = b.finish().expect("generated program is valid");
        let r = Interpreter::new(&p).run().unwrap();
        prop_assert_eq!(r.vars[0], Imm::I(acc_host));
        // Determinism: a second run reproduces the same state bit-for-bit.
        let r2 = Interpreter::new(&p).run().unwrap();
        prop_assert!(r2.state_eq(&r));
    }
}
