//! Edge cases across the public API: degenerate machine shapes, tight
//! buffering, scheduler variants, and frontend corner cases.

use raw_repro::cc::{compile, CompilerOptions, PriorityScheme};
use raw_repro::ir::builder::ProgramBuilder;
use raw_repro::ir::interp::Interpreter;
use raw_repro::ir::Imm;
use raw_repro::lang::compile_source;
use raw_repro::machine::chaos::ChaosConfig;
use raw_repro::machine::MachineConfig;
use raw_repro::trace::oracle::check;

fn roundtrip(program: &raw_repro::ir::Program, config: MachineConfig) -> u64 {
    let compiled = compile(program, &config, &CompilerOptions::default()).unwrap();
    let (result, report) = compiled.run(program).unwrap();
    let golden = Interpreter::new(program).run().unwrap();
    assert!(result.state_eq(&golden), "{} diverged", program.name);
    report.cycles
}

#[test]
fn single_word_port_buffers_still_work() {
    // Capacity-1 static-network FIFOs: maximal backpressure must not deadlock
    // a scheduled program (the static ordering property holds for any
    // capacity ≥ 1).
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    let program = bench.program(4).unwrap();
    let mut config = MachineConfig::square(4);
    config.port_capacity = 1;
    let cycles_tight = roundtrip(&program, config);
    let cycles_roomy = roundtrip(&program, MachineConfig::square(4));
    assert!(
        cycles_tight >= cycles_roomy,
        "less buffering cannot be faster: {cycles_tight} vs {cycles_roomy}"
    );
}

#[test]
fn tight_buffers_under_chaos_are_still_deterministic() {
    let bench = raw_repro::benchmarks::mxm(4, 8, 2);
    let program = bench.program(4).unwrap();
    let mut config = MachineConfig::square(4);
    config.port_capacity = 1;
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    check(&compiled, &program, &ChaosConfig::sweep([1, 2, 3], &[40])).unwrap();
}

#[test]
fn one_by_n_strip_meshes() {
    // Extreme aspect ratio: an 8-tile strip has diameter 7.
    let bench = raw_repro::benchmarks::cholesky(1, 6);
    let program = bench.program(8).unwrap();
    roundtrip(&program, MachineConfig::grid(1, 8));
    roundtrip(&program, MachineConfig::grid(8, 1));
}

#[test]
fn empty_program_compiles_and_halts() {
    let mut b = ProgramBuilder::new("empty");
    b.halt();
    let program = b.finish().unwrap();
    let cycles = roundtrip(&program, MachineConfig::square(4));
    assert!(
        cycles < 10,
        "an empty program should halt almost immediately"
    );
}

#[test]
fn zero_trip_loops_and_empty_branches() {
    let src = "
        int i; int x = 5;
        for (i = 9; i < 3; i = i + 1) { x = 0; }
        if (x > 100) { x = 1; } else { }
        while (x < 0) { x = x - 1; }
    ";
    let program = compile_source("degenerate", src, 2).unwrap();
    let compiled = compile(
        &program,
        &MachineConfig::square(2),
        &CompilerOptions::default(),
    )
    .unwrap();
    let (result, _) = compiled.run(&program).unwrap();
    let x = program.var_by_name("x").unwrap();
    assert_eq!(result.var_value(x), Imm::I(5));
    // The induction variable keeps C semantics: i = init when the body never runs.
    let i = program.var_by_name("i").unwrap();
    assert_eq!(result.var_value(i), Imm::I(9));
}

#[test]
fn constant_branch_conditions_link_as_jumps() {
    // `if (1)` and `while (0)` lower to branches on a block constant. A
    // constant has no producer tile to broadcast it, so the compiler decides
    // the branch and links a jump: no tile executes a conditional branch.
    let src = "
        int x = 5; int y;
        if (1) { x = 2; } else { x = 3; }
        if (0) { y = 1; }
        while (0) { x = x + 1; }
    ";
    for n in [1u32, 2, 4] {
        let program = compile_source("constant-branches", src, n).unwrap();
        let compiled = compile(
            &program,
            &MachineConfig::square(n),
            &CompilerOptions::default(),
        )
        .unwrap();
        let bnez = compiled.machine_program.tiles.iter().any(|t| {
            t.proc
                .iter()
                .any(|i| matches!(i, raw_repro::machine::isa::PInst::Bnez { .. }))
        });
        assert!(!bnez, "{n} tiles: a constant branch was left conditional");
        check(&compiled, &program, &[]).unwrap();
        let x = program.var_by_name("x").unwrap();
        assert_eq!(compiled.run(&program).unwrap().0.var_value(x), Imm::I(2));
    }
}

#[test]
fn all_priority_schemes_agree_on_results() {
    let bench = raw_repro::benchmarks::tomcatv(8, 1);
    let program = bench.program(4).unwrap();
    let golden = Interpreter::new(&program).run().unwrap();
    for priority in [
        PriorityScheme::LevelFertility,
        PriorityScheme::LevelOnly,
        PriorityScheme::SourceOrder,
    ] {
        let options = CompilerOptions {
            priority,
            ..Default::default()
        };
        let compiled = compile(&program, &MachineConfig::square(4), &options).unwrap();
        let (result, _) = compiled.run(&program).unwrap();
        assert!(result.state_eq(&golden), "{priority:?} diverged");
    }
}

#[test]
fn deep_branch_nesting_broadcasts_correctly() {
    // Chained conditionals so every block's branch condition originates on a
    // potentially different tile.
    let src = "
        int a = 3; int b = 7; int c = 0;
        if (a < b) {
            if (a + a < b) {
                if (b - a == 4) { c = 1; } else { c = 2; }
            } else { c = 3; }
        } else { c = 4; }
    ";
    let program = compile_source("nest", src, 8).unwrap();
    let compiled = compile(
        &program,
        &MachineConfig::square(8),
        &CompilerOptions::default(),
    )
    .unwrap();
    let (result, _) = compiled.run(&program).unwrap();
    let c = program.var_by_name("c").unwrap();
    assert_eq!(result.var_value(c), Imm::I(1));
}

#[test]
fn frontend_rejects_malformed_kernels_gracefully() {
    // (source, what is wrong, a fragment the error message must name)
    for (src, what, names) in [
        ("int x; x = ;", "empty expression", "expected expression"),
        ("float y; y = 1.5 %% 2.0;", "bad operator", "expected expression"),
        ("int A[0]; A[0] = 1;", "zero-size array", "positive integer"),
        (
            "int i; for (i = 0; i > 3; i = i + 1) i = 0;",
            "for condition other than < or <=",
            "'<' or '<='",
        ),
        ("int x x = 1;", "missing semicolon", "expected ';'"),
        (
            "int i; int A[4]; for (i = 0; i < (0 - 9223372036854775807 - 1) / (0 - 1); i = i + 1) A[0] = i;",
            "bound whose constant fold divides with overflow",
            "9223372036854775807",
        ),
        (
            "int i; int A[4]; for (i = 0; i < 3037000500 * 3037000500; i = i + 1) A[0] = i;",
            "bound whose constant fold multiplies with overflow",
            "3037000500",
        ),
    ] {
        let err = compile_source("bad", src, 2)
            .expect_err(&format!("{what} should be rejected: {src}"));
        assert!(err.span.line >= 1, "error must carry a position");
        assert!(
            err.message.contains(names),
            "{what}: message {:?} should name {names:?}",
            err.message
        );
    }
}

#[test]
fn loops_that_write_their_induction_variable_agree_with_the_interpreter() {
    // The body moves `i` off its `init + k*step` progression, so no access
    // indexed by `i` has a compile-time home.
    for (name, src) in [
        (
            "bump_then_store",
            "int i; int A[32]; for (i = 0; i < 16; i = i + 4) { i = i + 1; A[i] = i; }",
        ),
        (
            "store_bump_store",
            "int i; int n = 16; int A[32];
             for (i = 0; i < n; i = i + 4) { A[i] = i; i = i + 1; A[i] = i; }",
        ),
        (
            "nest_reuses_variable",
            "int i; int n = 9; int A[16];
             for (i = 0; i < 8; i = i + 2) { for (i = 1; i < n; i = i + 2) { A[i] = i; } }",
        ),
    ] {
        for tiles in [2, 4] {
            let program = compile_source(name, src, tiles).unwrap();
            let config = MachineConfig::square(tiles);
            let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
            check(&compiled, &program, &[]).unwrap();
        }
    }
}

#[test]
fn interpreter_and_machine_agree_on_integer_edge_values() {
    let mut b = ProgramBuilder::new("edges");
    let out = b.var_i32("out", 0);
    // Read from a variable, so the machine divides (the builder folds an
    // operator over two constants).
    let min_var = b.var_i32("min", i32::MIN);
    let min = b.read_var(min_var);
    let neg1 = b.const_i32(-1);
    // i32::MIN / -1 overflows in hardware; both models must agree on a value.
    let q = b.div(min, neg1);
    let r = b.bin(raw_repro::ir::BinOp::Rem, min, neg1);
    let s = b.add(q, r);
    b.write_var(out, s);
    b.halt();
    let program = b.finish().unwrap();
    roundtrip(&program, MachineConfig::square(2));
}

#[test]
fn large_immediates_and_negative_indices_are_handled() {
    let mut b = ProgramBuilder::new("imm");
    let out = b.var_i32("out", 0);
    let big = b.const_i32(i32::MAX);
    let one_var = b.var_i32("one", 1);
    let one = b.read_var(one_var);
    let wrapped = b.add(big, one); // wraps to i32::MIN
    b.write_var(out, wrapped);
    b.halt();
    let program = b.finish().unwrap();
    let compiled = compile(
        &program,
        &MachineConfig::square(1),
        &CompilerOptions::default(),
    )
    .unwrap();
    let (result, _) = compiled.run(&program).unwrap();
    assert_eq!(
        result.var_value(program.var_by_name("out").unwrap()),
        Imm::I(i32::MIN)
    );
}

#[test]
fn negative_index_parts_address_correctly() {
    // `A[N1 - i]` lowers to index `-i` with offset N1: the index part is
    // negative, so its home-word shift must be arithmetic, the offset's
    // carry into the word must be kept, and the base register must be
    // sign-extended.
    let src = "int i; int j; int A[32]; int B[32]; int X[8][8];
        for (i = 0; i < 32; i = i + 1) { A[i] = 3 * i + 1; }
        for (i = 0; i < 31; i = i + 1) { B[i] = A[31 - i] * 5 - A[31 - i - 1]; }
        for (i = 0; i < 8; i = i + 1) {
            for (j = 0; j < 8; j = j + 1) { X[i][7 - j] = A[i + j] + j; }
        }";
    for tiles in [1, 2, 4, 16] {
        let program = compile_source("negidx", src, tiles).unwrap();
        let config = MachineConfig::square(tiles);
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        check(&compiled, &program, &[]).unwrap();
    }
}
