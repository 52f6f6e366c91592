//! Golden-snapshot tests: the IR pretty-printer and the generated per-tile
//! assembly are pinned as checked-in text for two small kernels.
//!
//! On mismatch the test fails with a diff hint; regenerate consciously with
//! `UPDATE_GOLDEN=1 cargo test --test golden_snapshots` and review the diff
//! like any other code change.

use raw_repro::cc::{compile, CompilerOptions};
use raw_repro::machine::MachineConfig;
use std::fmt::Write as _;
use std::path::PathBuf;

const DOT_KERNEL: &str = "int i; int s; int A[8]; int B[8];
for (i = 0; i < 8; i = i + 1) A[i] = 2*i + 1;
for (i = 0; i < 8; i = i + 1) B[i] = 3*i;
for (i = 0; i < 8; i = i + 1) s = s + A[i]*B[i];
";

const FP_KERNEL: &str = "float a = 1.5; float b = 2.25; float c; float d;
c = a*b + 0.5;
d = sqrt(abs(c)) + a;
";

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    raw_testkit::check_golden(&path, actual);
}

/// Renders per-tile processor and switch streams (showcode's format).
fn render_asm(program: &raw_repro::ir::Program, config: &MachineConfig) -> String {
    let compiled = compile(program, config, &CompilerOptions::default()).unwrap();
    let mut s = String::new();
    for (t, tile) in compiled.machine_program.tiles.iter().enumerate() {
        writeln!(
            s,
            "=== tile{t} processor ({} instructions) ===",
            tile.proc.len()
        )
        .unwrap();
        for (i, inst) in tile.proc.iter().enumerate() {
            writeln!(s, "{i:5}: {inst}").unwrap();
        }
        writeln!(
            s,
            "=== tile{t} switch ({} instructions) ===",
            tile.switch.len()
        )
        .unwrap();
        for (i, inst) in tile.switch.iter().enumerate() {
            writeln!(s, "{i:5}: {inst}").unwrap();
        }
    }
    s
}

#[test]
fn ir_pretty_printer_is_pinned() {
    let dot = raw_repro::lang::compile_source("dot", DOT_KERNEL, 4).unwrap();
    check_golden("ir_dot_4tiles.txt", &dot.to_string());
    let fp = raw_repro::lang::compile_source("fp", FP_KERNEL, 1).unwrap();
    check_golden("ir_fp_1tile.txt", &fp.to_string());
}

#[test]
fn per_tile_assembly_is_pinned() {
    let dot = raw_repro::lang::compile_source("dot", DOT_KERNEL, 4).unwrap();
    check_golden(
        "asm_dot_2x2.txt",
        &render_asm(&dot, &MachineConfig::grid(2, 2)),
    );
    let fp = raw_repro::lang::compile_source("fp", FP_KERNEL, 2).unwrap();
    check_golden(
        "asm_fp_1x2.txt",
        &render_asm(&fp, &MachineConfig::grid(1, 2)),
    );
}

/// The paper kernels at 4 and 16 tiles, plus the three huge-block kernels at
/// 4×8 as well, pinned by `raw-bench compile`'s `asm_hash` (FNV over the
/// `MachineProgram`'s debug form). The text snapshots above are too small to
/// reach the regime of hundreds of port events per tile; these blocks do.
#[test]
fn big_block_asm_hashes_are_pinned() {
    use raw_testkit::hash64;
    let mut s = String::new();
    for bench in raw_repro::benchmarks::suite() {
        let mut shapes = vec![(2, 2), (4, 4)];
        if matches!(bench.name, "cholesky" | "fpppp-kernel" | "mxm") {
            shapes.push((4, 8));
        }
        for (rows, cols) in shapes {
            let program = bench.program(rows * cols).unwrap();
            let config = MachineConfig::grid(rows, cols);
            let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
            let hash = hash64(format!("{:?}", compiled.machine_program).as_bytes());
            writeln!(s, "{}@{rows}x{cols} {hash:#018x}", bench.name).unwrap();
        }
    }
    check_golden("asm_hashes.txt", &s);
}

#[test]
fn golden_snapshots_still_execute_correctly() {
    // The pinned kernels are not just text: they must still compile, run,
    // and agree with the interpreter (guards against pinning broken output).
    use raw_repro::ir::interp::Interpreter;
    for (src, n) in [(DOT_KERNEL, 4u32), (FP_KERNEL, 2)] {
        let program = raw_repro::lang::compile_source("golden", src, n).unwrap();
        let golden = Interpreter::new(&program).run().unwrap();
        let config = MachineConfig::square(n);
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let (result, _) = compiled.run(&program).unwrap();
        assert!(result.state_eq(&golden));
    }
}
