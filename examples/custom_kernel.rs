//! Building a kernel two ways: from mini-C source, and directly through the
//! [`ProgramBuilder`] IR API — then compiling both for a 4-tile machine.
//!
//! The kernel is a dot product with a twist: it keeps a running maximum of the
//! partial products (an `if` inside the loop), demonstrating distributed
//! control flow (branch-condition broadcast) alongside static array accesses.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use raw_ir::builder::ProgramBuilder;
use raw_ir::interp::Interpreter;
use raw_ir::{Imm, MemHome, Ty};
use raw_lang::compile_source;
use raw_machine::MachineConfig;
use rawcc::{compile, CompilerOptions};

const N_TILES: u32 = 4;

fn from_source() -> raw_ir::Program {
    let src = "
        int i;
        float A[16];
        float B[16];
        float dot = 0.0;
        float peak = 0.0;
        float p;
        for (i = 0; i < 16; i = i + 1) {
            p = A[i] * B[i];
            dot = dot + p;
            if (peak < p) { peak = p; }
        }
    ";
    let mut program = compile_source("dot-from-source", src, N_TILES).expect("valid kernel");
    // Host-side data.
    for name in ["A", "B"] {
        let id = program.array_by_name(name).unwrap();
        program.arrays[id.index()].init =
            (0..16).map(|k| Imm::F(0.25 * (k as f32 + 1.0))).collect();
    }
    program
}

/// The same kernel expressed directly in IR (one fully unrolled block):
/// useful when embedding the compiler without the mini-C frontend.
fn from_builder() -> raw_ir::Program {
    let mut b = ProgramBuilder::new("dot-from-builder");
    let a = b.array("A", Ty::F32, &[16]);
    let bb = b.array("B", Ty::F32, &[16]);
    b.set_array_init(
        a,
        (0..16).map(|k| Imm::F(0.25 * (k as f32 + 1.0))).collect(),
    );
    b.set_array_init(
        bb,
        (0..16).map(|k| Imm::F(0.25 * (k as f32 + 1.0))).collect(),
    );
    let dot = b.var_f32("dot", 0.0);
    let peak = b.var_f32("peak", 0.0);

    // Products; element k lives on tile k mod N (low-order interleaving), so
    // each access is annotated with its compile-time home residue.
    let mut products = Vec::new();
    for k in 0..16u32 {
        let idx = b.const_i32(k as i32);
        let av = b.load(a, idx, 0, MemHome::Static(k % N_TILES));
        let bv = b.load(bb, idx, 0, MemHome::Static(k % N_TILES));
        products.push(b.mul_f(av, bv));
    }
    // Balanced reduction tree for the dot product.
    let mut layer = products.clone();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|c| {
                if c.len() == 2 {
                    b.add_f(c[0], c[1])
                } else {
                    c[0]
                }
            })
            .collect();
    }
    b.write_var(dot, layer[0]);
    // Maximum via a comparison tree (branch-free in builder form).
    let mut m = products[0];
    for &p in &products[1..] {
        let cond = b.bin(raw_ir::BinOp::FLt, m, p);
        // select(cond, p, m) = m + cond * (p - m) is not expressible without
        // fp<->int tricks; use a tiny diamond instead to show control flow.
        let _ = cond;
        m = {
            // max(m, p) arithmetically: (m + p + |m - p|) / 2
            let diff = b.sub_f(m, p);
            let ad = b.un(raw_ir::UnOp::AbsF, diff);
            let sum = b.add_f(m, p);
            let two = b.const_f32(2.0);
            let top = b.add_f(sum, ad);
            b.div_f(top, two)
        };
    }
    b.write_var(peak, m);
    b.halt();
    b.finish().expect("valid program")
}

fn run(program: &raw_ir::Program) -> Result<(), Box<dyn std::error::Error>> {
    let config = MachineConfig::square(N_TILES);
    let compiled = compile(program, &config, &CompilerOptions::default())?;
    let (result, report) = compiled.run(program)?;
    let golden = Interpreter::new(program).run()?;
    assert!(result.state_eq(&golden), "{}: mismatch", program.name);
    let dot = program.var_by_name("dot").unwrap();
    let peak = program.var_by_name("peak").unwrap();
    println!(
        "{:20} {:6} cycles on {N_TILES} tiles   dot = {}  peak = {}",
        program.name,
        report.cycles,
        result.var_value(dot),
        result.var_value(peak),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(&from_source())?;
    run(&from_builder())?;
    println!("both versions verified bit-exactly against the interpreter");
    Ok(())
}
