//! Regression tests for content-addressed block compilation: a block's
//! placement and schedule are a function of the block's *content*, never of
//! its position in the program. Deleting or reordering an unrelated block
//! must therefore leave every other block's placement — accepted-swap log,
//! tile assignment, makespan, exact-solver report — unchanged.

use raw_ir::builder::ProgramBuilder;
use raw_ir::{Program, VarId};
use raw_machine::MachineConfig;
use rawcc::{
    compile_with_cache, BlockCache, BlockReport, CompiledProgram, CompilerOptions, Strategy,
};
use std::collections::BTreeMap;

fn decls(b: &mut ProgramBuilder) -> (VarId, VarId, VarId) {
    (b.var_i32("sx", 3), b.var_i32("sy", 5), b.var_i32("sz", 7))
}

/// A wide expression tree (enough parallelism that placement makes real
/// choices) folding into `var`; `salt` differentiates block contents.
fn emit_body(b: &mut ProgramBuilder, var: VarId, salt: i32) {
    let base = b.read_var(var);
    let mut acc = base;
    for i in 0..6 {
        let c1 = b.const_i32(salt + i);
        let c2 = b.const_i32(2 * salt + i + 1);
        let t1 = b.add(base, c1);
        let t2 = b.mul(t1, c2);
        acc = b.add(acc, t2);
    }
    b.write_var(var, acc);
}

/// X → Y → Z, blocks in program order [X, Y, Z].
fn program_xyz() -> Program {
    let mut b = ProgramBuilder::new("xyz");
    let (sx, sy, sz) = decls(&mut b);
    let yb = b.new_block("Y");
    let zb = b.new_block("Z");
    emit_body(&mut b, sx, 10);
    b.jump(yb);
    b.switch_to(yb);
    emit_body(&mut b, sy, 20);
    b.jump(zb);
    b.switch_to(zb);
    emit_body(&mut b, sz, 30);
    b.halt();
    b.finish().unwrap()
}

/// X → Z with Y deleted, blocks in program order [X, Z].
fn program_xz() -> Program {
    let mut b = ProgramBuilder::new("xz");
    let (sx, _sy, sz) = decls(&mut b);
    let zb = b.new_block("Z");
    emit_body(&mut b, sx, 10);
    b.jump(zb);
    b.switch_to(zb);
    emit_body(&mut b, sz, 30);
    b.halt();
    b.finish().unwrap()
}

/// Same CFG as [`program_xyz`] but blocks *declared* in order [X, Z, Y].
fn program_xzy() -> Program {
    let mut b = ProgramBuilder::new("xzy");
    let (sx, sy, sz) = decls(&mut b);
    let zb = b.new_block("Z");
    let yb = b.new_block("Y");
    emit_body(&mut b, sx, 10);
    b.jump(yb);
    b.switch_to(yb);
    emit_body(&mut b, sy, 20);
    b.jump(zb);
    b.switch_to(zb);
    emit_body(&mut b, sz, 30);
    b.halt();
    b.finish().unwrap()
}

fn exact() -> CompilerOptions {
    CompilerOptions {
        strategy: Strategy::Exact,
        threads: 1,
        ..CompilerOptions::default()
    }
}

fn compile(program: &Program) -> CompiledProgram {
    compile_with_cache(
        program,
        &MachineConfig::square(4),
        &exact(),
        &BlockCache::in_memory(),
    )
    .unwrap()
}

/// The (node → tile) placement of block index `block`, from provenance.
fn placement_of(compiled: &CompiledProgram, block: u32) -> BTreeMap<u32, u32> {
    compiled
        .provenance
        .records
        .iter()
        .filter(|r| r.block == block)
        .map(|r| (r.node, r.tile))
        .collect()
}

fn assert_block_invariant(a: (&CompiledProgram, u32), b: (&CompiledProgram, u32), what: &str) {
    let ra: &BlockReport = &a.0.report.blocks[a.1 as usize];
    let rb: &BlockReport = &b.0.report.blocks[b.1 as usize];
    assert_eq!(ra, rb, "{what}: BlockReport (incl. placement log) changed");
    assert_eq!(
        placement_of(a.0, a.1),
        placement_of(b.0, b.1),
        "{what}: node→tile placement changed"
    );
}

#[test]
fn deleting_an_unrelated_block_leaves_placements_unchanged() {
    let full = compile(&program_xyz());
    let pruned = compile(&program_xz());
    assert_block_invariant((&full, 0), (&pruned, 0), "X after deleting Y");
    assert_block_invariant((&full, 2), (&pruned, 1), "Z after deleting Y");
}

#[test]
fn reordering_blocks_leaves_placements_unchanged() {
    let xyz = compile(&program_xyz());
    let xzy = compile(&program_xzy());
    assert_block_invariant((&xyz, 0), (&xzy, 0), "X after reorder");
    assert_block_invariant((&xyz, 2), (&xzy, 1), "Z after reorder");
    assert_block_invariant((&xyz, 1), (&xzy, 2), "Y after reorder");
}

#[test]
fn shared_blocks_hit_across_programs() {
    // Content addressing means program B's blocks, already compiled while
    // building program A, are cache hits even though B is a different program
    // with different block indices.
    let cache = BlockCache::in_memory();
    let config = MachineConfig::square(4);
    let options = exact();
    compile_with_cache(&program_xyz(), &config, &options, &cache).unwrap();
    let pruned = compile_with_cache(&program_xz(), &config, &options, &cache).unwrap();
    assert_eq!(pruned.report.cache.misses, 0, "X and Z were already cached");
    assert_eq!(pruned.report.cache.hits, 2);
}
