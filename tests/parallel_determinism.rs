//! Determinism battery for the parallel compile pipeline and the
//! content-addressed block cache (ISSUE 5 acceptance gate).
//!
//! The contract: thread count and cache state are *performance* knobs — they
//! must never change a single output bit. For every benchmark workload and the
//! chaos-sweep machine shapes, this battery compiles at `threads = 1, 2, 8`,
//! cold and warm cache, memory-only and disk-backed, and asserts byte-identical
//! per-tile asm ([`MachineProgram`] equality covers every instruction),
//! identical `BlockReport`s / `PlacementLog`s / `ProvenanceMap`s, and identical
//! simulated cycle counts.

use raw_repro::benchmarks;
use raw_repro::cc::{compile_with_cache, BlockCache, CompiledProgram, CompilerOptions, Strategy};
use raw_repro::ir::Program;
use raw_repro::machine::{MachineConfig, TileId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

fn opts(threads: usize) -> CompilerOptions {
    CompilerOptions {
        threads,
        ..CompilerOptions::default()
    }
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "rawcc-det-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Asserts every output surface of two compiles is identical.
fn assert_identical(reference: &CompiledProgram, candidate: &CompiledProgram, what: &str) {
    assert_eq!(
        reference.machine_program, candidate.machine_program,
        "{what}: per-tile asm diverged"
    );
    assert_eq!(
        reference.report.blocks, candidate.report.blocks,
        "{what}: BlockReports (incl. PlacementLogs) diverged"
    );
    assert_eq!(
        reference.provenance, candidate.provenance,
        "{what}: ProvenanceMap diverged"
    );
    assert_eq!(
        reference.layout, candidate.layout,
        "{what}: layout diverged"
    );
}

/// Compiles `program` serially/cold as the reference, then re-compiles under
/// every (threads, cache temperature, disk) combination and checks identity.
fn check_program(program: &Program, config: &MachineConfig, base: &CompilerOptions, what: &str) {
    let reference = compile_with_cache(program, config, base, &BlockCache::in_memory())
        .unwrap_or_else(|e| panic!("{what}: reference compile failed: {e}"));
    assert_eq!(reference.report.threads, 1, "{what}: reference is serial");

    // Parallel, cold cache.
    for threads in [2usize, 8] {
        let options = CompilerOptions { threads, ..*base };
        let compiled =
            compile_with_cache(program, config, &options, &BlockCache::in_memory()).unwrap();
        assert_identical(&reference, &compiled, &format!("{what} threads={threads}"));
    }

    // Warm in-memory cache: second compile must be 100% hits and identical.
    let shared = BlockCache::in_memory();
    let options = CompilerOptions {
        threads: 8,
        ..*base
    };
    let cold = compile_with_cache(program, config, &options, &shared).unwrap();
    assert_identical(&reference, &cold, &format!("{what} shared/cold"));
    let warm = compile_with_cache(program, config, &options, &shared).unwrap();
    assert_identical(&reference, &warm, &format!("{what} shared/warm"));
    assert_eq!(
        warm.report.cache.misses, 0,
        "{what}: warm compile recompiled a block"
    );
    assert_eq!(
        warm.report.cache.hits,
        program.blocks.len() as u64,
        "{what}: warm compile should hit every block"
    );
    assert!(
        warm.report.block_cached.iter().all(|&c| c),
        "{what}: every block should be cache-served"
    );

    // Disk layer: a fresh cache over the same directory serves every block
    // from disk, bit-identically.
    let dir = unique_dir("disk");
    {
        let disk = BlockCache::with_disk(&dir).expect("disk cache");
        let seeded = compile_with_cache(program, config, &options, &disk).unwrap();
        assert_identical(&reference, &seeded, &format!("{what} disk/cold"));
    }
    {
        let disk = BlockCache::with_disk(&dir).expect("disk cache reopen");
        let warm_disk = compile_with_cache(program, config, &options, &disk).unwrap();
        assert_identical(&reference, &warm_disk, &format!("{what} disk/warm"));
        assert_eq!(
            warm_disk.report.cache.misses, 0,
            "{what}: disk-warm compile recompiled a block"
        );
        assert_eq!(disk.disk_rejects(), 0, "{what}: disk entries all validated");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn benchmark_workloads_are_thread_and_cache_invariant() {
    let config = MachineConfig::square(4);
    for bench in benchmarks::tiny_suite() {
        let program = bench.program(4).expect("benchmark lowers");
        check_program(&program, &config, &opts(1), bench.name);
    }
}

#[test]
fn chaos_sweep_shapes_are_thread_and_cache_invariant() {
    // The differential stepper's mesh shapes: square and degenerate-row.
    for (rows, cols) in [(2u32, 2u32), (1, 4)] {
        let config = MachineConfig::grid(rows, cols);
        for bench in [
            benchmarks::tiny_suite().remove(0),
            benchmarks::tiny_suite().remove(6),
        ] {
            let program = bench.program(rows * cols).expect("benchmark lowers");
            check_program(
                &program,
                &config,
                &opts(1),
                &format!("{}@{rows}x{cols}", bench.name),
            );
        }
    }
}

#[test]
fn exact_strategy_is_thread_and_cache_invariant() {
    // `Strategy::Exact` runs the exact solver seeded with the greedy result;
    // its search and shipped lane must be a pure function of the block
    // bytes. Run it through the full battery:
    // serial reference vs threads {2, 8}, cold/warm memory cache, cold/warm
    // disk cache.
    let config = MachineConfig::square(4);
    let base = CompilerOptions {
        strategy: Strategy::Exact,
        threads: 1,
        ..CompilerOptions::default()
    };
    for bench in [
        benchmarks::tiny_suite().remove(5), // mxm
        benchmarks::tiny_suite().remove(6), // jacobi
    ] {
        let program = bench.program(4).expect("benchmark lowers");
        check_program(&program, &config, &base, &format!("{}+exact", bench.name));
    }
}

#[test]
fn masked_mesh_is_thread_and_cache_invariant() {
    // The `raw-bench scenario` mesh: 2x4 with tile 3 dead, the mask padded to
    // a power-of-two live count. Faulty tiles reshape placement and routing,
    // so every scenario kernel runs the full battery on it.
    let base = MachineConfig::grid(2, 4);
    let mask = base
        .mask_to_pow2(&[TileId::from_raw(3)])
        .expect("the mesh fits the mask");
    let config = base.with_faulty(mask);
    for bench in benchmarks::scenario_suite() {
        let program = bench.program(config.n_live()).expect("scenario lowers");
        check_program(
            &program,
            &config,
            &opts(1),
            &format!("{}@2x4-masked", bench.name),
        );
    }
}

#[test]
fn simulated_cycles_match_across_thread_counts() {
    // Identical asm implies identical cycles, but run the machine anyway so a
    // regression in any equality above cannot hide behind a stale assert.
    let config = MachineConfig::square(4);
    for bench in benchmarks::tiny_suite().into_iter().take(3) {
        let program = bench.program(4).expect("benchmark lowers");
        let serial = compile_with_cache(&program, &config, &opts(1), &BlockCache::in_memory())
            .unwrap()
            .run(&program)
            .expect("serial-compiled program simulates")
            .1
            .cycles;
        let parallel = compile_with_cache(&program, &config, &opts(8), &BlockCache::in_memory())
            .unwrap()
            .run(&program)
            .expect("parallel-compiled program simulates")
            .1
            .cycles;
        assert_eq!(serial, parallel, "{}: cycle counts diverged", bench.name);
    }
}

#[test]
fn cache_stats_are_thread_invariant() {
    // The in-process cache single-flights: workers racing on duplicate blocks
    // wait for the first compile instead of repeating it, so a cold compile's
    // counters are exact at any worker count. `life` repeats a quarter of its
    // blocks, enough for eight workers to collide.
    let bench = benchmarks::tiny_suite()
        .into_iter()
        .find(|b| b.name == "life")
        .expect("life is in the suite");
    let program = bench.program(4).expect("benchmark lowers");
    let config = MachineConfig::square(4);
    for threads in [1, 2, 8] {
        let report =
            compile_with_cache(&program, &config, &opts(threads), &BlockCache::in_memory())
                .unwrap()
                .report;
        let blocks = report.blocks.len() as u64;
        let distinct = report.block_keys.iter().collect::<HashSet<_>>().len() as u64;
        assert!(distinct < blocks, "life must repeat some block");
        assert_eq!(
            report.cache.misses, distinct,
            "threads={threads}: one compile per distinct block"
        );
        assert_eq!(
            report.cache.hits + report.cache.misses,
            blocks,
            "threads={threads}: every block is a hit or a miss"
        );
    }
}

#[test]
fn default_options_compile_equals_serial() {
    // `compile` with the default `threads: 0` fans out over every available
    // core; it must equal an explicit serial compile.
    let bench = benchmarks::tiny_suite().remove(1);
    let program = bench.program(4).expect("benchmark lowers");
    let config = MachineConfig::square(4);
    let default = raw_repro::cc::compile(&program, &config, &opts(0)).unwrap();
    let serial = raw_repro::cc::compile(&program, &config, &opts(1)).unwrap();
    assert_identical(&serial, &default, "default-threaded compile");
}
