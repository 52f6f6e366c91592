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
/// Serial and 8-worker compiles must both match the same pinned lines.
#[test]
fn big_block_asm_hashes_are_pinned() {
    for threads in [1, 8] {
        let options = CompilerOptions {
            threads,
            ..CompilerOptions::default()
        };
        let mut s = String::new();
        for bench in raw_repro::benchmarks::suite() {
            let mut shapes = vec![(2, 2), (4, 4)];
            if matches!(bench.name, "cholesky" | "fpppp-kernel" | "mxm") {
                shapes.push((4, 8));
            }
            for (rows, cols) in shapes {
                let program = bench.program(rows * cols).unwrap();
                let config = MachineConfig::grid(rows, cols);
                let compiled = compile(&program, &config, &options).unwrap();
                let hash = raw_repro::cc::asm_hash(&compiled.machine_program);
                writeln!(s, "{}@{rows}x{cols} {hash:#018x}", bench.name).unwrap();
            }
        }
        check_golden("asm_hashes.txt", &s);
    }
}

/// Small kernels for the loop shapes the frontend's static-reference analysis
/// distinguishes (trip counts, strides, homes, unroll factors).
const EDGE_KERNELS: &[(&str, &str)] = &[
    (
        "triangular",
        "int i; int j; float A[8][8]; float s = 0.0;
         for (i = 0; i < 6; i = i + 1) for (j = 0; j < i; j = j + 1) s = s + A[i][j];",
    ),
    (
        "inclusive",
        "int i; int A[16]; for (i = 1; i <= 13; i = i + 1) A[i] = i;",
    ),
    (
        "negative_stride",
        "int i; int A[16]; for (i = 0; i < 16; i = i + 1) A[15 - i] = i;",
    ),
    (
        "step3_remainder",
        "int i; int A[32]; for (i = 2; i < 31; i = i + 3) A[i] = i * 2;",
    ),
    (
        "data_dependent",
        "int i; int A[16]; int B[16];
         for (i = 0; i < 16; i = i + 1) B[i] = (i * 5) % 16;
         for (i = 0; i < 16; i = i + 1) A[B[i]] = i;",
    ),
    (
        "branchy_body",
        "int i; int k; int A[16];
         for (i = 0; i < 16; i = i + 1) {
           if (i % 2 == 0) A[i] = i; else A[i] = 0 - i;
           k = 0; while (k < 2) k = k + 1;
         }",
    ),
    (
        "symbolic_bound_and_step",
        "int i; int n = 13; int s = 2; int A[32];
         for (i = 0; i < n; i = i + 1) A[i] = i;
         for (i = 0; i < 32; i = i + s) A[i] = 1;",
    ),
    (
        "step_reads_array",
        "int i; int j; int A[8][8]; int B[8];
         for (i = 0; i < 8; i = i + 1) B[i] = 1 + i % 3;
         for (i = 0; i < 8; i = i + 1) for (j = 0; j < 8; j = j + B[i]) A[i][j] = j;",
    ),
    (
        "zero_and_one_trip",
        "int i; int x = 0; int A[8];
         for (i = 5; i < 5; i = i + 1) A[i] = 1;
         for (i = 3; i < 4; i = i + 1) A[i] = 2;
         for (i = 9; i < 2; i = i + 2) x = 1;",
    ),
    (
        "intrinsic_index",
        "int i; float A[16]; float B[16];
         for (i = 0; i < 16; i = i + 1) A[toint(sqrt(tofloat(i)))] = B[i];",
    ),
    (
        "three_deep",
        "int i; int j; int k; float A[4][4][4];
         for (i = 0; i < 4; i = i + 1) for (j = 0; j < 4; j = j + 1)
           for (k = 0; k < 4; k = k + 1) A[i][j][k] = tofloat(i + 2 * j + k);",
    ),
    (
        "float_reduction",
        "int i; float A[32]; float s = 0.0;
         for (i = 0; i < 32; i = i + 1) s = s + A[i] * 0.5;",
    ),
    (
        "column_walk",
        "int i; int j; float A[8][8];
         for (i = 0; i < 8; i = i + 1) for (j = 0; j < 8; j = j + 1) A[j][i] = tofloat(j);",
    ),
];

/// Every lowered program the frontend produces for the benchmark suites, the
/// baselines and [`EDGE_KERNELS`], hashed over the compile-request encoding
/// (every instruction, span, `MemHome`, declaration and value name). Pins the
/// frontend byte for byte: a refactor of the unroller or lowering must keep
/// this file unchanged.
#[test]
fn lowered_ir_hashes_are_pinned() {
    use raw_repro::lang::{compile_source_with, UnrollOptions};
    let suites = [
        ("suite", raw_repro::benchmarks::suite()),
        ("scenario", raw_repro::benchmarks::scenario_suite()),
        ("tiny", raw_repro::benchmarks::tiny_suite()),
    ];
    type Build = Box<dyn Fn(u32, UnrollOptions) -> raw_repro::ir::Program>;
    let mut kernels: Vec<(String, Build)> = Vec::new();
    for (prefix, benches) in &suites {
        for bench in benches {
            let bench = bench.clone();
            kernels.push((
                format!("{prefix}/{}", bench.name),
                Box::new(move |n, o| bench.program_with(n, o).unwrap()),
            ));
        }
    }
    for &(name, src) in EDGE_KERNELS {
        kernels.push((
            format!("edge/{name}"),
            Box::new(move |n, o| compile_source_with(name, src, n, o).unwrap()),
        ));
    }
    let mut s = String::new();
    let mut pin = |label: String, program: &raw_repro::ir::Program, tiles: u32| {
        let bytes = raw_repro::cc::wire::encode_compile_request(
            "",
            program,
            &MachineConfig::square(tiles),
            &CompilerOptions::default(),
        );
        writeln!(s, "{label} {:#018x}", raw_testkit::hash64(&bytes)).unwrap();
    };
    for (label, build) in &kernels {
        for tiles in [1, 2, 4, 8, 16, 32] {
            pin(
                format!("{label}@{tiles}"),
                &build(tiles, UnrollOptions::for_tiles(tiles)),
                tiles,
            );
        }
        for ilp_factor in [1, 3, 5, 6, 12] {
            for reassociate in [false, true] {
                let options = UnrollOptions {
                    ilp_factor,
                    reassociate,
                };
                let r = if reassociate { "+r" } else { "" };
                pin(
                    format!("{label}@4 ilp{ilp_factor}{r}"),
                    &build(4, options),
                    4,
                );
            }
        }
    }
    for (prefix, benches) in &suites {
        for bench in benches {
            let label = format!("baseline/{prefix}/{}", bench.name);
            pin(label, &bench.baseline_program().unwrap(), 1);
        }
    }
    check_golden("ir_hashes.txt", &s);
}

/// The codec's own bytes: the bundle of every block of the paper kernels at
/// 4 and 16 tiles, a compile response per program (and the same response
/// after the memo re-stamps its counters), and one sample of each small
/// service message. `cache_key.txt` and `ir_hashes.txt` pin the key and
/// request bytes; together they pin every encoding the block cache, its
/// disk entries and the wire protocol write.
#[test]
fn codec_bytes_are_pinned() {
    use raw_repro::cc::blockcache::encode_bundle;
    use raw_repro::cc::wire::{self, CompileResponse, MetricsFormat, MetricsResponse};
    use raw_repro::cc::{compile_with_cache, BlockCache};
    use raw_testkit::hash64;
    let mut s = String::new();
    for bench in raw_repro::benchmarks::suite() {
        for tiles in [4, 16] {
            let program = bench.program(tiles).unwrap();
            let config = MachineConfig::square(tiles);
            let cache = BlockCache::in_memory();
            let compiled =
                compile_with_cache(&program, &config, &CompilerOptions::default(), &cache).unwrap();
            let label = format!("{}@{tiles}", bench.name);
            for (i, key) in compiled.report.block_keys.iter().enumerate() {
                let bundle = cache.get(key).0.expect("every block is resident");
                let hash = hash64(&encode_bundle(&bundle));
                writeln!(s, "bundle {label} b{i} {hash:#018x}").unwrap();
            }
            let mut resp = CompileResponse {
                machine_program: compiled.machine_program,
                hits: 1,
                misses: 2,
                coalesced: 3,
                evictions: 4,
                evicted_bytes: 5,
                wall_us: 6,
                threads: 7,
            }
            .encode();
            writeln!(s, "response {label} {:#018x}", hash64(&resp)).unwrap();
            assert!(wire::patch_compiled_counters(&mut resp, 11, 12));
            writeln!(s, "response-patched {label} {:#018x}", hash64(&resp)).unwrap();
        }
    }
    let format = MetricsFormat::Prometheus;
    let body = "rawcc_telemetry_enabled 1\n".into();
    let error = wire::encode_error(wire::errcode::COMPILE, "no such tile");
    let samples = [
        ("metrics-request", wire::encode_metrics_request(format)),
        ("metrics", MetricsResponse { format, body }.encode()),
        ("error", error),
    ];
    for (label, bytes) in samples {
        writeln!(s, "{label} {:#018x}", hash64(&bytes)).unwrap();
    }
    check_golden("codec_hashes.txt", &s);
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

/// One finished run's dynamic-network fingerprint: cycles, the cycles a flit
/// moved, every processor's dynamic-network stall cycles, the static words
/// committed, and a hash of every tile's final memory (each tile's words up
/// to its last non-zero one).
fn dynnet_line<S: raw_repro::machine::EventSink>(
    label: &str,
    machine: &mut raw_repro::machine::Machine<S>,
) -> String {
    use raw_repro::machine::TileId;
    let cycles = machine
        .run()
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .cycles;
    let mut mem_hash = 0xcbf2_9ce4_8422_2325;
    for t in 0..machine.config().n_tiles() {
        let words = machine.memory(TileId(t));
        let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        if used > 0 {
            mem_hash = raw_testkit::hash64_with(mem_hash, &t.to_le_bytes());
            for w in &words[..used] {
                mem_hash = raw_testkit::hash64_with(mem_hash, &w.to_le_bytes());
            }
        }
    }
    let stats = machine.stats();
    let stall_dynamic: u64 = stats.tiles.iter().map(|t| t.stall_dynamic).sum();
    format!(
        "{label} cycles={cycles} dyn_active_cycles={} stall_dynamic={stall_dynamic} \
         static_words={} mem_hash={mem_hash:#018x}\n",
        stats.dyn_active_cycles, stats.static_words
    )
}

/// Pins every run that moves dynamic-network traffic, clean and at one chaos
/// point: `raw-bench sim`'s quick sparse suite at 64 and 1024 tiles, the
/// compiled pointer-chase, gather and scatter kernels at 8×8, and the
/// data-dependent histogram at 4×4. Both steppers share one router, so the
/// stepper differentials cannot see a router change; this golden can.
#[test]
fn dynamic_network_runs_are_pinned() {
    use raw_repro::machine::chaos::ChaosConfig;
    use raw_repro::machine::Machine;
    // `raw-bench sim --quick`'s chaos point.
    let chaos = ChaosConfig::sweep(raw_testkit::Rng::new(0x513C_41E0).take(1), &[20])[0];
    let points = [(None, "clean"), (Some(chaos), "chaos")];
    let mut s = String::new();
    for tiles in [64, 1024] {
        let config = MachineConfig::square(tiles);
        for w in raw_bench::sim::sparse_suite(&config, true) {
            for (chaos, point) in &points {
                let mut m = Machine::new(config.clone(), &w.program);
                if let Some(c) = chaos {
                    m = m.with_chaos(*c);
                }
                for &(tile, addr, value) in &w.init {
                    m.set_mem_word(tile, addr, value);
                }
                s += &dynnet_line(&format!("sim {}@{tiles} {point}", w.name), &mut m);
            }
        }
    }
    let hist = "
        int i; int k;
        int D[16];
        int H[4];
        for (i = 0; i < 16; i = i + 1) {
            k = D[i] % 4;
            H[k] = H[k] + 1;
        }
    ";
    let mut hist_program = raw_repro::lang::compile_source("hist", hist, 16).unwrap();
    let d = hist_program.array_by_name("D").unwrap();
    hist_program.arrays[d.index()].init = (0..16).map(|k| raw_repro::ir::Imm::I(k * 3)).collect();
    let mut compiled_runs = vec![(
        "hist@4x4".to_string(),
        hist_program,
        MachineConfig::grid(4, 4),
    )];
    for bench in raw_repro::benchmarks::scenario_suite() {
        let program = bench.program(64).unwrap();
        compiled_runs.push((
            format!("{}@8x8", bench.name),
            program,
            MachineConfig::grid(8, 8),
        ));
    }
    for (name, program, config) in &compiled_runs {
        let compiled = compile(program, config, &CompilerOptions::default()).unwrap();
        for (chaos, point) in &points {
            let mut m = compiled.instantiate(program);
            if let Some(c) = chaos {
                m = m.with_chaos(*c);
            }
            s += &dynnet_line(&format!("compiled {name} {point}"), &mut m);
        }
    }
    check_golden("dynnet_runs.txt", &s);
}
