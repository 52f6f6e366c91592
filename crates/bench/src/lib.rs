//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) on the simulated Raw prototype.
//!
//! * **Table 1** — operation latencies (machine configuration check).
//! * **Figure 4** — 4-cycle end-to-end neighbour message latency.
//! * **Table 2** — benchmark characteristics (lines, array sizes, sequential
//!   run time in cycles under the baseline compiler).
//! * **Table 3** — speedup of RAWCC-compiled code over the sequential
//!   baseline for machines of 1–32 tiles.
//! * **Figure 8** — fpppp-kernel speedup under `base`, `inf-reg`, and
//!   `1-cycle` machine configurations.
//! * **Ablations** — the design choices DESIGN.md calls out: clustering,
//!   placement (greedy swap vs. none), the scheduler priority scheme, and
//!   send/receive folding.
//!
//! Every measured run is checked bit-exactly against the reference
//! interpreter before its cycle count is reported.

pub mod args;
pub mod compiletime;
pub mod observe;
pub mod scenario;
pub mod serve;
pub mod sim;
pub mod top;

use args::FlagParser;
use compiletime::{compile_command, CompileArgs};
use observe::{trace_command, TraceArgs};
use raw_benchmarks::Benchmark;
use raw_ir::interp::Interpreter;
use raw_ir::Program;
use raw_machine::{MachineConfig, TileId};
use rawcc::{compile, compile_baseline, CompilerOptions};
use scenario::{scenario_command, ScenarioArgs};
use serve::{replay_command, serve_command, ReplayArgs, ServeArgs};
use sim::{sim_command, SimArgs};
use std::fmt::Write as _;
use top::{top_command, TopArgs};

/// A subcommand: parses the arguments after its word, runs, and returns
/// the text left to print.
pub type Subcommand = fn(&[String]) -> Result<String, String>;

/// The subcommand a first word names, or `None` for any other word, which
/// the paper tables take as their first flag.
pub fn subcommand(word: &str) -> Option<Subcommand> {
    Some(match word {
        "trace" => |a| TraceArgs::parse(a).and_then(|a| trace_command(&a)),
        "compile" => |a| CompileArgs::parse(a).and_then(|a| compile_command(&a)),
        "scenario" => |a| ScenarioArgs::parse(a).and_then(|a| scenario_command(&a)),
        "sim" => |a| SimArgs::parse(a).and_then(|a| sim_command(&a)),
        "serve" => |a| ServeArgs::parse(a).and_then(|a| serve_command(&a)),
        "replay" => |a| ReplayArgs::parse(a).and_then(|a| replay_command(&a)),
        // `top` prints each frame as it polls; nothing is left to print.
        "top" => |a| {
            TopArgs::parse(a)
                .and_then(|a| top_command(&a))
                .map(|_| String::new())
        },
        _ => return None,
    })
}

/// Whether a command line asks for the usage text: it is empty, or holds
/// `--help` or `-h` after a subcommand word or a tables flag. A stray first
/// word never does; it goes to the tables, whose parse rejects it.
pub fn wants_usage(args: &[String]) -> bool {
    args.first().is_none_or(|first| {
        (first.starts_with('-') || subcommand(first).is_some())
            && args.iter().any(|a| a == "--help" || a == "-h")
    })
}

/// Arguments of the flag-driven paper tables and figures (`raw-bench` with no
/// subcommand word).
#[derive(Clone, Debug)]
pub struct TablesArgs {
    /// Table 1: operation latencies.
    pub table1: bool,
    /// Figure 4: neighbour message latency.
    pub fig4: bool,
    /// Table 2: benchmark characteristics.
    pub table2: bool,
    /// Table 3: speedups across machine sizes.
    pub table3: bool,
    /// Figure 8: fpppp-kernel machine variants.
    pub fig8: bool,
    /// fpppp-kernel speedup at three kernel sizes (not part of `--all`).
    pub fpppp_scale: bool,
    /// Compiler-feature ablations.
    pub ablations: bool,
    /// Machine sizes for table 3, figure 8 and the ablations (each a power of
    /// two; capped at 4 tiles under `--quick`).
    pub sizes: Vec<u32>,
    /// The benchmarks to measure: the paper suite, the scaled-down suite
    /// under `--quick`, or the one `--bench` names.
    pub suite: Vec<Benchmark>,
}

impl TablesArgs {
    /// Parses the flag list (`--all` sets every table flag but
    /// `--fpppp-scale`).
    ///
    /// # Errors
    ///
    /// Returns a message on unknown flags, missing or unparsable values,
    /// machine sizes that are not powers of two, and unknown benchmarks.
    pub fn parse(args: &[String]) -> Result<TablesArgs, String> {
        let mut out = TablesArgs {
            table1: false,
            fig4: false,
            table2: false,
            table3: false,
            fig8: false,
            fpppp_scale: false,
            ablations: false,
            sizes: vec![1, 2, 4, 8, 16, 32],
            suite: Vec::new(),
        };
        let (mut all, mut quick, mut bench) = (false, false, None);
        let mut p = FlagParser::new("", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--table1" => out.table1 = true,
                "--fig4" => out.fig4 = true,
                "--table2" => out.table2 = true,
                "--table3" => out.table3 = true,
                "--fig8" => out.fig8 = true,
                "--fpppp-scale" => out.fpppp_scale = true,
                "--ablations" => out.ablations = true,
                "--all" => all = true,
                "--quick" => quick = true,
                "--sizes" => {
                    out.sizes = p
                        .value()?
                        .split(',')
                        .map(|t| t.trim().parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| "--sizes must be a comma-separated list of integers")?;
                }
                "--bench" => bench = Some(p.value()?.clone()),
                _ => return Err(p.unknown()),
            }
        }
        if all {
            out.table1 = true;
            out.fig4 = true;
            out.table2 = true;
            out.table3 = true;
            out.fig8 = true;
            out.ablations = true;
        }
        if let Some(&bad) = out.sizes.iter().find(|n| !n.is_power_of_two()) {
            return Err(format!(
                "machine size {bad} is not a power of two (low-order interleaving \
                 requires 2^k tiles); valid sizes: 1,2,4,8,16,32,…"
            ));
        }
        for &n in &out.sizes {
            args::require_power_of_two(n)?;
        }
        if quick {
            out.sizes.retain(|&n| n <= 4);
            if out.sizes.is_empty() {
                out.sizes = vec![1, 2, 4];
            }
        }
        out.suite = if quick {
            raw_benchmarks::tiny_suite()
        } else {
            raw_benchmarks::suite()
        };
        if let Some(name) = bench {
            out.suite.retain(|b| b.name == name);
            if out.suite.is_empty() {
                return Err(format!("unknown benchmark '{name}'"));
            }
        }
        Ok(out)
    }
}

/// Which machine variant to measure (Figure 8's three configurations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MachineVariant {
    /// 32 registers, Table-1 latencies.
    #[default]
    Base,
    /// Effectively unlimited registers.
    InfReg,
    /// Single-cycle compute operations.
    OneCycle,
}

impl MachineVariant {
    /// Builds the machine configuration for `n_tiles` under this variant.
    pub fn config(self, n_tiles: u32) -> MachineConfig {
        let base = MachineConfig::square(n_tiles);
        match self {
            MachineVariant::Base => base,
            MachineVariant::InfReg => base.with_infinite_registers(),
            MachineVariant::OneCycle => base.with_unit_latency(),
        }
    }

    /// Display name matching Figure 8.
    pub fn name(self) -> &'static str {
        match self {
            MachineVariant::Base => "base",
            MachineVariant::InfReg => "inf-reg",
            MachineVariant::OneCycle => "1-cycle",
        }
    }
}

/// A measured run: cycle count plus compiler metrics.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Spilled virtual registers (whole program).
    pub spills: usize,
    /// Largest basic block compiled (task-graph nodes).
    pub max_block: usize,
}

/// Runs a program on the machine described by `config` after compiling it
/// with the full orchestrater, verifying the result against the interpreter.
///
/// # Panics
///
/// Panics if compilation fails, simulation deadlocks, or the simulated result
/// differs from the interpreter (any of these is a harness bug worth a loud
/// failure, not a silent data point).
pub fn measure(
    program: &Program,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> Measurement {
    let compiled = compile(program, config, options)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", program.name));
    let (result, report) = compiled
        .run(program)
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", program.name));
    let golden = Interpreter::new(program)
        .run()
        .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", program.name));
    assert!(
        result.state_eq(&golden),
        "{}: simulated result diverges from the interpreter",
        program.name
    );
    Measurement {
        cycles: report.cycles,
        spills: compiled.report.total_spills(),
        max_block: compiled.report.max_block_nodes(),
    }
}

/// Compiles and runs `bench`'s sequential baseline, returning its cycle
/// count.
///
/// # Panics
///
/// Panics on compile/simulation/verification failure (see [`measure`]).
pub fn measure_baseline(bench: &Benchmark) -> u64 {
    let program = &bench.baseline_program().expect("baseline compiles");
    let config = MachineConfig::square(1);
    let compiled = compile_baseline(program, &config)
        .unwrap_or_else(|e| panic!("{}: baseline compile failed: {e}", program.name));
    let (result, report) = compiled
        .run(program)
        .unwrap_or_else(|e| panic!("{}: baseline simulation failed: {e}", program.name));
    let golden = Interpreter::new(program).run().unwrap();
    assert!(
        result.state_eq(&golden),
        "{}: baseline result diverges from the interpreter",
        program.name
    );
    report.cycles
}

/// One row of Table 3: a benchmark's speedups across machine sizes.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline (sequential) cycles.
    pub seq_cycles: u64,
    /// `(n_tiles, parallel cycles, speedup)` per machine size.
    pub points: Vec<(u32, u64, f64)>,
}

/// Measures one benchmark across `sizes`, under `variant`, against its
/// baseline's `seq_cycles` ([`measure_baseline`], measured once per table).
pub fn speedup_row(
    bench: &Benchmark,
    seq_cycles: u64,
    sizes: &[u32],
    variant: MachineVariant,
    options: &CompilerOptions,
) -> SpeedupRow {
    let mut points = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let program = bench.program(n).expect("program compiles");
        let config = variant.config(n);
        let m = measure(&program, &config, options);
        points.push((n, m.cycles, seq_cycles as f64 / m.cycles as f64));
    }
    SpeedupRow {
        name: bench.name.to_string(),
        seq_cycles,
        points,
    }
}

/// Renders Table 1 (operation latencies as configured).
pub fn table1_text() -> String {
    use raw_ir::{BinOp, UnOp};
    let mut s = String::new();
    writeln!(s, "Table 1: Latency of common operations (cycles)").unwrap();
    writeln!(s, "  Int Op   Cycles    Fp Op    Cycles").unwrap();
    let rows = [
        ("ADD", BinOp::Add, "ADDF", BinOp::AddF),
        ("SUB", BinOp::Sub, "SUBF", BinOp::SubF),
        ("MUL", BinOp::Mul, "MULF", BinOp::MulF),
        ("DIV", BinOp::Div, "DIVF", BinOp::DivF),
    ];
    for (iname, iop, fname, fop) in rows {
        writeln!(
            s,
            "  {iname:<8} {:<9} {fname:<8} {}",
            iop.latency(),
            fop.latency()
        )
        .unwrap();
    }
    writeln!(
        s,
        "  (extensions: SQRTF {}  ABSF {}  load 2 — see DESIGN.md)",
        UnOp::SqrtF.latency(),
        UnOp::AbsF.latency(),
    )
    .unwrap();
    s
}

/// Measures and renders Figure 4: the end-to-end latency of a single-word
/// message between neighbouring tiles.
pub fn figure4_text() -> String {
    use raw_ir::{BinOp, Imm};
    use raw_machine::asm::{ProcAsm, SwitchAsm};
    use raw_machine::isa::{Dir, Dst, MachineProgram, SDst, SSrc, Src, TileCode};
    use raw_machine::Machine;

    // Tile 0: send(x+y); tile 1: z = w + recv().
    let mut p0 = ProcAsm::new();
    p0.bin(
        BinOp::Add,
        Dst::PortOut,
        Src::Imm(Imm::I(1)),
        Src::Imm(Imm::I(2)),
    );
    p0.halt();
    let mut s0 = SwitchAsm::new();
    s0.route(&[(SSrc::Proc, SDst::Dir(Dir::East))]);
    s0.halt();
    let mut s1 = SwitchAsm::new();
    s1.route(&[(SSrc::Dir(Dir::West), SDst::Proc)]);
    s1.halt();
    let mut p1 = ProcAsm::new();
    p1.bin(BinOp::Add, Dst::Reg(1), Src::Imm(Imm::I(10)), Src::PortIn);
    p1.store_imm_addr(Src::Reg(1), 0);
    p1.halt();
    let program = MachineProgram {
        tiles: vec![
            TileCode {
                proc: p0.finish(),
                switch: s0.finish(),
            },
            TileCode {
                proc: p1.finish(),
                switch: s1.finish(),
            },
        ],
    };
    let mut machine = Machine::new(MachineConfig::grid(1, 2), &program);
    let mut recv_cycle = None;
    for _ in 0..32 {
        let before = machine.stats().tiles[1].proc_insts;
        machine.step();
        if recv_cycle.is_none() && machine.stats().tiles[1].proc_insts > before {
            recv_cycle = Some(machine.cycle() - 1);
        }
        if machine.finished() {
            break;
        }
    }
    let latency = recv_cycle.expect("message delivered") + 1;
    assert_eq!(machine.mem_word(TileId::from_raw(1), 0), 13);
    let mut s = String::new();
    writeln!(
        s,
        "Figure 4: neighbour message — send issues cycle 0, receive-side add \
         executes cycle {}, end-to-end latency {} cycles (paper: 4)",
        latency - 1,
        latency
    )
    .unwrap();
    s
}

/// Measures and renders Table 2 for the given suite.
pub fn table2_text(suite: &[Benchmark]) -> String {
    let mut s = String::new();
    writeln!(s, "Table 2: Benchmark characteristics").unwrap();
    writeln!(
        s,
        "  {:<14} {:>6} {:>12} {:>12}  Description",
        "Benchmark", "Lines", "Array size", "Seq. RT"
    )
    .unwrap();
    for b in suite {
        let cycles = measure_baseline(b);
        writeln!(
            s,
            "  {:<14} {:>6} {:>12} {:>12}  {}",
            b.name,
            b.lines(),
            b.array_size,
            cycles,
            b.description
        )
        .unwrap();
    }
    s
}

/// Measures and renders Table 3 for the given suite and machine sizes.
pub fn table3_text(suite: &[Benchmark], sizes: &[u32]) -> String {
    let options = CompilerOptions::default();
    let mut s = String::new();
    writeln!(s, "Table 3: Benchmark speedup vs. sequential baseline").unwrap();
    write!(s, "  {:<14}", "Benchmark").unwrap();
    for n in sizes {
        write!(s, " {:>8}", format!("N={n}")).unwrap();
    }
    writeln!(s).unwrap();
    for b in suite {
        let row = speedup_row(
            b,
            measure_baseline(b),
            sizes,
            MachineVariant::Base,
            &options,
        );
        write!(s, "  {:<14}", row.name).unwrap();
        for (_, _, speedup) in &row.points {
            write!(s, " {speedup:>8.2}").unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}

/// Measures and renders Figure 8: fpppp-kernel speedups under the three
/// machine variants.
pub fn figure8_text(bench: &Benchmark, sizes: &[u32]) -> String {
    let options = CompilerOptions::default();
    let mut s = String::new();
    writeln!(s, "Figure 8: {} under machine variants", bench.name).unwrap();
    write!(s, "  {:<8}", "variant").unwrap();
    for n in sizes {
        write!(s, " {:>8}", format!("N={n}")).unwrap();
    }
    writeln!(s, " {:>12}", "seq cycles").unwrap();
    let seq_cycles = measure_baseline(bench);
    for variant in [
        MachineVariant::Base,
        MachineVariant::InfReg,
        MachineVariant::OneCycle,
    ] {
        let row = speedup_row(bench, seq_cycles, sizes, variant, &options);
        write!(s, "  {:<8}", variant.name()).unwrap();
        for (_, _, speedup) in &row.points {
            write!(s, " {speedup:>8.2}").unwrap();
        }
        writeln!(s, " {:>12}", row.seq_cycles).unwrap();
    }
    s
}

/// Kernel-size sensitivity of the fpppp-kernel speedup (EXPERIMENTS.md,
/// Table 3 notes): three kernel sizes across `sizes` on the base machine. A
/// smaller kernel saturates earlier because its critical path flattens.
pub fn fpppp_scale_text(sizes: &[u32]) -> String {
    let mut s = String::new();
    for (intermediates, outputs) in [(90, 30), (200, 60), (400, 80)] {
        let bench = raw_benchmarks::fpppp_kernel(raw_benchmarks::FppppShape {
            inputs: 40,
            intermediates,
            outputs,
            seed: 0x0f99_9921,
        });
        let seq_cycles = measure_baseline(&bench);
        let row = speedup_row(
            &bench,
            seq_cycles,
            sizes,
            MachineVariant::Base,
            &Default::default(),
        );
        write!(s, "ints={intermediates}: seq={}", row.seq_cycles).unwrap();
        for (n, _, speedup) in &row.points {
            write!(s, "  @{n}={speedup:.1}x").unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}

/// Ablation study: each compiler feature toggled off, measured per benchmark.
pub fn ablation_text(suite: &[Benchmark], sizes: &[u32]) -> String {
    let variants: Vec<(&str, CompilerOptions)> = vec![
        ("full", CompilerOptions::default()),
        (
            "no-cluster",
            CompilerOptions {
                clustering: false,
                ..Default::default()
            },
        ),
        (
            "no-place",
            CompilerOptions {
                placement: rawcc::PlacementAlgorithm::None,
                ..Default::default()
            },
        ),
        (
            "level-only",
            CompilerOptions {
                priority: rawcc::PriorityScheme::LevelOnly,
                ..Default::default()
            },
        ),
        (
            "no-fold",
            CompilerOptions {
                fold_communication: false,
                ..Default::default()
            },
        ),
    ];
    let mut s = String::new();
    writeln!(s, "Ablations: speedup with compiler features disabled").unwrap();
    for b in suite {
        writeln!(s, "  {}:", b.name).unwrap();
        let seq_cycles = measure_baseline(b);
        for (name, options) in &variants {
            let row = speedup_row(b, seq_cycles, sizes, MachineVariant::Base, options);
            write!(s, "    {name:<12}").unwrap();
            for (n, _, speedup) in &row.points {
                write!(s, " N={n}:{speedup:>6.2}").unwrap();
            }
            writeln!(s).unwrap();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = table1_text();
        assert!(t.contains("MUL      12"));
        assert!(t.contains("DIVF     12"));
    }

    #[test]
    fn figure4_reports_four_cycles() {
        let t = figure4_text();
        assert!(t.contains("latency 4 cycles"), "{t}");
    }

    #[test]
    fn speedup_row_on_tiny_benchmark() {
        let bench = raw_benchmarks::mxm(4, 8, 2);
        let row = speedup_row(
            &bench,
            measure_baseline(&bench),
            &[1, 2],
            MachineVariant::Base,
            &CompilerOptions::default(),
        );
        assert_eq!(row.points.len(), 2);
        assert!(row.seq_cycles > 0);
        assert!(row.points.iter().all(|(_, c, _)| *c > 0));
    }

    fn tables(args: &[&str]) -> Result<TablesArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        TablesArgs::parse(&args)
    }

    #[test]
    fn tables_args_parse_flags_and_presets() {
        let t = tables(&["--quick", "--all", "--sizes", "1,2,8", "--bench", "mxm"]).unwrap();
        assert!(t.table1 && t.fig4 && t.table2 && t.table3 && t.fig8 && t.ablations);
        assert!(!t.fpppp_scale, "--all leaves --fpppp-scale out");
        assert_eq!(t.sizes, [1, 2], "--quick caps sizes at 4 tiles");
        assert_eq!(t.suite.len(), 1);
        assert_eq!(t.suite[0].name, "mxm");
        let t = tables(&["--table1"]).unwrap();
        assert!(t.table1 && !t.table3);
        assert_eq!(t.sizes, [1, 2, 4, 8, 16, 32]);
        assert!(tables(&["--sizes", "3"]).is_err());
        assert_eq!(
            tables(&["--sizes", "4,4096"]).unwrap_err(),
            "machine size 4096 exceeds the 2048-tile maximum"
        );
        assert!(tables(&["--bench", "nosuch"]).is_err());
    }

    #[test]
    fn tables_args_reject_a_non_integer_size() {
        let err = tables(&["--table1", "--sizes", "x"]).unwrap_err();
        assert_eq!(err, "--sizes must be a comma-separated list of integers");
    }

    #[test]
    fn tables_args_reject_an_unknown_flag() {
        let err = tables(&["--tabel1"]).unwrap_err();
        assert_eq!(err, "unknown flag '--tabel1'");
        // A retired subcommand word fails loudly rather than being ignored.
        let err = tables(&["annotate", "--bench", "mxm"]).unwrap_err();
        assert_eq!(err, "unknown flag 'annotate'");
    }

    #[test]
    fn help_is_one_decision_for_the_tables_and_every_subcommand() {
        let line = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        assert!(wants_usage(&[]));
        for help in ["--help", "-h"] {
            assert!(wants_usage(&line(&[help])));
            assert!(wants_usage(&line(&["--table3", "--quick", help])));
            for word in [
                "trace", "compile", "scenario", "sim", "serve", "replay", "top",
            ] {
                assert!(wants_usage(&line(&[word, "--tiles", "4", help])), "{word}");
            }
        }
        assert!(!wants_usage(&line(&["trace", "--bench", "mxm"])));
        // A stray first word fails as an unknown flag of the tables, with or
        // without --help: a retired subcommand must not succeed.
        for args in [line(&["annotate", "--help"]), line(&["annotate"])] {
            let err = TablesArgs::parse(&args).unwrap_err();
            assert!(
                !wants_usage(&args) && err == "unknown flag 'annotate'",
                "{err}"
            );
        }
    }

    #[test]
    fn tables_args_reject_a_missing_bench_name() {
        let err = tables(&["--table1", "--bench"]).unwrap_err();
        assert_eq!(err, "--bench requires a value");
    }

    #[test]
    fn variants_build_expected_configs() {
        let c = MachineVariant::InfReg.config(4);
        assert!(c.gprs > 1000);
        let c = MachineVariant::OneCycle.config(4);
        assert_eq!(c.latency, raw_machine::LatencyModel::Unit);
        assert_eq!(MachineVariant::Base.name(), "base");
    }
}
