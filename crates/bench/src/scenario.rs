//! `raw-bench scenario` — the adversarial mesh scenario harness.
//!
//! Each scenario kernel (see [`raw_benchmarks::scenario_suite`]) is
//! dynamic-network-heavy: every address is data-dependent, so the run leans on
//! the wormhole routers and remote-memory handlers rather than the static
//! schedule. The harness compiles each kernel **around a faulty tile map** on
//! a 2×4 mesh and differentially validates the result:
//!
//! * masked tiles must carry **zero** instructions (processor or switch);
//! * the simulated result must match the reference interpreter bit-exactly;
//! * the production stepper must match `with_reference_stepper`
//!   (cycles, statistics, final memory) clean **and** under a chaos sweep;
//! * a traced run must be bit-identical to an untraced one;
//! * the two complementary partitions must run **co-resident** on one mesh
//!   with each program's final state identical to its solo run (isolation).
//!
//! Per-scenario output is one greppable stats line plus a steady-state
//! occupancy table; the closing table is the one recorded in EXPERIMENTS.md.

use crate::args::FlagParser;
use raw_ir::interp::Interpreter;
use raw_ir::Program;
use raw_machine::chaos::ChaosConfig;
use raw_machine::{Machine, MachineConfig, RunReport, TileId, TileMask};
use raw_trace::{report, run_coresident_traced, run_traced};
use rawcc::{compile, link_coresident, CompiledProgram, CompilerOptions};
use std::fmt::Write as _;

/// Arguments of the `scenario` subcommand.
pub struct ScenarioArgs {
    /// Use a reduced chaos sweep (CI-friendly).
    pub quick: bool,
    /// Restrict to one scenario kernel.
    pub bench: Option<String>,
}

impl ScenarioArgs {
    /// Parses the argument list following the `scenario` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<ScenarioArgs, String> {
        let mut out = ScenarioArgs {
            quick: false,
            bench: None,
        };
        let mut p = FlagParser::new("scenario", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--quick" => out.quick = true,
                "--bench" => out.bench = Some(p.value()?.clone()),
                _ => return Err(p.unknown()),
            }
        }
        Ok(out)
    }
}

/// The scenario mesh: 2×4, with tile 3 dead. `mask_to_pow2` pads the mask to
/// a power-of-two live count, leaving partition A = {0, 1, 2, 4}.
fn partition_a() -> MachineConfig {
    let base = MachineConfig::grid(2, 4);
    let mask = base.mask_to_pow2(&[TileId::from_raw(3)]);
    base.with_faulty(mask)
}

/// Partition B is A's complement: live exactly where A is faulty.
fn partition_b() -> MachineConfig {
    let a = partition_a();
    let mut mask = TileMask::EMPTY;
    for t in 0..a.n_tiles() {
        let t = TileId::from_raw(t);
        if !a.is_faulty(t) {
            mask.insert(t);
        }
    }
    MachineConfig::grid(2, 4).with_faulty(mask)
}

fn mask_list(config: &MachineConfig) -> String {
    let dead: Vec<String> = (0..config.n_tiles())
        .map(TileId::from_raw)
        .filter(|&t| config.is_faulty(t))
        .map(|t| t.0.to_string())
        .collect();
    dead.join(",")
}

/// Runs `machine` to completion and snapshots everything observable.
fn observe(mut machine: Machine, label: &str) -> Result<(RunReport, Vec<Vec<u32>>), String> {
    let report = machine.run().map_err(|e| format!("{label}: {e}"))?;
    let n = machine.config().n_tiles();
    let mems = (0..n).map(|t| machine.memory(TileId(t)).to_vec()).collect();
    Ok((report, mems))
}

/// Asserts the production and reference steppers agree on cycles, stats, and
/// final memory for this machine configuration.
fn check_steppers(
    compiled: &CompiledProgram,
    program: &Program,
    chaos: Option<ChaosConfig>,
    label: &str,
) -> Result<(), String> {
    let with_chaos = |mut m: Machine| {
        if let Some(c) = chaos {
            m = m.with_chaos(c);
        }
        m
    };
    let production = with_chaos(compiled.instantiate(program));
    let reference = with_chaos(compiled.instantiate(program).with_reference_stepper());
    let (t_report, t_mems) = observe(production, label)?;
    let (r_report, r_mems) = observe(reference, label)?;
    if t_report.cycles != r_report.cycles {
        return Err(format!(
            "{label}: steppers disagree on cycles ({} vs {})",
            t_report.cycles, r_report.cycles
        ));
    }
    if t_report.stats != r_report.stats {
        return Err(format!("{label}: steppers disagree on statistics"));
    }
    if t_mems != r_mems {
        return Err(format!("{label}: steppers disagree on final memory"));
    }
    Ok(())
}

/// The chaos sweep: (seed, stall rate) points drawn from the fixed testkit
/// stream so every run of the harness exercises identical chaos.
fn chaos_points(quick: bool) -> Vec<ChaosConfig> {
    let mut rng = raw_testkit::Rng::new(0x000A_110C_8A05);
    let seeds: Vec<u64> = (0..if quick { 1 } else { 3 })
        .map(|_| rng.next_u64())
        .collect();
    let rates: &[u32] = if quick { &[20] } else { &[1, 5, 20, 50] };
    let mut points = Vec::new();
    for &seed in &seeds {
        for &stall_percent in rates {
            points.push(ChaosConfig {
                seed,
                stall_percent,
            });
        }
    }
    points
}

/// Verifies that every masked tile carries zero instructions.
fn check_masked_tiles_empty(compiled: &CompiledProgram, label: &str) -> Result<(), String> {
    for (t, code) in compiled.machine_program.tiles.iter().enumerate() {
        let faulty = compiled.config.is_faulty(TileId::from_raw(t as u32));
        if faulty && (!code.proc.is_empty() || !code.switch.is_empty()) {
            return Err(format!(
                "{label}: faulty tile {t} carries {} proc / {} switch instructions",
                code.proc.len(),
                code.switch.len()
            ));
        }
    }
    Ok(())
}

/// One fully validated scenario: returns the stats line, the occupancy table,
/// and the row for the closing summary table.
fn run_scenario(
    bench: &raw_benchmarks::Benchmark,
    config: &MachineConfig,
    quick: bool,
) -> Result<(String, String, SummaryRow), String> {
    let n_live = config.n_live();
    let program = bench
        .program(n_live)
        .map_err(|e| format!("{}: source compile failed: {e}", bench.name))?;
    let compiled = compile(&program, config, &CompilerOptions::default())
        .map_err(|e| format!("{}: compile failed: {e}", bench.name))?;
    check_masked_tiles_empty(&compiled, bench.name)?;

    // Bit-exact functional check against the reference interpreter.
    let golden = Interpreter::new(&program)
        .run()
        .map_err(|e| format!("{}: interpreter failed: {e}", bench.name))?;
    let (result, run_report) = compiled
        .run(&program)
        .map_err(|e| format!("{}: simulation failed: {e}", bench.name))?;
    if !result.state_eq(&golden) {
        return Err(format!(
            "{}: simulated result diverges from the interpreter",
            bench.name
        ));
    }

    // Differential: production vs reference stepper, clean then chaos-swept.
    check_steppers(&compiled, &program, None, &format!("{} clean", bench.name))?;
    for chaos in chaos_points(quick) {
        check_steppers(
            &compiled,
            &program,
            Some(chaos),
            &format!(
                "{} chaos seed={:#x} stall={}%",
                bench.name, chaos.seed, chaos.stall_percent
            ),
        )?;
    }

    // Traced run must be observationally identical to the untraced one.
    let traced = run_traced(&compiled, &program)
        .map_err(|e| format!("{}: traced simulation failed: {e}", bench.name))?;
    if traced.report.cycles != run_report.cycles || traced.report.stats != run_report.stats {
        return Err(format!(
            "{}: traced run diverged from untraced run ({} vs {} cycles)",
            bench.name, traced.report.cycles, run_report.cycles
        ));
    }

    let dyn_cycles = traced.trace.dyn_active_cycles();
    let hash = asm_hash(&compiled);
    let line = format!(
        "scenario {} mesh={}x{} live={} faulty={} cycles={} dyn_cycles={} asm_hash={hash:#018x}",
        bench.name,
        config.rows,
        config.cols,
        n_live,
        mask_list(config),
        run_report.cycles,
        dyn_cycles,
    );
    let occupancy = report::occupancy_table(&traced.trace);
    let row = SummaryRow {
        name: bench.name.to_string(),
        live: n_live,
        cycles: run_report.cycles,
        dyn_cycles,
        hash,
    };
    Ok((line, occupancy, row))
}

struct SummaryRow {
    name: String,
    live: u32,
    cycles: u64,
    dyn_cycles: u64,
    hash: u64,
}

/// FNV over the full per-tile instruction streams (same digest as
/// `raw-bench compile`).
fn asm_hash(compiled: &CompiledProgram) -> u64 {
    raw_testkit::hash64(format!("{:?}", compiled.machine_program).as_bytes())
}

/// Co-residency check: two kernels on complementary partitions of one mesh.
/// Each program's final state must equal its solo run (isolation), and the
/// per-program accounting must attribute activity only to owned tiles.
fn run_coresident(
    bench_a: &raw_benchmarks::Benchmark,
    bench_b: &raw_benchmarks::Benchmark,
) -> Result<String, String> {
    let config_a = partition_a();
    let config_b = partition_b();
    let prog_a = bench_a
        .program(config_a.n_live())
        .map_err(|e| format!("{}: {e}", bench_a.name))?;
    let prog_b = bench_b
        .program(config_b.n_live())
        .map_err(|e| format!("{}: {e}", bench_b.name))?;
    let compiled_a = compile(&prog_a, &config_a, &CompilerOptions::default())
        .map_err(|e| format!("{}: {e}", bench_a.name))?;
    let compiled_b = compile(&prog_b, &config_b, &CompilerOptions::default())
        .map_err(|e| format!("{}: {e}", bench_b.name))?;
    let solo_a = compiled_a
        .run(&prog_a)
        .map_err(|e| format!("{} solo: {e}", bench_a.name))?
        .0;
    let solo_b = compiled_b
        .run(&prog_b)
        .map_err(|e| format!("{} solo: {e}", bench_b.name))?
        .0;

    let co = link_coresident(&compiled_a, &compiled_b).map_err(|e| e.to_string())?;
    check_partitions_disjoint(&co)?;
    let (results, co_report) = co
        .run([&prog_a, &prog_b])
        .map_err(|e| format!("co-resident run: {e}"))?;
    for (i, (solo, name)) in [(&solo_a, bench_a.name), (&solo_b, bench_b.name)]
        .into_iter()
        .enumerate()
    {
        if !results[i].state_eq(solo) {
            return Err(format!(
                "co-residency broke isolation: {name}'s result differs from its solo run"
            ));
        }
    }

    // Per-program attribution over the shared-mesh trace.
    let traced = run_coresident_traced(&co, [&prog_a, &prog_b])
        .map_err(|e| format!("co-resident traced run: {e}"))?;
    if traced.report.cycles != co_report.cycles {
        return Err(format!(
            "co-resident traced run diverged ({} vs {} cycles)",
            traced.report.cycles, co_report.cycles
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "coresident {}+{} cycles={} a_tiles={} b_tiles={}",
        bench_a.name,
        bench_b.name,
        co_report.cycles,
        co.tiles_of(0).len(),
        co.tiles_of(1).len(),
    );
    for (i, name) in [bench_a.name, bench_b.name].into_iter().enumerate() {
        let acc = &traced.per_program[i];
        let _ = writeln!(
            out,
            "coresident   {name}: issues={} routes={} proc_stall={} switch_stall={}",
            acc.issues,
            acc.routes,
            acc.proc_stall_total(),
            acc.switch_stall_total(),
        );
    }
    Ok(out)
}

/// Sanity check on the instantiated co-resident machine: keeps the harness
/// honest that partition tile sets are disjoint and cover only live tiles.
fn check_partitions_disjoint(co: &rawcc::CoResident) -> Result<(), String> {
    let a = co.tiles_of(0);
    let b = co.tiles_of(1);
    for t in &a {
        if b.contains(t) {
            return Err(format!("tile {} owned by both partitions", t.0));
        }
    }
    // The merged config marks exactly the unowned tiles faulty.
    for t in 0..co.config.n_tiles() {
        let t = TileId::from_raw(t);
        let owned = a.contains(&t) || b.contains(&t);
        if owned == co.config.is_faulty(t) {
            return Err(format!(
                "tile {} ownership/faulty disagreement in merged config",
                t.0
            ));
        }
    }
    Ok(())
}

/// Runs the `scenario` subcommand and returns its stdout text.
///
/// # Errors
///
/// Returns a message on compile failures or any differential mismatch; the
/// binary maps this to a nonzero exit code.
pub fn scenario_command(args: &ScenarioArgs) -> Result<String, String> {
    let mut suite = raw_benchmarks::scenario_suite();
    if let Some(name) = &args.bench {
        suite.retain(|b| b.name == name);
        if suite.is_empty() {
            return Err(format!("unknown scenario '{name}'"));
        }
    }
    let config = partition_a();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario suite: {}x{} mesh, faulty tiles {{{}}} -> {} live tiles\n",
        config.rows,
        config.cols,
        mask_list(&config),
        config.n_live(),
    );
    let mut rows = Vec::new();
    for bench in &suite {
        let (line, occupancy, row) = run_scenario(bench, &config, args.quick)?;
        out.push_str(&line);
        out.push('\n');
        out.push_str(&occupancy);
        out.push('\n');
        rows.push(row);
    }

    // Co-residency: pair each kernel with its successor (cyclically) so every
    // kernel runs at least once on each partition shape.
    if suite.len() >= 2 {
        for i in 0..suite.len() {
            let a = &suite[i];
            let b = &suite[(i + 1) % suite.len()];
            out.push_str(&run_coresident(a, b)?);
        }
        out.push('\n');
    }

    out.push_str("| scenario | live | cycles | dyn cycles | asm hash |\n");
    out.push_str("|---|---|---|---|---|\n");
    for r in &rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:#018x} |",
            r.name, r.live, r.cycles, r.dyn_cycles, r.hash
        );
    }
    let _ = writeln!(out, "\nscenario suite: all checks passed");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flags() {
        let d = ScenarioArgs::parse(&[]).unwrap();
        assert!(!d.quick && d.bench.is_none());
        let p = ScenarioArgs::parse(&s(&["--quick", "--bench", "gather"])).unwrap();
        assert!(p.quick);
        assert_eq!(p.bench.as_deref(), Some("gather"));
        assert!(ScenarioArgs::parse(&s(&["--frobnicate"])).is_err());
        assert!(ScenarioArgs::parse(&s(&["--bench"])).is_err());
    }

    #[test]
    fn partitions_are_complementary() {
        let a = partition_a();
        let b = partition_b();
        assert_eq!(a.n_live(), 4);
        assert_eq!(b.n_live(), 4);
        for t in 0..8u32 {
            let t = TileId::from_raw(t);
            assert_ne!(
                a.is_faulty(t),
                b.is_faulty(t),
                "tile {} not complementary",
                t.0
            );
        }
        assert!(a.live_connected() && b.live_connected());
    }

    #[test]
    fn scenario_gather_passes_quick() {
        let args = ScenarioArgs::parse(&s(&["--quick", "--bench", "gather"])).unwrap();
        let text = scenario_command(&args).unwrap();
        assert!(text.contains("scenario gather "), "{text}");
        assert!(text.contains("asm_hash=0x"), "{text}");
        assert!(text.contains("all checks passed"), "{text}");
    }

    #[test]
    fn coresident_pairing_is_isolated() {
        let suite = raw_benchmarks::scenario_suite();
        let text = run_coresident(&suite[0], &suite[1]).unwrap();
        assert!(text.contains("coresident pointer-chase+scatter"), "{text}");
        let config_a = partition_a();
        let prog = suite[0].program(config_a.n_live()).unwrap();
        let ca = compile(&prog, &config_a, &CompilerOptions::default()).unwrap();
        let config_b = partition_b();
        let prog_b = suite[1].program(config_b.n_live()).unwrap();
        let cb = compile(&prog_b, &config_b, &CompilerOptions::default()).unwrap();
        let co = link_coresident(&ca, &cb).unwrap();
        check_partitions_disjoint(&co).unwrap();
    }
}
