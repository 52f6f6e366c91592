//! `raw-bench sim` — big-mesh scaling and differential smoke of the simulator.
//!
//! The production stepper (DESIGN.md §8) claims per-cycle cost proportional
//! to *active components* rather than *tiles*. This subcommand makes that
//! claim measurable and falsifiable on big meshes:
//!
//! * a suite of **sparse hand-written workloads** — a handful of active tiles
//!   on an otherwise idle mesh, the regime where a 32×32 machine spends most
//!   of its tiles dead or asleep — built directly from assembly so mesh size
//!   is decoupled from compiler scaling;
//! * `--selfcheck` runs every workload through the production stepper and
//!   the reference oracle and fails unless cycle counts, the full statistics
//!   block, and final memories are bit-identical, clean and under a chaos
//!   sweep;
//! * a compiled benchmark (`jacobi`) joins the differential at sizes the
//!   compiler targets (≤ 64 tiles), so the smoke also covers compiler-shaped
//!   code and honours `RAWCC_THREADS`;
//! * without `--selfcheck` the subcommand times one run per workload and
//!   prints one greppable `ms` / `ns_per_cycle` line each: run it at several
//!   `--tiles` and the same workload should cost the same (the statistically
//!   careful version lives in `benches/sim_scale.rs`).

use crate::args::{require_power_of_two, FlagParser};
use raw_ir::Imm;
use raw_machine::asm::{ProcAsm, SwitchAsm};
use raw_machine::chaos::ChaosConfig;
use raw_machine::isa::{Dir, Dst, MachineProgram, PInst, SDst, SInst, SSrc, Src, TileCode};
use raw_machine::stats::Stats;
use raw_machine::{Machine, MachineConfig, TileId};
use std::fmt::Write as _;
use std::time::Instant;

/// Arguments of the `sim` subcommand.
#[derive(Debug)]
pub struct SimArgs {
    /// Machine size in tiles (power of two).
    pub tiles: u32,
    /// Restrict to one workload by name.
    pub bench: Option<String>,
    /// Smaller iteration counts and chaos sweep (CI-friendly).
    pub quick: bool,
    /// Differentially validate against the reference stepper instead of timing.
    pub selfcheck: bool,
}

impl SimArgs {
    /// Parses the argument list following the `sim` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<SimArgs, String> {
        let mut out = SimArgs {
            tiles: 64,
            bench: None,
            quick: false,
            selfcheck: false,
        };
        let mut p = FlagParser::new("sim", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--tiles" => out.tiles = p.value_parsed("an integer")?,
                "--bench" => out.bench = Some(p.value()?.clone()),
                "--quick" => out.quick = true,
                "--selfcheck" => out.selfcheck = true,
                _ => return Err(p.unknown()),
            }
        }
        require_power_of_two(out.tiles)?;
        if out.tiles < 2 {
            return Err("sim needs at least 2 tiles".to_string());
        }
        Ok(out)
    }
}

/// A hand-written workload that keeps a few tiles busy on an arbitrarily
/// large mesh. `init` words are poked before the run; `check` is the
/// (tile, address, expected word) the run must produce.
pub struct SparseWorkload {
    /// Workload name (`spin`, `pingpong`, `remote`).
    pub name: &'static str,
    /// Tiles that carry real code (the rest halt at cycle 0).
    pub active_tiles: usize,
    /// The assembled program, sized to the config's mesh.
    pub program: MachineProgram,
    /// Memory words to poke before the run.
    pub init: Vec<(TileId, u32, u32)>,
    /// Functional check: (tile, address, expected value).
    pub check: (TileId, u32, u32),
}

/// Pads `tiles` with halt-only code up to the mesh size.
fn pad(mut tiles: Vec<TileCode>, n: u32) -> MachineProgram {
    while tiles.len() < n as usize {
        tiles.push(TileCode {
            proc: vec![PInst::Halt],
            switch: vec![SInst::Halt],
        });
    }
    MachineProgram { tiles }
}

/// One active tile spinning through a countdown loop: the pure
/// events-vs-tiles regime (no network traffic at all).
fn spin(config: &MachineConfig, iters: i32) -> SparseWorkload {
    let mut p = ProcAsm::new();
    p.li(Dst::Reg(1), Imm::I(iters));
    let top = p.new_label();
    p.bind(top);
    p.addi(Dst::Reg(1), Src::Reg(1), -1);
    p.bnez(Src::Reg(1), top);
    p.store_imm_addr(Src::Imm(Imm::I(iters)), 0);
    p.halt();
    let tiles = vec![TileCode {
        proc: p.finish(),
        switch: vec![SInst::Halt],
    }];
    SparseWorkload {
        name: "spin",
        active_tiles: 1,
        program: pad(tiles, config.n_tiles()),
        init: vec![],
        check: (TileId::from_raw(0), 0, iters as u32),
    }
}

/// Two neighbouring tiles bouncing a word over the static network: every
/// round trip sleeps and wakes both processors and both switches, so the
/// port-wake path dominates.
fn pingpong(config: &MachineConfig, iters: i32) -> SparseWorkload {
    // Tile 0: send the counter, receive it incremented, repeat.
    let mut p0 = ProcAsm::new();
    p0.li(Dst::Reg(1), Imm::I(iters));
    p0.li(Dst::Reg(2), Imm::I(0));
    let top0 = p0.new_label();
    p0.bind(top0);
    p0.send(Src::Reg(2));
    p0.recv(Dst::Reg(2));
    p0.addi(Dst::Reg(1), Src::Reg(1), -1);
    p0.bnez(Src::Reg(1), top0);
    p0.store_imm_addr(Src::Reg(2), 0);
    p0.halt();
    // Tile 1: receive, increment, return.
    let mut p1 = ProcAsm::new();
    p1.li(Dst::Reg(1), Imm::I(iters));
    let top1 = p1.new_label();
    p1.bind(top1);
    p1.recv(Dst::Reg(2));
    p1.addi(Dst::PortOut, Src::Reg(2), 1);
    p1.addi(Dst::Reg(1), Src::Reg(1), -1);
    p1.bnez(Src::Reg(1), top1);
    p1.halt();
    // Switches: unrolled route pairs (switch code is cheap; unrolling keeps
    // the workload self-contained without switch-register loop counters).
    let mut s0 = SwitchAsm::new();
    let mut s1 = SwitchAsm::new();
    for _ in 0..iters {
        s0.route(&[(SSrc::Proc, SDst::Dir(Dir::East))]);
        s0.route(&[(SSrc::Dir(Dir::East), SDst::Proc)]);
        s1.route(&[(SSrc::Dir(Dir::West), SDst::Proc)]);
        s1.route(&[(SSrc::Proc, SDst::Dir(Dir::West))]);
    }
    s0.halt();
    s1.halt();
    let tiles = vec![
        TileCode {
            proc: p0.finish(),
            switch: s0.finish(),
        },
        TileCode {
            proc: p1.finish(),
            switch: s1.finish(),
        },
    ];
    SparseWorkload {
        name: "pingpong",
        active_tiles: 2,
        program: pad(tiles, config.n_tiles()),
        init: vec![],
        check: (TileId::from_raw(0), 0, iters as u32),
    }
}

/// Corner-to-corner remote loads over the dynamic network: tile 0 reads a
/// word homed on the far corner in a dependent loop, exercising wormhole
/// routing, the remote-memory handler, and the dynamic-network drain phase
/// at full mesh diameter.
fn remote(config: &MachineConfig, iters: i32) -> SparseWorkload {
    let far = TileId::from_raw(config.n_tiles() - 1);
    let gaddr = config.make_gaddr(far, 7);
    let mut p = ProcAsm::new();
    p.li(Dst::Reg(1), Imm::I(iters));
    p.li(Dst::Reg(3), Imm::I(0));
    let top = p.new_label();
    p.bind(top);
    p.dload(Dst::Reg(2), Src::Imm(Imm::I(gaddr as i32)));
    p.bin(raw_ir::BinOp::Add, Dst::Reg(3), Src::Reg(3), Src::Reg(2));
    p.addi(Dst::Reg(1), Src::Reg(1), -1);
    p.bnez(Src::Reg(1), top);
    p.store_imm_addr(Src::Reg(3), 0);
    p.halt();
    let tiles = vec![TileCode {
        proc: p.finish(),
        switch: vec![SInst::Halt],
    }];
    SparseWorkload {
        name: "remote",
        active_tiles: 1,
        program: pad(tiles, config.n_tiles()),
        init: vec![(far, 7, 77)],
        check: (TileId::from_raw(0), 0, 77 * iters as u32),
    }
}

/// The sparse suite for one mesh. `quick` shrinks iteration counts so a CI
/// smoke over both steppers and a chaos sweep stays fast.
#[must_use]
pub fn sparse_suite(config: &MachineConfig, quick: bool) -> Vec<SparseWorkload> {
    let scale = if quick { 8 } else { 1 };
    vec![
        spin(config, 8192 / scale),
        pingpong(config, 512 / scale),
        remote(config, 64 / scale.min(4)),
    ]
}

/// Instantiates one stepper over a sparse workload.
fn machine(
    config: &MachineConfig,
    w: &SparseWorkload,
    reference: bool,
    chaos: Option<ChaosConfig>,
) -> Machine {
    let mut m = Machine::new(config.clone(), &w.program);
    if reference {
        m = m.with_reference_stepper();
    }
    if let Some(c) = chaos {
        m = m.with_chaos(c);
    }
    for &(tile, addr, value) in &w.init {
        m.set_mem_word(tile, addr, value);
    }
    m
}

/// Runs to completion and snapshots everything the differential compares.
fn snapshot(mut m: Machine, label: &str) -> Result<RunSnapshot, String> {
    let report = m.run().map_err(|e| format!("{label}: {e}"))?;
    let n = m.config().n_tiles();
    Ok(RunSnapshot {
        cycles: report.cycles,
        stats: report.stats,
        mems: (0..n).map(|t| m.memory(TileId(t)).to_vec()).collect(),
    })
}

/// Runs a sparse workload to completion, verifying its functional check.
fn observe(m: Machine, w: &SparseWorkload, label: &str) -> Result<RunSnapshot, String> {
    let snap = snapshot(m, label)?;
    let (tile, addr, expected) = w.check;
    let got = snap.mems[tile.index()][addr as usize];
    if got != expected {
        return Err(format!(
            "{label}: tile {} mem[{addr}] = {got}, expected {expected}",
            tile.0
        ));
    }
    Ok(snap)
}

/// Everything the differential compares.
struct RunSnapshot {
    cycles: u64,
    stats: Stats,
    mems: Vec<Vec<u32>>,
}

/// Checks that the production stepper's run equals the reference oracle's;
/// returns the agreed cycle count.
fn check_against_reference(
    production: &RunSnapshot,
    reference: &RunSnapshot,
    label: &str,
) -> Result<u64, String> {
    if production.cycles != reference.cycles {
        return Err(format!(
            "{label}: steppers disagree on cycles ({} vs reference {})",
            production.cycles, reference.cycles
        ));
    }
    if production.stats != reference.stats {
        return Err(format!("{label}: steppers disagree on statistics"));
    }
    if production.mems != reference.mems {
        return Err(format!("{label}: steppers disagree on final memory"));
    }
    Ok(production.cycles)
}

/// Asserts both steppers agree on one (workload, chaos) point.
fn check_two_way(
    config: &MachineConfig,
    w: &SparseWorkload,
    chaos: Option<ChaosConfig>,
    label: &str,
) -> Result<u64, String> {
    let production = observe(machine(config, w, false, chaos), w, label)?;
    let reference = observe(machine(config, w, true, chaos), w, label)?;
    check_against_reference(&production, &reference, label)
}

/// The chaos sweep for the smoke: fixed testkit stream, so every run
/// exercises identical chaos points.
fn chaos_points(quick: bool) -> Vec<ChaosConfig> {
    let mut rng = raw_testkit::Rng::new(0x513C_41E0);
    let seeds: Vec<u64> = (0..if quick { 1 } else { 2 })
        .map(|_| rng.next_u64())
        .collect();
    let rates: &[u32] = if quick { &[20] } else { &[5, 30] };
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

/// Differential check of a *compiled* benchmark (jacobi) at this mesh size:
/// covers compiler-shaped code (real schedules, multi-tile control flow) and
/// makes the smoke sensitive to `RAWCC_THREADS`.
fn check_compiled(config: &MachineConfig, quick: bool, out: &mut String) -> Result<(), String> {
    use rawcc::{compile, CompilerOptions};
    let bench = raw_benchmarks::jacobi(if quick { 8 } else { 16 }, 1);
    let program = bench
        .program(config.n_live())
        .map_err(|e| format!("jacobi: source compile failed: {e}"))?;
    let compiled = compile(&program, config, &CompilerOptions::default())
        .map_err(|e| format!("jacobi: compile failed: {e}"))?;
    let run = |reference: bool, chaos: Option<ChaosConfig>| -> Result<RunSnapshot, String> {
        let mut m = compiled.instantiate(&program);
        if reference {
            m = m.with_reference_stepper();
        }
        if let Some(c) = chaos {
            m = m.with_chaos(c);
        }
        snapshot(m, "jacobi")
    };
    let mut points: Vec<Option<ChaosConfig>> = vec![None];
    points.extend(chaos_points(quick).into_iter().map(Some));
    for chaos in points {
        let label = match chaos {
            None => "jacobi clean".to_string(),
            Some(c) => format!("jacobi chaos seed={:#x} stall={}%", c.seed, c.stall_percent),
        };
        let cycles = check_against_reference(&run(false, chaos)?, &run(true, chaos)?, &label)?;
        let _ = writeln!(
            out,
            "sim jacobi tiles={} cycles={cycles} {label}: ok",
            config.n_tiles()
        );
    }
    Ok(())
}

/// Times one full run (construction and memory inspection excluded) and
/// returns (cycles, seconds).
fn time_run(config: &MachineConfig, w: &SparseWorkload) -> Result<(u64, f64), String> {
    let mut m = machine(config, w, false, None);
    let label = format!("{} timing", w.name);
    let start = Instant::now();
    let report = m.run().map_err(|e| format!("{label}: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let (tile, addr, expected) = w.check;
    let got = m.mem_word(tile, addr);
    if got != expected {
        return Err(format!(
            "{label}: tile {} mem[{addr}] = {got}, expected {expected}",
            tile.0
        ));
    }
    Ok((report.cycles, secs))
}

/// Runs the `sim` subcommand and renders its report.
///
/// # Errors
///
/// Returns an error if a workload fails functionally, a stepper diverges, or
/// an unknown `--bench` name is given.
pub fn sim_command(args: &SimArgs) -> Result<String, String> {
    let config = MachineConfig::square(args.tiles);
    let suite = sparse_suite(&config, args.quick);
    let selected: Vec<&SparseWorkload> = suite
        .iter()
        .filter(|w| args.bench.as_deref().is_none_or(|b| b == w.name))
        .collect();
    let wants_jacobi = args.bench.as_deref().is_none_or(|b| b == "jacobi");
    if selected.is_empty() && !wants_jacobi {
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown sim workload '{}' (expected one of {}, jacobi)",
            args.bench.as_deref().unwrap_or(""),
            names.join(", ")
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sim mesh {}x{} ({} tiles), {} mode",
        config.rows,
        config.cols,
        config.n_tiles(),
        if args.selfcheck {
            "selfcheck"
        } else {
            "timing"
        }
    );
    for w in &selected {
        if args.selfcheck {
            let cycles = check_two_way(&config, w, None, &format!("{} clean", w.name))?;
            let _ = writeln!(
                out,
                "sim {} tiles={} active={} cycles={cycles} clean: ok",
                w.name,
                config.n_tiles(),
                w.active_tiles
            );
            for chaos in chaos_points(args.quick) {
                let label = format!(
                    "{} chaos seed={:#x} stall={}%",
                    w.name, chaos.seed, chaos.stall_percent
                );
                let cycles = check_two_way(&config, w, Some(chaos), &label)?;
                let _ = writeln!(
                    out,
                    "sim {} tiles={} cycles={cycles} {label}: ok",
                    w.name,
                    config.n_tiles()
                );
            }
        } else {
            let (cycles, secs) = time_run(&config, w)?;
            let _ = writeln!(
                out,
                "sim {} tiles={} active={} cycles={cycles} ms={:.2} ns_per_cycle={:.1}",
                w.name,
                config.n_tiles(),
                w.active_tiles,
                secs * 1e3,
                secs * 1e9 / cycles.max(1) as f64
            );
        }
    }
    // Compiler-shaped code joins the differential at sizes rawcc targets.
    if args.selfcheck && wants_jacobi && config.n_tiles() <= 64 {
        check_compiled(&config, args.quick, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let d = SimArgs::parse(&[]).unwrap();
        assert_eq!((d.tiles, d.quick, d.selfcheck), (64, false, false));
        let p = SimArgs::parse(&s(&[
            "--tiles",
            "256",
            "--bench",
            "spin",
            "--quick",
            "--selfcheck",
        ]))
        .unwrap();
        assert_eq!(p.tiles, 256);
        assert_eq!(p.bench.as_deref(), Some("spin"));
        assert!(p.quick && p.selfcheck);
        assert!(SimArgs::parse(&s(&["--tiles", "3"]))
            .unwrap_err()
            .contains("power of two"));
        assert!(SimArgs::parse(&s(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown sim flag"));
    }

    #[test]
    fn sparse_workloads_pass_their_own_checks() {
        let config = MachineConfig::square(16);
        for w in sparse_suite(&config, true) {
            let label = format!("{} smoke", w.name);
            observe(machine(&config, &w, false, None), &w, &label).unwrap();
        }
    }

    #[test]
    fn selfcheck_smoke_on_a_small_mesh() {
        let args = SimArgs::parse(&s(&["--tiles", "16", "--quick", "--selfcheck"])).unwrap();
        let text = sim_command(&args).unwrap();
        assert!(text.contains("sim spin tiles=16"), "{text}");
        assert!(text.contains("clean: ok"), "{text}");
        assert!(text.contains("sim jacobi tiles=16"), "{text}");
    }

    #[test]
    fn timing_mode_reports_one_line_per_workload() {
        let args = SimArgs::parse(&s(&["--tiles", "64", "--quick", "--bench", "spin"])).unwrap();
        let text = sim_command(&args).unwrap();
        assert!(
            text.contains(" ms=") && text.contains(" ns_per_cycle="),
            "{text}"
        );
    }
}
