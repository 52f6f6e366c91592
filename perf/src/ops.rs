//! Ops: one input taken through its whole path and verified.
//!
//! A *pipeline* op runs source → frontend → compile → load → simulate → read
//! back and is checked with `ExecResult::state_eq` against the IR interpreter's
//! result from set-up. A *hand-assembled* op loads a program built with
//! `raw_machine::asm` and is checked against the memory word it must produce.
//!
//! Untraced, an op goes through the product's one-call entry points
//! (`compile_source`, `CompiledProgram::run`). Traced, the same work is done
//! through the public functions those entry points are made of, with a span
//! around each; the drift guard in `layers` checks the two agree.

use crate::inputs::PipeInput;
use crate::span::Tracer;
use raw_ir::interp::{ExecResult, Interpreter};
use raw_ir::Imm;
use raw_lang::{lower, parser, unroll, UnrollOptions};
use raw_machine::asm::{ProcAsm, SwitchAsm};
use raw_machine::isa::{Dir, Dst, MachineProgram, PInst, SDst, SInst, SSrc, Src, TileCode};
use raw_machine::{Machine, MachineConfig, RunReport, TileId};
use raw_testkit::Rng;
use rawcc::{compile_baseline, compile_with_cache, BlockCache, CompileReport, CompilerOptions};

/// The options every compile in the harness uses: product defaults, one
/// worker thread so compile time is not a function of the host's core count.
pub fn options() -> CompilerOptions {
    CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    }
}

/// What set-up computes for a pipeline input.
#[derive(Clone, Debug)]
pub struct PipeRef {
    /// The interpreter's final state for the N-tile program: the oracle.
    pub golden: ExecResult,
    /// Instructions the interpreter executed producing it.
    pub interp_insts: u64,
    /// Cycles of the sequential one-tile baseline (`compile_baseline`),
    /// itself checked against the interpreter.
    pub base_cycles: u64,
}

/// A hand-assembled program on a large, mostly idle mesh.
#[derive(Clone, Debug)]
pub struct AsmInput {
    /// `name@RxC`.
    pub label: String,
    /// Mesh.
    pub config: MachineConfig,
    /// The assembled image, padded with halt-only tiles.
    pub program: MachineProgram,
    /// Memory words poked before the run.
    pub init: Vec<(TileId, u32, u32)>,
    /// `(tile, address, expected word)` the run must produce.
    pub check: (TileId, u32, u32),
}

/// One op of a workload.
#[derive(Clone, Debug)]
pub enum Op {
    /// Source → verified simulation.
    Pipe(PipeInput, PipeRef),
    /// Hand-assembled image → verified simulation.
    Asm(AsmInput),
}

/// What one executed op reports.
#[derive(Debug)]
pub struct OpOutcome {
    /// Output matched the oracle.
    pub ok: bool,
    /// The simulator's report.
    pub run: RunReport,
    /// Processor plus switch instructions over all tiles.
    pub code_words: u64,
    /// Tiles of the mesh the op ran on.
    pub n_tiles: u32,
    /// The compiler's report (pipeline ops only).
    pub compile: Option<CompileReport>,
}

/// Processor plus switch instructions over all tiles.
pub fn code_words(mp: &MachineProgram) -> u64 {
    mp.tiles
        .iter()
        .map(|t| (t.proc.len() + t.switch.len()) as u64)
        .sum()
}

impl Op {
    /// The op's label.
    pub fn label(&self) -> &str {
        match self {
            Op::Pipe(input, _) => &input.label,
            Op::Asm(input) => &input.label,
        }
    }

    /// Runs the op once, from its input to a verified result.
    ///
    /// # Errors
    ///
    /// Any product error, rendered; the caller counts it as a failed op.
    pub fn run(&self, t: &mut Tracer) -> Result<OpOutcome, String> {
        match self {
            Op::Pipe(input, refr) => run_pipe(input, refr, t),
            Op::Asm(input) => run_asm(input, t),
        }
    }
}

fn err(label: &str, e: impl std::fmt::Display) -> String {
    format!("{label}: {e}")
}

/// The frontend, one public call at a time when traced, then the seeded
/// array data.
pub fn frontend(input: &PipeInput, t: &mut Tracer) -> Result<raw_ir::Program, String> {
    let n_tiles = input.config.n_tiles();
    let mut program = if t.enabled() {
        let s = t.enter("lang.parse.ms");
        let kernel = parser::parse(input.family, &input.source);
        t.exit(s);
        let kernel = kernel.map_err(|e| err(&input.label, e))?;
        let s = t.enter("lang.unroll.ms");
        let unrolled = unroll::unroll_kernel(&kernel, n_tiles, UnrollOptions::for_tiles(n_tiles));
        t.exit(s);
        let s = t.enter("lang.lower.ms");
        let program = lower::lower_kernel(&unrolled, n_tiles);
        t.exit(s);
        program.map_err(|e| err(&input.label, e))?
    } else {
        raw_lang::compile_source(input.family, &input.source, n_tiles)
            .map_err(|e| err(&input.label, e))?
    };
    input.install(&mut program);
    Ok(program)
}

fn run_pipe(input: &PipeInput, refr: &PipeRef, t: &mut Tracer) -> Result<OpOutcome, String> {
    let program = frontend(input, t)?;
    let cache = BlockCache::in_memory();
    let s = t.enter("core.compile.ms");
    let compiled = compile_with_cache(&program, &input.config, &options(), &cache);
    t.exit(s);
    let compiled = compiled.map_err(|e| err(&input.label, e))?;
    let (result, run) = if t.enabled() {
        let s = t.enter("machine.load.ms");
        let mut machine = compiled.instantiate(&program);
        t.exit(s);
        let s = t.enter("machine.run.ms");
        let run = machine.run();
        t.exit(s);
        let run = run.map_err(|e| err(&input.label, e))?;
        let s = t.enter("machine.readback.ms");
        let result = compiled.extract_result(&program, &machine);
        t.exit(s);
        (result, run)
    } else {
        compiled.run(&program).map_err(|e| err(&input.label, e))?
    };
    Ok(OpOutcome {
        ok: result.state_eq(&refr.golden),
        run,
        code_words: code_words(&compiled.machine_program),
        n_tiles: input.config.n_tiles(),
        compile: Some(compiled.report),
    })
}

fn run_asm(input: &AsmInput, t: &mut Tracer) -> Result<OpOutcome, String> {
    let s = t.enter("machine.load.ms");
    let mut machine = Machine::new(input.config.clone(), &input.program);
    for &(tile, addr, value) in &input.init {
        machine.set_mem_word(tile, addr, value);
    }
    t.exit(s);
    let s = t.enter("machine.run.ms");
    let run = machine.run();
    t.exit(s);
    let run = run.map_err(|e| err(&input.label, e))?;
    let s = t.enter("machine.readback.ms");
    let (tile, addr, expected) = input.check;
    let got = machine.mem_word(tile, addr);
    t.exit(s);
    Ok(OpOutcome {
        ok: got == expected,
        run,
        code_words: code_words(&input.program),
        n_tiles: input.config.n_tiles(),
        compile: None,
    })
}

/// Set-up for one pipeline input: the lowered N-tile program, the
/// interpreter's reference result for it, and the one-tile baseline's cycle
/// count. Nothing here goes through the N-tile
/// compiler, so the oracle is independent of the code under test.
///
/// # Errors
///
/// A frontend, interpreter, baseline-compile or simulation error, rendered.
pub fn reference(
    input: &PipeInput,
    with_baseline: bool,
    t: &mut Tracer,
) -> Result<(raw_ir::Program, PipeRef), String> {
    let program = frontend(input, &mut Tracer::off())?;
    let s = t.enter("ir.interp.ms");
    let golden = Interpreter::new(&program).run();
    t.exit(s);
    let golden = golden.map_err(|e| err(&input.label, e))?;

    let mut base_cycles = 0;
    if with_baseline {
        // The stand-in for the paper's sequential compiler: one tile, rolled
        // loops, no reassociation (as `Benchmark::baseline_program`).
        let rolled = UnrollOptions {
            ilp_factor: 1,
            reassociate: false,
        };
        let mut base = raw_lang::compile_source_with(input.family, &input.source, 1, rolled)
            .map_err(|e| err(&input.label, e))?;
        input.install(&mut base);
        let expect = Interpreter::new(&base)
            .run()
            .map_err(|e| err(&input.label, e))?;
        let compiled =
            compile_baseline(&base, &MachineConfig::square(1)).map_err(|e| err(&input.label, e))?;
        let (got, report) = compiled.run(&base).map_err(|e| err(&input.label, e))?;
        if !got.state_eq(&expect) {
            return Err(err(
                &input.label,
                "one-tile baseline diverges from the interpreter",
            ));
        }
        base_cycles = report.cycles;
    }
    let refr = PipeRef {
        interp_insts: golden.insts_executed,
        golden,
        base_cycles,
    };
    Ok((program, refr))
}

/// Pads `tiles` with halt-only code up to the mesh size.
fn pad(mut tiles: Vec<TileCode>, config: &MachineConfig) -> MachineProgram {
    tiles.resize(
        config.n_tiles() as usize,
        TileCode {
            proc: vec![PInst::Halt],
            switch: vec![SInst::Halt],
        },
    );
    MachineProgram { tiles }
}

/// One tile counting down while the rest of the mesh is halted: per-cycle
/// cost should follow the one live processor, not the mesh size.
fn spin(config: &MachineConfig, iters: i32, word: i32) -> AsmInput {
    let mut p = ProcAsm::new();
    p.li(Dst::Reg(1), Imm::I(iters));
    let top = p.new_label();
    p.bind(top);
    p.addi(Dst::Reg(1), Src::Reg(1), -1);
    p.bnez(Src::Reg(1), top);
    p.store_imm_addr(Src::Imm(Imm::I(word)), 0);
    p.halt();
    let tiles = vec![TileCode {
        proc: p.finish(),
        switch: vec![SInst::Halt],
    }];
    AsmInput {
        label: format!("spin({iters})@{}x{}", config.rows, config.cols),
        config: config.clone(),
        program: pad(tiles, config),
        init: vec![],
        check: (TileId::from_raw(0), 0, word as u32),
    }
}

/// Two neighbours bouncing a word over the static network: every round trip
/// sleeps and wakes both processors and both switches.
fn pingpong(config: &MachineConfig, iters: i32, start: i32) -> AsmInput {
    let mut p0 = ProcAsm::new();
    p0.li(Dst::Reg(1), Imm::I(iters));
    p0.li(Dst::Reg(2), Imm::I(start));
    let top0 = p0.new_label();
    p0.bind(top0);
    p0.send(Src::Reg(2));
    p0.recv(Dst::Reg(2));
    p0.addi(Dst::Reg(1), Src::Reg(1), -1);
    p0.bnez(Src::Reg(1), top0);
    p0.store_imm_addr(Src::Reg(2), 0);
    p0.halt();
    let mut p1 = ProcAsm::new();
    p1.li(Dst::Reg(1), Imm::I(iters));
    let top1 = p1.new_label();
    p1.bind(top1);
    p1.recv(Dst::Reg(2));
    p1.addi(Dst::PortOut, Src::Reg(2), 1);
    p1.addi(Dst::Reg(1), Src::Reg(1), -1);
    p1.bnez(Src::Reg(1), top1);
    p1.halt();
    // Switch code is unrolled: it is cheap, and it keeps the program free of
    // switch-register loop counters.
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
    AsmInput {
        label: format!("pingpong({iters})@{}x{}", config.rows, config.cols),
        config: config.clone(),
        program: pad(tiles, config),
        init: vec![],
        check: (TileId::from_raw(0), 0, start.wrapping_add(iters) as u32),
    }
}

/// Corner-to-corner dependent loads over the dynamic network, at full mesh
/// diameter: wormhole routing and the remote-memory handler, with every tile
/// in between asleep.
fn remote(config: &MachineConfig, iters: i32, word: u32) -> AsmInput {
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
    AsmInput {
        label: format!("remote({iters})@{}x{}", config.rows, config.cols),
        config: config.clone(),
        program: pad(tiles, config),
        init: vec![(far, 7, word)],
        check: (TileId::from_raw(0), 0, word.wrapping_mul(iters as u32)),
    }
}

/// The hand-assembled part of `sim_sparse`. Iteration counts are fixed per
/// mesh (sized so each op simulates for 10-50 ms on the reference host), so
/// simulated cycles do not depend on the seed; the seed picks the data words
/// each program must carry to its check address.
pub fn sparse_asm(seed: u64) -> Vec<AsmInput> {
    let mut rng = Rng::new(seed ^ 0x5a5a_0001);
    let mut out = Vec::new();
    for (side, spin_iters, pingpong_iters, remote_iters) in [
        (16, 1 << 15, 1 << 12, 1 << 9),
        (32, 1 << 13, 1 << 10, 1 << 7),
    ] {
        // These programs touch a handful of words; a prototype-sized 64K-word
        // memory per tile would make allocating 1024 of them the whole op.
        let config = MachineConfig {
            mem_words: 1 << 10,
            ..MachineConfig::grid(side, side)
        };
        out.push(spin(&config, spin_iters, rng.gen_range(1..1 << 20)));
        out.push(pingpong(&config, pingpong_iters, rng.gen_range(0..1 << 20)));
        out.push(remote(
            &config,
            remote_iters,
            rng.gen_range(1..1 << 10) as u32,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_assembled_programs_meet_their_checks() {
        let config = MachineConfig::grid(4, 4);
        for input in [
            spin(&config, 64, 1234),
            pingpong(&config, 16, 1000),
            remote(&config, 8, 21),
        ] {
            let out = run_asm(&input, &mut Tracer::off()).unwrap();
            assert!(out.ok, "{}", input.label);
            assert!(out.run.cycles > 0);
            assert_eq!(out.n_tiles, 16);
            assert!(
                out.code_words >= 32,
                "every tile carries at least a halt pair"
            );
        }
    }

    #[test]
    fn a_wrong_result_is_reported_not_hidden() {
        let config = MachineConfig::grid(2, 2);
        let mut input = spin(&config, 8, 5);
        input.check.2 = 6;
        assert!(!run_asm(&input, &mut Tracer::off()).unwrap().ok);
    }

    #[test]
    fn traced_and_untraced_pipeline_agree() {
        let input = &crate::inputs::service_programs(1)[5];
        let (_, refr) = reference(input, true, &mut Tracer::off()).unwrap();
        assert!(refr.base_cycles > 0 && refr.interp_insts > 0);
        let plain = run_pipe(input, &refr, &mut Tracer::off()).unwrap();
        let mut t = Tracer::recording(std::time::Instant::now());
        let traced = run_pipe(input, &refr, &mut t).unwrap();
        assert!(plain.ok && traced.ok);
        assert_eq!(plain.run.cycles, traced.run.cycles);
        assert_eq!(plain.code_words, traced.code_words);
        let names: Vec<&str> = t.finish().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "lang.parse.ms",
                "lang.unroll.ms",
                "lang.lower.ms",
                "core.compile.ms",
                "machine.load.ms",
                "machine.run.ms",
                "machine.readback.ms"
            ]
        );
    }
}
