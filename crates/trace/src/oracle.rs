//! The one checked lane for a compiled program.
//!
//! [`check`] runs every oracle the workspace has over one compiled program,
//! clean and at each chaos point:
//!
//! 1. every masked (faulty) tile carries no processor or switch code;
//! 2. the clean production run's final state equals the IR interpreter's;
//! 3. the production stepper agrees with the reference stepper
//!    ([`raw_machine::oracle::steppers_agree`]) — outcome, statistics and
//!    memory — clean and at every chaos point;
//! 4. a traced run equals the untraced one (same snapshot, a non-empty event
//!    list), clean and at every chaos point;
//! 5. every chaos point's final state equals the clean run's: the static
//!    ordering property of the paper's Appendix A.
//!
//! A differential test or a `raw-bench` self-check is a workload list plus
//! one call; a new workload joins every oracle by being added to such a list.

use crate::{RecordingSink, Trace, TraceRun};
use raw_ir::interp::{ExecResult, Interpreter};
use raw_ir::Program;
use raw_machine::chaos::ChaosConfig;
use raw_machine::oracle::{steppers_agree, Snapshot};
use raw_machine::{EventSink, Machine, RunReport, TileId};
use rawcc::CompiledProgram;

/// Checks properties 1–5 (see the module docs) for `compiled`, built from
/// `program`, clean and at every point of `chaos_points`. Returns the clean
/// traced run; its `report.cycles` is the clean cycle count.
///
/// # Errors
///
/// The first property that fails, naming the program, the mesh shape and the
/// chaos point. A run that deadlocks or exceeds its step limit fails too.
pub fn check(
    compiled: &CompiledProgram,
    program: &Program,
    chaos_points: &[ChaosConfig],
) -> Result<TraceRun, String> {
    let config = &compiled.config;
    let name = format!("{} {}x{}", program.name, config.rows, config.cols);
    for (t, code) in compiled.machine_program.tiles.iter().enumerate() {
        let faulty = config.is_faulty(TileId::from_raw(t as u32));
        if faulty && (!code.proc.is_empty() || !code.switch.is_empty()) {
            return Err(format!(
                "{name}: faulty tile {t} carries {} proc / {} switch instructions",
                code.proc.len(),
                code.switch.len()
            ));
        }
    }
    let golden = Interpreter::new(program)
        .run()
        .map_err(|e| format!("{name}: interpreter failed: {e}"))?;
    let (clean, clean_state) =
        agreed_traced_run(compiled, program, None, &format!("{name} clean"))?;
    if !clean_state.state_eq(&golden) {
        return Err(format!(
            "{name} clean: simulated result diverges from the interpreter"
        ));
    }
    for &chaos in chaos_points {
        let label = format!(
            "{name} chaos seed={:#x} stall={}%",
            chaos.seed, chaos.stall_percent
        );
        let (_, state) = agreed_traced_run(compiled, program, Some(chaos), &label)?;
        if !state.state_eq(&clean_state) {
            return Err(format!(
                "{label}: timing perturbation changed the final state"
            ));
        }
    }
    Ok(clean)
}

/// Properties 3 and 4 at one point: returns the traced run and the final
/// state the production steppers agreed on.
fn agreed_traced_run(
    compiled: &CompiledProgram,
    program: &Program,
    chaos: Option<ChaosConfig>,
    label: &str,
) -> Result<(TraceRun, ExecResult), String> {
    let untraced = steppers_agree(label, || perturb(compiled.instantiate(program), chaos))?;
    let cycles = untraced
        .outcome
        .clone()
        .map_err(|e| format!("{label}: {e}"))?;
    let mut machine = perturb(
        compiled.instantiate_with_sink(program, RecordingSink::new()),
        chaos,
    );
    let traced = Snapshot::run(&mut machine);
    if let Some(field) = traced.first_difference(&untraced) {
        return Err(format!(
            "{label}: tracing changed the {field} (traced vs untraced)"
        ));
    }
    let state = compiled.extract_result(program, &machine);
    let trace = Trace::capture(machine, cycles);
    if trace.events.is_empty() {
        return Err(format!("{label}: traced run recorded no events"));
    }
    let report = RunReport {
        cycles,
        stats: traced.stats,
    };
    Ok((TraceRun { trace, report }, state))
}

fn perturb<S: EventSink>(machine: Machine<S>, chaos: Option<ChaosConfig>) -> Machine<S> {
    match chaos {
        Some(c) => machine.with_chaos(c),
        None => machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_machine::isa::PInst;
    use raw_machine::MachineConfig;
    use rawcc::{compile, CompilerOptions};

    #[test]
    fn a_masked_tile_with_code_is_named() {
        let base = MachineConfig::grid(2, 4);
        let mask = base
            .mask_to_pow2(&[TileId::from_raw(3)])
            .expect("the mesh fits the mask");
        let config = base.with_faulty(mask);
        let program = crate::tests::demo_program();
        let mut compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let points = ChaosConfig::sweep([1], &[20]);
        let run = check(&compiled, &program, &points).unwrap();
        assert_eq!(run.report.cycles, compiled.run(&program).unwrap().1.cycles);

        compiled.machine_program.tiles[3].proc.push(PInst::Halt);
        let err = check(&compiled, &program, &points).unwrap_err();
        assert!(err.contains("faulty tile 3 carries 1 proc"), "{err}");
    }

    #[test]
    fn an_interpreter_mismatch_is_named() {
        // The code computes 6 * 7; the program handed to the interpreter
        // computes 6 * 8 into the same variable.
        let compiled = compile(
            &crate::tests::demo_program(),
            &MachineConfig::square(4),
            &CompilerOptions::default(),
        )
        .unwrap();
        let mut b = raw_ir::builder::ProgramBuilder::new("demo");
        let out = b.var_i32("out", 0);
        let xv = b.var_i32("x", 6);
        let x = b.read_var(xv);
        let y = b.const_i32(8);
        let p = b.mul(x, y);
        b.write_var(out, p);
        b.halt();
        let other = b.finish().unwrap();
        let err = check(&compiled, &other, &[]).unwrap_err();
        assert!(err.contains("diverges from the interpreter"), "{err}");
    }
}
