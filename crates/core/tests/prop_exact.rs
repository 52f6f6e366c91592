//! Property tests for the exact place+schedule solver: on random small task
//! graphs, the solver's winning schedule must satisfy every structural
//! constraint the machine imposes — dependences, route occupancy, single
//! issue per tile — as checked by the independent [`rawcc::schedule::validate`]
//! auditor, and its certified makespans must be sandwiched between the static
//! lower bound and the heuristic seed. Failures shrink to a minimal op list.

use raw_ir::builder::ProgramBuilder;
use raw_ir::BinOp;
use raw_machine::MachineConfig;
use raw_testkit::prelude::*;
use rawcc::layout::DataLayout;
use rawcc::options::Strategy;
use rawcc::taskgraph::TaskGraph;
use rawcc::{exact, partition, schedule, CompilerOptions};

/// Lowers a random straight-line op list into a single-block program: each
/// `(op, a, b)` picks a binary operator and two earlier values (indices taken
/// modulo the values available so far, seeded with two variable reads: the
/// builder folds an operator over constants into no node at all).
fn build_graph(ops: &[(usize, u16, u16)], config: &MachineConfig) -> TaskGraph {
    const OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor, BinOp::Slt];
    let mut b = ProgramBuilder::new("prop-exact");
    let out = b.var_i32("out", 0);
    let x = b.var_i32("x", 3);
    let y = b.var_i32("y", -7);
    let mut values = vec![b.read_var(x), b.read_var(y)];
    for &(op, a_raw, b_raw) in ops {
        let a = values[a_raw as usize % values.len()];
        let bb = values[b_raw as usize % values.len()];
        values.push(b.bin(OPS[op % OPS.len()], a, bb));
    }
    let last = *values.last().unwrap();
    b.write_var(out, last);
    b.halt();
    let program = b.finish().expect("random straight-line program verifies");
    let layout = DataLayout::build(&program, config);
    TaskGraph::build(program.block(program.entry), &layout, config)
}

raw_testkit::proptest! {
    #![cases(48)]
    /// The solver's schedule passes the full structural audit, never trails
    /// the heuristic seed, and never undercuts the static lower bound.
    #[test]
    fn exact_schedules_respect_all_machine_constraints(
        ops in vec((0usize..5, any::<u16>(), any::<u16>()), 1..14),
        tiles_idx in 0usize..2,
    ) {
        let config = MachineConfig::square([2u32, 4][tiles_idx]);
        let options = CompilerOptions::default();
        let graph = build_graph(&ops, &config);

        let seed_part = partition::partition(&graph, &config, &options);
        let seed_sched = schedule::schedule(&graph, &seed_part, &config, &options);
        let seed_makespan = seed_sched.makespan;
        let res = exact::solve(&graph, &config, &options, seed_part, seed_sched);

        // Structural audit: dependences, single-issue, route occupancy,
        // switch-op accounting, exact makespan.
        if let Err(e) = schedule::validate(&graph, &res.partition, &config, &res.schedule) {
            prop_assert!(false, "invalid exact schedule: {e}");
        }
        prop_assert!(
            res.schedule.makespan <= seed_makespan,
            "exact {} trails its own seed {seed_makespan}",
            res.schedule.makespan
        );
        let lb = exact::static_lower_bound(&graph, &config);
        prop_assert!(
            res.schedule.makespan >= lb,
            "exact {} undercuts the static bound {lb}",
            res.schedule.makespan
        );
        prop_assert_eq!(res.report.makespan, res.schedule.makespan);
    }

    /// Solving twice is bit-identical (the determinism contract, under
    /// random graphs rather than the benchmark suite).
    #[test]
    fn exact_solver_is_deterministic_on_random_graphs(
        ops in vec((0usize..5, any::<u16>(), any::<u16>()), 1..10),
    ) {
        let config = MachineConfig::square(4);
        let options = CompilerOptions {
            strategy: Strategy::Exact,
            ..CompilerOptions::default()
        };
        let graph = build_graph(&ops, &config);
        let run = || {
            let part = partition::partition(&graph, &config, &options);
            let sched = schedule::schedule(&graph, &part, &config, &options);
            exact::solve(&graph, &config, &options, part, sched)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(
            a.partition.assignment.clone(),
            b.partition.assignment.clone()
        );
        prop_assert_eq!(a.schedule.makespan, b.schedule.makespan);
    }
}
