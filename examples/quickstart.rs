//! Quickstart: walk the paper's Figure-6 example program through every pass of
//! the basic block orchestrater, printing each intermediate result, then
//! simulate the compiled code on a 2×2 Raw machine and check it against the
//! reference interpreter.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use raw_ir::builder::ProgramBuilder;
use raw_ir::interp::Interpreter;
use raw_machine::MachineConfig;
use rawcc::layout::DataLayout;
use rawcc::schedule::TileOp;
use rawcc::taskgraph::{EdgeKind, TaskGraph};
use rawcc::{compile, CompilerOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The program of paper Figure 6:
    //   y = a + b;  z = a * a;  x = y * a * 5;  y = y * b * 6;
    let mut b = ProgramBuilder::new("figure6");
    let a = b.var_i32("a", 3);
    let bv = b.var_i32("b", 4);
    let x = b.var_i32("x", 0);
    let y = b.var_i32("y", 0);
    let z = b.var_i32("z", 0);

    let va = b.read_var(a);
    b.name_value(va, "a");
    let vb = b.read_var(bv);
    b.name_value(vb, "b");
    let y1 = b.add(va, vb);
    b.name_value(y1, "y_1");
    let z1 = b.mul(va, va);
    b.name_value(z1, "z_1");
    let t1 = b.mul(y1, va);
    b.name_value(t1, "tmp_1");
    let five = b.const_i32(5);
    let x1 = b.mul(t1, five);
    b.name_value(x1, "x_1");
    let t2 = b.mul(y1, vb);
    b.name_value(t2, "tmp_2");
    let six = b.const_i32(6);
    let y2 = b.mul(t2, six);
    b.name_value(y2, "y_2");
    b.write_var(z, z1);
    b.write_var(x, x1);
    b.write_var(y, y2);
    b.halt();
    let program = b.finish()?;

    println!("== (a) initial code transformation: renamed three-operand form ==");
    println!("{program}\n");

    let config = MachineConfig::grid(2, 2);
    let options = CompilerOptions::default();
    let layout = DataLayout::build(&program, &config);

    println!("== (d) data partitioner: home tiles (round-robin) ==");
    for (i, var) in program.vars.iter().enumerate() {
        let id = raw_ir::VarId::from_raw(i as u32);
        println!("  {} -> {}", var.name, layout.var_home(id));
    }
    println!();

    println!("== (b) task graph builder ==");
    let graph = TaskGraph::build(program.block(program.entry), &layout, &config);
    for n in 0..graph.len() {
        let succs: Vec<String> = graph.succs[n]
            .iter()
            .map(|&(s, k)| {
                format!(
                    "{}{}",
                    s,
                    if k == EdgeKind::Order { " (order)" } else { "" }
                )
            })
            .collect();
        println!(
            "  node {n:2} [cost {}] {:30} -> {}",
            graph.costs[n],
            program.fmt_inst(&graph.insts[n]),
            succs.join(", ")
        );
    }
    println!();

    println!("== (c) instruction partitioner: clustering / merging / placement ==");
    let partition = rawcc::partition::partition(&graph, &config, &options);
    println!("  {} clusters", partition.n_clusters);
    for (n, tile) in partition.assignment.iter().enumerate() {
        println!(
            "  node {n:2} {:30} -> {tile}",
            program.fmt_inst(&graph.insts[n])
        );
    }
    println!();

    println!("== (e/f/g) event scheduler: space-time schedule with communication ==");
    let sched = rawcc::schedule::schedule(&graph, &partition, &config, &options);
    let value_name = |n: usize| program.value_name(graph.insts[n].dst.expect("a sent value"));
    for tile in 0..config.n_tiles() as usize {
        println!("  tile{tile} processor:");
        for (t, op) in &sched.proc_ops[tile] {
            let desc = match op {
                TileOp::Comp(n) => program.fmt_inst(&graph.insts[*n]),
                TileOp::Send(n) => format!("send({})", value_name(*n)),
                TileOp::Recv(n) => format!("{} = recv()", value_name(*n)),
            };
            println!("    cycle {t:3}: {desc}");
        }
        if !sched.switch_ops[tile].is_empty() {
            println!("  tile{tile} switch:");
            for (t, _, pairs) in &sched.switch_ops[tile] {
                println!("    cycle {t:3}: route {pairs:?}");
            }
        }
    }
    println!("  estimated makespan: {} cycles\n", sched.makespan);

    println!("== compile + simulate on the 2x2 machine ==");
    let compiled = compile(&program, &config, &options)?;
    let (result, report) = compiled.run(&program)?;
    let golden = Interpreter::new(&program).run()?;
    assert!(
        result.state_eq(&golden),
        "simulation must match interpreter"
    );
    println!(
        "  simulated {} cycles; results match the interpreter:",
        report.cycles
    );
    for (i, decl) in program.vars.iter().enumerate() {
        println!("    {} = {}", decl.name, result.vars[i]);
    }
    Ok(())
}
