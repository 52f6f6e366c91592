//! End-to-end correctness: every benchmark kernel, compiled at several machine
//! sizes and simulated cycle-accurately, must reproduce the reference
//! interpreter's variables and arrays bit-exactly.

use raw_repro::cc::schedule::{self, TileOp};
use raw_repro::cc::taskgraph::TaskGraph;
use raw_repro::cc::{
    compile, compile_baseline, partition, CompilerOptions, DataLayout, PlacementAlgorithm, NO_PROV,
};
use raw_repro::ir::interp::Interpreter;
use raw_repro::ir::{InstKind, Terminator, ValueId};
use raw_repro::machine::chaos::ChaosConfig;
use raw_repro::machine::isa::{PInst, SDst, SInst, Src, TileId};
use raw_repro::machine::MachineConfig;
use raw_testkit::Rng;
use std::collections::HashSet;

fn check(bench: &raw_repro::benchmarks::Benchmark, n: u32) {
    let program = bench.program(n).expect(bench.name);
    let config = MachineConfig::square(n);
    let compiled = compile(&program, &config, &CompilerOptions::default())
        .unwrap_or_else(|e| panic!("{} @{n}: compile: {e}", bench.name));
    let (result, report) = compiled
        .run(&program)
        .unwrap_or_else(|e| panic!("{} @{n}: simulate: {e}", bench.name));
    let golden = Interpreter::new(&program).run().unwrap();
    assert!(
        result.state_eq(&golden),
        "{} @{n}: simulated state diverges from interpreter",
        bench.name
    );
    assert!(report.cycles > 0);
}

#[test]
fn tiny_suite_all_sizes() {
    for bench in raw_repro::benchmarks::tiny_suite() {
        for n in [1u32, 2, 4, 8] {
            check(&bench, n);
        }
    }
}

/// A constant is an immediate operand at every use: no comm path, send or
/// receive moves a constant-defined value, and no emitted processor or switch
/// instruction implements a constant. Every tiny-suite kernel at 2, 4, 16 and
/// 32 tiles, plus the 2x4 mesh with tile 3 masked, each through the oracle.
#[test]
fn constants_never_cross_the_network() {
    let base = MachineConfig::grid(2, 4);
    let mask = base.mask_to_pow2(&[TileId::from_raw(3)]);
    let masked = base.with_faulty(mask);
    let configs = [2u32, 4, 16, 32].map(MachineConfig::square);
    let options = CompilerOptions::default();
    for config in configs.iter().chain([&masked]) {
        for bench in raw_repro::benchmarks::tiny_suite() {
            let program = bench.program(config.n_live()).expect(bench.name);
            let label = format!("{} {}x{}", bench.name, config.rows, config.cols);
            let consts: Vec<HashSet<ValueId>> = program
                .blocks
                .iter()
                .map(|b| {
                    b.insts
                        .iter()
                        .filter(|i| matches!(i.kind, InstKind::Const(_)))
                        .filter_map(|i| i.dst)
                        .collect()
                })
                .collect();

            let layout = DataLayout::build(&program, config);
            for (b, block) in program.blocks.iter().enumerate() {
                let graph = TaskGraph::build(block, &layout, config);
                let part = partition::partition(&graph, config, &options);
                let sched = schedule::schedule(&graph, &part, config, &options);
                let ports = sched
                    .proc_ops
                    .iter()
                    .flatten()
                    .filter_map(|(_, op)| match op {
                        TileOp::Send(v) | TileOp::Recv(v) => Some(*v),
                        TileOp::Comp(_) => None,
                    });
                let routes = sched.switch_ops.iter().flatten().map(|(_, v, _)| *v);
                for v in ports.chain(routes) {
                    assert!(
                        !consts[b].contains(&v),
                        "{label}: block {b} moves constant {v}"
                    );
                }
            }

            let compiled = compile(&program, config, &options).expect(bench.name);
            let prov = &compiled.provenance;
            for &id in prov.proc_pc.iter().chain(&prov.switch_pc).flatten() {
                if id == NO_PROV {
                    continue;
                }
                let rec = &prov.records[id as usize];
                let constant = rec.kind == "const"
                    || rec
                        .value
                        .is_some_and(|v| consts[rec.block as usize].contains(&v));
                assert!(!constant, "{label}: an instruction implements {rec:?}");
            }
            raw_repro::trace::oracle::check(&compiled, &program, &[])
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// Jump threading leaves no jump the stream does not need: no `j` to its own
/// pc + 1 and no jump or branch onto a pc holding a `j`, on any processor or
/// switch. The tiny suite at 1, 2, 4, 16 and 32 tiles and the 2x4 mesh with
/// tile 3 masked, each through the oracle with a chaos sweep.
#[test]
fn linked_streams_have_no_redundant_jumps() {
    let base = MachineConfig::grid(2, 4);
    let mask = base.mask_to_pow2(&[TileId::from_raw(3)]);
    let masked = base.with_faulty(mask);
    let configs = [1u32, 2, 4, 16, 32].map(MachineConfig::square);
    let points = ChaosConfig::sweep(Rng::new(0x000A_110C_8A05).take(3), &[5, 20, 50]);
    for config in configs.iter().chain([&masked]) {
        for bench in raw_repro::benchmarks::tiny_suite() {
            let program = bench.program(config.n_live()).expect(bench.name);
            let label = format!("{} {}x{}", bench.name, config.rows, config.cols);
            let compiled = compile(&program, config, &CompilerOptions::default()).expect(&label);
            for (t, tile) in compiled.machine_program.tiles.iter().enumerate() {
                let proc = tile.proc.iter().enumerate().filter_map(|(pc, i)| match i {
                    PInst::Jump(x) => Some((pc, *x, true)),
                    PInst::Bnez { target, .. } | PInst::Beqz { target, .. } => {
                        Some((pc, *target, false))
                    }
                    _ => None,
                });
                let switch = tile
                    .switch
                    .iter()
                    .enumerate()
                    .filter_map(|(pc, i)| match i {
                        SInst::Jump(x) => Some((pc, *x, true)),
                        SInst::Bnez { target, .. } | SInst::Beqz { target, .. } => {
                            Some((pc, *target, false))
                        }
                        _ => None,
                    });
                let streams: [(&str, Vec<_>); 2] =
                    [("proc", proc.collect()), ("switch", switch.collect())];
                for (stream, transfers) in streams {
                    let jumps: HashSet<usize> = transfers
                        .iter()
                        .filter(|&&(_, _, j)| j)
                        .map(|&(pc, ..)| pc)
                        .collect();
                    for (pc, target, jump) in transfers {
                        let at = format!("{label}: tile {t} {stream} {pc}");
                        assert!(!jump || target != pc + 1, "{at}: j to pc + 1");
                        assert!(!jumps.contains(&target), "{at}: jump onto a j at {target}");
                    }
                }
            }
            raw_repro::trace::oracle::check(&compiled, &program, &points)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// An `if` whose arms store one element, at 16 tiles: a processor with no
/// code in the arms jumps straight to the join. It holds no `bnez`/`beqz` on
/// the port and no switch route hands it the branch word, while every switch
/// still latches it. The condition's producer and the storing tile branch.
#[test]
fn idle_tiles_skip_branch_regions() {
    let src = "
        int A[16]; int x = 5;
        if (x < 7) { A[3] = 1; } else { A[3] = 2; }
    ";
    let config = MachineConfig::square(16);
    let program = raw_repro::lang::compile_source("arms", src, 16).unwrap();
    let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
    raw_repro::trace::oracle::check(&compiled, &program, &[]).unwrap();

    let (b, cond) = program
        .blocks
        .iter()
        .enumerate()
        .find_map(|(b, block)| match block.term {
            Terminator::Branch { cond, .. } => Some((b, cond)),
            _ => None,
        })
        .expect("the if branches");
    let prov = &compiled.provenance;
    let cond_id = prov
        .records
        .iter()
        .position(|r| r.block == b as u32 && r.value == Some(cond))
        .expect("the condition has a record") as u32;
    let producer = prov.records[cond_id as usize].tile as usize;
    let store = compiled.layout.element_home(3).index();
    assert_ne!(
        producer, store,
        "the test wants two distinct branching tiles"
    );

    for (t, tile) in compiled.machine_program.tiles.iter().enumerate() {
        let port_branches = tile
            .proc
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    PInst::Bnez {
                        cond: Src::PortIn,
                        ..
                    } | PInst::Beqz {
                        cond: Src::PortIn,
                        ..
                    }
                )
            })
            .count();
        let reg_branches = tile
            .proc
            .iter()
            .filter(|i| matches!(i, PInst::Bnez { .. } | PInst::Beqz { .. }))
            .count()
            - port_branches;
        let word_routes: Vec<_> = tile
            .switch
            .iter()
            .enumerate()
            .filter(|&(pc, _)| prov.switch_id(t, pc) == cond_id)
            .filter_map(|(_, i)| match i {
                SInst::Route(pairs) => Some(pairs),
                _ => None,
            })
            .collect();
        assert_eq!(
            word_routes.len(),
            1,
            "tile {t}: every switch latches the word"
        );
        assert!(word_routes[0].iter().any(|&(_, d)| d == SDst::Reg(0)));
        let delivers = word_routes[0].iter().any(|&(_, d)| d == SDst::Proc);
        if t == producer {
            assert_eq!(
                (reg_branches, port_branches),
                (1, 0),
                "producer {t} branches"
            );
        } else if t == store {
            assert_eq!(port_branches, 1, "storing tile {t} branches");
            assert!(delivers, "storing tile {t} reads the word");
        } else {
            assert_eq!(port_branches, 0, "idle tile {t} holds a branch on the port");
            assert!(
                !delivers,
                "tile {t}: the word is delivered to an idle processor"
            );
        }
    }
}

#[test]
fn baselines_match_interpreter() {
    for bench in raw_repro::benchmarks::tiny_suite() {
        let program = bench.baseline_program().expect(bench.name);
        let compiled = compile_baseline(&program, &MachineConfig::square(1)).unwrap();
        let (result, _) = compiled.run(&program).unwrap();
        let golden = Interpreter::new(&program).run().unwrap();
        assert!(result.state_eq(&golden), "{} baseline diverges", bench.name);
    }
}

#[test]
fn rectangular_meshes_work_too() {
    // Non-square power-of-two meshes (1×2, 2×1, 1×4, 4×2).
    let bench = raw_repro::benchmarks::jacobi(8, 1);
    for (rows, cols) in [(1u32, 2u32), (2, 1), (1, 4), (4, 2)] {
        let n = rows * cols;
        let program = bench.program(n).unwrap();
        let config = MachineConfig::grid(rows, cols);
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let (result, _) = compiled
            .run(&program)
            .unwrap_or_else(|e| panic!("{rows}x{cols}: {e}"));
        let golden = Interpreter::new(&program).run().unwrap();
        assert!(result.state_eq(&golden), "{rows}x{cols} diverges");
    }
}

#[test]
fn ablation_configurations_stay_correct() {
    use raw_repro::cc::PriorityScheme;
    let bench = raw_repro::benchmarks::mxm(4, 8, 2);
    let program = bench.program(4).unwrap();
    let config = MachineConfig::square(4);
    let golden = Interpreter::new(&program).run().unwrap();
    let variants = [
        CompilerOptions {
            clustering: false,
            ..Default::default()
        },
        CompilerOptions {
            placement: PlacementAlgorithm::None,
            ..Default::default()
        },
        CompilerOptions {
            priority: PriorityScheme::LevelOnly,
            ..Default::default()
        },
        CompilerOptions {
            priority: PriorityScheme::SourceOrder,
            ..Default::default()
        },
        CompilerOptions {
            fold_communication: false,
            ..Default::default()
        },
    ];
    for (i, options) in variants.iter().enumerate() {
        let compiled = compile(&program, &config, options).unwrap();
        let (result, _) = compiled.run(&program).unwrap();
        assert!(result.state_eq(&golden), "ablation variant {i} diverges");
    }
}

#[test]
fn machine_variants_stay_correct() {
    // inf-reg and 1-cycle machines (Figure 8 configurations) must compute the
    // same results, just in different cycle counts.
    let bench = raw_repro::benchmarks::fpppp_kernel(raw_repro::benchmarks::FppppShape {
        inputs: 8,
        intermediates: 16,
        outputs: 4,
        seed: 11,
    });
    let program = bench.program(4).unwrap();
    let golden = Interpreter::new(&program).run().unwrap();
    for config in [
        MachineConfig::square(4),
        MachineConfig::square(4).with_infinite_registers(),
        MachineConfig::square(4).with_unit_latency(),
    ] {
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let (result, _) = compiled.run(&program).unwrap();
        assert!(result.state_eq(&golden));
    }
}
