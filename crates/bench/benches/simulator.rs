//! Microbenchmarks of the machine substrate itself: static-network message
//! cost (Figure 4's event), dynamic-network round trips, and raw simulation
//! throughput — regression tracking for the simulator. Runs on the
//! raw-testkit bench harness and writes `BENCH_simulator.json`.

use raw_ir::{BinOp, Imm};
use raw_machine::asm::{ProcAsm, SwitchAsm};
use raw_machine::isa::{Dir, Dst, MachineProgram, SDst, SSrc, Src, TileCode};
use raw_machine::{Machine, MachineConfig, TileId};
use raw_testkit::bench::Harness;

/// Figure 4's scenario: one word between neighbouring tiles.
fn neighbor_message() -> (MachineConfig, MachineProgram) {
    let mut p0 = ProcAsm::new();
    p0.bin(
        BinOp::Add,
        Dst::PortOut,
        Src::Imm(Imm::I(30)),
        Src::Imm(Imm::I(12)),
    );
    p0.halt();
    let mut s0 = SwitchAsm::new();
    s0.route(&[(SSrc::Proc, SDst::Dir(Dir::East))]);
    s0.halt();
    let mut s1 = SwitchAsm::new();
    s1.route(&[(SSrc::Dir(Dir::West), SDst::Proc)]);
    s1.halt();
    let mut p1 = ProcAsm::new();
    p1.bin(BinOp::Add, Dst::Reg(1), Src::Imm(Imm::I(100)), Src::PortIn);
    p1.store_imm_addr(Src::Reg(1), 0);
    p1.halt();
    (
        MachineConfig::grid(1, 2),
        MachineProgram {
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
        },
    )
}

fn fig4_message(h: &mut Harness) {
    let (config, program) = neighbor_message();
    h.bench("simulator/fig4_neighbor_message", || {
        let mut m = Machine::new(config.clone(), &program);
        let report = m.run().unwrap();
        assert_eq!(m.mem_word(TileId::from_raw(1), 0), 142);
        report.cycles
    });
}

fn dynamic_round_trip(h: &mut Harness) {
    // Remote load across a 4x4 mesh corner to corner.
    let config = MachineConfig::grid(4, 4);
    let gaddr = config.make_gaddr(TileId::from_raw(15), 7);
    let mut p0 = ProcAsm::new();
    p0.dload(Dst::Reg(1), Src::Imm(Imm::I(gaddr as i32)));
    p0.store_imm_addr(Src::Reg(1), 0);
    p0.halt();
    let mut tiles = vec![TileCode {
        proc: p0.finish(),
        switch: vec![raw_machine::isa::SInst::Halt],
    }];
    for _ in 1..16 {
        tiles.push(TileCode {
            proc: vec![raw_machine::isa::PInst::Halt],
            switch: vec![raw_machine::isa::SInst::Halt],
        });
    }
    let program = MachineProgram { tiles };
    h.bench("simulator/dynamic_remote_load_4x4", || {
        let mut m = Machine::new(config.clone(), &program);
        m.set_mem_word(TileId::from_raw(15), 7, 4242);
        m.run().unwrap();
        assert_eq!(m.mem_word(TileId::from_raw(0), 0), 4242);
    });
}

fn stepping_throughput(h: &mut Harness) {
    // Cycles/second the simulator sustains on a busy 16-tile machine: every
    // processor spins through an arithmetic loop.
    let config = MachineConfig::grid(4, 4);
    let mut tiles = Vec::new();
    for _ in 0..16 {
        let mut p = ProcAsm::new();
        p.li(Dst::Reg(1), Imm::I(0));
        let top = p.new_label();
        p.bind(top);
        p.addi(Dst::Reg(1), Src::Reg(1), 1);
        p.bin(BinOp::Slt, Dst::Reg(2), Src::Reg(1), Src::Imm(Imm::I(2000)));
        p.bnez(Src::Reg(2), top);
        p.halt();
        tiles.push(TileCode {
            proc: p.finish(),
            switch: vec![raw_machine::isa::SInst::Halt],
        });
    }
    let program = MachineProgram { tiles };
    h.bench("simulator/16_tiles_2k_iterations", || {
        let mut m = Machine::new(config.clone(), &program);
        m.run().unwrap().cycles
    });
    // Same workload through the step-everything reference path: the ratio to
    // the target above is the production stepper's speedup, kept per snapshot.
    h.bench("simulator/16_tiles_2k_iterations/reference", || {
        let mut m = Machine::new(config.clone(), &program).with_reference_stepper();
        m.run().unwrap().cycles
    });
}

fn main() {
    let mut h = Harness::new("simulator");
    fig4_message(&mut h);
    dynamic_round_trip(&mut h);
    stepping_throughput(&mut h);
    h.finish();
}
