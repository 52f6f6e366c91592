//! Scaling micro-benchmark for the simulator: the sparse workload suite
//! (`raw_bench::sim`) across mesh sizes from 4x4 to 32x32, one label per
//! workload and size. The per-target medians in `BENCH_sim_scale.json` make
//! the production stepper's cost-follows-activity claim a recorded regression
//! quantity: a workload's stepping cost should read as a flat row across the
//! four sizes. Each iteration also builds its machine, which is O(tiles);
//! `raw-bench sim` times `run()` alone (EXPERIMENTS.md, "Large-mesh scaling").

use raw_bench::sim::sparse_suite;
use raw_machine::{Machine, MachineConfig};
use raw_testkit::bench::Harness;

fn main() {
    let mut h = Harness::new("sim_scale");
    for &tiles in &[16u32, 64, 256, 1024] {
        let mut config = MachineConfig::square(tiles);
        // The sparse workloads touch only the first few words of each tile
        // memory. The default 64K words/tile would make each iteration memset
        // 256 MB of tile memory at 1024 tiles, drowning the stepping cost
        // this benchmark exists to measure.
        config.mem_words = 1 << 10;
        for w in sparse_suite(&config, true) {
            let name = format!("sim_scale/{}/{}t", w.name, tiles);
            h.bench(&name, || {
                let mut m = Machine::new(config.clone(), &w.program);
                for &(tile, addr, value) in &w.init {
                    m.set_mem_word(tile, addr, value);
                }
                let report = m.run().unwrap();
                let (tile, addr, expected) = w.check;
                assert_eq!(m.mem_word(tile, addr), expected, "{name}");
                report.cycles
            });
        }
    }
    h.finish();
}
