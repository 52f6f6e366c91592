//! `raw-bench` — regenerate the paper's tables and figures.
//!
//! ```text
//! raw-bench --all                # every experiment at paper sizes
//! raw-bench --table2 --table3    # selected experiments
//! raw-bench --table3 --sizes 1,2,4,8
//! raw-bench --quick              # tiny suite (CI-friendly)
//! raw-bench --bench mxm --table3 # restrict to one benchmark
//! raw-bench trace --bench mxm --tiles 16 --chrome out.json
//! raw-bench compile --tiles 16 --threads 8 --cache-dir /tmp/rbc
//! raw-bench scenario --quick
//! raw-bench sim --tiles 64 --quick
//! raw-bench sim --tiles 1024 --bench spin
//! raw-bench serve --addr 127.0.0.1:0 --cache-dir /tmp/rbc
//! raw-bench compile --tiles 4 --quick --remote 127.0.0.1:7100
//! raw-bench replay --clients 8 --requests 500 --quick --check
//! ```
//!
//! Host time is not measured here: `raw-perf` (`perf/`) is the benchmark.

use raw_bench::{
    ablation_text, figure4_text, figure8_text, fpppp_scale_text, subcommand, table1_text,
    table2_text, table3_text, wants_usage, TablesArgs,
};
use std::process::ExitCode;

const USAGE: &str = "\
raw-bench — regenerate the tables and figures of
'Space-Time Scheduling of Instruction-Level Parallelism on a Raw Machine'

USAGE:
    raw-bench [FLAGS]
    raw-bench trace [--bench NAME] [--tiles N] [--top K] [--chrome PATH]
                    [--selfcheck] [--quick]
    raw-bench compile [--tiles N] [--threads T] [--bench NAME]
                      [--strategy greedy|exact] [--cache-dir PATH] [--quick]
                      [--gap-table] [--selfcheck] [--remote ADDR]
                      [--dump-asm MAX]
    raw-bench scenario [--bench NAME] [--quick]
    raw-bench sim [--tiles N] [--bench NAME] [--quick]
    raw-bench serve [--addr A] [--budget-mb M] [--cache-dir PATH]
                    [--no-telemetry] [--stop] [--stats] [--metrics-dump]
    raw-bench replay [--addr A] [--clients K] [--requests N] [--tiles T]
                     [--seed S] [--cache-dir PATH] [--quick] [--check]
                     [--min-speedup X]
    raw-bench top --addr A [--interval-ms MS] [--frames N] [--no-clear]

SUBCOMMANDS:
    trace           run one benchmark with cycle-accurate tracing and print the
                    occupancy/stall table (its 'all' row is the run's stall
                    totals), static-network word count, largest compiled
                    blocks, link heatmap, critical-path walk,
                    predicted-vs-observed diff, the per-source-line hotspot
                    listing (cycles, stall taxonomy, tile spread) and the
                    placement audit log joining runtime stalls with the
                    placer's accepted swaps (--top K rows per block); fails
                    if attribution does not conserve the active-window cycle
                    accounting; --chrome exports Chrome-trace JSON (with
                    source-provenance args), --selfcheck runs the oracle lane
                    (interpreter, reference stepper, untraced twin) and fails
                    unless all agree
    compile         compile the suite without running it, printing one
                    greppable stats line per workload (wall time, worker
                    threads, block-cache hits/misses, asm hash); --cache-dir
                    persists the content-addressed block cache across runs
                    (deleting entries of another format version first),
                    --selfcheck recompiles
                    single-threaded on a cold cache and fails on any asm drift,
                    --strategy picks the block-mapping engine (greedy, the
                    default heuristics, or exact, the solver seeded with
                    them), --gap-table compiles each workload with the
                    heuristics and the exact solver and prints the measured
                    optimality gap (failing if a heuristic ever beats a
                    certified optimum), --remote sends each compile to a
                    running rawcc-serve daemon instead of compiling in-process,
                    --dump-asm MAX prints the first MAX instructions of every
                    tile's processor and switch stream after each stats line
    serve           run the rawcc compile daemon: a long-lived process serving
                    concurrent compile requests from one sharded block cache
                    (in-flight duplicates single-flighted, byte budget
                    enforced across all clients); prints
                    'rawcc-serve listening on ADDR' once bound; --stop asks a
                    running daemon to shut down, --metrics-dump prints its one
                    read-out, the telemetry registry's Prometheus text,
                    --stats folds that into hit/miss/latency-percentile
                    counters and an aligned per-client table, --no-telemetry
                    hides the read-out; --cache-dir deletes entries of
                    another format version at start-up
    replay          stress the daemon with a deterministic request mix from K
                    client threads, cold then warm, checking every response
                    byte-identical against an in-process compile; --check
                    enforces zero mismatches, a 100%-hit warm phase, and a 5x
                    warm speedup
    top             live dashboard over a running daemon: polls the metrics
                    endpoint every --interval-ms and redraws request rates,
                    memo/cache effectiveness, wall and per-phase latency
                    percentiles, and connection/client-row occupancy; --frames N
                    exits after N polls, --no-clear appends frames instead
                    of clearing the terminal
    scenario        run the adversarial mesh scenario suite: dynamic-network
                    kernels compiled around a faulty-tile map, differentially
                    validated by the oracle lane (interpreter, production vs
                    reference stepper, traced vs untraced, chaos sweep whose
                    final states equal the clean run's) plus a co-residency
                    isolation check; prints per-scenario stats lines, occupancy tables,
                    and the EXPERIMENTS.md summary table
    sim             differentially validate the production stepper against
                    the reference oracle on big meshes (default 8x8, up to
                    32x32+) over sparse hand-written workloads, clean and
                    under a chaos sweep, plus a compiled jacobi at sizes
                    <= 64 tiles; host time is raw-perf's sim_sparse workload

FLAGS:
    --table1        operation latencies (Table 1)
    --fig4          neighbour message latency (Figure 4)
    --table2        benchmark characteristics (Table 2)
    --table3        speedups across machine sizes (Table 3)
    --fig8          fpppp-kernel machine variants (Figure 8)
    --fpppp-scale   fpppp-kernel speedup at three kernel sizes (not in --all)
    --ablations     compiler-feature ablations
    --all           everything above
    --quick         use the scaled-down suite (fast)
    --sizes A,B,..  machine sizes for table3/fig8 (default 1,2,4,8,16,32)
    --bench NAME    restrict table2/table3/ablations to one benchmark
    --help, -h      this text (also after a subcommand word)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if wants_usage(&args) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(command) = subcommand(&args[0]) else {
        return tables(&args);
    };
    match command(&args[1..]) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("raw-bench {}: {e}", args[0]);
            ExitCode::FAILURE
        }
    }
}

/// The flag-driven paper tables and figures (no subcommand word). Each one
/// prints as soon as it is measured.
fn tables(args: &[String]) -> ExitCode {
    let args = match TablesArgs::parse(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("raw-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (suite, sizes) = (&args.suite, &args.sizes);
    if args.table1 {
        println!("{}", table1_text());
    }
    if args.fig4 {
        println!("{}", figure4_text());
    }
    if args.table2 {
        println!("{}", table2_text(suite));
    }
    if args.table3 {
        println!("{}", table3_text(suite, sizes));
    }
    if args.fig8 {
        let fpppp = suite
            .iter()
            .find(|b| b.name == "fpppp-kernel")
            .cloned()
            .unwrap_or_else(|| raw_benchmarks::fpppp_kernel(Default::default()));
        println!("{}", figure8_text(&fpppp, sizes));
    }
    if args.fpppp_scale {
        println!("{}", fpppp_scale_text(sizes));
    }
    if args.ablations {
        println!("{}", ablation_text(suite, sizes));
    }
    ExitCode::SUCCESS
}
