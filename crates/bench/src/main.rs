//! `raw-bench` — regenerate the paper's tables and figures.
//!
//! ```text
//! raw-bench --all                # every experiment at paper sizes
//! raw-bench --table2 --table3    # selected experiments
//! raw-bench --table3 --sizes 1,2,4,8
//! raw-bench --quick              # tiny suite (CI-friendly)
//! raw-bench --bench mxm --table3 # restrict to one benchmark
//! raw-bench trace --bench mxm --tiles 16 --chrome out.json
//! raw-bench annotate --bench mxm --tiles 16
//! raw-bench compile --tiles 16 --threads 8 --cache-dir /tmp/rbc
//! raw-bench compile --tiles 16 --table
//! raw-bench scenario --quick
//! raw-bench sim --tiles 1024 --bench spin
//! raw-bench sim --tiles 64 --selfcheck --quick
//! raw-bench serve --addr 127.0.0.1:0 --cache-dir /tmp/rbc
//! raw-bench compile --tiles 4 --quick --remote 127.0.0.1:7100
//! raw-bench replay --clients 8 --requests 500 --quick --check
//! ```

use raw_bench::compiletime::{compile_command, CompileArgs};
use raw_bench::observe::{annotate_command, trace_command, AnnotateArgs, TraceArgs};
use raw_bench::scenario::{scenario_command, ScenarioArgs};
use raw_bench::serve::{replay_command, serve_command, ReplayArgs, ServeArgs};
use raw_bench::sim::{sim_command, SimArgs};
use raw_bench::top::{top_command, TopArgs};
use raw_bench::{
    ablation_text, figure4_text, figure8_text, fpppp_scale_text, table1_text, table2_text,
    table3_text,
};
use std::process::ExitCode;

const USAGE: &str = "\
raw-bench — regenerate the tables and figures of
'Space-Time Scheduling of Instruction-Level Parallelism on a Raw Machine'

USAGE:
    raw-bench [FLAGS]
    raw-bench trace [--bench NAME] [--tiles N] [--chrome PATH] [--selfcheck] [--quick]
    raw-bench annotate [--bench NAME] [--tiles N] [--top K] [--chrome PATH] [--quick]
    raw-bench compile [--tiles N] [--threads T] [--bench NAME] [--anneal SEED]
                      [--strategy NAME] [--cache-dir PATH] [--quick] [--table]
                      [--gap-table] [--selfcheck] [--remote ADDR] [--dump-asm MAX]
    raw-bench scenario [--bench NAME] [--quick]
    raw-bench sim [--tiles N] [--bench NAME] [--selfcheck] [--quick]
    raw-bench serve [--addr A] [--shards N] [--budget-mb M] [--cache-dir PATH]
                    [--verify] [--no-telemetry] [--stop] [--stats]
                    [--metrics-dump] [--metrics-json]
    raw-bench replay [--addr A] [--clients K] [--requests N] [--tiles T]
                     [--seed S] [--cache-dir PATH] [--quick] [--check]
                     [--min-speedup X]
    raw-bench top --addr A [--interval-ms MS] [--frames N] [--no-clear]

SUBCOMMANDS:
    trace           run one benchmark with cycle-accurate tracing and print the
                    occupancy/stall table (its 'all' row is the run's stall
                    totals), static-network word count, largest compiled
                    blocks, link heatmap, critical-path walk,
                    and predicted-vs-observed diff; --chrome exports
                    Chrome-trace JSON (with source-provenance args),
                    --selfcheck re-runs untraced and verifies bit-identical
                    cycle counts
    annotate        run one benchmark traced and print the per-source-line
                    hotspot listing (cycles, stall taxonomy, tile spread) and
                    the placement audit log joining runtime stalls with the
                    placer's accepted moves; fails if attribution does not
                    conserve the active-window cycle accounting
    compile         compile the suite without running it, printing one
                    greppable stats line per workload (wall time, worker
                    threads, block-cache hits/misses, asm hash); --cache-dir
                    persists the content-addressed block cache across runs,
                    --table prints the threads x cache-temperature sweep
                    recorded in EXPERIMENTS.md, --selfcheck recompiles
                    single-threaded on a cold cache and fails on any asm drift,
                    --strategy picks the block-mapping engine (greedy,
                    annealing, exact, or the deterministic three-lane
                    portfolio), --gap-table compiles each workload with the
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
                    running daemon to shut down, --stats prints its hit/miss/
                    latency-percentile counters as an aligned per-client
                    table, --metrics-dump/--metrics-json scrape the telemetry
                    registry (Prometheus text / JSON), --no-telemetry runs
                    the daemon without the registry and span ring
    replay          stress the daemon with a deterministic request mix from K
                    client threads, cold then warm, checking every response
                    byte-identical against an in-process compile; --check
                    enforces zero mismatches, a 100%-hit warm phase, and a 5x
                    warm speedup
    top             live dashboard over a running daemon: polls the metrics
                    endpoint every --interval-ms and redraws request rates,
                    memo/cache effectiveness, wall and per-phase latency
                    percentiles, and connection/span occupancy; --frames N
                    exits after N polls, --no-clear appends frames instead
                    of clearing the terminal
    scenario        run the adversarial mesh scenario suite: dynamic-network
                    kernels compiled around a faulty-tile map, differentially
                    validated (production vs reference stepper, traced vs
                    untraced, chaos sweep) plus a co-residency isolation
                    check; prints per-scenario stats lines, occupancy tables,
                    and the EXPERIMENTS.md summary table
    sim             exercise the simulator on big meshes (default 8x8, up to
                    32x32+) over sparse hand-written workloads; prints one
                    wall-clock line (ms, ns_per_cycle) per workload, or with
                    --selfcheck differentially validates the production
                    stepper against the reference oracle clean and under a
                    chaos sweep, including a compiled jacobi at sizes <= 64
                    tiles

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
    --help          this text
";

/// Runs one subcommand: parse its flags, run it, print its text. Errors from
/// either step go to stderr as `raw-bench <name>: <error>` with exit code 1.
fn run<A>(
    name: &str,
    args: &[String],
    parse: fn(&[String]) -> Result<A, String>,
    command: fn(&A) -> Result<String, String>,
) -> ExitCode {
    match parse(args).and_then(|parsed| command(&parsed)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("raw-bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    match name {
        "trace" => run(name, rest, TraceArgs::parse, trace_command),
        "annotate" => run(name, rest, AnnotateArgs::parse, annotate_command),
        "compile" => run(name, rest, CompileArgs::parse, compile_command),
        "scenario" => run(name, rest, ScenarioArgs::parse, scenario_command),
        "sim" => run(name, rest, SimArgs::parse, sim_command),
        "serve" => run(name, rest, ServeArgs::parse, serve_command),
        "replay" => run(name, rest, ReplayArgs::parse, replay_command),
        // `top` prints each frame as it polls; nothing is left to print.
        "top" => run(name, rest, TopArgs::parse, |a| {
            top_command(a).map(|_| String::new())
        }),
        _ => tables(&args),
    }
}

/// The flag-driven paper tables and figures (no subcommand word).
fn tables(args: &[String]) -> ExitCode {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let has = |f: &str| args.iter().any(|a| a == f);
    let all = has("--all");
    let quick = has("--quick");

    let mut sizes: Vec<u32> = vec![1, 2, 4, 8, 16, 32];
    if let Some(pos) = args.iter().position(|a| a == "--sizes") {
        match args.get(pos + 1) {
            Some(list) => {
                sizes = list
                    .split(',')
                    .map(|t| t.trim().parse::<u32>().expect("size must be an integer"))
                    .collect();
            }
            None => {
                eprintln!("--sizes requires an argument, e.g. --sizes 1,2,4");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(&bad) = sizes.iter().find(|n| !n.is_power_of_two()) {
        eprintln!(
            "machine size {bad} is not a power of two (low-order interleaving \
             requires 2^k tiles); valid sizes: 1,2,4,8,16,32,…"
        );
        return ExitCode::FAILURE;
    }
    if quick {
        sizes.retain(|&n| n <= 4);
        if sizes.is_empty() {
            sizes = vec![1, 2, 4];
        }
    }

    let mut suite = if quick {
        raw_benchmarks::tiny_suite()
    } else {
        raw_benchmarks::suite()
    };
    if let Some(pos) = args.iter().position(|a| a == "--bench") {
        let name = args.get(pos + 1).cloned().unwrap_or_default();
        suite.retain(|b| b.name == name);
        if suite.is_empty() {
            eprintln!("unknown benchmark '{name}'");
            return ExitCode::FAILURE;
        }
    }

    if all || has("--table1") {
        println!("{}", table1_text());
    }
    if all || has("--fig4") {
        println!("{}", figure4_text());
    }
    if all || has("--table2") {
        println!("{}", table2_text(&suite));
    }
    if all || has("--table3") {
        println!("{}", table3_text(&suite, &sizes));
    }
    if all || has("--fig8") {
        let fpppp = suite
            .iter()
            .find(|b| b.name == "fpppp-kernel")
            .cloned()
            .unwrap_or_else(|| raw_benchmarks::fpppp_kernel(Default::default()));
        println!("{}", figure8_text(&fpppp, &sizes));
    }
    if has("--fpppp-scale") {
        println!("{}", fpppp_scale_text(&sizes));
    }
    if all || has("--ablations") {
        println!("{}", ablation_text(&suite, &sizes));
    }
    ExitCode::SUCCESS
}
