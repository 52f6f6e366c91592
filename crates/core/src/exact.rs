//! Exact place+schedule solver: branch-and-bound over the joint space of
//! node→tile assignments, evaluated under the production event scheduler
//! (ROADMAP item 3; cf. "Optimal Scheduling for Exposed Datapath
//! Architectures by ASP", arXiv 1804.10998).
//!
//! # The model being optimized
//!
//! The search minimizes the block makespan over **every** node→tile
//! assignment (pins respected, faulty tiles excluded), where the makespan of
//! an assignment is what [`schedule::schedule`] — the same greedy list
//! scheduler every heuristic lane uses — produces for it. The cycle
//! dimension of the joint space is thus resolved by the scheduler's
//! deterministic policy rather than enumerated: "optimal" means *optimal
//! within the compiler's scheduling model*, which is exactly the property
//! the optimality oracle needs. Both heuristics emit node→tile assignments
//! evaluated by the same scheduler, so a certified exact result is a true
//! lower bound on anything they can produce, and a heuristic beating it is a
//! cost-model bug by definition (`tests/optimality.rs` asserts this).
//!
//! # Lower bounds and pruning
//!
//! A partial assignment (nodes are assigned in topological index order, so
//! every predecessor of the next node is already placed) is pruned when a
//! lower bound reaches the incumbent:
//!
//! * **critical path**: `est_finish[i]`, a per-node completion bound folding
//!   in the route-aware communication cost `hops + 3` for every cross-tile
//!   data edge between placed nodes, extended by the node's best-case
//!   downstream chain `tail[i]`;
//! * **per-tile load**: a tile running a set of computations needs one issue
//!   slot per instruction plus its `extra_slots`, so the busiest placed tile
//!   bounds the makespan from below, as does total work over live tiles.
//!
//! The incumbent is **seeded with the heuristic result**, so the solver is
//! structurally never worse than the lane that seeded it, even when its
//! budget runs out before the space is exhausted.
//!
//! # Determinism
//!
//! The search has no clocks and no randomness: nodes are assigned in index
//! order, candidate tiles in a fixed order (seed's tile first, then live
//! tiles ascending), and the budget is counted in **node expansions**, not
//! wall-clock. Two runs on the same inputs — any machine, any thread count —
//! visit the same tree and return bit-identical results. Certification
//! (`outcome == Certified`) means the search ran dry within budget; a budget
//! exhaustion returns the best incumbent uncertified.

use crate::options::CompilerOptions;
use crate::partition::{self, Partition};
use crate::schedule::{self, BlockSchedule};
use crate::taskgraph::{EdgeKind, TaskGraph};
use raw_machine::{MachineConfig, TileId};

/// Largest task graph the solver attempts; bigger blocks fall back to the
/// heuristics immediately ([`ExactOutcome::TooLarge`]).
pub const MAX_EXACT_NODES: usize = 30;

/// Default node-expansion budget (one unit per candidate tile tried at any
/// search depth). Deterministic by construction — the same block always burns
/// the same budget — and sized from the benchmark suite: every tiny-suite
/// block that certifies at a 1M budget on 4 tiles certifies within 12 296
/// expansions (a 24-node `life`/`jacobi` block), so 20k keeps the
/// pathological blocks cheap without giving up certificates (raise
/// per-compile via [`crate::options::CompilerOptions::exact_budget`]).
pub const DEFAULT_BUDGET: u64 = 20_000;

/// Which lane shipped a block's schedule under
/// [`crate::options::Strategy::Exact`]: the heuristic seed, or a solver
/// improvement on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// The heuristic pipeline.
    Greedy,
    /// Never produced: kept for the benchmark harness under `perf/`, which
    /// still names it, and for its code in the codec tables.
    Annealing,
    /// This solver.
    Exact,
}

/// How the exact search ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactOutcome {
    /// The search space was exhausted: the reported makespan is optimal
    /// within the scheduling model.
    Certified,
    /// The expansion budget ran out first: the result is the best incumbent,
    /// not a certificate.
    Budget,
    /// The block exceeds [`MAX_EXACT_NODES`]; the heuristic seed was returned
    /// untouched without any search.
    TooLarge,
}

impl ExactOutcome {
    /// Short display name (stats lines, reports).
    pub fn name(self) -> &'static str {
        match self {
            ExactOutcome::Certified => "certified",
            ExactOutcome::Budget => "budget",
            ExactOutcome::TooLarge => "too-large",
        }
    }
}

/// The exact lane's search summary, recorded per block in
/// [`BlockReport`](crate::driver::BlockReport) when the strategy runs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactReport {
    /// How the search ended.
    pub outcome: ExactOutcome,
    /// Best makespan found (the optimum when [`ExactOutcome::Certified`]).
    pub makespan: u64,
    /// Proven lower bound on any schedule in the model: equals
    /// [`makespan`](Self::makespan) when certified, otherwise the static
    /// (assignment-independent) bound.
    pub lower_bound: u64,
    /// Branch-and-bound expansions spent.
    pub expanded: u64,
}

/// Everything the driver needs from one solver run.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// Winning partition (the seed's if the search never beat it).
    pub partition: Partition,
    /// Winning schedule, from the same scheduler the heuristics use.
    pub schedule: BlockSchedule,
    /// Search summary.
    pub report: ExactReport,
    /// Whether the search strictly improved on the seeded incumbent.
    pub improved: bool,
}

/// Assignment-independent lower bound on the makespan of `graph` on `config`:
/// the communication-free critical path combined with total work spread over
/// the live tiles. Every schedule the compiler can emit — any strategy, any
/// placement — satisfies it, which makes it a free sanity oracle even for
/// blocks too large to solve exactly.
pub fn static_lower_bound(graph: &TaskGraph, config: &MachineConfig) -> u64 {
    if graph.is_empty() {
        return 0;
    }
    let (cp, _, total) = static_bounds(graph);
    let n_live = config.n_live().max(1) as u64;
    cp.max(total.div_ceil(n_live))
}

/// `(critical path, per-node downstream tails, total issue slots)`.
///
/// `weight[n] = extra_slots + cost`: a node occupies `extra + 1` issue slots
/// and its result is ready `extra + cost` cycles after its first slot.
/// `tail[n]` chains best-case completions down **data** successors only
/// (order edges give weaker terms and are dropped — still a valid bound,
/// since a maximum over fewer constraints can only shrink).
fn static_bounds(graph: &TaskGraph) -> (u64, Vec<u64>, u64) {
    let n = graph.len();
    let weight = |i: usize| graph.extra_slots[i] as u64 + graph.costs[i] as u64;
    let mut finish0 = vec![0u64; n];
    for i in 0..n {
        let mut t0 = 0u64;
        for &(p, kind) in &graph.preds[i] {
            let term = match kind {
                EdgeKind::Data => finish0[p],
                EdgeKind::Order => (finish0[p] - graph.costs[p] as u64) + 1,
            };
            t0 = t0.max(term);
        }
        finish0[i] = t0 + weight(i);
    }
    let mut tail = vec![0u64; n];
    for i in (0..n).rev() {
        for &(s, kind) in &graph.succs[i] {
            if kind == EdgeKind::Data {
                tail[i] = tail[i].max(weight(s) + tail[s]);
            }
        }
    }
    let cp = finish0.iter().copied().max().unwrap_or(0);
    let total = (0..n).map(|i| graph.extra_slots[i] as u64 + 1).sum();
    (cp, tail, total)
}

/// One workload's row in the optimality-gap table (see
/// `raw-bench compile --gap-table` and `tests/optimality.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GapRow {
    /// Workload name.
    pub name: String,
    /// Basic blocks compiled.
    pub blocks: usize,
    /// Blocks within [`MAX_EXACT_NODES`] (the solver attempts these).
    pub eligible: usize,
    /// Blocks the solver certified optimal within budget.
    pub certified: usize,
    /// Heuristic makespan summed over the certified blocks.
    pub heuristic_cycles: u64,
    /// Certified-optimal makespan summed over the same blocks.
    pub exact_cycles: u64,
}

impl GapRow {
    /// Heuristic excess over the certified optimum, in percent.
    pub fn gap_percent(&self) -> f64 {
        if self.exact_cycles == 0 {
            0.0
        } else {
            100.0 * (self.heuristic_cycles as f64 - self.exact_cycles as f64)
                / self.exact_cycles as f64
        }
    }
}

/// Builds one gap row by pairing a heuristic compile with an exact-strategy
/// compile of the same program, enforcing the optimality oracle as it goes.
///
/// # Errors
///
/// Returns a message naming the block if any certified block's heuristic
/// makespan is *below* the certified optimum — impossible unless the solver
/// or the scheduler cost model is wrong, which is exactly what the oracle is
/// for.
pub fn gap_row(
    name: &str,
    heuristic: &crate::driver::CompileReport,
    exact_run: &crate::driver::CompileReport,
) -> Result<GapRow, String> {
    if heuristic.blocks.len() != exact_run.blocks.len() {
        return Err(format!(
            "{name}: heuristic and exact compiles disagree on block count \
             ({} vs {})",
            heuristic.blocks.len(),
            exact_run.blocks.len()
        ));
    }
    let mut row = GapRow {
        name: name.to_string(),
        blocks: heuristic.blocks.len(),
        eligible: 0,
        certified: 0,
        heuristic_cycles: 0,
        exact_cycles: 0,
    };
    for (i, (h, e)) in heuristic.blocks.iter().zip(&exact_run.blocks).enumerate() {
        if h.n_nodes <= MAX_EXACT_NODES {
            row.eligible += 1;
        }
        let Some(report) = &e.exact else { continue };
        if report.outcome != ExactOutcome::Certified {
            continue;
        }
        if h.makespan < report.makespan {
            return Err(format!(
                "{name}: block {i}: heuristic makespan {} beats the certified \
                 optimum {} — cost-model bug",
                h.makespan, report.makespan
            ));
        }
        row.certified += 1;
        row.heuristic_cycles += h.makespan;
        row.exact_cycles += report.makespan;
    }
    Ok(row)
}

/// Renders gap rows as the fixed-width table snapshotted in
/// `tests/golden/optimality_gap.txt` and EXPERIMENTS.md. Deterministic: no
/// wall-clock columns, so the table is stable across machines.
pub fn format_gap_table(rows: &[GapRow]) -> String {
    let mut out = String::from(
        "benchmark        blocks  eligible  certified  heur_cycles  exact_cycles   gap%\n",
    );
    let mut tot = GapRow {
        name: "total".into(),
        blocks: 0,
        eligible: 0,
        certified: 0,
        heuristic_cycles: 0,
        exact_cycles: 0,
    };
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>6} {:>9} {:>10} {:>12} {:>13} {:>6.1}\n",
            r.name,
            r.blocks,
            r.eligible,
            r.certified,
            r.heuristic_cycles,
            r.exact_cycles,
            r.gap_percent(),
        ));
        tot.blocks += r.blocks;
        tot.eligible += r.eligible;
        tot.certified += r.certified;
        tot.heuristic_cycles += r.heuristic_cycles;
        tot.exact_cycles += r.exact_cycles;
    }
    out.push_str(&format!(
        "{:<16} {:>6} {:>9} {:>10} {:>12} {:>13} {:>6.1}\n",
        tot.name,
        tot.blocks,
        tot.eligible,
        tot.certified,
        tot.heuristic_cycles,
        tot.exact_cycles,
        tot.gap_percent(),
    ));
    out
}

struct Search<'a> {
    graph: &'a TaskGraph,
    config: &'a MachineConfig,
    options: &'a CompilerOptions,
    /// Candidate tiles per node, in deterministic trial order.
    candidates: Vec<Vec<TileId>>,
    tail: Vec<u64>,
    static_lb: u64,
    budget: u64,
    expanded: u64,
    exhausted: bool,
    /// Partial assignment for the prefix `0..depth`.
    assign: Vec<TileId>,
    /// Route-aware completion lower bound per assigned node.
    est_finish: Vec<u64>,
    /// Issue slots claimed per tile by the assigned prefix.
    load: Vec<u64>,
    best: u64,
    best_found: Option<(Partition, BlockSchedule)>,
}

impl Search<'_> {
    /// Depth-first descent from `depth` with `path_lb` the critical-path
    /// bound of the assigned prefix.
    fn descend(&mut self, depth: usize, path_lb: u64) {
        let n = self.graph.len();
        if depth == n {
            let part = partition::forced(self.graph, self.assign.clone(), self.config);
            let sched = schedule::schedule(self.graph, &part, self.config, self.options);
            if sched.makespan < self.best {
                self.best = sched.makespan;
                self.best_found = Some((part, sched));
            }
            return;
        }
        let weight = self.graph.extra_slots[depth] as u64 + self.graph.costs[depth] as u64;
        for c in 0..self.candidates[depth].len() {
            if self.exhausted {
                return;
            }
            self.expanded += 1;
            if self.expanded > self.budget {
                self.exhausted = true;
                return;
            }
            let tile = self.candidates[depth][c];
            // Route-aware completion bound: every predecessor is already
            // assigned (topological index order), so the communication terms
            // are exact distances, not guesses.
            let mut t0 = 0u64;
            for &(p, kind) in &self.graph.preds[depth] {
                let term = match kind {
                    EdgeKind::Data if self.assign[p] == tile => self.est_finish[p],
                    EdgeKind::Data => {
                        self.est_finish[p] + self.config.hops(self.assign[p], tile) as u64 + 3
                    }
                    EdgeKind::Order => (self.est_finish[p] - self.graph.costs[p] as u64) + 1,
                };
                t0 = t0.max(term);
            }
            let finish = t0 + weight;
            let slots = self.graph.extra_slots[depth] as u64 + 1;
            let new_load = self.load[tile.index()] + slots;
            let lb = self
                .static_lb
                .max(path_lb)
                .max(finish + self.tail[depth])
                .max(new_load);
            if lb >= self.best {
                continue;
            }
            self.assign[depth] = tile;
            self.est_finish[depth] = finish;
            self.load[tile.index()] = new_load;
            self.descend(depth + 1, path_lb.max(finish + self.tail[depth]));
            self.load[tile.index()] -= slots;
        }
    }
}

/// Runs the branch-and-bound search for one block, seeded with a heuristic
/// `(partition, schedule)` incumbent so the result is never worse than the
/// seed. See the module docs for the model, bounds, and determinism contract.
pub fn solve(
    graph: &TaskGraph,
    config: &MachineConfig,
    options: &CompilerOptions,
    seed_partition: Partition,
    seed_schedule: BlockSchedule,
) -> ExactResult {
    let n = graph.len();
    if n == 0 {
        return ExactResult {
            partition: seed_partition,
            schedule: seed_schedule,
            report: ExactReport {
                outcome: ExactOutcome::Certified,
                makespan: 0,
                lower_bound: 0,
                expanded: 0,
            },
            improved: false,
        };
    }
    let static_lb = static_lower_bound(graph, config);
    if n > MAX_EXACT_NODES {
        return ExactResult {
            report: ExactReport {
                outcome: ExactOutcome::TooLarge,
                makespan: seed_schedule.makespan,
                lower_bound: static_lb,
                expanded: 0,
            },
            partition: seed_partition,
            schedule: seed_schedule,
            improved: false,
        };
    }
    let live = config.live_tiles();
    let candidates: Vec<Vec<TileId>> = (0..n)
        .map(|i| match graph.pins[i] {
            Some(pin) => vec![pin],
            None => {
                // Seed's tile first: the first full descent replays the
                // incumbent, so pruning starts from a realized bound.
                let first = seed_partition.assignment[i];
                let mut c = vec![first];
                c.extend(live.iter().copied().filter(|&t| t != first));
                c
            }
        })
        .collect();
    let (_, tail, _) = static_bounds(graph);
    let budget = if options.exact_budget == 0 {
        DEFAULT_BUDGET
    } else {
        options.exact_budget
    };
    let mut search = Search {
        graph,
        config,
        options,
        candidates,
        tail,
        static_lb,
        budget,
        expanded: 0,
        exhausted: false,
        assign: vec![TileId::from_raw(0); n],
        est_finish: vec![0; n],
        load: vec![0; config.n_tiles() as usize],
        best: seed_schedule.makespan,
        best_found: None,
    };
    search.descend(0, 0);
    debug_assert!(
        seed_schedule.makespan >= static_lb,
        "heuristic makespan {} beats the static lower bound {static_lb}: cost-model bug",
        seed_schedule.makespan,
    );
    let improved = search.best_found.is_some();
    let best = search.best;
    let outcome = if search.exhausted {
        ExactOutcome::Budget
    } else {
        ExactOutcome::Certified
    };
    let (partition, sched) = match search.best_found {
        Some(found) => found,
        None => (seed_partition, seed_schedule),
    };
    ExactResult {
        partition,
        schedule: sched,
        report: ExactReport {
            outcome,
            makespan: best,
            lower_bound: if outcome == ExactOutcome::Certified {
                best
            } else {
                static_lb
            },
            expanded: search.expanded,
        },
        improved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;
    use raw_ir::builder::ProgramBuilder;
    use raw_ir::BinOp;

    fn graph_for(
        n_tiles: u32,
        build: impl FnOnce(&mut ProgramBuilder),
    ) -> (TaskGraph, MachineConfig) {
        let mut b = ProgramBuilder::new("t");
        build(&mut b);
        b.halt();
        let p = b.finish().unwrap();
        let config = MachineConfig::square(n_tiles);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        (g, config)
    }

    fn heuristic_seed(
        graph: &TaskGraph,
        config: &MachineConfig,
        options: &CompilerOptions,
    ) -> (Partition, BlockSchedule) {
        let part = partition::partition(graph, config, options);
        let sched = schedule::schedule(graph, &part, config, options);
        (part, sched)
    }

    fn solve_with(
        graph: &TaskGraph,
        config: &MachineConfig,
        options: &CompilerOptions,
    ) -> ExactResult {
        let (part, sched) = heuristic_seed(graph, config, options);
        solve(graph, config, options, part, sched)
    }

    #[test]
    fn serial_chain_certifies_at_critical_path() {
        let (g, config) = graph_for(4, |b| {
            let x = b.var_i32("x", 1);
            let mut v = b.read_var(x);
            for _ in 0..6 {
                v = b.bin(BinOp::Add, v, v);
            }
        });
        let res = solve_with(&g, &config, &CompilerOptions::default());
        assert_eq!(res.report.outcome, ExactOutcome::Certified);
        assert_eq!(res.report.makespan, res.report.lower_bound);
        assert_eq!(res.report.makespan, static_lower_bound(&g, &config));
        schedule::validate(&g, &res.partition, &config, &res.schedule).unwrap();
    }

    #[test]
    fn exact_never_beats_lower_bound_and_never_trails_heuristic() {
        let (g, config) = graph_for(4, |b| {
            let x = b.var_f32("x", 1.5);
            let r = b.read_var(x);
            for k in 0..3 {
                let c = b.const_f32(k as f32);
                let mut v = b.bin(BinOp::MulF, r, c);
                for _ in 1..3 {
                    v = b.bin(BinOp::MulF, v, v);
                }
            }
            let i = b.var_i32("i", 3);
            let x = b.read_var(i);
            let y = b.bin(BinOp::Add, x, x);
            let _ = b.bin(BinOp::Mul, y, x);
        });
        let options = CompilerOptions::default();
        let (part, sched) = heuristic_seed(&g, &config, &options);
        let heuristic = sched.makespan;
        let res = solve(&g, &config, &options, part, sched);
        assert_eq!(res.report.outcome, ExactOutcome::Certified);
        assert!(res.report.makespan <= heuristic);
        assert!(res.report.makespan >= static_lower_bound(&g, &config));
        schedule::validate(&g, &res.partition, &config, &res.schedule).unwrap();
    }

    #[test]
    fn solver_is_deterministic() {
        let (g, config) = graph_for(4, |b| {
            let x = b.var_f32("x", 2.0);
            let r = b.read_var(x);
            for k in 0..4 {
                let c = b.const_f32(k as f32);
                let mut v = b.bin(BinOp::MulF, r, c);
                for _ in 1..4 {
                    v = b.bin(BinOp::MulF, v, v);
                }
            }
        });
        let options = CompilerOptions::default();
        let a = solve_with(&g, &config, &options);
        let b = solve_with(&g, &config, &options);
        assert_eq!(a.report, b.report);
        assert_eq!(a.partition.assignment, b.partition.assignment);
        assert_eq!(a.schedule.makespan, b.schedule.makespan);
    }

    #[test]
    fn tiny_budget_returns_seed_uncertified() {
        let (g, config) = graph_for(4, |b| {
            // Four chains from one read: the seed pays to spread them.
            let x = b.var_f32("x", 2.0);
            let r = b.read_var(x);
            for k in 0..4 {
                let c = b.const_f32(k as f32);
                let mut v = b.bin(BinOp::MulF, r, c);
                for _ in 1..4 {
                    v = b.bin(BinOp::MulF, v, v);
                }
            }
        });
        let options = CompilerOptions {
            exact_budget: 1,
            ..CompilerOptions::default()
        };
        let (part, sched) = heuristic_seed(&g, &config, &options);
        let heuristic = sched.makespan;
        let res = solve(&g, &config, &options, part, sched);
        assert_eq!(res.report.outcome, ExactOutcome::Budget);
        assert_eq!(res.report.makespan, heuristic, "budget run keeps the seed");
        assert!(res.report.lower_bound <= heuristic);
    }

    #[test]
    fn oversized_block_falls_back_without_searching() {
        let (g, config) = graph_for(4, |b| {
            // 40+ nodes: well past MAX_EXACT_NODES.
            for k in 0..40 {
                let x = b.var_i32(format!("x{k}"), 7);
                let v = b.read_var(x);
                let _ = b.bin(BinOp::Add, v, v);
            }
        });
        assert!(g.len() > MAX_EXACT_NODES);
        let options = CompilerOptions::default();
        let (part, sched) = heuristic_seed(&g, &config, &options);
        let want = part.assignment.clone();
        let res = solve(&g, &config, &options, part, sched);
        assert_eq!(res.report.outcome, ExactOutcome::TooLarge);
        assert_eq!(res.report.expanded, 0, "no search at all");
        assert_eq!(res.partition.assignment, want);
        assert!(!res.improved);
    }

    #[test]
    fn pins_are_respected() {
        use raw_ir::{MemHome, Ty};
        let (g, config) = graph_for(4, |b| {
            let a = b.array("A", Ty::I32, &[8]);
            for r in 0..4u32 {
                let i = b.const_i32(r as i32);
                let v = b.load(a, i, 0, MemHome::Static(r));
                let w = b.bin(BinOp::Add, v, v);
                b.store(a, i, 0, w, MemHome::Static(r));
            }
        });
        let res = solve_with(&g, &config, &CompilerOptions::default());
        for n in 0..g.len() {
            if let Some(pin) = g.pins[n] {
                assert_eq!(res.partition.assignment[n], pin, "node {n}");
            }
        }
        schedule::validate(&g, &res.partition, &config, &res.schedule).unwrap();
    }
}
