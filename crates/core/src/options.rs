//! Compiler options, including the ablation switches benchmarked in
//! `EXPERIMENTS.md`.

/// Priority scheme used by the event scheduler (paper §4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PriorityScheme {
    /// Weighted sum of *level* (longest distance to an exit node) and
    /// *fertility* (number of descendant tasks) — the paper's scheme.
    #[default]
    LevelFertility,
    /// Level only (ablation).
    LevelOnly,
    /// Source order: among ready tasks, the earliest program-order instruction
    /// issues first. Overlaps latencies while keeping live ranges close to the
    /// source program's — the behaviour of a conventional sequential compiler,
    /// used by the baseline.
    SourceOrder,
}

/// How the placement phase maps partitions onto physical tiles (paper §4.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementAlgorithm {
    /// Greedy improving swaps (the paper's implemented algorithm).
    #[default]
    GreedySwap,
    /// Simulated annealing over swaps (the paper's suggested replacement:
    /// "this greedy algorithm can be replaced by one with simulated annealing
    /// for better performance").
    Annealing {
        /// Deterministic seed for the annealing schedule.
        seed: u64,
    },
    /// Identity placement (ablation: no optimization at all).
    None,
}

/// Which engine maps a block onto the mesh (ROADMAP item 3: the
/// placement/scheduling portfolio with an exact-solver yardstick).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's heuristic pipeline: clustering → merging → placement
    /// (per [`CompilerOptions::placement`]) → list scheduling.
    #[default]
    Heuristic,
    /// Branch-and-bound over every node→tile assignment (see
    /// [`crate::exact`]), seeded with the heuristic result so it is never
    /// worse; blocks over [`crate::exact::MAX_EXACT_NODES`] nodes fall back
    /// to the heuristic.
    Exact,
    /// Race the greedy, annealing, and exact lanes on every block and keep
    /// the best schedule. The winner is picked by `(makespan, seeded rank)`,
    /// a pure function of the block content and `seed` — never of timing —
    /// so portfolio output is byte-identical at any thread count.
    Portfolio {
        /// Seed for the annealing lane and the rank tie-break.
        seed: u64,
    },
}

/// Knobs controlling the orchestrater. Defaults match the paper's compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompilerOptions {
    /// Run Dominant-Sequence-style clustering before merging (paper §4.1).
    /// When off, every instruction starts in its own cluster (ablation).
    pub clustering: bool,
    /// Placement algorithm (paper §4.1 "placement").
    pub placement: PlacementAlgorithm,
    /// Event-scheduler priority scheme.
    pub priority: PriorityScheme,
    /// Assumed latency of one cross-tile word transfer during clustering
    /// (the idealized uniform-latency switch of paper §4.1).
    pub cluster_comm_cost: u32,
    /// Fold sends/receives into computation instructions where the tile's
    /// port-event order allows (paper Figure 4: "the effective overhead of the
    /// communication can be as low as two cycles").
    pub fold_communication: bool,
    /// Block-mapping engine: the heuristic pipeline, the exact solver, or the
    /// three-lane portfolio.
    pub strategy: Strategy,
    /// Deterministic node-expansion budget for the exact solver (`0` = the
    /// default, [`crate::exact::DEFAULT_BUDGET`]). Counted in branch-and-bound
    /// expansions, **not** wall-clock, so exhaustion is bit-reproducible.
    pub exact_budget: u64,
    /// Worker threads for per-block compilation: `0` (the default) resolves to
    /// the `RAWCC_THREADS` environment variable, then to
    /// [`std::thread::available_parallelism`]. Thread count never changes the
    /// compiled output — only wall-clock time (see `crate::blockcache`).
    pub threads: usize,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            clustering: true,
            placement: PlacementAlgorithm::default(),
            priority: PriorityScheme::LevelFertility,
            cluster_comm_cost: 4,
            fold_communication: true,
            strategy: Strategy::Heuristic,
            exact_budget: 0,
            threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = CompilerOptions::default();
        assert!(o.clustering);
        assert_eq!(o.placement, PlacementAlgorithm::GreedySwap);
        assert_eq!(o.priority, PriorityScheme::LevelFertility);
        assert_eq!(o.cluster_comm_cost, 4);
        assert!(o.fold_communication);
        assert_eq!(o.strategy, Strategy::Heuristic);
        assert_eq!(o.exact_budget, 0, "0 = the exact solver's default budget");
        assert_eq!(o.threads, 0, "0 = auto-detect worker count");
    }
}
