//! The instruction partitioner (paper §4.1): clustering → merging → placement.
//!
//! * **Clustering** groups instructions whose parallelism is too fine to pay
//!   for communication, using a greedy Dominant-Sequence-style pass over the
//!   task graph in topological order with an idealized uniform communication
//!   cost (paper: Yang & Gerasoulis DSC).
//! * **Merging** reduces the cluster count to the number of tiles using the
//!   paper's load-balance heuristic: clusters are visited in decreasing size
//!   and merged into the least-loaded partition.
//! * **Placement** maps partitions onto physical tiles and runs a greedy
//!   swap pass minimising total communication hops on the real mesh.
//!
//! Nodes pinned by the data partitioner (memory and variable accesses) carry
//! their tile through all three phases; a partition containing a pin is locked
//! to that tile during placement.

use crate::options::CompilerOptions;
use crate::taskgraph::{EdgeKind, TaskGraph};
use raw_machine::{MachineConfig, TileId};

/// Result of partitioning one block's task graph.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Executing tile per node.
    pub assignment: Vec<TileId>,
    /// Number of clusters produced by the clustering phase (reporting).
    pub n_clusters: usize,
    /// Placement bin per node (bin index = tile index before the placement
    /// phase permuted bins onto physical tiles). Lets the audit report tie a
    /// node's final tile back to the swap that put it there.
    pub bin_of_node: Vec<usize>,
    /// Audit log of the placement phase.
    pub placement: PlacementLog,
}

/// One accepted swap in the placement optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementStep {
    /// Move index within the optimization run at which the swap was accepted.
    pub step: usize,
    /// The two swapped bins (bin index = tile index before optimization).
    pub bins: (usize, usize),
    /// Exact communication-cost delta of the swap (negative = improvement).
    pub delta: i64,
}

/// Audit log of the placement phase: which algorithm ran, the communication
/// cost (total data-edge hops) before and after, and every accepted swap that
/// made it into the final assignment, in application order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementLog {
    /// `"identity"`, `"greedy-swap"`, `"annealing"`, or `"exact"`.
    pub algorithm: &'static str,
    /// Total hop cost of the identity assignment.
    pub initial_cost: i64,
    /// Total hop cost of the final assignment.
    pub final_cost: i64,
    /// Accepted swaps present in the final assignment (for annealing, the
    /// best-prefix replay; worsening moves later abandoned are not listed).
    pub steps: Vec<PlacementStep>,
}

impl Default for PlacementLog {
    fn default() -> Self {
        PlacementLog {
            algorithm: "identity",
            initial_cost: 0,
            final_cost: 0,
            steps: Vec::new(),
        }
    }
}

impl PlacementLog {
    /// The last accepted swap that touched `bin`, if any — "this bin landed on
    /// its tile at step N".
    pub fn last_move_of_bin(&self, bin: usize) -> Option<&PlacementStep> {
        self.steps
            .iter()
            .rev()
            .find(|s| s.bins.0 == bin || s.bins.1 == bin)
    }
}

/// Runs the full partitioning pipeline.
///
/// # Panics
///
/// Panics if two mutually pinned nodes are forced into conflicting tiles
/// (cannot happen for graphs built by [`TaskGraph::build`]).
pub fn partition(
    graph: &TaskGraph,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> Partition {
    partition_timed(graph, config, options).0
}

/// Like [`partition`], but also reports how long the placement phase took
/// (clustering + merging dominate the rest; placement is the phase the
/// compile-timing report wants isolated because its cost is tunable via
/// [`CompilerOptions::placement`]).
pub fn partition_timed(
    graph: &TaskGraph,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> (Partition, std::time::Duration) {
    let n_tiles = config.n_tiles() as usize;
    if graph.is_empty() {
        return (
            Partition {
                assignment: Vec::new(),
                n_clusters: 0,
                bin_of_node: Vec::new(),
                placement: PlacementLog::default(),
            },
            std::time::Duration::ZERO,
        );
    }
    let clusters = if options.clustering {
        cluster(graph, options.cluster_comm_cost)
    } else {
        // Ablation: every node is its own cluster.
        Clustering {
            of_node: (0..graph.len()).collect(),
            pins: graph.pins.clone(),
            sizes: graph.costs.iter().map(|&c| c as u64).collect(),
            count: graph.len(),
        }
    };
    let n_clusters = clusters.count;
    let bins = merge(graph, &clusters, n_tiles, config);
    let place_start = std::time::Instant::now();
    let (tile_of_bin, placement) = place(graph, &clusters, &bins, config, options);
    let place_time = place_start.elapsed();
    let bin_of_node: Vec<usize> = (0..graph.len())
        .map(|n| bins.of_cluster[clusters.of_node[n]])
        .collect();
    let assignment = bin_of_node.iter().map(|&b| tile_of_bin[b]).collect();
    (
        Partition {
            assignment,
            n_clusters,
            bin_of_node,
            placement,
        },
        place_time,
    )
}

/// Builds a [`Partition`] from an explicit node→tile `assignment`, bypassing
/// the heuristic clustering/merging/placement phases. Used by the exact
/// solver ([`crate::exact`]) to feed a branch-and-bound assignment into the
/// downstream scheduler/codegen pipeline, and by tests that force placements.
///
/// Bins are the identity permutation (bin index = tile index), matching the
/// pre-placement convention of [`Partition::bin_of_node`]; the placement log
/// records the assignment's exact data-edge hop cost under the `"exact"`
/// algorithm tag with no swap steps (there was no swap search to audit).
pub fn forced(graph: &TaskGraph, assignment: Vec<TileId>, config: &MachineConfig) -> Partition {
    debug_assert_eq!(assignment.len(), graph.len());
    let mut cost = 0i64;
    for (from, succs) in graph.succs.iter().enumerate() {
        for &(to, kind) in succs {
            if kind == EdgeKind::Data {
                cost += config.hops(assignment[from], assignment[to]) as i64;
            }
        }
    }
    let mut used: Vec<TileId> = assignment.clone();
    used.sort();
    used.dedup();
    Partition {
        bin_of_node: assignment.iter().map(|t| t.index()).collect(),
        n_clusters: used.len(),
        assignment,
        placement: PlacementLog {
            algorithm: "exact",
            initial_cost: cost,
            final_cost: cost,
            steps: Vec::new(),
        },
    }
}

/// Clustering phase output.
#[derive(Debug)]
struct Clustering {
    /// Cluster id per node (dense, 0-based after compaction).
    of_node: Vec<usize>,
    /// Pin per cluster.
    pins: Vec<Option<TileId>>,
    /// Total cost per cluster.
    sizes: Vec<u64>,
    /// Number of clusters.
    count: usize,
}

/// Greedy DSC-style clustering with an idealized fully connected switch of
/// uniform latency `comm_cost` (paper §4.1).
fn cluster(graph: &TaskGraph, comm_cost: u32) -> Clustering {
    let n = graph.len();
    let comm = comm_cost as u64;
    // Cluster state: nodes start as singletons created lazily.
    let mut cluster_of: Vec<Option<usize>> = vec![None; n];
    let mut cluster_pin: Vec<Option<TileId>> = Vec::new();
    let mut cluster_avail: Vec<u64> = Vec::new(); // sequential availability
    let mut finish: Vec<u64> = vec![0; n];

    for node in graph.topo_order() {
        let pin = graph.pins[node];
        // Start time if assigned to cluster `c` (None = fresh singleton).
        let start_in =
            |c: Option<usize>, cluster_of: &Vec<Option<usize>>, cluster_avail: &Vec<u64>| -> u64 {
                let mut t = match c {
                    Some(c) => cluster_avail[c],
                    None => 0,
                };
                for &(p, kind) in &graph.preds[node] {
                    let pc = cluster_of[p].expect("topological order");
                    let extra = match kind {
                        EdgeKind::Data if Some(pc) != c => comm,
                        _ => 0,
                    };
                    t = t.max(finish[p] + extra);
                }
                t
            };

        // Candidates: fresh singleton, or any data-predecessor's cluster whose
        // pin is compatible. Order edges force the predecessor's cluster only
        // through pins (both endpoints share the same pin), so they need no
        // special casing here.
        let mut best: (Option<usize>, u64) = (None, start_in(None, &cluster_of, &cluster_avail));
        for &(p, kind) in &graph.preds[node] {
            if kind != EdgeKind::Data {
                continue;
            }
            let pc = cluster_of[p].unwrap();
            let compatible = match (pin, cluster_pin[pc]) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            };
            if !compatible {
                continue;
            }
            let t = start_in(Some(pc), &cluster_of, &cluster_avail);
            if t < best.1 {
                best = (Some(pc), t);
            }
        }
        let (chosen, start) = best;
        let c = match chosen {
            Some(c) => c,
            None => {
                cluster_pin.push(None);
                cluster_avail.push(0);
                cluster_pin.len() - 1
            }
        };
        cluster_of[node] = Some(c);
        if cluster_pin[c].is_none() {
            cluster_pin[c] = pin;
        }
        finish[node] = start + graph.costs[node] as u64;
        cluster_avail[c] = finish[node];
    }

    // Merge clusters that share a pin: all nodes pinned to tile T must end up
    // together anyway, and unifying them here keeps merging simple.
    let mut canonical: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut remap: Vec<usize> = (0..cluster_pin.len()).collect();
    for (c, pin) in cluster_pin.iter().enumerate() {
        if let Some(t) = pin {
            let entry = canonical.entry(t.index() as u32).or_insert(c);
            remap[c] = *entry;
        }
    }
    // Compact ids.
    let mut dense: Vec<Option<usize>> = vec![None; cluster_pin.len()];
    let mut pins = Vec::new();
    let mut sizes = Vec::new();
    let mut of_node = vec![0usize; n];
    for node in 0..n {
        let raw = remap[cluster_of[node].unwrap()];
        let id = *dense[raw].get_or_insert_with(|| {
            pins.push(cluster_pin[raw]);
            sizes.push(0);
            pins.len() - 1
        });
        of_node[node] = id;
        sizes[id] += graph.costs[node] as u64;
        if pins[id].is_none() {
            pins[id] = graph.pins[node];
        }
    }
    let count = pins.len();
    Clustering {
        of_node,
        pins,
        sizes,
        count,
    }
}

/// Merging phase output: bin (partition) per cluster, with per-bin lock.
#[derive(Debug)]
struct Bins {
    of_cluster: Vec<usize>,
    /// `locked[b] = Some(t)`: bin `b` must be placed on tile `t`.
    locked: Vec<Option<TileId>>,
}

/// Load-balance merging into `n_tiles` partitions (paper §4.1 "merging").
///
/// Bins on faulty tiles accept no clusters: pins never name a faulty tile
/// (the data layout interleaves over live tiles only), and unpinned clusters
/// choose the least-loaded *live* bin, so masked bins stay empty end to end.
fn merge(graph: &TaskGraph, clusters: &Clustering, n_tiles: usize, config: &MachineConfig) -> Bins {
    let _ = graph;
    let mut of_cluster = vec![usize::MAX; clusters.count];
    let mut load = vec![0u64; n_tiles];
    let mut locked: Vec<Option<TileId>> = vec![None; n_tiles];
    let live_bins: Vec<usize> = (0..n_tiles)
        .filter(|&b| !config.is_faulty(TileId::from_raw(b as u32)))
        .collect();

    // Pinned clusters claim their tile's bin (bin index = tile index).
    for ((slot, &pin), &size) in of_cluster
        .iter_mut()
        .zip(&clusters.pins)
        .zip(&clusters.sizes)
    {
        if let Some(t) = pin {
            debug_assert!(!config.is_faulty(t), "pin on faulty tile {t:?}");
            *slot = t.index();
            load[t.index()] += size;
            locked[t.index()] = Some(t);
        }
    }
    // Unpinned clusters: decreasing size into the least-loaded live bin.
    let mut order: Vec<usize> = (0..clusters.count)
        .filter(|&c| clusters.pins[c].is_none())
        .collect();
    order.sort_by_key(|&c| std::cmp::Reverse(clusters.sizes[c]));
    for c in order {
        let bin = live_bins
            .iter()
            .copied()
            .min_by_key(|&b| load[b])
            .expect("at least one live tile");
        of_cluster[c] = bin;
        load[bin] += clusters.sizes[c];
    }
    Bins { of_cluster, locked }
}

/// Placement phase: bins → tiles, minimising total communication hops
/// (paper §4.1 "placement") — greedy improving swaps by default, simulated
/// annealing on request.
fn place(
    graph: &TaskGraph,
    clusters: &Clustering,
    bins: &Bins,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> (Vec<TileId>, PlacementLog) {
    use crate::options::PlacementAlgorithm;
    let n_tiles = config.n_tiles() as usize;
    if options.placement == PlacementAlgorithm::None || n_tiles == 1 {
        // Identity assignment (locked bins are already at their tile).
        return (
            (0..n_tiles as u32).map(TileId::from_raw).collect(),
            PlacementLog::default(),
        );
    }

    // Data-edge multiset between bins.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (from, succs) in graph.succs.iter().enumerate() {
        for &(to, kind) in succs {
            if kind != EdgeKind::Data {
                continue;
            }
            let bf = bins.of_cluster[clusters.of_node[from]];
            let bt = bins.of_cluster[clusters.of_node[to]];
            if bf != bt {
                edges.push((bf, bt));
            }
        }
    }
    // Faulty bins are empty but must also stay *out* of the swap set: a
    // zero-delta annealing move could otherwise rotate live code onto a dead
    // tile.
    let swappable: Vec<usize> = (0..n_tiles)
        .filter(|&b| bins.locked[b].is_none() && !config.is_faulty(TileId::from_raw(b as u32)))
        .collect();
    optimize_placement(&edges, &swappable, n_tiles, config, options.placement)
}

/// Aggregated incident-edge adjacency: `adj[b]` lists every bin connected to
/// `b` by at least one data edge (either direction) with the total edge count.
/// Built once per placement; lets a candidate swap be evaluated over only the
/// edges touching the two swapped bins instead of the whole edge multiset.
fn build_adjacency(edges: &[(usize, usize)], n_bins: usize) -> Vec<Vec<(usize, u64)>> {
    let mut w = vec![0u64; n_bins * n_bins];
    for &(a, b) in edges {
        w[a * n_bins + b] += 1;
        w[b * n_bins + a] += 1;
    }
    (0..n_bins)
        .map(|a| {
            (0..n_bins)
                .filter(|&b| w[a * n_bins + b] != 0)
                .map(|b| (b, w[a * n_bins + b]))
                .collect()
        })
        .collect()
}

/// Exact cost change of swapping the tiles of bins `a` and `b`, in O(deg).
///
/// Only edges incident to `a` or `b` can change length, and the `(a, b)` edge
/// itself is invariant (hop distance is symmetric), so the delta is a sum over
/// third-party neighbours of the two bins.
fn swap_delta(
    adj: &[Vec<(usize, u64)>],
    tile_of_bin: &[TileId],
    config: &MachineConfig,
    a: usize,
    b: usize,
) -> i64 {
    let (ta, tb) = (tile_of_bin[a], tile_of_bin[b]);
    let mut delta = 0i64;
    for &(c, w) in &adj[a] {
        if c == b {
            continue;
        }
        let tc = tile_of_bin[c];
        delta += w as i64 * (config.hops(tb, tc) as i64 - config.hops(ta, tc) as i64);
    }
    for &(c, w) in &adj[b] {
        if c == a {
            continue;
        }
        let tc = tile_of_bin[c];
        delta += w as i64 * (config.hops(ta, tc) as i64 - config.hops(tb, tc) as i64);
    }
    delta
}

/// Core placement optimizer over an explicit bin-edge multiset.
///
/// Swap candidates are evaluated incrementally via [`swap_delta`]; because the
/// deltas are exact integers, the accept/reject decisions — including the
/// annealing Metropolis draws — are identical to a full cost recompute, so
/// greedy results are bit-for-bit the same as the original O(E)-per-swap
/// implementation (asserted by the differential tests below).
fn optimize_placement(
    edges: &[(usize, usize)],
    swappable: &[usize],
    n_tiles: usize,
    config: &MachineConfig,
    algorithm: crate::options::PlacementAlgorithm,
) -> (Vec<TileId>, PlacementLog) {
    use crate::options::PlacementAlgorithm;
    let mut tile_of_bin: Vec<TileId> = (0..n_tiles as u32).map(TileId::from_raw).collect();
    let initial: i64 = edges
        .iter()
        .map(|&(a, b)| config.hops(tile_of_bin[a], tile_of_bin[b]) as i64)
        .sum();
    let mut log = PlacementLog {
        algorithm: match algorithm {
            PlacementAlgorithm::GreedySwap => "greedy-swap",
            PlacementAlgorithm::Annealing { .. } => "annealing",
            PlacementAlgorithm::None => "identity",
        },
        initial_cost: initial,
        final_cost: initial,
        steps: Vec::new(),
    };
    if swappable.len() < 2 {
        return (tile_of_bin, log);
    }
    let adj = build_adjacency(edges, n_tiles);
    match algorithm {
        PlacementAlgorithm::GreedySwap => {
            let mut step = 0usize;
            for _pass in 0..8 {
                let mut improved = false;
                for i in 0..swappable.len() {
                    for j in i + 1..swappable.len() {
                        let (a, b) = (swappable[i], swappable[j]);
                        let d = swap_delta(&adj, &tile_of_bin, config, a, b);
                        if d < 0 {
                            tile_of_bin.swap(a, b);
                            improved = true;
                            log.steps.push(PlacementStep {
                                step,
                                bins: (a, b),
                                delta: d,
                            });
                            log.final_cost += d;
                        }
                        step += 1;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        PlacementAlgorithm::Annealing { seed } => {
            // Classic swap-move annealing with a geometric cooling schedule.
            // Deterministic (seeded xorshift), so compilation is reproducible.
            // Instead of cloning the assignment at every new best, the accepted
            // swaps are logged and the best-seen prefix replayed at the end.
            let mut rng = seed | 1;
            let mut next = move || {
                rng ^= rng >> 12;
                rng ^= rng << 25;
                rng ^= rng >> 27;
                rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            let mut current = initial;
            let mut best_cost = current;
            let mut accepted: Vec<PlacementStep> = Vec::new();
            let mut best_len = 0usize;
            let mut temperature = (initial as f64 / edges.len().max(1) as f64).max(1.0) * 4.0;
            // O(deg) move evaluation funds a deeper search than the original
            // O(E)-per-step loop (200 × swappable) at lower wall-clock; the
            // first 200 × steps replay the original trajectory exactly, so the
            // final cost can only be ≤ the original.
            let steps = 400 * swappable.len().max(4);
            for step in 0..steps {
                let a = swappable[(next() % swappable.len() as u64) as usize];
                let b = swappable[(next() % swappable.len() as u64) as usize];
                if a == b {
                    continue;
                }
                let d = swap_delta(&adj, &tile_of_bin, config, a, b);
                let delta = d as f64;
                // Accept improving moves always; worsening moves with
                // probability exp(-delta / T).
                let accept = delta <= 0.0 || {
                    let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                    u < (-delta / temperature).exp()
                };
                if accept {
                    tile_of_bin.swap(a, b);
                    current += d;
                    accepted.push(PlacementStep {
                        step,
                        bins: (a, b),
                        delta: d,
                    });
                    if current < best_cost {
                        best_cost = current;
                        best_len = accepted.len();
                    }
                }
                temperature = (temperature * 0.995).max(0.01);
            }
            // Replay the prefix of accepted swaps that reached the best cost
            // onto a fresh identity assignment.
            tile_of_bin = (0..n_tiles as u32).map(TileId::from_raw).collect();
            accepted.truncate(best_len);
            for s in &accepted {
                tile_of_bin.swap(s.bins.0, s.bins.1);
            }
            log.steps = accepted;
            log.final_cost = best_cost;
        }
        PlacementAlgorithm::None => unreachable!("handled above"),
    }
    (tile_of_bin, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;
    use raw_ir::builder::ProgramBuilder;
    use raw_ir::{MemHome, Program, Ty};

    fn setup(
        n_tiles: u32,
        build: impl FnOnce(&mut ProgramBuilder),
    ) -> (Program, MachineConfig, TaskGraph) {
        let mut b = ProgramBuilder::new("t");
        build(&mut b);
        b.halt();
        let p = b.finish().unwrap();
        let config = MachineConfig::square(n_tiles);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        (p, config, g)
    }

    #[test]
    fn serial_chain_stays_on_one_tile() {
        // A pure dependence chain has no parallelism: clustering must place it
        // in one cluster, so everything lands on a single tile.
        let (_, config, g) = setup(4, |b| {
            let mut v = b.const_i32(1);
            for _ in 0..10 {
                v = b.add(v, v);
            }
        });
        let part = partition(&g, &config, &CompilerOptions::default());
        let first = part.assignment[0];
        assert!(part.assignment.iter().all(|&t| t == first));
        assert_eq!(part.n_clusters, 1);
    }

    #[test]
    fn independent_chains_spread_across_tiles() {
        // Four long independent chains should use all four tiles.
        let (_, config, g) = setup(4, |b| {
            for _ in 0..4 {
                let mut v = b.const_f32(1.0);
                for _ in 0..12 {
                    v = b.mul_f(v, v);
                }
            }
        });
        let part = partition(&g, &config, &CompilerOptions::default());
        let mut used: Vec<TileId> = part.assignment.clone();
        used.sort();
        used.dedup();
        assert_eq!(used.len(), 4, "chains should occupy all tiles");
        // Each chain must stay on its own tile.
        for chain in 0..4 {
            let base = chain * 13;
            let t = part.assignment[base];
            assert!(part.assignment[base..base + 13].iter().all(|&x| x == t));
        }
    }

    #[test]
    fn pins_are_respected() {
        let (_, config, g) = setup(4, |b| {
            let a = b.array("A", Ty::I32, &[16]);
            for r in 0..4u32 {
                let i = b.const_i32(r as i32);
                let v = b.load(a, i, MemHome::Static(r));
                let w = b.add(v, v);
                b.store(a, i, w, MemHome::Static(r));
            }
        });
        let part = partition(&g, &config, &CompilerOptions::default());
        for (n, inst) in g.insts.iter().enumerate() {
            if let Some(pin) = g.pins[n] {
                assert_eq!(part.assignment[n], pin, "node {n} ({inst:?})");
            }
        }
    }

    #[test]
    fn clustering_ablation_still_respects_pins() {
        let (_, config, g) = setup(2, |b| {
            let v = b.var_i32("v", 3);
            let r = b.read_var(v);
            let s = b.add(r, r);
            b.write_var(v, s);
        });
        let options = CompilerOptions {
            clustering: false,
            ..Default::default()
        };
        let part = partition(&g, &config, &options);
        for n in 0..g.len() {
            if let Some(pin) = g.pins[n] {
                assert_eq!(part.assignment[n], pin);
            }
        }
    }

    #[test]
    fn annealing_placement_is_deterministic_and_correct() {
        use crate::options::PlacementAlgorithm;
        let (_, config, g) = setup(8, |b| {
            for _ in 0..8 {
                let mut v = b.const_f32(1.0);
                for _ in 0..6 {
                    v = b.mul_f(v, v);
                }
            }
        });
        let options = CompilerOptions {
            placement: PlacementAlgorithm::Annealing { seed: 7 },
            ..Default::default()
        };
        let p1 = partition(&g, &config, &options);
        let p2 = partition(&g, &config, &options);
        assert_eq!(
            p1.assignment, p2.assignment,
            "annealing must be seeded-deterministic"
        );
        // Pins (none here) and node coverage still hold.
        assert_eq!(p1.assignment.len(), g.len());
    }

    #[test]
    fn annealing_respects_pins() {
        use crate::options::PlacementAlgorithm;
        let (_, config, g) = setup(4, |b| {
            let a = b.array("A", Ty::I32, &[16]);
            for r in 0..4u32 {
                let i = b.const_i32(r as i32);
                let v = b.load(a, i, MemHome::Static(r));
                let w = b.add(v, v);
                b.store(a, i, w, MemHome::Static(r));
            }
        });
        let options = CompilerOptions {
            placement: PlacementAlgorithm::Annealing { seed: 3 },
            ..Default::default()
        };
        let part = partition(&g, &config, &options);
        for n in 0..g.len() {
            if let Some(pin) = g.pins[n] {
                assert_eq!(part.assignment[n], pin);
            }
        }
    }

    /// Total communication cost by full recompute (test oracle).
    fn full_cost(edges: &[(usize, usize)], tile_of_bin: &[TileId], config: &MachineConfig) -> u64 {
        edges
            .iter()
            .map(|&(a, b)| config.hops(tile_of_bin[a], tile_of_bin[b]) as u64)
            .sum()
    }

    /// The original greedy placement: full O(E) cost recompute per candidate
    /// swap. Kept as the reference for the incremental implementation.
    fn reference_greedy(
        edges: &[(usize, usize)],
        swappable: &[usize],
        n_tiles: usize,
        config: &MachineConfig,
    ) -> Vec<TileId> {
        let mut tile_of_bin: Vec<TileId> = (0..n_tiles as u32).map(TileId::from_raw).collect();
        let mut current = full_cost(edges, &tile_of_bin, config);
        for _pass in 0..8 {
            let mut improved = false;
            for i in 0..swappable.len() {
                for j in i + 1..swappable.len() {
                    let (a, b) = (swappable[i], swappable[j]);
                    tile_of_bin.swap(a, b);
                    let c = full_cost(edges, &tile_of_bin, config);
                    if c < current {
                        current = c;
                        improved = true;
                    } else {
                        tile_of_bin.swap(a, b);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        tile_of_bin
    }

    /// The original annealing placement: 200 × steps, full cost recompute per
    /// move, assignment clone per new best.
    fn reference_annealing(
        edges: &[(usize, usize)],
        swappable: &[usize],
        n_tiles: usize,
        config: &MachineConfig,
        seed: u64,
    ) -> Vec<TileId> {
        let mut tile_of_bin: Vec<TileId> = (0..n_tiles as u32).map(TileId::from_raw).collect();
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut current = full_cost(edges, &tile_of_bin, config) as f64;
        let mut best = tile_of_bin.clone();
        let mut best_cost = current;
        let mut temperature = (current / edges.len().max(1) as f64).max(1.0) * 4.0;
        let steps = 200 * swappable.len().max(4);
        for _ in 0..steps {
            let a = swappable[(next() % swappable.len() as u64) as usize];
            let b = swappable[(next() % swappable.len() as u64) as usize];
            if a == b {
                continue;
            }
            tile_of_bin.swap(a, b);
            let c = full_cost(edges, &tile_of_bin, config) as f64;
            let delta = c - current;
            let accept = delta <= 0.0 || {
                let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                u < (-delta / temperature).exp()
            };
            if accept {
                current = c;
                if c < best_cost {
                    best_cost = c;
                    best = tile_of_bin.clone();
                }
            } else {
                tile_of_bin.swap(a, b);
            }
            temperature = (temperature * 0.995).max(0.01);
        }
        best
    }

    /// Deterministic synthetic bin-edge multisets of varying density.
    fn synthetic_edges(n_bins: usize, n_edges: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut edges = Vec::with_capacity(n_edges);
        while edges.len() < n_edges {
            let a = (next() % n_bins as u64) as usize;
            let b = (next() % n_bins as u64) as usize;
            if a != b {
                edges.push((a, b));
            }
        }
        edges
    }

    #[test]
    fn incremental_greedy_matches_full_recompute_reference() {
        // The Δ-cost greedy must make exactly the same accept decisions as the
        // original full-recompute greedy: identical assignments, not just
        // identical cost.
        for (rows, cols, n_edges, seed) in [
            (2u32, 2u32, 6usize, 1u64),
            (2, 4, 20, 2),
            (4, 4, 60, 3),
            (4, 4, 200, 4),
            (1, 8, 30, 5),
        ] {
            let config = MachineConfig::grid(rows, cols);
            let n_tiles = (rows * cols) as usize;
            let edges = synthetic_edges(n_tiles, n_edges, seed);
            for swappable in [
                (0..n_tiles).collect::<Vec<_>>(),
                (0..n_tiles).skip(1).collect(),
                (0..n_tiles).step_by(2).collect(),
            ] {
                let (new, log) = optimize_placement(
                    &edges,
                    &swappable,
                    n_tiles,
                    &config,
                    crate::options::PlacementAlgorithm::GreedySwap,
                );
                let old = reference_greedy(&edges, &swappable, n_tiles, &config);
                assert_eq!(new, old, "grid {rows}x{cols} seed {seed}");
                // Replaying the logged swaps onto identity must reproduce the
                // final assignment, and the logged cost must be exact.
                let mut replay: Vec<TileId> = (0..n_tiles as u32).map(TileId::from_raw).collect();
                for s in &log.steps {
                    replay.swap(s.bins.0, s.bins.1);
                }
                assert_eq!(replay, new, "placement log replay");
                assert_eq!(log.final_cost as u64, full_cost(&edges, &new, &config));
            }
        }
    }

    #[test]
    fn incremental_annealing_cost_not_worse_than_reference() {
        // The incremental annealer replays the reference trajectory for its
        // first 200 × steps and then keeps searching, so its final cost must
        // be ≤ the reference on every input.
        for (rows, cols, n_edges, seed) in [
            (2u32, 2u32, 10usize, 11u64),
            (2, 4, 40, 12),
            (4, 4, 120, 13),
            (4, 4, 300, 14),
        ] {
            let config = MachineConfig::grid(rows, cols);
            let n_tiles = (rows * cols) as usize;
            let edges = synthetic_edges(n_tiles, n_edges, seed);
            let swappable: Vec<usize> = (0..n_tiles).collect();
            for anneal_seed in [1u64, 7, 42] {
                let (new, log) = optimize_placement(
                    &edges,
                    &swappable,
                    n_tiles,
                    &config,
                    crate::options::PlacementAlgorithm::Annealing { seed: anneal_seed },
                );
                let old = reference_annealing(&edges, &swappable, n_tiles, &config, anneal_seed);
                assert!(
                    full_cost(&edges, &new, &config) <= full_cost(&edges, &old, &config),
                    "grid {rows}x{cols} edges-seed {seed} anneal-seed {anneal_seed}"
                );
                let mut replay: Vec<TileId> = (0..n_tiles as u32).map(TileId::from_raw).collect();
                for s in &log.steps {
                    replay.swap(s.bins.0, s.bins.1);
                }
                assert_eq!(replay, new, "annealing log replay");
                assert_eq!(log.final_cost as u64, full_cost(&edges, &new, &config));
            }
        }
    }

    #[test]
    fn swap_delta_agrees_with_full_recompute() {
        let config = MachineConfig::grid(4, 4);
        let n_tiles = 16;
        let edges = synthetic_edges(n_tiles, 100, 99);
        let adj = build_adjacency(&edges, n_tiles);
        let mut tile_of_bin: Vec<TileId> = (0..n_tiles as u32).map(TileId::from_raw).collect();
        // Scramble, then check every pair.
        tile_of_bin.swap(0, 9);
        tile_of_bin.swap(3, 12);
        for a in 0..n_tiles {
            for b in a + 1..n_tiles {
                let before = full_cost(&edges, &tile_of_bin, &config) as i64;
                let d = swap_delta(&adj, &tile_of_bin, &config, a, b);
                tile_of_bin.swap(a, b);
                let after = full_cost(&edges, &tile_of_bin, &config) as i64;
                tile_of_bin.swap(a, b);
                assert_eq!(d, after - before, "swap ({a}, {b})");
            }
        }
    }

    #[test]
    fn faulty_tiles_receive_no_nodes() {
        use crate::options::PlacementAlgorithm;
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", Ty::I32, &[16]);
        for r in 0..4u32 {
            let i = b.const_i32(r as i32);
            let v = b.load(a, i, MemHome::Static(r));
            let w = b.add(v, v);
            b.store(a, i, w, MemHome::Static(r));
        }
        for _ in 0..6 {
            let mut v = b.const_f32(1.0);
            for _ in 0..8 {
                v = b.mul_f(v, v);
            }
        }
        b.halt();
        let p = b.finish().unwrap();
        let base = MachineConfig::grid(2, 4);
        let mask = base.mask_to_pow2(&[TileId::from_raw(1), TileId::from_raw(4)]);
        let config = base.with_faulty(mask);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        for algorithm in [
            PlacementAlgorithm::GreedySwap,
            PlacementAlgorithm::Annealing { seed: 5 },
        ] {
            let options = CompilerOptions {
                placement: algorithm,
                ..Default::default()
            };
            let part = partition(&g, &config, &options);
            for (n, &t) in part.assignment.iter().enumerate() {
                assert!(!config.is_faulty(t), "node {n} placed on faulty tile {t:?}");
            }
            for (n, pin) in g.pins.iter().enumerate() {
                if let Some(pin) = pin {
                    assert_eq!(part.assignment[n], *pin);
                }
            }
        }
    }

    #[test]
    fn empty_block_partitions_empty() {
        let (_, config, g) = setup(2, |_| {});
        let part = partition(&g, &config, &CompilerOptions::default());
        assert!(part.assignment.is_empty());
    }

    #[test]
    fn single_tile_everything_on_tile_zero() {
        let (_, config, g) = setup(1, |b| {
            let x = b.const_i32(1);
            let y = b.add(x, x);
            let _ = b.mul(y, y);
        });
        let part = partition(&g, &config, &CompilerOptions::default());
        assert!(part.assignment.iter().all(|&t| t == TileId::from_raw(0)));
    }
}
