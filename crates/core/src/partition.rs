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
use crate::taskgraph::{EdgeKind, Operand, TaskGraph};
use raw_ir::InstKind;
use raw_machine::{MachineConfig, TileId};

/// Assumed latency of one cross-tile word transfer during clustering: the
/// idealized uniform-latency switch of paper §4.1.
pub(crate) const CLUSTER_COMM_COST: u64 = 4;

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
    /// `"identity"`, `"greedy-swap"`, or `"exact"`.
    pub algorithm: &'static str,
    /// Total hop cost of the identity assignment.
    pub initial_cost: i64,
    /// Total hop cost of the final assignment.
    pub final_cost: i64,
    /// Accepted swaps present in the final assignment.
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
        cluster(graph)
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
    let bins = merge(&clusters, n_tiles, config);
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
/// uniform latency [`CLUSTER_COMM_COST`] (paper §4.1).
fn cluster(graph: &TaskGraph) -> Clustering {
    let n = graph.len();
    let comm = CLUSTER_COMM_COST;
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
        // special casing here. A tie with the fresh singleton goes to the
        // cluster of a load whose index is a register: loads sharing one index
        // value (as every unrolled copy of a reference does) finish together,
        // so a consumer of two of them always ties, and one operand is already
        // in the load's cluster. Other ties stay fresh, so a reduction tree
        // does not cascade into the pinned clusters.
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
            let register_load = matches!(graph.insts[p].kind, InstKind::Load { .. })
                && matches!(graph.operands[p][0], Some(Operand::Node(_)));
            if t < best.1 || (t == best.1 && best.0.is_none() && register_load) {
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
fn merge(clusters: &Clustering, n_tiles: usize, config: &MachineConfig) -> Bins {
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
/// (paper §4.1 "placement") — greedy improving swaps, or the identity under
/// `PlacementAlgorithm::None`.
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
    // Faulty bins are empty but must also stay *out* of the swap set: any
    // improving swap could otherwise move a live bin onto a dead tile.
    let swappable: Vec<usize> = (0..n_tiles)
        .filter(|&b| bins.locked[b].is_none() && !config.is_faulty(TileId::from_raw(b as u32)))
        .collect();
    optimize_placement(&edges, &swappable, n_tiles, config)
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

/// Greedy-swap placement over an explicit bin-edge multiset.
///
/// Swap candidates are evaluated incrementally via [`swap_delta`]; because the
/// deltas are exact integers, the accept/reject decisions are identical to a
/// full cost recompute, so results are bit-for-bit the same as the original
/// O(E)-per-swap implementation (asserted by the differential test below).
fn optimize_placement(
    edges: &[(usize, usize)],
    swappable: &[usize],
    n_tiles: usize,
    config: &MachineConfig,
) -> (Vec<TileId>, PlacementLog) {
    let mut tile_of_bin: Vec<TileId> = (0..n_tiles as u32).map(TileId::from_raw).collect();
    let initial: i64 = edges
        .iter()
        .map(|&(a, b)| config.hops(tile_of_bin[a], tile_of_bin[b]) as i64)
        .sum();
    let mut log = PlacementLog {
        algorithm: "greedy-swap",
        initial_cost: initial,
        final_cost: initial,
        steps: Vec::new(),
    };
    if swappable.len() < 2 {
        return (tile_of_bin, log);
    }
    let adj = build_adjacency(edges, n_tiles);
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
        // in one cluster, so everything lands on a single tile. The chain's
        // root is a task (a variable read), not a constant.
        let (_, config, g) = setup(4, |b| {
            let x = b.var_i32("x", 1);
            let mut v = b.read_var(x);
            for _ in 0..10 {
                v = b.add(v, v);
            }
        });
        assert_eq!(g.len(), 11);
        let part = partition(&g, &config, &CompilerOptions::default());
        let first = part.assignment[0];
        assert!(part.assignment.iter().all(|&t| t == first));
        assert_eq!(part.n_clusters, 1);
    }

    #[test]
    fn independent_chains_spread_across_tiles() {
        // Four long independent chains should use all four tiles. They
        // start from one read (node 0), each by its own constant, so only the
        // read is pinned.
        let (_, config, g) = setup(4, |b| {
            let x = b.var_f32("x", 1.0);
            let r = b.read_var(x);
            for k in 0..4 {
                let c = b.const_f32(k as f32);
                let mut v = b.mul_f(r, c);
                for _ in 1..12 {
                    v = b.mul_f(v, v);
                }
            }
        });
        let part = partition(&g, &config, &CompilerOptions::default());
        let mut used: Vec<TileId> = part.assignment.clone();
        used.sort();
        used.dedup();
        assert_eq!(used.len(), 4, "chains should occupy all tiles");
        // Each chain (12 multiplies; its constants are no nodes) must stay
        // on its own tile.
        assert_eq!(g.len(), 1 + 4 * 12);
        for chain in 0..4 {
            let base = 1 + chain * 12;
            let t = part.assignment[base];
            assert!(part.assignment[base..base + 12].iter().all(|&x| x == t));
        }
    }

    #[test]
    fn pins_are_respected() {
        let (_, config, g) = setup(4, |b| {
            let a = b.array("A", Ty::I32, &[16]);
            for r in 0..4u32 {
                let i = b.const_i32(r as i32);
                let v = b.load(a, i, 0, MemHome::Static(r));
                let w = b.add(v, v);
                b.store(a, i, 0, w, MemHome::Static(r));
            }
        });
        let part = partition(&g, &config, &CompilerOptions::default());
        for (n, inst) in g.insts.iter().enumerate() {
            if let Some(pin) = g.pins[n] {
                assert_eq!(part.assignment[n], pin, "node {n} ({inst:?})");
            }
        }
    }

    /// Loads that share one index value finish together, so a consumer of two
    /// of them ties between a fresh cluster and a load's cluster: it joins the
    /// load's, where its operand already is. Loads with immediate indices
    /// keep the fresh cluster.
    #[test]
    fn consumers_of_loads_sharing_an_index_join_a_load_cluster() {
        for shared in [true, false] {
            let (_, _, g) = setup(4, |b| {
                let a = b.array("A", Ty::I32, &[16]);
                let x = b.var_i32("x", 4);
                let i = b.read_var(x);
                let loads: Vec<_> = (0..4)
                    .map(|r| {
                        let index = if shared { i } else { b.const_i32(r) };
                        let offset = if shared { r } else { 0 };
                        b.load(a, index, offset, MemHome::Static(r as u32))
                    })
                    .collect();
                for r in 0..4 {
                    let _ = b.add(loads[r], loads[(r + 1) % 4]);
                }
            });
            let clusters = cluster(&g);
            let node = |kind: fn(&InstKind) -> bool| -> Vec<usize> {
                (0..g.len()).filter(|&n| kind(&g.insts[n].kind)).collect()
            };
            let loads = node(|k| matches!(k, InstKind::Load { .. }));
            let adds = node(|k| matches!(k, InstKind::Bin(..)));
            for (r, &add) in adds.iter().enumerate() {
                let homes = [loads[r], loads[(r + 1) % 4]].map(|l| clusters.of_node[l]);
                assert_eq!(
                    homes.contains(&clusters.of_node[add]),
                    shared,
                    "shared index: {shared}, add {r}"
                );
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
                let (new, log) = optimize_placement(&edges, &swappable, n_tiles, &config);
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
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", Ty::I32, &[16]);
        for r in 0..4u32 {
            let i = b.const_i32(r as i32);
            let v = b.load(a, i, 0, MemHome::Static(r));
            let w = b.add(v, v);
            b.store(a, i, 0, w, MemHome::Static(r));
        }
        let x = b.var_f32("x", 1.0);
        let r = b.read_var(x);
        for k in 0..6 {
            let c = b.const_f32(k as f32);
            let mut v = b.mul_f(r, c);
            for _ in 1..8 {
                v = b.mul_f(v, v);
            }
        }
        b.halt();
        let p = b.finish().unwrap();
        let base = MachineConfig::grid(2, 4);
        let mask = base
            .mask_to_pow2(&[TileId::from_raw(1), TileId::from_raw(4)])
            .expect("the mesh fits the mask");
        let config = base.with_faulty(mask);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        let part = partition(&g, &config, &CompilerOptions::default());
        for (n, &t) in part.assignment.iter().enumerate() {
            assert!(!config.is_faulty(t), "node {n} placed on faulty tile {t:?}");
        }
        for (n, pin) in g.pins.iter().enumerate() {
            if let Some(pin) = pin {
                assert_eq!(part.assignment[n], *pin);
            }
        }
    }

    /// Any improving swap can move a live bin onto a dead tile: on a 1x4
    /// strip padded to tiles 0 and 2 live, a chain binned on tile 2 that
    /// talks to a load pinned on tile 0 would save hops on dead tile 1.
    #[test]
    fn greedy_swap_never_moves_live_bins_onto_dead_tiles() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", Ty::I32, &[16]);
        let i = b.const_i32(0);
        for offset in [4, 8] {
            // Loads are never merged, so each chain has its own root.
            let mut v = b.load(a, i, 0, MemHome::Static(0));
            for _ in 0..4 {
                v = b.mul(v, v);
            }
            b.store(a, i, offset, v, MemHome::Static(0));
        }
        b.halt();
        let p = b.finish().unwrap();
        let base = MachineConfig::grid(1, 4);
        let mask = base
            .mask_to_pow2(&[TileId::from_raw(1)])
            .expect("the mesh fits the mask");
        let config = base.with_faulty(mask);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        let options = CompilerOptions {
            clustering: false,
            ..Default::default()
        };
        let part = partition(&g, &config, &options);
        for (n, &t) in part.assignment.iter().enumerate() {
            assert!(!config.is_faulty(t), "node {n} placed on faulty tile {t:?}");
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
            let xv = b.var_i32("x", 1);
            let x = b.read_var(xv);
            let y = b.add(x, x);
            let _ = b.mul(y, y);
        });
        let part = partition(&g, &config, &CompilerOptions::default());
        assert!(part.assignment.iter().all(|&t| t == TileId::from_raw(0)));
    }
}
