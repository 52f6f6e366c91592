//! The event scheduler (paper §4.2).
//!
//! Events are computation instructions and **communication paths**. A path is
//! a single-source, possibly multi-destination (multicast) transfer scheduled
//! atomically: the send slot on the producer's processor, one route slot per
//! switch along the dimension-ordered multicast tree at consecutive cycles,
//! and a receive slot on each consumer's processor at the exact arrival cycle.
//! Reserving contiguous slots end-to-end means the path incurs no delay in the
//! static schedule, and — together with the static ordering property — that
//! the emitted instruction order is deadlock-free at runtime.
//!
//! Tasks are picked greedily from a ready list ordered by a priority that is a
//! weighted sum of **level** (longest distance to an exit task) and
//! **fertility** (number of descendant tasks), exactly the scheme of §4.2.

use crate::options::{CompilerOptions, PriorityScheme};
use crate::partition::Partition;
use crate::taskgraph::{EdgeKind, NodeId, TaskGraph};
use raw_machine::isa::{Dir, RoutePairs, SDst, SSrc};
use raw_machine::{MachineConfig, TileId};
use std::collections::{HashMap, HashSet};

/// One slot in a tile processor's schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TileOp {
    /// Execute the block instruction with this task-graph node id.
    Comp(NodeId),
    /// Send the value this node computes (register → output port).
    Send(NodeId),
    /// Receive the value this node computes (input port → register).
    Recv(NodeId),
}

/// One tile's switch schedule: `(cycle, producing node, route pairs)` in
/// increasing cycle order. The node names the communication path the route
/// belongs to (provenance: the producer's source span).
pub type TileSwitchSchedule = Vec<(u64, NodeId, RoutePairs)>;

/// Kind of a predicted processor slot (condensed from [`TileOp`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredOpKind {
    /// A computation instruction issues.
    Comp,
    /// A value is injected into the static network.
    Send,
    /// A value is consumed from the static network.
    Recv,
}

impl PredOpKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PredOpKind::Comp => "comp",
            PredOpKind::Send => "send",
            PredOpKind::Recv => "recv",
        }
    }
}

/// The scheduler's *predicted* space-time map of one block: which tile is
/// predicted to do what at which block-relative cycle. Captured into the
/// compile report so the `raw-trace` crate can diff it against the simulator's
/// *observed* trace (the cost-model divergence the paper's §4.2 cost model
/// glosses over: operand arrival jitter, port back-pressure, branch overhead).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictedBlock {
    /// Predicted completion time of the block (block-relative cycles).
    pub makespan: u64,
    /// Per tile: `(cycle, kind)` in increasing cycle order.
    pub proc_ops: Vec<Vec<(u64, PredOpKind)>>,
    /// Per tile: predicted route-firing cycles in increasing order.
    pub route_cycles: Vec<Vec<u64>>,
}

impl PredictedBlock {
    /// Predicted busy slots (issues) on one tile's processor.
    pub fn proc_issues(&self, tile: usize) -> usize {
        self.proc_ops[tile].len()
    }
}

/// The space-time schedule of one basic block.
#[derive(Clone, Debug, Default)]
pub struct BlockSchedule {
    /// Per tile: `(cycle, op)` in increasing cycle order.
    pub proc_ops: Vec<Vec<(u64, TileOp)>>,
    /// Per tile: its switch schedule (see [`TileSwitchSchedule`]).
    pub switch_ops: Vec<TileSwitchSchedule>,
    /// Estimated completion time of the block.
    pub makespan: u64,
    /// Number of communication paths scheduled (reporting).
    pub n_comm_paths: usize,
}

impl BlockSchedule {
    /// Condenses this schedule into the predicted space-time map recorded in
    /// the compile report.
    pub fn predicted(&self) -> PredictedBlock {
        PredictedBlock {
            makespan: self.makespan,
            proc_ops: self
                .proc_ops
                .iter()
                .map(|ops| {
                    ops.iter()
                        .map(|(t, op)| {
                            let kind = match op {
                                TileOp::Comp(_) => PredOpKind::Comp,
                                TileOp::Send(_) => PredOpKind::Send,
                                TileOp::Recv(_) => PredOpKind::Recv,
                            };
                            (*t, kind)
                        })
                        .collect()
                })
                .collect(),
            route_cycles: self
                .switch_ops
                .iter()
                .map(|ops| ops.iter().map(|(t, ..)| *t).collect())
                .collect(),
        }
    }
}

/// One communication path: the value of `node`, sent from its tile `src` to
/// the tiles `dsts` (a range of the scheduler's flat destination list,
/// ascending by tile).
struct Comm {
    node: NodeId,
    src: TileId,
    dsts: std::ops::Range<usize>,
}

/// Task successor lists in one flat array: task `t`'s are
/// `list[start[t]..start[t + 1]]`.
struct Adjacency {
    start: Vec<usize>,
    list: Vec<usize>,
}

impl Adjacency {
    fn of(&self, t: usize) -> &[usize] {
        &self.list[self.start[t]..self.start[t + 1]]
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Packs `edges` (each `(from, to)`, in any order) over `n` tasks, keeping
    /// each task's successors in edge order.
    fn from_edges(n: usize, edges: &[(usize, usize)]) -> Adjacency {
        let mut start = vec![0usize; n + 1];
        for &(from, _) in edges {
            start[from + 1] += 1;
        }
        for t in 0..n {
            start[t + 1] += start[t];
        }
        let mut fill = start.clone();
        let mut list = vec![0usize; edges.len()];
        for &(from, to) in edges {
            list[fill[from]] = to;
            fill[from] += 1;
        }
        Adjacency { start, list }
    }
}

/// Bound on how far the scheduler searches for a feasible path start time.
const SEARCH_LIMIT: u64 = 1 << 20;

/// Schedules one partitioned block.
///
/// Task ids `0..graph.len()` are the computations (task `n` is node `n`);
/// `graph.len() + c` is communication path `c`. Every per-value table is a
/// `Vec` indexed by node id.
pub fn schedule(
    graph: &TaskGraph,
    partition: &Partition,
    config: &MachineConfig,
    options: &CompilerOptions,
) -> BlockSchedule {
    let n_tiles = config.n_tiles() as usize;
    let mut out = BlockSchedule {
        proc_ops: vec![Vec::new(); n_tiles],
        switch_ops: vec![Vec::new(); n_tiles],
        makespan: 0,
        n_comm_paths: 0,
    };
    if graph.is_empty() {
        return out;
    }
    let n = graph.len();
    let tile_of = &partition.assignment;

    // ---- One communication path per node with remote data consumers.
    const NO_COMM: usize = usize::MAX;
    let mut comm_of: Vec<usize> = vec![NO_COMM; n];
    let mut comms: Vec<Comm> = Vec::new();
    let mut dst_tiles: Vec<TileId> = Vec::new();
    let mut scratch: Vec<TileId> = Vec::new();
    for node in 0..n {
        let src = tile_of[node];
        scratch.clear();
        scratch.extend(
            graph.succs[node]
                .iter()
                .filter(|&&(_, k)| k == EdgeKind::Data)
                .map(|&(s, _)| tile_of[s])
                .filter(|&t| t != src),
        );
        if scratch.is_empty() {
            continue;
        }
        scratch.sort_unstable();
        scratch.dedup();
        let at = dst_tiles.len();
        dst_tiles.extend_from_slice(&scratch);
        comm_of[node] = n + comms.len();
        comms.push(Comm {
            node,
            src,
            dsts: at..dst_tiles.len(),
        });
    }
    out.n_comm_paths = comms.len();
    let n_tasks = n + comms.len();
    // Where a remote consumer on `tile` reads the value of `node`.
    let dst_slot = |node: NodeId, tile: TileId| -> usize {
        let range = comms[comm_of[node] - n].dsts.clone();
        let k = dst_tiles[range.clone()]
            .binary_search(&tile)
            .expect("a remote consumer's tile is a destination of its comm path");
        range.start + k
    };

    // ---- Task dependency edges. The graph has at most one edge per node
    // pair and a task stands for a distinct node (itself, or the path of a
    // remote data edge's producer), so no edge repeats.
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n_tasks);
    let mut n_preds: Vec<usize> = vec![0; n_tasks];
    for node in 0..n {
        if comm_of[node] != NO_COMM {
            edges.push((node, comm_of[node]));
            n_preds[comm_of[node]] = 1;
        }
        for &(p, kind) in &graph.preds[node] {
            let from = match kind {
                EdgeKind::Data if tile_of[p] != tile_of[node] => comm_of[p],
                _ => p,
            };
            edges.push((from, node));
        }
        n_preds[node] = graph.preds[node].len();
    }
    let succs = Adjacency::from_edges(n_tasks, &edges);
    drop(edges);

    // ---- Priorities: level + fertility over the task DAG. Program order
    // with each node's path right after it is a topological order: data
    // and order edges only ever point forward.
    let mut topo: Vec<usize> = Vec::with_capacity(n_tasks);
    for (node, &comm) in comm_of.iter().enumerate() {
        topo.push(node);
        if comm != NO_COMM {
            topo.push(comm);
        }
    }
    let weight = |t: usize| -> u64 {
        if t < n {
            return graph.costs[t] as u64;
        }
        let c = &comms[t - n];
        let max_hops = dst_tiles[c.dsts.clone()]
            .iter()
            .map(|&d| config.hops(c.src, d))
            .max()
            .unwrap_or(0);
        2 + max_hops as u64
    };
    let mut level = vec![0u64; n_tasks];
    for &t in topo.iter().rev() {
        let down = succs.of(t).iter().map(|&s| level[s]).max().unwrap_or(0);
        level[t] = weight(t) + down;
    }
    let fertility = match options.priority {
        PriorityScheme::LevelFertility => descendants(&succs, &n_preds, &topo),
        PriorityScheme::LevelOnly | PriorityScheme::SourceOrder => vec![0u64; n_tasks],
    };
    drop(topo);
    let priority = |t: usize| match options.priority {
        // Source order: constant priority; the deterministic tie-break on the
        // smallest task id makes the ready list issue in program order.
        PriorityScheme::SourceOrder => 0,
        _ => level[t] * 8 + fertility[t],
    };
    // The ready list issues the highest priority first, the smallest task id
    // among equals: rank every task in that order once, and keep the ready
    // tasks as a set of ranks.
    let mut by_rank: Vec<u128> = (0..n_tasks)
        .map(|t| (u128::from(!priority(t)) << 64) | t as u128)
        .collect();
    by_rank.sort_unstable();
    let mut rank = vec![0usize; n_tasks];
    for (r, &key) in by_rank.iter().enumerate() {
        rank[key as u64 as usize] = r;
    }

    // ---- Greedy list scheduling.
    let mut proc_busy: Vec<SlotTable> = vec![SlotTable::default(); n_tiles];
    let mut switch_busy: Vec<SlotTable> = vec![SlotTable::default(); n_tiles];
    // ready[node]: first cycle a consumer on the node's own tile may issue;
    // dst_ready[k]: the same on destination `dst_tiles[k]` of the node's
    // path. Each is written when its producer (or path) is scheduled, before
    // any consumer can be.
    let mut ready: Vec<u64> = vec![0; n];
    let mut dst_ready: Vec<u64> = vec![0; dst_tiles.len()];
    // The slot each node's operation issues in (order edges wait on it).
    let mut issue: Vec<u64> = vec![0; n];
    let mut remaining = n_preds;
    let mut ready_list = RankSet::new(n_tasks);
    for t in (0..n_tasks).filter(|&t| remaining[t] == 0) {
        ready_list.insert(rank[t]);
    }
    let mut tree = MulticastTree::default();
    let mut scheduled = 0usize;

    while let Some(r) = ready_list.pop_min() {
        let tid = by_rank[r] as u64 as usize;
        scheduled += 1;
        if tid < n {
            let node = tid;
            let tile = tile_of[node];
            let mut t0 = 0u64;
            for &(p, kind) in &graph.preds[node] {
                t0 = t0.max(match kind {
                    EdgeKind::Order => issue[p] + 1,
                    EdgeKind::Data if tile_of[p] == tile => ready[p],
                    EdgeKind::Data => dst_ready[dst_slot(p, tile)],
                });
            }
            // Instruction selection may prepend address arithmetic: find a
            // run of `1 + extra` consecutive free slots, with the memory
            // operation itself in the last one.
            let extra = graph.extra_slots[node] as u64;
            let busy = &proc_busy[tile.index()];
            let t = earliest_start(t0, || (0..=extra).map(move |k| (busy, k)));
            let busy = &mut proc_busy[tile.index()];
            for k in 0..=extra {
                busy.insert(t + k);
            }
            let op_slot = t + extra;
            out.proc_ops[tile.index()].push((t, TileOp::Comp(node)));
            issue[node] = op_slot;
            ready[node] = op_slot + graph.costs[node] as u64;
            out.makespan = out.makespan.max(ready[node]);
        } else {
            let Comm {
                node,
                src,
                ref dsts,
            } = comms[tid - n];
            tree.rebuild(config, src, &dst_tiles[dsts.clone()]);
            let t0 = ready[node];
            // The earliest start with every slot free: the send at `t`, each
            // switch at `t + 1 + depth`, each receive at `t + depth + 2`.
            let (procs, switches, nodes) = (&proc_busy, &switch_busy, &tree.nodes);
            let t = earliest_start(t0, move || {
                let send = std::iter::once((&procs[src.index()], 0));
                let routes = nodes
                    .iter()
                    .map(move |tn| (&switches[tn.tile.index()], 1 + tn.depth));
                let recvs = nodes
                    .iter()
                    .filter(|tn| tn.deliver)
                    .map(move |tn| (&procs[tn.tile.index()], tn.depth + 2));
                send.chain(routes).chain(recvs)
            });
            assert!(
                t - t0 < SEARCH_LIMIT,
                "no feasible slot for comm path of node {node}"
            );
            // Reserve everything.
            proc_busy[src.index()].insert(t);
            out.proc_ops[src.index()].push((t, TileOp::Send(node)));
            for tn in &tree.nodes {
                let cycle = t + 1 + tn.depth;
                switch_busy[tn.tile.index()].insert(cycle);
                out.switch_ops[tn.tile.index()].push((cycle, node, tn.pairs()));
                if tn.deliver {
                    let arr = t + tn.depth + 2;
                    proc_busy[tn.tile.index()].insert(arr);
                    out.proc_ops[tn.tile.index()].push((arr, TileOp::Recv(node)));
                    dst_ready[dst_slot(node, tn.tile)] = arr + 1;
                    out.makespan = out.makespan.max(arr + 1);
                }
            }
        }
        for &s in succs.of(tid) {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                ready_list.insert(rank[s]);
            }
        }
    }
    assert_eq!(
        scheduled, n_tasks,
        "task DAG must be acyclic and connected to roots"
    );

    // Each lane books a cycle at most once, so the keys are unique and an
    // unstable sort orders them exactly as a stable one would.
    for ops in &mut out.proc_ops {
        ops.sort_unstable_by_key(|(t, _)| *t);
    }
    for ops in &mut out.switch_ops {
        ops.sort_unstable_by_key(|(t, ..)| *t);
    }
    out
}

/// A set of ranks `0..n` with O(1) insert and a smallest-first pop: one bit
/// per rank, and one summary bit per nonzero word.
struct RankSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    /// No summary word below this one is nonzero.
    first: usize,
}

impl RankSet {
    fn new(n: usize) -> RankSet {
        let words = n.div_ceil(64);
        RankSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            first: 0,
        }
    }

    fn insert(&mut self, r: usize) {
        let w = r / 64;
        self.words[w] |= 1 << (r % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.first = self.first.min(w / 64);
    }

    fn pop_min(&mut self) -> Option<usize> {
        while self.summary.get(self.first)? == &0 {
            self.first += 1;
        }
        let w = self.first * 64 + self.summary[self.first].trailing_zeros() as usize;
        let bit = self.words[w].trailing_zeros() as usize;
        self.words[w] &= self.words[w] - 1;
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        Some(w * 64 + bit)
    }
}

/// The earliest start `t >= t0` at which every lane `(table, offset)` that
/// `lanes()` yields is free at cycle `t + offset`: the minimal feasible start,
/// tested 64 candidates at a time by ANDing each lane's free bits shifted by
/// its offset.
fn earliest_start<'a, L>(t0: u64, lanes: impl Fn() -> L) -> u64
where
    L: Iterator<Item = (&'a SlotTable, u64)>,
{
    let mut t = t0;
    loop {
        let mut feasible = !0u64;
        for (table, offset) in lanes() {
            feasible &= table.free_window(t + offset);
            if feasible == 0 {
                break;
            }
        }
        if feasible != 0 {
            return t + u64::from(feasible.trailing_zeros());
        }
        t += 64;
    }
}

/// Structural validation of a [`BlockSchedule`] against the scheduling model:
/// every node issues exactly once on its assigned tile, no processor or switch
/// slot is double-booked (a computation with `extra_slots` occupies its whole
/// run), every dependence edge is respected (operands ready before issue,
/// order edges strictly ordered), and every communication path is contiguous —
/// send at `t`, each switch of the multicast tree at `t + 1 + depth`, each
/// receive at `t + depth + 2` — with the makespan exactly the last completion.
///
/// Returns the first violation as a message. This is the oracle behind the
/// exact solver's property tests (`crates/core/tests/prop_exact.rs`): the
/// solver may pick any placement it likes, but every schedule it certifies
/// must pass this check.
///
/// # Errors
///
/// A human-readable description of the first violated constraint.
pub fn validate(
    graph: &TaskGraph,
    partition: &Partition,
    config: &MachineConfig,
    sched: &BlockSchedule,
) -> Result<(), String> {
    let n_tiles = config.n_tiles() as usize;
    if sched.proc_ops.len() != n_tiles || sched.switch_ops.len() != n_tiles {
        return Err(format!(
            "schedule shape mismatch: {} proc / {} switch lanes for {} tiles",
            sched.proc_ops.len(),
            sched.switch_ops.len(),
            n_tiles
        ));
    }
    // ---- Single-issue per tile: collect busy processor slots, expanding each
    // computation to its `extra + 1` consecutive slots.
    let mut comp_slot: Vec<Option<u64>> = vec![None; graph.len()];
    let mut sends: Vec<Option<u64>> = vec![None; graph.len()];
    let mut recvs: Vec<Vec<(TileId, u64)>> = vec![Vec::new(); graph.len()];
    for (tile, ops) in sched.proc_ops.iter().enumerate() {
        let mut busy: HashSet<u64> = HashSet::new();
        let mut reserve = |from: u64, to: u64| -> Result<(), String> {
            for c in from..=to {
                if !busy.insert(c) {
                    return Err(format!("tile {tile}: processor slot {c} double-booked"));
                }
            }
            Ok(())
        };
        for (t, op) in ops {
            match op {
                TileOp::Comp(n) => {
                    if partition.assignment[*n].index() != tile {
                        return Err(format!(
                            "node {n} scheduled on tile {tile}, assigned to {:?}",
                            partition.assignment[*n]
                        ));
                    }
                    if comp_slot[*n].replace(*t).is_some() {
                        return Err(format!("node {n} issued twice"));
                    }
                    reserve(*t, *t + graph.extra_slots[*n] as u64)?;
                }
                TileOp::Send(v) => {
                    if sends[*v].replace(*t).is_some() {
                        return Err(format!("value of node {v} sent twice"));
                    }
                    reserve(*t, *t)?;
                }
                TileOp::Recv(v) => {
                    recvs[*v].push((TileId::from_raw(tile as u32), *t));
                    reserve(*t, *t)?;
                }
            }
        }
    }
    for (n, slot) in comp_slot.iter().enumerate() {
        if slot.is_none() {
            return Err(format!("node {n} never issued"));
        }
    }
    // ---- Operand readiness per (tile, value): producer completion locally,
    // arrival + 1 remotely.
    let mut ready: HashMap<(usize, NodeId), u64> = HashMap::new();
    for (n, slot) in comp_slot.iter().enumerate() {
        if graph.insts[n].dst.is_some() {
            let tile = partition.assignment[n].index();
            let op_slot = slot.unwrap() + graph.extra_slots[n] as u64;
            ready.insert((tile, n), op_slot + graph.costs[n] as u64);
        }
    }
    for (v, arrivals) in recvs.iter().enumerate() {
        for &(tile, arr) in arrivals {
            ready.insert((tile.index(), v), arr + 1);
        }
    }
    // ---- Dependence edges.
    for n in 0..graph.len() {
        let t_n = comp_slot[n].unwrap();
        let tile = partition.assignment[n].index();
        for &(p, kind) in &graph.preds[n] {
            match kind {
                EdgeKind::Order => {
                    let p_issue = comp_slot[p].unwrap() + graph.extra_slots[p] as u64;
                    if t_n <= p_issue {
                        return Err(format!(
                            "order edge {p} -> {n} violated: {p_issue} vs {t_n}"
                        ));
                    }
                }
                EdgeKind::Data => match ready.get(&(tile, p)) {
                    None => {
                        return Err(format!(
                            "node {n} consumes node {p}'s value, never made ready"
                        ));
                    }
                    Some(&r) if r > t_n => {
                        return Err(format!(
                            "node {n} issues at {t_n} before node {p}'s value is ready at {r}"
                        ));
                    }
                    _ => {}
                },
            }
        }
    }
    // ---- Communication paths: rebuild each value's multicast tree and check
    // the exact contiguous reservation the scheduler claims to have made.
    let mut switch_expected = 0usize;
    // Each lane's `(cycle, value)` routes, sorted for binary search: the same
    // answer as scanning the lane, whatever order the schedule under audit
    // left it in.
    let routed: Vec<Vec<(u64, NodeId)>> = sched
        .switch_ops
        .iter()
        .map(|lane| {
            let mut keys: Vec<_> = lane.iter().map(|(c, v, _)| (*c, *v)).collect();
            keys.sort_unstable();
            keys
        })
        .collect();
    for (v, arrivals) in recvs.iter().enumerate() {
        if arrivals.is_empty() {
            continue;
        }
        let src = partition.assignment[v];
        let Some(t_send) = sends[v] else {
            return Err(format!("value of node {v} received but never sent"));
        };
        if ready.get(&(src.index(), v)).is_none_or(|&r| r > t_send) {
            return Err(format!(
                "value of node {v} sent at {t_send} before it is produced"
            ));
        }
        let mut dsts: Vec<TileId> = arrivals.iter().map(|&(t, _)| t).collect();
        dsts.sort();
        dsts.dedup();
        let tree = MulticastTree::build(config, src, &dsts);
        for node in &tree.nodes {
            let cycle = t_send + 1 + node.depth;
            if routed[node.tile.index()]
                .binary_search(&(cycle, v))
                .is_err()
            {
                return Err(format!(
                    "value of node {v}: no route on switch {:?} at cycle {cycle}",
                    node.tile
                ));
            }
            switch_expected += 1;
            if node.deliver {
                let arr = t_send + node.depth + 2;
                if !arrivals.iter().any(|&(t, c)| t == node.tile && c == arr) {
                    return Err(format!(
                        "value of node {v}: no receive on tile {:?} at arrival cycle {arr}",
                        node.tile
                    ));
                }
            }
        }
    }
    // ---- Switch lanes: unique slots, and nothing beyond the comm paths.
    let mut switch_total = 0usize;
    for (tile, ops) in sched.switch_ops.iter().enumerate() {
        let mut seen = HashSet::new();
        for (c, ..) in ops {
            if !seen.insert(*c) {
                return Err(format!("tile {tile}: switch slot {c} double-booked"));
            }
        }
        switch_total += ops.len();
    }
    if switch_total != switch_expected {
        return Err(format!(
            "{switch_total} switch ops but comm paths account for {switch_expected}"
        ));
    }
    // ---- Makespan is exactly the last completion.
    let mut last = 0u64;
    for (n, slot) in comp_slot.iter().enumerate() {
        let op_slot = slot.unwrap() + graph.extra_slots[n] as u64;
        last = last.max(op_slot + graph.costs[n] as u64);
    }
    for arrivals in &recvs {
        for &(_, arr) in arrivals {
            last = last.max(arr + 1);
        }
    }
    if sched.makespan != last {
        return Err(format!(
            "makespan {} but last completion is {last}",
            sched.makespan
        ));
    }
    Ok(())
}

/// Exact descendant counts via bitsets over the task DAG, given any
/// topological order `topo` of its tasks.
///
/// A task's reach set holds topological positions, all after its own, in a
/// window of words from its first successor's position to its last
/// descendant's: a task whose descendants sit close by in the order costs
/// words for those alone. A task starts from its successor with the widest
/// window — taking that set over when it is the successor's last reader,
/// copying it otherwise — and ORs in the rest, counting only the bits each
/// OR adds. Only the frontier of the reverse sweep is resident: a reach set
/// goes back to the buffer pool as soon as its last predecessor has read it,
/// and a root's is never kept.
fn descendants(succs: &Adjacency, n_preds: &[usize], topo: &[usize]) -> Vec<u64> {
    #[derive(Default)]
    struct Window {
        /// Word index of `words[0]` among the positions.
        base: usize,
        words: Vec<u64>,
    }
    let n = succs.len();
    let mut pos = vec![0usize; n];
    for (i, &t) in topo.iter().enumerate() {
        pos[t] = i;
    }
    let mut reach: Vec<Window> = (0..n).map(|_| Window::default()).collect();
    let mut pool: Vec<Vec<u64>> = Vec::new();
    let mut unread = n_preds.to_vec();
    let mut counts = vec![0u64; n];
    for &t in topo.iter().rev() {
        let ss = succs.of(t);
        let Some(&widest) = ss.iter().max_by_key(|&&s| reach[s].words.len()) else {
            continue;
        };
        // The union's window: from the first successor to the last descendant.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &s in ss {
            let r = &reach[s];
            lo = lo.min(pos[s] / 64);
            hi = hi.max(pos[s] / 64);
            if !r.words.is_empty() {
                hi = hi.max(r.base + r.words.len() - 1);
            }
        }
        let mut acc = if unread[widest] == 1 {
            std::mem::take(&mut reach[widest])
        } else {
            let mut words = pool.pop().unwrap_or_default();
            words.clear();
            words.extend_from_slice(&reach[widest].words);
            Window {
                base: reach[widest].base,
                words,
            }
        };
        if acc.words.is_empty() {
            acc.base = lo;
        }
        acc.words
            .splice(0..0, std::iter::repeat_n(0, acc.base - lo));
        acc.words.resize(hi - lo + 1, 0);
        acc.base = lo;
        let mut count = counts[widest];
        for &s in ss {
            let p = pos[s] - lo * 64;
            let word = &mut acc.words[p / 64];
            count += (!*word >> (p % 64)) & 1;
            *word |= 1 << (p % 64);
            unread[s] -= 1;
            if s == widest {
                continue;
            }
            let r = &reach[s];
            if !r.words.is_empty() {
                for (a, &b) in acc.words[r.base - lo..].iter_mut().zip(&r.words) {
                    count += u64::from((b & !*a).count_ones());
                    *a |= b;
                }
            }
            if unread[s] == 0 {
                pool.push(std::mem::take(&mut reach[s].words));
            }
        }
        counts[t] = count;
        if n_preds[t] > 0 {
            reach[t] = acc;
        } else {
            pool.push(acc.words);
        }
    }
    counts
}

/// A growable set of busy cycles, one bit per cycle: the per-lane slot table
/// of the list scheduler.
#[derive(Clone, Default)]
struct SlotTable {
    words: Vec<u64>,
}

impl SlotTable {
    fn insert(&mut self, cycle: u64) {
        let w = (cycle / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (cycle % 64);
    }

    /// The free cycles `from .. from + 64` as a word: bit `i` is set iff
    /// cycle `from + i` is free.
    fn free_window(&self, from: u64) -> u64 {
        let w = (from / 64) as usize;
        let shift = from % 64;
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        let busy = if shift == 0 {
            word(w)
        } else {
            word(w) >> shift | word(w + 1) << (64 - shift)
        };
        !busy
    }
}

/// Builds the per-tile switch route pairs of the **branch broadcast**: the
/// condition word travels from the producer tile along a dimension-ordered
/// multicast tree; at every switch it is latched into switch register 0 (for
/// the switch's own branch) and delivered to the processor on every tile other
/// than the producer (whose processor already holds the condition). The linker
/// drops the processor delivery on tiles whose processors skip the branch
/// (see [`crate::link`]).
///
/// Returns one pair list per tile; the producer's list sources from
/// [`SSrc::Proc`]. On a one-tile machine this is never needed.
pub fn broadcast_routes(config: &MachineConfig, producer: TileId) -> Vec<RoutePairs> {
    let n = config.n_tiles() as usize;
    let dsts: Vec<TileId> = config
        .live_tiles()
        .into_iter()
        .filter(|&t| t != producer)
        .collect();
    let tree = MulticastTree::build(config, producer, &dsts);
    let mut routes = vec![RoutePairs::EMPTY; n];
    for node in &tree.nodes {
        let dsts = [SDst::Reg(0)]
            .into_iter()
            .chain(node.deliver.then_some(SDst::Proc));
        let dirs = node.children().iter().map(|&d| SDst::Dir(d));
        routes[node.tile.index()] = dsts.chain(dirs).map(|dst| (node.src, dst)).collect();
    }
    routes
}

/// A dimension-ordered multicast tree rooted at the producer tile. Its
/// buffers are reused from one [`MulticastTree::rebuild`] to the next.
#[derive(Debug, Default)]
struct MulticastTree {
    nodes: Vec<TreeNode>,
    /// Per tile: index of its node in `nodes`, or [`NOT_IN_TREE`].
    slot: Vec<u32>,
    route: Vec<Dir>,
}

const NOT_IN_TREE: u32 = u32::MAX;

#[derive(Debug)]
struct TreeNode {
    tile: TileId,
    /// Hops from the root (root switch has depth 0).
    depth: u64,
    /// Where this switch takes the word from.
    src: SSrc,
    /// Directions to forward to, in first-use order (`children[..n_children]`).
    children: [Dir; 4],
    n_children: u8,
    /// Whether this tile's processor consumes the word.
    deliver: bool,
}

impl TreeNode {
    fn children(&self) -> &[Dir] {
        &self.children[..self.n_children as usize]
    }

    fn pairs(&self) -> RoutePairs {
        let dirs = self.children().iter().map(|&d| SDst::Dir(d));
        let dsts = dirs.chain(self.deliver.then_some(SDst::Proc));
        dsts.map(|dst| (self.src, dst)).collect()
    }
}

/// Deterministic BFS spanning tree over the *live* tiles, rooted at `src`:
/// `parents[t] = (parent, dir from parent to t)`. Paths extracted from one
/// shared tree are prefix-consistent, which the multicast-tree merge relies
/// on. Only used when the machine has faulty tiles — the fault-free case
/// keeps the exact legacy dimension-ordered routes.
fn live_bfs_parents(config: &MachineConfig, src: TileId) -> Vec<Option<(TileId, Dir)>> {
    let n = config.n_tiles() as usize;
    let mut parents: Vec<Option<(TileId, Dir)>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[src.index()] = true;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(t) = queue.pop_front() {
        for dir in Dir::ALL {
            let Some(nb) = config.neighbor(t, dir) else {
                continue;
            };
            if seen[nb.index()] || config.is_faulty(nb) {
                continue;
            }
            seen[nb.index()] = true;
            parents[nb.index()] = Some((t, dir));
            queue.push_back(nb);
        }
    }
    parents
}

impl MulticastTree {
    fn build(config: &MachineConfig, src: TileId, dsts: &[TileId]) -> MulticastTree {
        let mut tree = MulticastTree::default();
        tree.rebuild(config, src, dsts);
        tree
    }

    /// Replaces this tree with the one from `src` to `dsts`.
    fn rebuild(&mut self, config: &MachineConfig, src: TileId, dsts: &[TileId]) {
        let n_tiles = config.n_tiles() as usize;
        for node in self.nodes.drain(..) {
            self.slot[node.tile.index()] = NOT_IN_TREE;
        }
        self.slot.resize(n_tiles, NOT_IN_TREE);
        self.add_node(src, 0, SSrc::Proc);
        // With faulty tiles, dimension-ordered routes may cross a dead
        // switch; route along a shared BFS tree of the live mesh.
        let bfs = (!config.faulty.is_empty()).then(|| live_bfs_parents(config, src));
        let mut route = std::mem::take(&mut self.route);
        for &dst in dsts {
            debug_assert_ne!(dst, src, "local consumers need no communication");
            debug_assert!(!config.is_faulty(dst), "comm path to faulty tile");
            route.clear();
            if let Some(parents) = &bfs {
                let mut cur = dst;
                while cur != src {
                    let (p, d) = parents[cur.index()]
                        .expect("faulty mask must leave the live mesh connected");
                    route.push(d);
                    cur = p;
                }
                route.reverse();
            } else {
                route.extend(config.xy_route(src, dst));
            }
            let mut cur = src;
            let mut cur_idx = 0usize;
            for (k, &dir) in route.iter().enumerate() {
                let next = config.neighbor(cur, dir).expect("route stays on mesh");
                let node = &mut self.nodes[cur_idx];
                if !node.children().contains(&dir) {
                    node.children[node.n_children as usize] = dir;
                    node.n_children += 1;
                }
                cur_idx = match self.slot[next.index()] {
                    NOT_IN_TREE => self.add_node(next, (k + 1) as u64, SSrc::Dir(dir.opposite())),
                    i => i as usize,
                };
                cur = next;
            }
            self.nodes[cur_idx].deliver = true;
        }
        self.route = route;
    }

    fn add_node(&mut self, tile: TileId, depth: u64, src: SSrc) -> usize {
        self.slot[tile.index()] = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            tile,
            depth,
            src,
            children: [Dir::North; 4],
            n_children: 0,
            deliver: false,
        });
        self.nodes.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;
    use raw_ir::builder::ProgramBuilder;

    fn schedule_for(
        n_tiles: u32,
        build: impl FnOnce(&mut ProgramBuilder),
    ) -> (TaskGraph, Partition, BlockSchedule) {
        let mut b = ProgramBuilder::new("t");
        build(&mut b);
        b.halt();
        let p = b.finish().unwrap();
        let config = MachineConfig::square(n_tiles);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        let options = CompilerOptions::default();
        let part = crate::partition::partition(&g, &config, &options);
        let sched = schedule(&g, &part, &config, &options);
        (g, part, sched)
    }

    #[test]
    fn single_tile_schedule_is_sequential() {
        let (g, _, s) = schedule_for(1, |b| {
            let x = b.const_i32(1);
            let y = b.add(x, x);
            let _ = b.mul(y, y);
        });
        assert_eq!(s.proc_ops[0].len(), g.len());
        assert_eq!(s.n_comm_paths, 0);
        // Times strictly increase and respect latencies: add (issue≥1 after
        // const ready at 1), mul after add result.
        let times: Vec<u64> = s.proc_ops[0].iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn remote_consumer_gets_send_route_recv() {
        // Pin a var to tile 1; compute on tile 0 feeds the WriteVar on tile 1.
        let (g, part, s) = schedule_for(2, |b| {
            let v0 = b.var_i32("a", 0); // home tile 0
            let v1 = b.var_i32("bvar", 0); // home tile 1
            let r = b.read_var(v0);
            let sum = b.add(r, r);
            b.write_var(v1, sum);
        });
        let _ = g;
        // There must be at least one comm path (tile0 → tile1).
        assert!(s.n_comm_paths >= 1, "partition: {:?}", part.assignment);
        let sends = s.proc_ops[0]
            .iter()
            .filter(|(_, op)| matches!(op, TileOp::Send(_)))
            .count();
        let recvs = s.proc_ops[1]
            .iter()
            .filter(|(_, op)| matches!(op, TileOp::Recv(_)))
            .count();
        assert!(sends >= 1);
        assert!(recvs >= 1);
        // Both switches carry a route.
        assert!(!s.switch_ops[0].is_empty());
        assert!(!s.switch_ops[1].is_empty());
    }

    #[test]
    fn comm_path_timing_is_contiguous() {
        let (_, _, s) = schedule_for(2, |b| {
            let v0 = b.var_i32("a", 1);
            let v1 = b.var_i32("bvar", 0);
            let r = b.read_var(v0);
            b.write_var(v1, r);
        });
        // Find the send time on tile 0 and recv time on tile 1.
        let t_send = s.proc_ops[0]
            .iter()
            .find(|(_, op)| matches!(op, TileOp::Send(_)))
            .unwrap()
            .0;
        let t_recv = s.proc_ops[1]
            .iter()
            .find(|(_, op)| matches!(op, TileOp::Recv(_)))
            .unwrap()
            .0;
        // Figure 4: neighbour message, recv exactly 3 cycles after send.
        assert_eq!(t_recv, t_send + 3);
        let t_route0 = s.switch_ops[0][0].0;
        let t_route1 = s.switch_ops[1][0].0;
        assert_eq!(t_route0, t_send + 1);
        assert_eq!(t_route1, t_send + 2);
    }

    #[test]
    fn multicast_tree_merges_prefixes() {
        let config = MachineConfig::grid(1, 4);
        let tree = MulticastTree::build(
            &config,
            TileId::from_raw(0),
            &[TileId::from_raw(2), TileId::from_raw(3)],
        );
        // Tiles 0,1,2,3 each appear once; tile 1 forwards only; 2 delivers and
        // forwards; 3 delivers.
        assert_eq!(tree.nodes.len(), 4);
        let node2 = tree.nodes.iter().find(|n| n.tile.index() == 2).unwrap();
        assert!(node2.deliver);
        assert_eq!(node2.children(), [Dir::East]);
        let node3 = tree.nodes.iter().find(|n| n.tile.index() == 3).unwrap();
        assert!(node3.deliver);
        assert!(node3.children().is_empty());
        assert_eq!(node3.depth, 3);
    }

    #[test]
    fn masked_multicast_tree_avoids_faulty_switches() {
        use raw_machine::TileMask;
        // 1x4 row with tile 1 dead: the route 0→2 must leave the mesh... it
        // cannot on a 1-D row, so use a 2x4 grid where BFS can detour.
        let base = MachineConfig::grid(2, 4);
        let config = base.with_faulty(TileMask::of(&[TileId::from_raw(1)]));
        assert!(config.live_connected());
        let tree = MulticastTree::build(
            &config,
            TileId::from_raw(0),
            &[TileId::from_raw(2), TileId::from_raw(3)],
        );
        for node in &tree.nodes {
            assert!(
                !config.is_faulty(node.tile),
                "tree visits faulty tile {:?}",
                node.tile
            );
        }
        for want in [2u32, 3] {
            let node = tree
                .nodes
                .iter()
                .find(|n| n.tile.index() == want as usize)
                .unwrap();
            assert!(node.deliver);
        }
        // Broadcast skips faulty tiles entirely: no route pairs on tile 1.
        let routes = broadcast_routes(&config, TileId::from_raw(0));
        assert!(routes[1].is_empty());
        assert!(routes.iter().enumerate().all(|(t, pairs)| {
            config.is_faulty(TileId::from_raw(t as u32)) == pairs.is_empty()
        }));
    }

    #[test]
    fn no_double_booked_slots() {
        let (_, _, s) = schedule_for(4, |b| {
            // Lots of values crossing tiles via pinned variables.
            let vars: Vec<_> = (0..8).map(|i| b.var_i32(format!("v{i}"), i)).collect();
            let reads: Vec<_> = vars.iter().map(|&v| b.read_var(v)).collect();
            let mut acc = reads[0];
            for &r in &reads[1..] {
                acc = b.add(acc, r);
            }
            for &v in &vars {
                b.write_var(v, acc);
            }
        });
        for tile_ops in &s.proc_ops {
            let mut seen = HashSet::new();
            for (t, _) in tile_ops {
                assert!(seen.insert(*t), "processor slot {t} double-booked");
            }
        }
        for tile_ops in &s.switch_ops {
            let mut seen = HashSet::new();
            for (t, ..) in tile_ops {
                assert!(seen.insert(*t), "switch slot {t} double-booked");
            }
        }
    }

    #[test]
    fn descendant_counts_are_exact() {
        // 0 → 1 → 2, 0 → 2.
        let succs = Adjacency::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let d = descendants(&succs, &[0, 1, 2], &[0, 1, 2]);
        assert_eq!(d, vec![2, 1, 0]);
    }

    /// The first start `t >= t0` with every lane free at `t + offset`, one
    /// candidate at a time.
    fn brute_force_start(model: &[HashSet<u64>], lanes: &[(usize, u64)], t0: u64) -> u64 {
        (t0..)
            .find(|&t| lanes.iter().all(|&(l, off)| !model[l].contains(&(t + off))))
            .expect("a finite busy set leaves a free start")
    }

    raw_testkit::proptest! {
        #![cases(64)]
        /// The free-slot window answers like a `HashSet<u64>` model, across
        /// word boundaries and from beyond its last word.
        #[test]
        fn slot_table_matches_hash_set_model(
            inserts in raw_testkit::prop::vec(0u64..300, 0..120),
            probes in raw_testkit::prop::vec(0u64..400, 1..40),
        ) {
            let mut table = SlotTable::default();
            let mut model = HashSet::new();
            for &c in inserts.iter().chain(&[63, 64]) {
                table.insert(c);
                model.insert(c);
            }
            for &from in probes.iter().chain(&[62, 63, 64, 65, 1000]) {
                let window = table.free_window(from);
                for i in 0..64 {
                    let free = window >> i & 1 == 1;
                    raw_testkit::prop_assert_eq!(free, !model.contains(&(from + i)), "from {} + {}", from, i);
                }
            }
        }

        /// The word-parallel start search returns the minimal feasible start a
        /// cycle-by-cycle scan finds: random busy tables, each with a busy run
        /// long enough to push the answer several words out, lanes offset on
        /// both sides of a word boundary (a tree depth `d` puts a switch at
        /// `1 + d` and a receive at `d + 2`), and the `1 + extra` slot runs of
        /// a computation.
        #[test]
        fn earliest_start_matches_brute_force_scan(
            busy in raw_testkit::prop::vec(raw_testkit::prop::vec(0u64..400, 0..150), 1..5),
            runs in raw_testkit::prop::vec((0u64..300, 0u64..200), 5..6),
            lanes in raw_testkit::prop::vec((0usize..5, 0usize..9), 1..7),
            t0 in 0u64..300,
            extra in 0u64..3,
        ) {
            const OFFSETS: [u64; 9] = [0, 1, 2, 63, 64, 65, 66, 67, 130];
            let mut tables = vec![SlotTable::default(); busy.len()];
            let mut model = vec![HashSet::new(); busy.len()];
            for (l, cycles) in busy.iter().enumerate() {
                let (at, len) = runs[l];
                for c in cycles.iter().copied().chain(at..at + len) {
                    tables[l].insert(c);
                    model[l].insert(c);
                }
            }
            let lanes: Vec<(usize, u64)> = lanes
                .iter()
                .map(|&(l, o)| (l % busy.len(), OFFSETS[o]))
                .collect();
            let got = earliest_start(t0, || lanes.iter().map(|&(l, off)| (&tables[l], off)));
            raw_testkit::prop_assert_eq!(got, brute_force_start(&model, &lanes, t0));
            let run: Vec<(usize, u64)> = (0..=extra).map(|k| (0, k)).collect();
            let got = earliest_start(t0, || run.iter().map(|&(l, off)| (&tables[l], off)));
            raw_testkit::prop_assert_eq!(got, brute_force_start(&model, &run, t0), "extra {}", extra);
        }

        /// Windowed reach sets count exactly what a depth-first walk of each
        /// task's descendants finds: random DAGs with many roots, plus one
        /// hub fanning out to up to 150 later tasks, with task ids shuffled
        /// away from the order the DAG was drawn in and a depth-first
        /// topological order that is neither.
        #[test]
        fn descendants_match_naive_reachability(
            n in 1usize..150,
            edges in raw_testkit::prop::vec((0usize..150, 0usize..150), 0..400),
            hub in 0usize..150,
            fan in 0usize..150,
            keys in raw_testkit::prop::vec(0u64..1_000_000, 150..151),
        ) {
            // id[p]: the task drawn at position p; every edge runs from a lower
            // position to a higher one, so the graph is a DAG.
            let mut id: Vec<usize> = (0..n).collect();
            id.sort_by_key(|&p| (keys[p], p));
            let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut add = |a: usize, b: usize| {
                if a < b && !lists[id[a]].contains(&id[b]) {
                    lists[id[a]].push(id[b]);
                }
            };
            for (a, b) in edges {
                add(a % n, b % n);
            }
            let hub = hub % n;
            for b in hub + 1..(hub + 1 + fan).min(n) {
                add(hub, b);
            }
            let pairs: Vec<(usize, usize)> = lists
                .iter()
                .enumerate()
                .flat_map(|(a, ss)| ss.iter().map(move |&b| (a, b)))
                .collect();
            let succs = Adjacency::from_edges(n, &pairs);
            let mut n_preds = vec![0usize; n];
            for &(_, b) in &pairs {
                n_preds[b] += 1;
            }
            let mut remaining = n_preds.clone();
            let mut stack: Vec<usize> = (0..n).filter(|&t| n_preds[t] == 0).collect();
            let mut topo = Vec::with_capacity(n);
            while let Some(t) = stack.pop() {
                topo.push(t);
                for &s in succs.of(t) {
                    remaining[s] -= 1;
                    if remaining[s] == 0 {
                        stack.push(s);
                    }
                }
            }
            raw_testkit::prop_assert_eq!(topo.len(), n);
            let got = descendants(&succs, &n_preds, &topo);
            for (t, &count) in got.iter().enumerate() {
                let mut seen = vec![false; n];
                let mut stack = lists[t].clone();
                while let Some(s) = stack.pop() {
                    if !std::mem::replace(&mut seen[s], true) {
                        stack.extend(&lists[s]);
                    }
                }
                let want = seen.iter().filter(|&&r| r).count() as u64;
                raw_testkit::prop_assert_eq!(count, want, "task {}", t);
            }
        }
    }
}
