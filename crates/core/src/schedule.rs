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
use raw_machine::isa::{Dir, SDst, SSrc};
use raw_machine::{MachineConfig, TileId};
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One slot in a tile processor's schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TileOp {
    /// Execute the block instruction with this task-graph node id.
    Comp(NodeId),
    /// Send a value (register → output port).
    Send(raw_ir::ValueId),
    /// Receive a value (input port → register).
    Recv(raw_ir::ValueId),
}

/// One tile's switch schedule: `(cycle, routed value, route pairs)` in
/// increasing cycle order. The value identifies which communication path the
/// route belongs to (provenance: it resolves to the producing node's source
/// span).
pub type TileSwitchOps = Vec<(u64, raw_ir::ValueId, Vec<(SSrc, SDst)>)>;

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

    /// The highest predicted processor occupancy across tiles, as a fraction
    /// of the makespan (0.0 for an empty block).
    pub fn peak_occupancy(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let max = self.proc_ops.iter().map(Vec::len).max().unwrap_or(0);
        max as f64 / self.makespan as f64
    }
}

/// The space-time schedule of one basic block.
#[derive(Clone, Debug, Default)]
pub struct BlockSchedule {
    /// Per tile: `(cycle, op)` in increasing cycle order.
    pub proc_ops: Vec<Vec<(u64, TileOp)>>,
    /// Per tile: `(cycle, route pairs)` in increasing cycle order.
    pub switch_ops: Vec<TileSwitchOps>,
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

#[derive(Clone, Debug)]
enum Task {
    Comp(NodeId),
    Comm {
        value: raw_ir::ValueId,
        src: TileId,
        dsts: Vec<TileId>,
    },
}

/// Bound on how far the scheduler searches for a feasible path start time.
const SEARCH_LIMIT: u64 = 1 << 20;

/// Schedules one partitioned block.
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

    // ---- Build the task list: one Comp per node, one Comm per value with
    // remote consumers.
    let mut tasks: Vec<Task> = (0..graph.len()).map(Task::Comp).collect();
    // comm_of[node] = task id of the node's outgoing comm path (dense vector,
    // `usize::MAX` = none — node ids index it directly on the hot path).
    const NO_COMM: usize = usize::MAX;
    let mut comm_of: Vec<usize> = vec![NO_COMM; graph.len()];
    for (n, slot) in comm_of.iter_mut().enumerate() {
        let Some(v) = graph.insts[n].dst else {
            continue;
        };
        let src = partition.assignment[n];
        let mut dsts: Vec<TileId> = graph.succs[n]
            .iter()
            .filter(|&&(_, k)| k == EdgeKind::Data)
            .map(|&(s, _)| partition.assignment[s])
            .filter(|&t| t != src)
            .collect();
        dsts.sort();
        dsts.dedup();
        if !dsts.is_empty() {
            tasks.push(Task::Comm {
                value: v,
                src,
                dsts,
            });
            *slot = tasks.len() - 1;
        }
    }
    out.n_comm_paths = tasks.len() - graph.len();

    // ---- Task dependency edges.
    let n_tasks = tasks.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n_tasks];
    let mut n_preds: Vec<usize> = vec![0; n_tasks];
    let add_dep =
        |from: usize, to: usize, succs: &mut Vec<Vec<usize>>, n_preds: &mut Vec<usize>| {
            if !succs[from].contains(&to) {
                succs[from].push(to);
                n_preds[to] += 1;
            }
        };
    for n in 0..graph.len() {
        if comm_of[n] != NO_COMM {
            add_dep(n, comm_of[n], &mut succs, &mut n_preds);
        }
        for &(p, kind) in &graph.preds[n] {
            match kind {
                EdgeKind::Order => add_dep(p, n, &mut succs, &mut n_preds),
                EdgeKind::Data => {
                    if partition.assignment[p] == partition.assignment[n] {
                        add_dep(p, n, &mut succs, &mut n_preds);
                    } else {
                        let c = comm_of[p];
                        debug_assert_ne!(c, NO_COMM, "remote data edge must have a comm path");
                        add_dep(c, n, &mut succs, &mut n_preds);
                    }
                }
            }
        }
    }

    // ---- Priorities: level + fertility over the task DAG.
    let weight = |t: &Task| -> u64 {
        match t {
            Task::Comp(n) => graph.costs[*n] as u64,
            Task::Comm { src, dsts, .. } => {
                let max_hops = dsts
                    .iter()
                    .map(|&d| config.hops(*src, d))
                    .max()
                    .unwrap_or(0);
                2 + max_hops as u64
            }
        }
    };
    let topo = topo_order(&succs, &n_preds);
    let mut level = vec![0u64; n_tasks];
    for &t in topo.iter().rev() {
        let down = succs[t].iter().map(|&s| level[s]).max().unwrap_or(0);
        level[t] = weight(&tasks[t]) + down;
    }
    let fertility = match options.priority {
        PriorityScheme::LevelFertility => descendants(&succs, &n_preds, &topo),
        PriorityScheme::LevelOnly | PriorityScheme::SourceOrder => vec![0u64; n_tasks],
    };
    let priority = move |t: usize| match options.priority {
        // Source order: constant priority; the deterministic tie-break on the
        // smallest task id makes the ready list issue in program order.
        PriorityScheme::SourceOrder => 0,
        _ => level[t] * 8 + fertility[t],
    };

    // ---- Greedy list scheduling.
    let mut proc_busy: Vec<SlotTable> = vec![SlotTable::default(); n_tiles];
    let mut switch_busy: Vec<SlotTable> = vec![SlotTable::default(); n_tiles];
    // value_ready[tile * n_values + value] = first cycle a consumer on `tile`
    // may issue (dense matrix, `u64::MAX` = not produced there). The event
    // loop reads this once per data predecessor, so it must be an index, not
    // a hash lookup.
    const NOT_READY: u64 = u64::MAX;
    let n_values = graph
        .insts
        .iter()
        .filter_map(|i| i.dst)
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    let mut value_ready: Vec<u64> = vec![NOT_READY; n_tiles * n_values];
    let ready_idx = |tile: TileId, v: raw_ir::ValueId| tile.index() * n_values + v.index();
    let mut issue: Vec<u64> = vec![0; n_tasks];
    let mut remaining = n_preds.clone();
    let mut heap: BinaryHeap<(u64, std::cmp::Reverse<usize>)> = (0..n_tasks)
        .filter(|&t| remaining[t] == 0)
        .map(|t| (priority(t), std::cmp::Reverse(t)))
        .collect();
    let mut scheduled = 0usize;

    while let Some((_, std::cmp::Reverse(tid))) = heap.pop() {
        scheduled += 1;
        match &tasks[tid] {
            &Task::Comp(n) => {
                let tile = partition.assignment[n];
                let mut t0 = 0u64;
                for &(p, kind) in &graph.preds[n] {
                    match kind {
                        EdgeKind::Order => t0 = t0.max(issue[p] + 1),
                        EdgeKind::Data => {
                            let v = graph.insts[p].dst.expect("data edge has a value");
                            let ready = value_ready[ready_idx(tile, v)];
                            debug_assert_ne!(ready, NOT_READY, "consumer before producer");
                            t0 = t0.max(ready);
                        }
                    }
                }
                // Instruction selection may prepend address arithmetic: find a
                // run of `1 + extra` consecutive free slots, with the memory
                // operation itself in the last one.
                let extra = graph.extra_slots[n] as u64;
                let busy = &mut proc_busy[tile.index()];
                let mut t = t0;
                loop {
                    t = busy.first_free(t);
                    if (1..=extra).all(|k| !busy.contains(t + k)) {
                        break;
                    }
                    t += 1;
                }
                for k in 0..=extra {
                    busy.insert(t + k);
                }
                let op_slot = t + extra;
                out.proc_ops[tile.index()].push((t, TileOp::Comp(n)));
                issue[tid] = op_slot;
                if let Some(v) = graph.insts[n].dst {
                    value_ready[ready_idx(tile, v)] = op_slot + graph.costs[n] as u64;
                }
                out.makespan = out.makespan.max(op_slot + graph.costs[n] as u64);
            }
            Task::Comm { value, src, dsts } => {
                let (value, src) = (*value, *src);
                let tree = MulticastTree::build(config, src, dsts);
                let t0 = value_ready[ready_idx(src, value)];
                debug_assert_ne!(t0, NOT_READY, "comm path before producer");
                // The earliest start with every slot free. A busy slot rules
                // out every start that would still land on it, so the search
                // jumps to the first start that moves it onto a free one.
                let mut t = t0;
                'search: loop {
                    // Send slot.
                    let free = proc_busy[src.index()].first_free(t);
                    if free != t {
                        t = free;
                        continue;
                    }
                    // Switch slots along the tree.
                    for node in &tree.nodes {
                        let cycle = t + 1 + node.depth;
                        let free = switch_busy[node.tile.index()].first_free(cycle);
                        if free != cycle {
                            t += free - cycle;
                            continue 'search;
                        }
                    }
                    // Receive slots at exact arrival cycles.
                    for node in tree.nodes.iter().filter(|n| n.deliver) {
                        let arr = t + node.depth + 2;
                        let free = proc_busy[node.tile.index()].first_free(arr);
                        if free != arr {
                            t += free - arr;
                            continue 'search;
                        }
                    }
                    break;
                }
                assert!(
                    t - t0 < SEARCH_LIMIT,
                    "no feasible slot for comm path of {value}"
                );
                // Reserve everything.
                proc_busy[src.index()].insert(t);
                out.proc_ops[src.index()].push((t, TileOp::Send(value)));
                for node in &tree.nodes {
                    let cycle = t + 1 + node.depth;
                    switch_busy[node.tile.index()].insert(cycle);
                    out.switch_ops[node.tile.index()].push((cycle, value, node.pairs()));
                    if node.deliver {
                        let arr = t + node.depth + 2;
                        proc_busy[node.tile.index()].insert(arr);
                        out.proc_ops[node.tile.index()].push((arr, TileOp::Recv(value)));
                        value_ready[ready_idx(node.tile, value)] = arr + 1;
                        out.makespan = out.makespan.max(arr + 1);
                    }
                }
                issue[tid] = t;
            }
        }
        for &s in &succs[tid] {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                heap.push((priority(s), std::cmp::Reverse(s)));
            }
        }
    }
    assert_eq!(
        scheduled, n_tasks,
        "task DAG must be acyclic and connected to roots"
    );

    for ops in &mut out.proc_ops {
        ops.sort_by_key(|(t, _)| *t);
    }
    for ops in &mut out.switch_ops {
        ops.sort_by_key(|(t, ..)| *t);
    }
    out
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
    let mut sends: HashMap<raw_ir::ValueId, u64> = HashMap::new();
    let mut recvs: HashMap<raw_ir::ValueId, Vec<(TileId, u64)>> = HashMap::new();
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
                    if sends.insert(*v, *t).is_some() {
                        return Err(format!("{v} sent twice"));
                    }
                    reserve(*t, *t)?;
                }
                TileOp::Recv(v) => {
                    recvs
                        .entry(*v)
                        .or_default()
                        .push((TileId::from_raw(tile as u32), *t));
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
    let mut ready: HashMap<(usize, raw_ir::ValueId), u64> = HashMap::new();
    for (n, slot) in comp_slot.iter().enumerate() {
        if let Some(v) = graph.insts[n].dst {
            let tile = partition.assignment[n].index();
            let op_slot = slot.unwrap() + graph.extra_slots[n] as u64;
            ready.insert((tile, v), op_slot + graph.costs[n] as u64);
        }
    }
    for (v, arrivals) in &recvs {
        for &(tile, arr) in arrivals {
            ready.insert((tile.index(), *v), arr + 1);
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
                EdgeKind::Data => {
                    let v = graph.insts[p].dst.expect("data edge has a value");
                    match ready.get(&(tile, v)) {
                        None => {
                            return Err(format!("node {n} consumes {v} never made ready"));
                        }
                        Some(&r) if r > t_n => {
                            return Err(format!(
                                "node {n} issues at {t_n} before {v} ready at {r}"
                            ));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    // ---- Communication paths: rebuild each value's multicast tree and check
    // the exact contiguous reservation the scheduler claims to have made.
    let mut switch_expected = 0usize;
    // Each lane's `(cycle, value)` routes, sorted for binary search: the same
    // answer as scanning the lane, whatever order the schedule under audit
    // left it in.
    let routed: Vec<Vec<(u64, raw_ir::ValueId)>> = sched
        .switch_ops
        .iter()
        .map(|lane| {
            let mut keys: Vec<_> = lane.iter().map(|(c, v, _)| (*c, *v)).collect();
            keys.sort_unstable();
            keys
        })
        .collect();
    for (v, arrivals) in &recvs {
        let producer = *graph.def_of.get(v).ok_or(format!("{v} has no producer"))?;
        let src = partition.assignment[producer];
        let Some(&t_send) = sends.get(v) else {
            return Err(format!("{v} received but never sent"));
        };
        if ready.get(&(src.index(), *v)).is_none_or(|&r| r > t_send) {
            return Err(format!("{v} sent at {t_send} before it is produced"));
        }
        let mut dsts: Vec<TileId> = arrivals.iter().map(|&(t, _)| t).collect();
        dsts.sort();
        dsts.dedup();
        let tree = MulticastTree::build(config, src, &dsts);
        for node in &tree.nodes {
            let cycle = t_send + 1 + node.depth;
            if routed[node.tile.index()]
                .binary_search(&(cycle, *v))
                .is_err()
            {
                return Err(format!(
                    "{v}: no route on switch {:?} at cycle {cycle}",
                    node.tile
                ));
            }
            switch_expected += 1;
            if node.deliver {
                let arr = t_send + node.depth + 2;
                if !arrivals.iter().any(|&(t, c)| t == node.tile && c == arr) {
                    return Err(format!(
                        "{v}: no receive on tile {:?} at arrival cycle {arr}",
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
    for arrivals in recvs.values() {
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

fn topo_order(succs: &[Vec<usize>], n_preds: &[usize]) -> Vec<usize> {
    let mut remaining = n_preds.to_vec();
    let mut stack: Vec<usize> = (0..succs.len()).filter(|&t| remaining[t] == 0).collect();
    let mut order = Vec::with_capacity(succs.len());
    while let Some(t) = stack.pop() {
        order.push(t);
        for &s in &succs[t] {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                stack.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), succs.len());
    order
}

/// Exact descendant counts via bitsets over the task DAG.
///
/// Only the frontier of the reverse topological sweep is resident: a task's
/// reach set is dropped as soon as its last predecessor has ORed it in, and a
/// root's is never kept.
fn descendants(succs: &[Vec<usize>], n_preds: &[usize], topo: &[usize]) -> Vec<u64> {
    let n = succs.len();
    let words = n.div_ceil(64);
    let mut reach: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut unread = n_preds.to_vec();
    let mut counts = vec![0u64; n];
    for &t in topo.iter().rev() {
        // Union of successors' reach sets plus the successors themselves.
        let mut acc = vec![0u64; words];
        for &s in &succs[t] {
            acc[s / 64] |= 1 << (s % 64);
            for (a, b) in acc.iter_mut().zip(&reach[s]) {
                *a |= *b;
            }
            unread[s] -= 1;
            if unread[s] == 0 {
                reach[s] = Vec::new();
            }
        }
        counts[t] = acc.iter().map(|w| w.count_ones() as u64).sum();
        if n_preds[t] > 0 {
            reach[t] = acc;
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
    fn contains(&self, cycle: u64) -> bool {
        self.words
            .get((cycle / 64) as usize)
            .is_some_and(|w| w >> (cycle % 64) & 1 != 0)
    }

    fn insert(&mut self, cycle: u64) {
        let w = (cycle / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (cycle % 64);
    }

    /// The first free cycle at or after `from`.
    fn first_free(&self, from: u64) -> u64 {
        let mut w = (from / 64) as usize;
        let mut free = !self.words.get(w).copied().unwrap_or(0) & (!0u64 << (from % 64));
        while free == 0 {
            w += 1;
            free = !self.words.get(w).copied().unwrap_or(0);
        }
        w as u64 * 64 + u64::from(free.trailing_zeros())
    }
}

/// Builds the per-tile switch route pairs of the **branch broadcast**: the
/// condition word travels from the producer tile along a dimension-ordered
/// multicast tree; at every switch it is latched into switch register 0 (for
/// the switch's own branch) and delivered to the processor on every tile other
/// than the producer (whose processor already holds the condition).
///
/// Returns one pair list per tile; the producer's list sources from
/// [`SSrc::Proc`]. On a one-tile machine this is never needed.
pub fn broadcast_routes(config: &MachineConfig, producer: TileId) -> Vec<Vec<(SSrc, SDst)>> {
    let n = config.n_tiles() as usize;
    let dsts: Vec<TileId> = config
        .live_tiles()
        .into_iter()
        .filter(|&t| t != producer)
        .collect();
    let tree = MulticastTree::build(config, producer, &dsts);
    let mut routes = vec![Vec::new(); n];
    for node in &tree.nodes {
        let mut pairs: Vec<(SSrc, SDst)> = vec![(node.src, SDst::Reg(0))];
        if node.deliver {
            pairs.push((node.src, SDst::Proc));
        }
        for &d in &node.children {
            pairs.push((node.src, SDst::Dir(d)));
        }
        routes[node.tile.index()] = pairs;
    }
    routes
}

/// A dimension-ordered multicast tree rooted at the producer tile.
#[derive(Debug)]
struct MulticastTree {
    nodes: Vec<TreeNode>,
}

#[derive(Debug)]
struct TreeNode {
    tile: TileId,
    /// Hops from the root (root switch has depth 0).
    depth: u64,
    /// Where this switch takes the word from.
    src: SSrc,
    /// Directions to forward to.
    children: Vec<Dir>,
    /// Whether this tile's processor consumes the word.
    deliver: bool,
}

impl TreeNode {
    fn pairs(&self) -> Vec<(SSrc, SDst)> {
        let mut pairs: Vec<(SSrc, SDst)> = self
            .children
            .iter()
            .map(|&d| (self.src, SDst::Dir(d)))
            .collect();
        if self.deliver {
            pairs.push((self.src, SDst::Proc));
        }
        pairs
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
        // With faulty tiles, dimension-ordered routes may cross a dead
        // switch; route along a shared BFS tree of the live mesh instead.
        let bfs = if config.faulty.is_empty() {
            None
        } else {
            Some(live_bfs_parents(config, src))
        };
        let route_to = |dst: TileId| -> Vec<Dir> {
            match &bfs {
                None => config.xy_route(src, dst),
                Some(parents) => {
                    let mut path = Vec::new();
                    let mut cur = dst;
                    while cur != src {
                        let (p, d) = parents[cur.index()]
                            .expect("faulty mask must leave the live mesh connected");
                        path.push(d);
                        cur = p;
                    }
                    path.reverse();
                    path
                }
            }
        };
        let mut index: HashMap<u32, usize> = HashMap::new();
        let mut nodes: Vec<TreeNode> = vec![TreeNode {
            tile: src,
            depth: 0,
            src: SSrc::Proc,
            children: Vec::new(),
            deliver: false,
        }];
        index.insert(src.index() as u32, 0);
        for &dst in dsts {
            debug_assert_ne!(dst, src, "local consumers need no communication");
            debug_assert!(!config.is_faulty(dst), "comm path to faulty tile");
            let route = route_to(dst);
            let mut cur = src;
            let mut cur_idx = 0usize;
            for (k, &dir) in route.iter().enumerate() {
                let next = config.neighbor(cur, dir).expect("route stays on mesh");
                if !nodes[cur_idx].children.contains(&dir) {
                    nodes[cur_idx].children.push(dir);
                }
                let next_idx = *index.entry(next.index() as u32).or_insert_with(|| {
                    nodes.push(TreeNode {
                        tile: next,
                        depth: (k + 1) as u64,
                        src: SSrc::Dir(dir.opposite()),
                        children: Vec::new(),
                        deliver: false,
                    });
                    nodes.len() - 1
                });
                cur = next;
                cur_idx = next_idx;
            }
            nodes[cur_idx].deliver = true;
        }
        MulticastTree { nodes }
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
        assert_eq!(node2.children, vec![Dir::East]);
        let node3 = tree.nodes.iter().find(|n| n.tile.index() == 3).unwrap();
        assert!(node3.deliver);
        assert!(node3.children.is_empty());
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
        let succs = vec![vec![1, 2], vec![2], vec![]];
        let n_preds = vec![0, 1, 2];
        let topo = topo_order(&succs, &n_preds);
        let d = descendants(&succs, &n_preds, &topo);
        assert_eq!(d, vec![2, 1, 0]);
    }

    raw_testkit::proptest! {
        #![cases(64)]
        /// The slot bitset answers like a `HashSet<u64>` model, across word
        /// boundaries and from beyond its last word.
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
                raw_testkit::prop_assert_eq!(table.contains(from), model.contains(&from));
                let mut want = from;
                while model.contains(&want) {
                    want += 1;
                }
                raw_testkit::prop_assert_eq!(table.first_free(from), want, "from {}", from);
            }
        }

        /// Reach sets freed at their last predecessor still count exactly
        /// what a depth-first walk of each task's descendants finds.
        #[test]
        fn descendants_match_naive_reachability(
            n in 1usize..150,
            edges in raw_testkit::prop::vec((0usize..150, 0usize..150), 0..400),
        ) {
            // Orient every edge from the lower to the higher id: a DAG.
            let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut n_preds = vec![0usize; n];
            for (a, b) in edges {
                let (a, b) = (a % n, b % n);
                if a < b && !succs[a].contains(&b) {
                    succs[a].push(b);
                    n_preds[b] += 1;
                }
            }
            let topo = topo_order(&succs, &n_preds);
            let got = descendants(&succs, &n_preds, &topo);
            for (t, &count) in got.iter().enumerate() {
                let mut seen = vec![false; n];
                let mut stack = succs[t].clone();
                while let Some(s) = stack.pop() {
                    if !std::mem::replace(&mut seen[s], true) {
                        stack.extend(&succs[s]);
                    }
                }
                let want = seen.iter().filter(|&&r| r).count() as u64;
                raw_testkit::prop_assert_eq!(count, want, "task {}", t);
            }
        }
    }
}
