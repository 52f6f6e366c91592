//! The per-basic-block task graph (paper §3.3 "task graph builder").
//!
//! Nodes are three-operand instructions labelled with their estimated cost;
//! edges are either **data** edges (one word must flow from producer to
//! consumer — across the static network if they land on different tiles) or
//! **order** edges (memory/variable serialization with no value transfer).
//!
//! A constant is an operand, not a task: a `Const` instruction becomes no
//! node, and every use reads it as an immediate ([`Operand::Imm`]). It
//! costs nothing to rematerialize, so it is never placed, scheduled, routed
//! or emitted, and no data edge leaves it. Node `i` is the block's `i`-th
//! task instruction ([`is_task`]), which is how provenance records number
//! them.
//!
//! Every source operand is resolved from its [`ValueId`] to a node or an
//! immediate once, here ([`TaskGraph::operands`]): the phases after this one
//! index their per-value tables by node id and never look a value up again.
//!
//! Order edges are constructed so that both endpoints are always *pinned to
//! the same tile* (same variable home, same element-residue home, or the same
//! dynamic-array issue tile), which means serialization never requires
//! cross-tile synchronization — the property that makes the conservative
//! dependence handling of paper §5.1 sound in a distributed schedule.

use crate::layout::{ArrayClass, DataLayout};
use raw_ir::{Block, Imm, Inst, InstKind, MemHome, ValueId};
use raw_machine::{MachineConfig, TileId};
use std::collections::HashMap;

/// Index of a node (instruction) within a block's task graph.
pub type NodeId = usize;

/// Kind of a task-graph edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// One word flows from producer to consumer.
    Data,
    /// Serialization only; endpoints are guaranteed co-located.
    Order,
}

/// A node's source operand, resolved once when the graph is built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// The value this node of the block computes.
    Node(NodeId),
    /// A block-local constant, read as an immediate.
    Imm(Imm),
}

/// The task graph of one basic block.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// The block's task instructions, in program order (node `i` is
    /// `insts[i]`).
    pub insts: Vec<Inst>,
    /// Estimated execution cost per node (paper: node labels).
    pub costs: Vec<u32>,
    /// Successor adjacency: `(succ, kind)`.
    pub succs: Vec<Vec<(NodeId, EdgeKind)>>,
    /// Predecessor adjacency: `(pred, kind)`.
    pub preds: Vec<Vec<(NodeId, EdgeKind)>>,
    /// Tile pin per node (`None` = free to place anywhere).
    pub pins: Vec<Option<TileId>>,
    /// Extra issue slots the node needs beyond its own instruction (address
    /// arithmetic emitted by instruction selection for memory accesses).
    pub extra_slots: Vec<u32>,
    /// Source operands per node, in [`Inst::sources`] order.
    pub operands: Vec<[Option<Operand>; 2]>,
    /// Defining node of each block-local value a task computes.
    pub def_of: HashMap<ValueId, NodeId>,
}

/// True unless `inst` is a constant: the block instructions that become
/// task-graph nodes.
pub fn is_task(inst: &Inst) -> bool {
    !matches!(inst.kind, InstKind::Const(_))
}

impl TaskGraph {
    /// Builds the task graph for `block`.
    ///
    /// # Panics
    ///
    /// Panics if a value is used before its definition in the block, which
    /// [`raw_ir::verify`] rejects.
    pub fn build(block: &Block, layout: &DataLayout, config: &MachineConfig) -> TaskGraph {
        let insts: Vec<Inst> = block.insts.iter().filter(|i| is_task(i)).cloned().collect();
        let n = insts.len();
        let mut g = TaskGraph {
            insts: Vec::new(),
            costs: Vec::with_capacity(n),
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            pins: vec![None; n],
            extra_slots: vec![0; n],
            operands: Vec::with_capacity(n),
            def_of: HashMap::with_capacity(n),
        };

        // The one ValueId lookup per source: program order meets every
        // definition before its uses, constants included.
        let mut operand_of: HashMap<ValueId, Operand> = HashMap::with_capacity(block.insts.len());
        for inst in &block.insts {
            let Some(dst) = inst.dst else {
                if is_task(inst) {
                    g.operands.push(resolve(inst, &operand_of));
                }
                continue;
            };
            if let InstKind::Const(imm) = inst.kind {
                operand_of.insert(dst, Operand::Imm(imm));
            } else {
                g.operands.push(resolve(inst, &operand_of));
                let node = g.operands.len() - 1;
                operand_of.insert(dst, Operand::Node(node));
                g.def_of.insert(dst, node);
            }
        }

        // Costs, pins, and instruction-selection slot counts.
        for (i, inst) in insts.iter().enumerate() {
            g.costs.push(estimate_cost(inst, layout, config));
            g.pins[i] = pin_of(inst, layout);
            g.extra_slots[i] = extra_slots_of(inst, layout, &g.operands[i]);
        }

        // Edges are added in three passes over the targets (data, variable,
        // memory); `marked[from] == to` records an edge already present, so
        // a pass re-marks a target's predecessors before adding to it.
        let mut marked = vec![usize::MAX; n];

        // Data edges (def → use within the block). A constant operand has no
        // defining node, so it adds none.
        for i in 0..n {
            for d in g.operands[i].into_iter().flatten() {
                if let Operand::Node(d) = d {
                    g.add_edge(&mut marked, d, i, EdgeKind::Data);
                }
            }
        }

        // Variable serialization: every ReadVar(v) precedes the WriteVar(v).
        let mut reads_of: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for (i, inst) in insts.iter().enumerate() {
            match inst.kind {
                InstKind::ReadVar(v) => reads_of.entry(v.index() as u32).or_default().push(i),
                InstKind::WriteVar(v, _) => {
                    if let Some(reads) = reads_of.get(&(v.index() as u32)) {
                        g.mark_preds(&mut marked, i);
                        for &r in reads {
                            g.add_edge(&mut marked, r, i, EdgeKind::Order);
                        }
                    }
                }
                _ => {}
            }
        }

        // Memory serialization.
        g.add_memory_order_edges(&insts, layout, &mut marked);
        g.insts = insts;
        g
    }

    /// Sets `marked[p] = to` for every current predecessor `p` of `to`.
    fn mark_preds(&self, marked: &mut [usize], to: NodeId) {
        for &(p, _) in &self.preds[to] {
            marked[p] = to;
        }
    }

    /// Adds `from → to` unless an edge joins them already (the first kind
    /// wins). `marked` must cover every predecessor of `to` (see
    /// [`TaskGraph::mark_preds`]).
    fn add_edge(&mut self, marked: &mut [usize], from: NodeId, to: NodeId, kind: EdgeKind) {
        if from == to || marked[from] == to {
            return;
        }
        marked[from] = to;
        self.succs[from].push((to, kind));
        self.preds[to].push((from, kind));
    }

    fn add_memory_order_edges(
        &mut self,
        insts: &[Inst],
        layout: &DataLayout,
        marked: &mut [usize],
    ) {
        // Static arrays: dependences exist only between references with the
        // same home residue (references to different residues touch different
        // elements). Within a residue group, apply load/store ordering.
        // Dynamic arrays: chain every reference in program order.
        #[derive(Default)]
        struct Group {
            last_store: Option<NodeId>,
            loads_since: Vec<NodeId>,
        }
        let mut static_groups: HashMap<(u32, u32), Group> = HashMap::new();
        let mut dyn_last: HashMap<u32, NodeId> = HashMap::new();

        for (i, inst) in insts.iter().enumerate() {
            let (array, home, is_store) = match inst.kind {
                InstKind::Load { array, home, .. } => (array, home, false),
                InstKind::Store { array, home, .. } => (array, home, true),
                _ => continue,
            };
            self.mark_preds(marked, i);
            match layout.class(array) {
                ArrayClass::Dynamic { .. } => {
                    let key = array.index() as u32;
                    if let Some(&prev) = dyn_last.get(&key) {
                        self.add_edge(marked, prev, i, EdgeKind::Order);
                    }
                    dyn_last.insert(key, i);
                }
                ArrayClass::Static => {
                    let residue = match home {
                        MemHome::Static(r) => r % layout.n_tiles,
                        MemHome::Dynamic => unreachable!("static array with dynamic ref"),
                    };
                    let group = static_groups
                        .entry((array.index() as u32, residue))
                        .or_default();
                    if is_store {
                        if let Some(s) = group.last_store {
                            self.add_edge(marked, s, i, EdgeKind::Order);
                        }
                        for &l in &group.loads_since {
                            self.add_edge(marked, l, i, EdgeKind::Order);
                        }
                        group.last_store = Some(i);
                        group.loads_since.clear();
                    } else {
                        if let Some(s) = group.last_store {
                            self.add_edge(marked, s, i, EdgeKind::Order);
                        }
                        group.loads_since.push(i);
                    }
                }
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Nodes in a topological order (program order is one, since edges only
    /// ever point forward).
    pub fn topo_order(&self) -> impl Iterator<Item = NodeId> {
        0..self.len()
    }

    /// Checks the co-location guarantee: every order edge joins two nodes with
    /// identical pins. Used by debug assertions and tests.
    pub fn order_edges_colocated(&self) -> bool {
        self.succs.iter().enumerate().all(|(from, ss)| {
            ss.iter()
                .filter(|(_, k)| *k == EdgeKind::Order)
                .all(|&(to, _)| self.pins[from].is_some() && self.pins[from] == self.pins[to])
        })
    }
}

/// Estimated cost of an instruction (task-graph node label).
fn estimate_cost(inst: &Inst, layout: &DataLayout, config: &MachineConfig) -> u32 {
    use raw_machine::LatencyModel;
    let dyn_cost = |_array| {
        // Round trip: inject + ~diameter hops each way + handler service.
        let diameter = config.rows + config.cols;
        4 + 2 * config.mem_latency + 2 * diameter
    };
    match &inst.kind {
        InstKind::Load { array, .. } | InstKind::Store { array, .. } => {
            match layout.class(*array) {
                ArrayClass::Dynamic { .. } => dyn_cost(array),
                ArrayClass::Static => {
                    if matches!(inst.kind, InstKind::Load { .. }) {
                        config.mem_latency
                    } else {
                        1
                    }
                }
            }
        }
        _ => match config.latency {
            LatencyModel::Table1 => inst.cost(config.mem_latency),
            LatencyModel::Unit => match inst.kind {
                InstKind::ReadVar(_) => config.mem_latency,
                _ => 1,
            },
        },
    }
}

/// Issue slots instruction selection adds before the operation itself: the
/// interleaved-address shift of a static array reference on a multi-tile
/// machine. An immediate index folds it at compile time, and a dynamic
/// reference carries its array base as an immediate offset.
fn extra_slots_of(inst: &Inst, layout: &DataLayout, operands: &[Option<Operand>; 2]) -> u32 {
    match inst.kind {
        InstKind::Load { array, .. } | InstKind::Store { array, .. } => {
            let static_ref = matches!(layout.class(array), ArrayClass::Static);
            let index_in_reg = matches!(operands[0], Some(Operand::Node(_)));
            u32::from(static_ref && layout.tile_shift() > 0 && index_in_reg)
        }
        _ => 0,
    }
}

/// `inst`'s sources as operands, in [`Inst::sources`] order.
fn resolve(inst: &Inst, operand_of: &HashMap<ValueId, Operand>) -> [Option<Operand>; 2] {
    let mut out = [None; 2];
    for (slot, v) in out.iter_mut().zip(inst.sources()) {
        *slot = Some(
            *operand_of
                .get(&v)
                .expect("a block-local value is defined before its uses"),
        );
    }
    out
}

/// The tile a node must execute on, if constrained.
fn pin_of(inst: &Inst, layout: &DataLayout) -> Option<TileId> {
    match inst.kind {
        InstKind::ReadVar(v) | InstKind::WriteVar(v, _) => Some(layout.var_home(v)),
        InstKind::Load { array, home, .. } | InstKind::Store { array, home, .. } => {
            match layout.class(array) {
                ArrayClass::Dynamic { issue_tile } => Some(issue_tile),
                ArrayClass::Static => match home {
                    // The residue is a slot index; pin to the physical tile
                    // hosting that slot (identity when no tiles are masked).
                    MemHome::Static(r) => Some(layout.element_home(r)),
                    MemHome::Dynamic => unreachable!("static array with dynamic ref"),
                },
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_ir::builder::ProgramBuilder;
    use raw_ir::{BinOp, Program, Ty};

    fn graph_for(build: impl FnOnce(&mut ProgramBuilder), n_tiles: u32) -> (Program, TaskGraph) {
        let mut b = ProgramBuilder::new("t");
        build(&mut b);
        b.halt();
        let p = b.finish().unwrap();
        let config = MachineConfig::square(n_tiles);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        (p, g)
    }

    #[test]
    fn data_edges_follow_dataflow() {
        let mut b = ProgramBuilder::new("t");
        let v = b.var_i32("v", 0);
        let r = b.read_var(v); // node 0
        let x = b.const_i32(1);
        let y = b.const_i32(2);
        let s = b.add(r, x); // node 1
        let _t = b.mul(s, s); // node 2
        b.halt();
        let mut p = b.finish().unwrap();
        // The builder folds an operator over two constants, but a decoded
        // wire program can still carry one: append it by hand.
        let u = ValueId::from_raw(p.value_types.len() as u32);
        p.value_types.push(Ty::I32);
        p.blocks[0]
            .insts
            .push(Inst::new(Some(u), InstKind::Bin(BinOp::Add, x, y))); // node 3
        assert_eq!(raw_ir::verify::verify(&p), Ok(()));
        let config = MachineConfig::square(4);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        // No data edge leaves a constant: it is an immediate, not a node.
        assert!(g.insts.iter().all(is_task));
        assert_eq!(g.len(), 4);
        let (one, two) = (Some(Operand::Imm(Imm::I(1))), Some(Operand::Imm(Imm::I(2))));
        assert_eq!(g.operands[1], [Some(Operand::Node(0)), one]);
        assert_eq!(g.operands[2], [Some(Operand::Node(1)); 2]);
        assert_eq!(g.operands[3], [one, two]);
        assert!(g.preds[3].is_empty(), "two immediates make no edge");
        assert_eq!(g.preds[1], vec![(0, EdgeKind::Data)]);
        // s used twice by node 2, but the edge is recorded once.
        assert_eq!(g.succs[1], vec![(2, EdgeKind::Data)]);
        assert!(g.preds[2].len() == 1);
    }

    #[test]
    fn spread_value_ids_build_the_same_graph() {
        // Ids 1000 apart resolve every operand and definition exactly as
        // consecutive ones.
        let (p, g) = graph_for(
            |b| {
                let v = b.var_i32("v", 0);
                let r = b.read_var(v);
                let one = b.const_i32(1);
                let s = b.add(r, one);
                let t = b.mul(s, r);
                b.write_var(v, t);
            },
            4,
        );
        let spread = |v: ValueId| ValueId::from_raw(v.index() as u32 * 1000);
        let mut block = p.block(p.entry).clone();
        for inst in &mut block.insts {
            inst.dst = inst.dst.map(spread);
            match &mut inst.kind {
                InstKind::Un(_, a) | InstKind::WriteVar(_, a) => *a = spread(*a),
                InstKind::Bin(_, a, b) => (*a, *b) = (spread(*a), spread(*b)),
                _ => {}
            }
        }
        let config = MachineConfig::square(4);
        let spread_g = TaskGraph::build(&block, &DataLayout::build(&p, &config), &config);
        assert_eq!(spread_g.operands, g.operands);
        assert_eq!(spread_g.succs, g.succs);
        for (n, inst) in p
            .block(p.entry)
            .insts
            .iter()
            .filter(|i| is_task(i))
            .enumerate()
        {
            if let Some(v) = inst.dst {
                assert_eq!((g.def_of[&v], spread_g.def_of[&spread(v)]), (n, n));
            }
        }
        assert_eq!(spread_g.def_of.get(&ValueId::from_raw(7)), None);
    }

    #[test]
    fn var_read_write_serialized_and_pinned() {
        let (p, g) = graph_for(
            |b| {
                let v = b.var_i32("v", 0);
                let r = b.read_var(v);
                let one = b.const_i32(1);
                let s = b.add(r, one);
                b.write_var(v, s);
            },
            4,
        );
        let v = p.var_by_name("v").unwrap();
        assert_eq!(v.index(), 0);
        // read (node 0) → write (node 2) order edge.
        assert!(g.succs[0].contains(&(2, EdgeKind::Order)));
        assert_eq!(g.pins[0], Some(TileId::from_raw(0)));
        assert_eq!(g.pins[2], Some(TileId::from_raw(0)));
        assert!(g.order_edges_colocated());
    }

    #[test]
    fn static_memory_same_residue_ordered_distinct_residue_free() {
        let (_, g) = graph_for(
            |b| {
                let a = b.array("A", Ty::I32, &[8]);
                let i0 = b.const_i32(0);
                let i4 = b.const_i32(4);
                let i1 = b.const_i32(1);
                let v = b.const_i32(9);
                b.store(a, i0, 0, v, MemHome::Static(0)); // node 0
                let _l0 = b.load(a, i4, 0, MemHome::Static(0)); // node 1: residue 0 too
                let _l1 = b.load(a, i1, 0, MemHome::Static(1)); // node 2: residue 1
                b.store(a, i0, 0, v, MemHome::Static(0)); // node 3
            },
            4,
        );
        // store(0) → load residue 0.
        assert!(g.succs[0].contains(&(1, EdgeKind::Order)));
        // no edge to the residue-1 load.
        assert!(!g.succs[0].iter().any(|&(s, _)| s == 2));
        // both store(0) and load(0) → second store.
        assert!(g.succs[0].contains(&(3, EdgeKind::Order)));
        assert!(g.succs[1].contains(&(3, EdgeKind::Order)));
        assert!(g.order_edges_colocated());
        // Pins follow residues.
        assert_eq!(g.pins[1], Some(TileId::from_raw(0)));
        assert_eq!(g.pins[2], Some(TileId::from_raw(1)));
        // An immediate index needs no address arithmetic.
        assert!(g.extra_slots.iter().all(|&x| x == 0));
    }

    #[test]
    fn dynamic_array_chained_and_pinned_to_one_tile() {
        let (p, g) = graph_for(
            |b| {
                let a = b.array("A", Ty::I32, &[8]);
                let i0 = b.const_i32(0);
                let i1 = b.const_i32(1);
                let l0 = b.load(a, i0, 0, MemHome::Dynamic); // node 0
                let _l1 = b.load(a, i1, 0, MemHome::Dynamic); // node 1
                b.store(a, i1, 0, l0, MemHome::Dynamic); // node 2
            },
            4,
        );
        let _ = p;
        assert!(g.succs[0].contains(&(1, EdgeKind::Order)));
        assert!(g.succs[1].contains(&(2, EdgeKind::Order)));
        assert!(g.pins[0].is_some());
        assert_eq!(g.pins[0], g.pins[1]);
        assert_eq!(g.pins[1], g.pins[2]);
        assert!(g.order_edges_colocated());
    }

    #[test]
    fn costs_use_latency_table() {
        let (_, g) = graph_for(
            |b| {
                let xv = b.var_f32("x", 1.0);
                let x = b.read_var(xv); // node 0
                let y = b.mul_f(x, x); // node 1
                let nv = b.var_i32("n", 4);
                let four = b.read_var(nv); // node 2
                let two = b.const_i32(2);
                let _z = b.div(four, two); // node 3
                let _ = y;
            },
            2,
        );
        assert_eq!(g.len(), 4); // constants are no nodes
        assert_eq!(g.costs[1], 4); // mulf
        assert_eq!(g.costs[3], 35); // div
    }
}
