//! Instruction selection: scheduled block ops → tile processor instructions
//! over *virtual* registers (physical registers are assigned afterwards by
//! [`regalloc`](crate::regalloc)).
//!
//! Address arithmetic for interleaved arrays follows paper Figure 7. For a
//! static reference with residue `r` (so the index `i` satisfies
//! `i ≡ r (mod N)`), the element's local word address on its home tile is
//! `base + i / N = base + (i >> log2 N)` — one shift. For a dynamic reference
//! the interleaved global address is `base · N + i` — one add against a
//! compile-time constant, then a dynamic-network access.

use crate::layout::{ArrayClass, DataLayout};
use crate::schedule::{BlockSchedule, TileOp};
use crate::taskgraph::TaskGraph;
use raw_ir::{Imm, InstKind, UnOp, ValueId};
use raw_machine::isa::{AluOp, Dst, PInst, Src};
use raw_machine::TileId;
use std::collections::HashMap;

/// One tile's code for one block, over virtual registers.
#[derive(Clone, Debug, Default)]
pub struct TileBlockCode {
    /// Straight-line instructions (register numbers are virtual).
    pub insts: Vec<PInst>,
    /// Provenance parallel to `insts`: the task-graph node each instruction
    /// implements ([`crate::provenance::NO_PROV`] when none). Address-arithmetic
    /// temporaries inherit the node of the memory access that needed them;
    /// sends/receives resolve to the producing node of the moved value.
    pub prov: Vec<u32>,
    /// Virtual register holding the branch condition, when this tile is the
    /// condition producer (kept live through the terminator).
    pub cond_vreg: Option<u16>,
    /// Number of virtual registers used.
    pub n_vregs: u16,
}

/// One processor op after send/receive folding.
#[derive(Clone, Debug)]
enum GenOp {
    /// Execute a block instruction; `from_port` names a source value consumed
    /// directly from the input port; `to_port` sends the result directly.
    Comp {
        node: usize,
        from_port: Option<ValueId>,
        to_port: bool,
    },
    Send(ValueId),
    Recv(ValueId),
}

/// What one tile's scheduled stream says about one value, gathered in a single
/// sweep before folding.
#[derive(Default)]
struct ValueFacts {
    /// Stream position of the first computation defining the value.
    producer: Option<usize>,
    /// Source-operand occurrences on the tile, plus one for the branch
    /// condition.
    operand_uses: usize,
    /// Computations reading the value (each counted once).
    n_consumers: usize,
    /// The last such computation: `(position, operand occurrences in it)`.
    consumer: Option<(usize, usize)>,
    /// Sends of the value still in the stream (not folded).
    pending_sends: usize,
}

/// Send/receive folding (paper §3.1 footnote / Figure 4: communication can be
/// expressed "by using existing computation instructions with the appropriate
/// communication registers", making the effective overhead two cycles).
///
/// A `Send(v)` folds into `v`'s producing computation when the value has no
/// other use on the tile; a `Recv(v)` folds into `v`'s unique consumer, which
/// must read it once and carry no other port event. A fold moves a port event
/// within the stream, and the tile's reads and writes must keep one joint
/// order: the switch routes them in the scheduled order, and because the
/// processor and its switch block on both port directions, preserving only
/// per-direction order can still deadlock (a write hoisted across enough reads
/// fills the output FIFO while the switch waits to deliver the unread words).
///
/// **Legality rule:** a fold is kept iff no port event lies strictly between
/// the event's old and new stream position. This equals re-validating the
/// whole joint order after each tentative fold: the order is monotone before
/// every fold (initially by construction, afterwards by induction), so every
/// event before the old position ranks lower and every event after it ranks
/// higher, and the moved event breaks monotonicity exactly when it jumps over
/// one of them. Two consequences make one pass enough. Sends move backwards:
/// scanning upward, the last port event before `j` is the only one that can
/// lie between the producer and `j`. Receives move forwards, and a kept fold
/// lands before the next port event: the next event after each receive is
/// fixed once the send phase is done.
fn fold_ops(
    graph: &TaskGraph,
    ops: &[(u64, TileOp)],
    cond: Option<ValueId>,
    enabled: bool,
) -> Vec<GenOp> {
    let mut gen: Vec<Option<GenOp>> = ops
        .iter()
        .map(|(_, op)| {
            Some(match op {
                TileOp::Comp(n) => GenOp::Comp {
                    node: *n,
                    from_port: None,
                    to_port: false,
                },
                TileOp::Send(v) => GenOp::Send(*v),
                TileOp::Recv(v) => GenOp::Recv(*v),
            })
        })
        .collect();
    if !enabled {
        return gen.into_iter().flatten().collect();
    }

    let mut facts: HashMap<ValueId, ValueFacts> = HashMap::new();
    if let Some(c) = cond {
        facts.entry(c).or_default().operand_uses += 1;
    }
    for (k, op) in ops.iter().enumerate() {
        match op.1 {
            TileOp::Comp(n) => {
                let inst = &graph.insts[n];
                if let Some(d) = inst.dst {
                    facts.entry(d).or_default().producer.get_or_insert(k);
                }
                for s in inst.sources() {
                    let f = facts.entry(s).or_default();
                    f.operand_uses += 1;
                    match &mut f.consumer {
                        Some((pos, occurrences)) if *pos == k => *occurrences += 1,
                        last => {
                            *last = Some((k, 1));
                            f.n_consumers += 1;
                        }
                    }
                }
            }
            TileOp::Send(v) => facts.entry(v).or_default().pending_sends += 1,
            TileOp::Recv(_) => {}
        }
    }

    // Stream positions of the port events, ascending, as the send phase
    // leaves them.
    let mut events: Vec<usize> = Vec::new();

    // ---- Send folding. A producer never absorbs two sends: the first fold
    // needs the value's only use to be the send itself.
    for j in 0..gen.len() {
        match gen[j] {
            Some(GenOp::Send(v)) => {
                let f = facts.get_mut(&v).expect("every send is counted");
                let fold = f.producer.filter(|&i| {
                    i < j
                        && f.operand_uses + f.pending_sends == 1
                        && events.last().is_none_or(|&e| e < i)
                });
                if let Some(i) = fold {
                    gen[j] = None;
                    if let Some(GenOp::Comp { to_port, .. }) = gen[i].as_mut() {
                        *to_port = true;
                    }
                    f.pending_sends -= 1;
                    events.push(i);
                } else {
                    events.push(j);
                }
            }
            Some(GenOp::Recv(_)) => events.push(j),
            _ => {}
        }
    }

    // ---- Receive folding.
    for (e, &i) in events.iter().enumerate() {
        let Some(GenOp::Recv(v)) = gen[i] else {
            continue;
        };
        if cond == Some(v) {
            continue; // the branch reads the condition from a register
        }
        // The fold needs exactly ONE consumer overall — and that consumer must
        // itself be eligible (uses v once and carries no other port event).
        // Counting only eligible consumers would silently orphan an
        // ineligible second consumer.
        let Some(f) = facts.get(&v) else {
            continue;
        };
        let Some((j, 1)) = f.consumer.filter(|_| f.n_consumers == 1) else {
            continue;
        };
        let next_event = events.get(e + 1).copied().unwrap_or(usize::MAX);
        if f.pending_sends > 0 || j <= i || j >= next_event {
            continue;
        }
        if let Some(GenOp::Comp {
            from_port: from_port @ None,
            to_port: false,
            ..
        }) = gen[j].as_mut()
        {
            *from_port = Some(v);
            gen[i] = None;
        }
    }

    gen.into_iter().flatten().collect()
}

/// Generates per-tile virtual-register code for one scheduled block.
///
/// `branch_cond` is the terminator's condition value, if the block ends in a
/// branch; the producing tile appends a send of the condition for the global
/// branch broadcast (unless the machine has a single tile), and records
/// [`TileBlockCode::cond_vreg`].
pub fn generate(
    graph: &TaskGraph,
    schedule: &BlockSchedule,
    layout: &DataLayout,
    branch_cond: Option<(ValueId, TileId)>,
    fold: bool,
) -> Vec<TileBlockCode> {
    // Physical tile count: under a faulty mask, `layout.n_tiles` is the
    // (smaller) live-slot count, but code streams exist per physical tile.
    let n_tiles = schedule.proc_ops.len();
    let mut out = Vec::with_capacity(n_tiles);
    for tile in 0..n_tiles {
        let cond_here =
            branch_cond.and_then(|(c, producer)| (producer.index() == tile).then_some(c));
        let ops = fold_ops(graph, &schedule.proc_ops[tile], cond_here, fold);
        let mut gen = TileGen {
            layout,
            vregs: HashMap::new(),
            next_vreg: 0,
            insts: Vec::new(),
            shifted: HashMap::new(),
            globals: HashMap::new(),
        };
        let mut prov: Vec<u32> = Vec::new();
        let node_of = |v: &ValueId| -> u32 {
            graph
                .def_of
                .get(v)
                .map(|&n| n as u32)
                .unwrap_or(crate::provenance::NO_PROV)
        };
        for op in &ops {
            gen.emit(graph, op);
            let node = match op {
                GenOp::Comp { node, .. } => *node as u32,
                GenOp::Send(v) | GenOp::Recv(v) => node_of(v),
            };
            prov.resize(gen.insts.len(), node);
        }
        let mut cond_vreg = None;
        if let Some(cond) = cond_here {
            let v = gen.vreg(cond);
            if n_tiles > 1 {
                // Feed the branch broadcast.
                gen.insts.push(PInst::Alu {
                    op: AluOp::Un(UnOp::Mov),
                    dst: Dst::PortOut,
                    a: Src::Reg(v),
                    b: Src::Imm(Imm::I(0)),
                });
                prov.resize(gen.insts.len(), node_of(&cond));
            }
            cond_vreg = Some(v);
        }
        out.push(TileBlockCode {
            insts: gen.insts,
            prov,
            cond_vreg,
            n_vregs: gen.next_vreg,
        });
    }
    out
}

struct TileGen<'a> {
    layout: &'a DataLayout,
    vregs: HashMap<ValueId, u16>,
    next_vreg: u16,
    insts: Vec<PInst>,
    /// Memoized `idx >> log2 N` results, keyed by the index vreg.
    shifted: HashMap<u16, u16>,
    /// Memoized interleaved global addresses, keyed by `(idx vreg, base)`.
    globals: HashMap<(u16, u32), u16>,
}

impl TileGen<'_> {
    fn vreg(&mut self, v: ValueId) -> u16 {
        if let Some(&r) = self.vregs.get(&v) {
            return r;
        }
        let r = self.next_vreg;
        self.next_vreg += 1;
        self.vregs.insert(v, r);
        r
    }

    fn fresh(&mut self) -> u16 {
        let r = self.next_vreg;
        self.next_vreg += 1;
        r
    }

    fn emit(&mut self, graph: &TaskGraph, op: &GenOp) {
        match op {
            GenOp::Send(v) => {
                let r = self.vreg(*v);
                self.insts.push(PInst::Alu {
                    op: AluOp::Un(UnOp::Mov),
                    dst: Dst::PortOut,
                    a: Src::Reg(r),
                    b: Src::Imm(Imm::I(0)),
                });
            }
            GenOp::Recv(v) => {
                let r = self.vreg(*v);
                self.insts.push(PInst::Alu {
                    op: AluOp::Un(UnOp::Mov),
                    dst: Dst::Reg(r),
                    a: Src::PortIn,
                    b: Src::Imm(Imm::I(0)),
                });
            }
            GenOp::Comp {
                node,
                from_port,
                to_port,
            } => self.emit_comp(graph, *node, *from_port, *to_port),
        }
    }

    fn emit_comp(
        &mut self,
        graph: &TaskGraph,
        n: usize,
        mut from_port: Option<ValueId>,
        to_port: bool,
    ) {
        let inst = &graph.insts[n];
        // Source resolution: a folded receive supplies one operand directly
        // from the input port (consumed exactly once).
        let mut src = |gen: &mut Self, v: ValueId| -> Src {
            if from_port == Some(v) {
                from_port = None;
                Src::PortIn
            } else {
                Src::Reg(gen.vreg(v))
            }
        };
        // Destination resolution: a folded send writes the output port.
        let dst = |gen: &mut Self, v: ValueId| -> Dst {
            if to_port {
                Dst::PortOut
            } else {
                Dst::Reg(gen.vreg(v))
            }
        };
        match &inst.kind {
            InstKind::Const(imm) => {
                let d = dst(self, inst.dst.unwrap());
                self.insts.push(PInst::Alu {
                    op: AluOp::Un(UnOp::Mov),
                    dst: d,
                    a: Src::Imm(*imm),
                    b: Src::Imm(Imm::I(0)),
                });
            }
            InstKind::Un(op, s) => {
                let a = src(self, *s);
                let d = dst(self, inst.dst.unwrap());
                self.insts.push(PInst::Alu {
                    op: AluOp::Un(*op),
                    dst: d,
                    a,
                    b: Src::Imm(Imm::I(0)),
                });
            }
            InstKind::Bin(op, l, r) => {
                let a = src(self, *l);
                let b = src(self, *r);
                let d = dst(self, inst.dst.unwrap());
                self.insts.push(PInst::Alu {
                    op: AluOp::Bin(*op),
                    dst: d,
                    a,
                    b,
                });
            }
            InstKind::Load { array, index, .. } => {
                let idx = src(self, *index);
                let base = self.layout.array_base(*array);
                match self.layout.class(*array) {
                    ArrayClass::Static => {
                        let addr = self.local_addr(idx);
                        let d = dst(self, inst.dst.unwrap());
                        self.insts.push(PInst::Load {
                            dst: d,
                            addr,
                            offset: base as i32,
                        });
                    }
                    ArrayClass::Dynamic { .. } => {
                        let g = self.global_addr(idx, base);
                        let d = dst(self, inst.dst.unwrap());
                        self.insts.push(PInst::DLoad {
                            dst: d,
                            gaddr: Src::Reg(g),
                        });
                    }
                }
            }
            InstKind::Store {
                array,
                index,
                value,
                ..
            } => {
                let idx = src(self, *index);
                let val = src(self, *value);
                let base = self.layout.array_base(*array);
                match self.layout.class(*array) {
                    ArrayClass::Static => {
                        let addr = self.local_addr(idx);
                        self.insts.push(PInst::Store {
                            value: val,
                            addr,
                            offset: base as i32,
                        });
                    }
                    ArrayClass::Dynamic { .. } => {
                        let g = self.global_addr(idx, base);
                        self.insts.push(PInst::DStore {
                            gaddr: Src::Reg(g),
                            value: val,
                        });
                    }
                }
            }
            InstKind::ReadVar(v) => {
                let d = dst(self, inst.dst.unwrap());
                self.insts.push(PInst::Load {
                    dst: d,
                    addr: Src::Imm(Imm::I(self.layout.var_addr(*v) as i32)),
                    offset: 0,
                });
            }
            InstKind::WriteVar(v, s) => {
                let val = src(self, *s);
                self.insts.push(PInst::Store {
                    value: val,
                    addr: Src::Imm(Imm::I(self.layout.var_addr(*v) as i32)),
                    offset: 0,
                });
            }
        }
    }

    /// `idx >> log2 N` (no-op shift elided on a 1-tile machine; memoized when
    /// the index comes from a register).
    fn local_addr(&mut self, idx: Src) -> Src {
        let shift = self.layout.tile_shift();
        if shift == 0 {
            return idx;
        }
        if let Src::Reg(r) = idx {
            if let Some(&t) = self.shifted.get(&r) {
                return Src::Reg(t);
            }
        }
        let t = self.fresh();
        self.insts.push(PInst::Alu {
            op: AluOp::Bin(raw_ir::BinOp::Shru),
            dst: Dst::Reg(t),
            a: idx,
            b: Src::Imm(Imm::I(shift as i32)),
        });
        if let Src::Reg(r) = idx {
            self.shifted.insert(r, t);
        }
        Src::Reg(t)
    }

    /// `idx + base · N` — the interleaved global address (memoized when the
    /// index comes from a register).
    fn global_addr(&mut self, idx: Src, base: u32) -> u16 {
        if let Src::Reg(r) = idx {
            if let Some(&t) = self.globals.get(&(r, base)) {
                return t;
            }
        }
        let t = self.fresh();
        let base_global = (base << self.layout.tile_shift()) as i32;
        self.insts.push(PInst::Alu {
            op: AluOp::Bin(raw_ir::BinOp::Add),
            dst: Dst::Reg(t),
            a: idx,
            b: Src::Imm(Imm::I(base_global)),
        });
        if let Src::Reg(r) = idx {
            self.globals.insert((r, base), t);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompilerOptions;
    use raw_ir::builder::ProgramBuilder;
    use raw_ir::{MemHome, Ty};
    use raw_machine::MachineConfig;

    fn codegen_for(
        n_tiles: u32,
        build: impl FnOnce(&mut ProgramBuilder),
    ) -> (Vec<TileBlockCode>, DataLayout) {
        let mut b = ProgramBuilder::new("t");
        build(&mut b);
        b.halt();
        let p = b.finish().unwrap();
        let config = MachineConfig::square(n_tiles);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        let options = CompilerOptions::default();
        let part = crate::partition::partition(&g, &config, &options);
        let sched = crate::schedule::schedule(&g, &part, &config, &options);
        (generate(&g, &sched, &layout, None, true), layout)
    }

    #[test]
    fn static_load_uses_shift_and_base_offset() {
        let (code, layout) = codegen_for(4, |b| {
            let a = b.array("A", Ty::I32, &[8]);
            let i = b.const_i32(6);
            let v = b.load(a, i, MemHome::Static(2));
            let _ = b.add(v, v);
        });
        // The load is pinned to tile 2.
        let tile2 = &code[2].insts;
        assert!(
            tile2.iter().any(|i| matches!(
                i,
                PInst::Load { offset, .. } if *offset == layout.array_base.first().copied().unwrap() as i32
            )),
            "tile 2 code: {tile2:?}"
        );
        assert!(tile2.iter().any(|i| matches!(
            i,
            PInst::Alu {
                op: AluOp::Bin(raw_ir::BinOp::Shru),
                ..
            }
        )));
    }

    #[test]
    fn dynamic_access_emits_dload() {
        let (code, _) = codegen_for(2, |b| {
            let a = b.array("A", Ty::I32, &[8]);
            let i = b.const_i32(3);
            let v = b.load(a, i, MemHome::Dynamic);
            b.store(a, i, v, MemHome::Dynamic);
        });
        let all: Vec<&PInst> = code.iter().flat_map(|c| c.insts.iter()).collect();
        assert!(all.iter().any(|i| matches!(i, PInst::DLoad { .. })));
        assert!(all.iter().any(|i| matches!(i, PInst::DStore { .. })));
    }

    #[test]
    fn single_tile_load_has_no_shift() {
        let (code, _) = codegen_for(1, |b| {
            let a = b.array("A", Ty::I32, &[8]);
            let i = b.const_i32(3);
            let _ = b.load(a, i, MemHome::Static(0));
        });
        assert!(!code[0].insts.iter().any(|i| matches!(
            i,
            PInst::Alu {
                op: AluOp::Bin(raw_ir::BinOp::Shru),
                ..
            }
        )));
    }

    #[test]
    fn var_access_is_absolute_slot() {
        let (code, layout) = codegen_for(2, |b| {
            let v = b.var_i32("x", 1);
            let r = b.read_var(v);
            b.write_var(v, r);
        });
        let home = layout.var_home[0].index();
        let insts = &code[home].insts;
        assert!(insts.iter().any(|i| matches!(
            i,
            PInst::Load {
                addr: Src::Imm(Imm::I(0)),
                ..
            }
        )));
        assert!(insts.iter().any(|i| matches!(
            i,
            PInst::Store {
                addr: Src::Imm(Imm::I(0)),
                ..
            }
        )));
    }

    #[test]
    fn folding_reduces_port_move_instructions() {
        // Cross-tile dataflow via pinned variables gives sends and receives;
        // folding must strictly reduce the instruction count while both
        // versions carry the same number of port events.
        let mut b = raw_ir::builder::ProgramBuilder::new("t");
        let v0 = b.var_f32("a0", 1.0); // home tile 0
        let v1 = b.var_f32("a1", 2.0); // home tile 1
        let r0 = b.read_var(v0);
        let r1 = b.read_var(v1);
        let m = b.mul_f(r0, r1);
        b.write_var(v0, m);
        b.halt();
        let p = b.finish().unwrap();
        let config = raw_machine::MachineConfig::square(2);
        let layout = DataLayout::build(&p, &config);
        let g = TaskGraph::build(p.block(p.entry), &layout, &config);
        let options = crate::options::CompilerOptions::default();
        let part = crate::partition::partition(&g, &config, &options);
        let sched = crate::schedule::schedule(&g, &part, &config, &options);

        let count = |code: &[TileBlockCode]| -> usize { code.iter().map(|c| c.insts.len()).sum() };
        let port_events = |code: &[TileBlockCode]| -> usize {
            code.iter()
                .flat_map(|c| c.insts.iter())
                .map(|i| {
                    let reads = i
                        .sources()
                        .iter()
                        .filter(|s| matches!(s, Src::PortIn))
                        .count();
                    let writes = usize::from(matches!(i.dst(), Some(Dst::PortOut)));
                    reads + writes
                })
                .sum()
        };
        let folded = generate(&g, &sched, &layout, None, true);
        let unfolded = generate(&g, &sched, &layout, None, false);
        assert!(
            count(&folded) < count(&unfolded),
            "folding must shrink code"
        );
        assert_eq!(
            port_events(&folded),
            port_events(&unfolded),
            "folding must preserve the number of port events"
        );
    }

    /// A tile's port events in stream order as `(is_write, value)`. A folded
    /// computation reads its port operand before it writes its result.
    fn port_values(graph: &TaskGraph, ops: &[GenOp]) -> Vec<(bool, ValueId)> {
        let mut events = Vec::new();
        for op in ops {
            match *op {
                GenOp::Send(v) => events.push((true, v)),
                GenOp::Recv(v) => events.push((false, v)),
                GenOp::Comp {
                    node,
                    from_port,
                    to_port,
                } => {
                    events.extend(from_port.map(|v| (false, v)));
                    if to_port {
                        events.push((true, graph.insts[node].dst.unwrap()));
                    }
                }
            }
        }
        events
    }

    #[test]
    fn folding_keeps_each_tiles_port_event_sequence() {
        // The invariant behind the fold rule, on every block of the seven
        // paper kernels: folding moves port events into computations but
        // never reorders the values crossing a tile's ports.
        let options = CompilerOptions::default();
        let mut folded_ops = 0;
        for n_tiles in [4, 16] {
            let config = MachineConfig::square(n_tiles);
            for bench in raw_benchmarks::suite() {
                let program = bench.program(n_tiles).unwrap();
                let layout = DataLayout::build(&program, &config);
                for (_, block) in program.iter_blocks() {
                    let g = TaskGraph::build(block, &layout, &config);
                    let part = crate::partition::partition(&g, &config, &options);
                    let sched = crate::schedule::schedule(&g, &part, &config, &options);
                    let cond = match &block.term {
                        raw_ir::Terminator::Branch { cond, .. } => {
                            Some((*cond, part.assignment[g.def_of[cond]]))
                        }
                        _ => None,
                    };
                    for (tile, ops) in sched.proc_ops.iter().enumerate() {
                        let cond_here = cond.and_then(|(c, t)| (t.index() == tile).then_some(c));
                        let folded = fold_ops(&g, ops, cond_here, true);
                        let unfolded = fold_ops(&g, ops, cond_here, false);
                        folded_ops += unfolded.len() - folded.len();
                        assert_eq!(
                            port_values(&g, &folded),
                            port_values(&g, &unfolded),
                            "{}@{n_tiles} tile {tile}",
                            bench.name
                        );
                    }
                }
            }
        }
        assert!(folded_ops > 0, "the kernels must exercise folding");
    }

    #[test]
    fn vreg_count_tracks_values_and_temps() {
        let (code, _) = codegen_for(1, |b| {
            let x = b.const_i32(1);
            let y = b.add(x, x);
            let _ = b.mul(y, y);
        });
        assert_eq!(code[0].n_vregs, 3);
    }
}
