//! Instruction selection: scheduled block ops → tile processor instructions
//! over *virtual* registers (physical registers are assigned afterwards by
//! [`regalloc`](crate::regalloc)).
//!
//! Address arithmetic for interleaved arrays follows paper Figure 7, with the
//! constant part of every index already split off by lowering: a reference
//! touches element `e0 + c`, where `e0` is the index value and `c` the
//! instruction's constant offset. For a static reference with residue `r`
//! over `N = 2^s` live slots, `e0 + c ≡ r (mod N)`, so `e0 ≡ r0 = (r − c) mod
//! N` and the element's local word on its home tile is
//!
//! ```text
//! base + (e0 + c) / N = (e0 >>ₐ s) + base + ⌊(r0 + c) / N⌋
//! ```
//!
//! — one arithmetic shift per index register on each tile (`e0` may be
//! negative, as in `X[i][N1 − j]`), memoized, plus an immediate. On one tile
//! the access is `lw d, (base + c)(e0)`. For a dynamic reference the
//! interleaved global address is `e0 + c + base · N`: the index plus the
//! access's immediate offset, so no instruction computes it. An immediate
//! index folds the shift at compile time too.

use crate::layout::{ArrayClass, DataLayout};
use crate::schedule::{BlockSchedule, TileOp};
use crate::taskgraph::{NodeId, Operand, TaskGraph};
use raw_ir::{Imm, InstKind, MemHome, UnOp, ValueId};
use raw_machine::isa::{AluOp, Dst, PInst, Src};
use raw_machine::TileId;

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

/// One processor op after send/receive folding. Values are named by the
/// nodes that compute them.
#[derive(Clone, Debug)]
enum GenOp {
    /// Execute a block instruction; `from_port` names a source value consumed
    /// directly from the input port; `to_port` sends the result directly.
    Comp {
        node: NodeId,
        from_port: Option<NodeId>,
        to_port: bool,
    },
    Send(NodeId),
    Recv(NodeId),
}

/// What one tile's scheduled stream says about one value, gathered in a single
/// sweep before folding.
#[derive(Clone, Default)]
struct ValueFacts {
    /// Stream position of the first computation defining the value.
    producer: Option<u32>,
    /// Source-operand occurrences on the tile, plus one for the branch
    /// condition.
    operand_uses: u32,
    /// Computations reading the value (each counted once).
    n_consumers: u32,
    /// The last such computation: `(position, operand occurrences in it)`.
    consumer: Option<(u32, u32)>,
    /// Sends of the value still in the stream (not folded).
    pending_sends: u32,
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
///
/// `facts` is indexed by node id and must hold only defaults; the entries
/// this tile touches are reset before returning, so one table serves every
/// tile of a block.
fn fold_ops(
    graph: &TaskGraph,
    ops: &[(u64, TileOp)],
    cond: Option<NodeId>,
    enabled: bool,
    facts: &mut [ValueFacts],
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

    if let Some(c) = cond {
        facts[c].operand_uses += 1;
    }
    for (k, op) in ops.iter().enumerate() {
        // Stream positions fit in `u32`, which halves the facts table.
        let k = k as u32;
        match op.1 {
            TileOp::Comp(n) => {
                if graph.insts[n].dst.is_some() {
                    facts[n].producer.get_or_insert(k);
                }
                for s in source_nodes(graph, n) {
                    let f = &mut facts[s];
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
            TileOp::Send(v) => facts[v].pending_sends += 1,
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
                let f = &mut facts[v];
                let fold = f.producer.map(|i| i as usize).filter(|&i| {
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
        let f = &facts[v];
        let Some((j, 1)) = f.consumer.filter(|_| f.n_consumers == 1) else {
            continue;
        };
        let j = j as usize;
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

    for (_, op) in ops {
        match *op {
            TileOp::Comp(n) => {
                facts[n] = ValueFacts::default();
                for s in source_nodes(graph, n) {
                    facts[s] = ValueFacts::default();
                }
            }
            TileOp::Send(v) | TileOp::Recv(v) => facts[v] = ValueFacts::default(),
        }
    }
    if let Some(c) = cond {
        facts[c] = ValueFacts::default();
    }
    gen.into_iter().flatten().collect()
}

/// The nodes whose values node `n` reads (its register and port operands).
fn source_nodes(graph: &TaskGraph, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    graph.operands[n].iter().filter_map(|op| match op {
        Some(Operand::Node(d)) => Some(*d),
        _ => None,
    })
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
    let branch_cond = branch_cond.map(|(c, producer)| (graph.def_of[&c], producer));
    // Node-indexed tables shared by every tile; each tile leaves them clean.
    let mut facts = vec![ValueFacts::default(); graph.len()];
    let mut vregs = vec![NO_VREG; graph.len()];
    let mut out = Vec::with_capacity(n_tiles);
    for tile in 0..n_tiles {
        let cond_here =
            branch_cond.and_then(|(c, producer)| (producer.index() == tile).then_some(c));
        let ops = fold_ops(graph, &schedule.proc_ops[tile], cond_here, fold, &mut facts);
        let mut gen = TileGen::new(layout, &mut vregs);
        let mut prov: Vec<u32> = Vec::new();
        for op in &ops {
            gen.emit(graph, op);
            let node = match op {
                GenOp::Comp { node, .. } => *node,
                GenOp::Send(v) | GenOp::Recv(v) => *v,
            };
            prov.resize(gen.insts.len(), node as u32);
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
                prov.resize(gen.insts.len(), cond as u32);
            }
            cond_vreg = Some(v);
        }
        let n_vregs = gen.next_vreg;
        let insts = gen.finish();
        out.push(TileBlockCode {
            insts,
            prov,
            cond_vreg,
            n_vregs,
        });
    }
    out
}

/// No virtual register yet (in [`TileGen`]'s node- and vreg-indexed tables).
const NO_VREG: u16 = u16::MAX;

struct TileGen<'a> {
    layout: &'a DataLayout,
    /// Per node: the vreg holding its value on this tile, or [`NO_VREG`].
    vregs: &'a mut [u16],
    /// The nodes given a vreg on this tile, so `vregs` can be cleared.
    named: Vec<NodeId>,
    next_vreg: u16,
    insts: Vec<PInst>,
    /// Memoized `e0 >> log2 N` results (arithmetic), indexed by the index
    /// vreg ([`NO_VREG`] = not shifted yet).
    shifted: Vec<u16>,
}

impl<'a> TileGen<'a> {
    /// A generator over `vregs`, which must hold only [`NO_VREG`].
    fn new(layout: &'a DataLayout, vregs: &'a mut [u16]) -> TileGen<'a> {
        TileGen {
            layout,
            vregs,
            named: Vec::new(),
            next_vreg: 0,
            insts: Vec::new(),
            shifted: Vec::new(),
        }
    }

    /// The tile's code, leaving the shared `vregs` table clean.
    fn finish(self) -> Vec<PInst> {
        for &n in &self.named {
            self.vregs[n] = NO_VREG;
        }
        self.insts
    }
}

impl TileGen<'_> {
    fn vreg(&mut self, node: NodeId) -> u16 {
        if self.vregs[node] != NO_VREG {
            return self.vregs[node];
        }
        let r = self.fresh();
        self.vregs[node] = r;
        self.named.push(node);
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
        n: NodeId,
        mut from_port: Option<NodeId>,
        to_port: bool,
    ) {
        let inst = &graph.insts[n];
        let operands = graph.operands[n];
        // Source resolution: a constant is an immediate; a folded receive
        // supplies one operand directly from the input port (consumed exactly
        // once).
        let mut src = |gen: &mut Self, k: usize| -> Src {
            match operands[k].expect("the instruction reads this operand") {
                Operand::Imm(imm) => Src::Imm(imm),
                Operand::Node(d) if from_port == Some(d) => {
                    from_port = None;
                    Src::PortIn
                }
                Operand::Node(d) => Src::Reg(gen.vreg(d)),
            }
        };
        // Destination resolution: a folded send writes the output port.
        let dst = |gen: &mut Self| -> Dst {
            if to_port {
                Dst::PortOut
            } else {
                Dst::Reg(gen.vreg(n))
            }
        };
        match &inst.kind {
            InstKind::Const(_) => unreachable!("a constant is an operand, not a task"),
            InstKind::Un(op, _) => {
                let a = src(self, 0);
                let d = dst(self);
                self.insts.push(PInst::Alu {
                    op: AluOp::Un(*op),
                    dst: d,
                    a,
                    b: Src::Imm(Imm::I(0)),
                });
            }
            InstKind::Bin(op, ..) => {
                let a = src(self, 0);
                let b = src(self, 1);
                let d = dst(self);
                self.insts.push(PInst::Alu {
                    op: AluOp::Bin(*op),
                    dst: d,
                    a,
                    b,
                });
            }
            InstKind::Load {
                array,
                offset,
                home,
                ..
            } => {
                let idx = src(self, 0);
                let base = self.layout.array_base(*array);
                match self.layout.class(*array) {
                    ArrayClass::Static => {
                        let (addr, offset) = self.local_addr(idx, *offset, *home, base);
                        let d = dst(self);
                        self.insts.push(PInst::Load {
                            dst: d,
                            addr,
                            offset,
                        });
                    }
                    ArrayClass::Dynamic { .. } => {
                        let d = dst(self);
                        self.insts.push(PInst::DLoad {
                            dst: d,
                            gaddr: idx,
                            offset: self.global_base(base).wrapping_add(*offset),
                        });
                    }
                }
            }
            InstKind::Store {
                array,
                offset,
                home,
                ..
            } => {
                let idx = src(self, 0);
                let val = src(self, 1);
                let base = self.layout.array_base(*array);
                match self.layout.class(*array) {
                    ArrayClass::Static => {
                        let (addr, offset) = self.local_addr(idx, *offset, *home, base);
                        self.insts.push(PInst::Store {
                            value: val,
                            addr,
                            offset,
                        });
                    }
                    ArrayClass::Dynamic { .. } => {
                        self.insts.push(PInst::DStore {
                            value: val,
                            gaddr: idx,
                            offset: self.global_base(base).wrapping_add(*offset),
                        });
                    }
                }
            }
            InstKind::ReadVar(v) => {
                let d = dst(self);
                self.insts.push(PInst::Load {
                    dst: d,
                    addr: Src::Imm(Imm::I(self.layout.var_addr(*v) as i32)),
                    offset: 0,
                });
            }
            InstKind::WriteVar(v, _) => {
                let val = src(self, 0);
                self.insts.push(PInst::Store {
                    value: val,
                    addr: Src::Imm(Imm::I(self.layout.var_addr(*v) as i32)),
                    offset: 0,
                });
            }
        }
    }

    /// The `(base register, immediate)` pair addressing element `e0 + c` of a
    /// static array whose local base word is `base` and whose residue `home`
    /// the static-reference analysis proved (paper Figure 7; see the module
    /// doc). The shift is elided on one tile, folded for an immediate `e0` and
    /// memoized per index register.
    fn local_addr(&mut self, e0: Src, c: i32, home: MemHome, base: u32) -> (Src, i32) {
        let shift = self.layout.tile_shift();
        if shift == 0 {
            return (e0, (base as i32).wrapping_add(c));
        }
        let shifted = match e0 {
            Src::Imm(i) => {
                let word = (i.to_bits() as i32).wrapping_add(c) >> shift;
                return (Src::Imm(Imm::I(word)), base as i32);
            }
            Src::Reg(reg)
                if self
                    .shifted
                    .get(reg as usize)
                    .is_some_and(|&t| t != NO_VREG) =>
            {
                self.shifted[reg as usize]
            }
            _ => {
                let t = self.fresh();
                self.insts.push(PInst::Alu {
                    op: AluOp::Bin(raw_ir::BinOp::Shr),
                    dst: Dst::Reg(t),
                    a: e0,
                    b: Src::Imm(Imm::I(shift as i32)),
                });
                if let Src::Reg(reg) = e0 {
                    let reg = reg as usize;
                    if reg >= self.shifted.len() {
                        self.shifted.resize(reg + 1, NO_VREG);
                    }
                    self.shifted[reg] = t;
                }
                t
            }
        };
        let MemHome::Static(r) = home else {
            unreachable!("static array with dynamic ref")
        };
        let n = i64::from(self.layout.n_tiles);
        let r0 = (i64::from(r) - i64::from(c)).rem_euclid(n);
        let imm = i64::from(base) + (r0 + i64::from(c)).div_euclid(n);
        (Src::Reg(shifted), imm as i32)
    }

    /// `base · N`: the global address of a dynamic array's element 0.
    fn global_base(&self, base: u32) -> i32 {
        (base << self.layout.tile_shift()) as i32
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
            let x = b.var_i32("x", 6);
            let i = b.read_var(x);
            let v = b.load(a, i, 0, MemHome::Static(2));
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
                op: AluOp::Bin(raw_ir::BinOp::Shr),
                ..
            }
        )));
    }

    /// Figure 7 with the constant split off: for every residue, offset and
    /// sign of the index part `e0`, the `(register, immediate)` pair addresses
    /// the home-tile word `(e0 + c) >> log2 N` of element `e0 + c`.
    #[test]
    fn split_index_addresses_the_home_word() {
        for n in [1u32, 2, 4, 16] {
            let mut b = ProgramBuilder::new("t");
            let a = b.array("A", Ty::I32, &[64]);
            b.halt();
            let layout = DataLayout::build(&b.finish().unwrap(), &MachineConfig::square(n));
            let base = layout.array_base(a);
            let ni = n as i32;
            for r in 0..ni {
                for c in [-ni - 1, -1, 0, 1, ni, 2 * ni + 3] {
                    for k in [-3, -1, 0, 2] {
                        let e0 = k * ni + (r - c).rem_euclid(ni);
                        let want = i64::from(base) + i64::from((e0 + c).div_euclid(ni));
                        let mut gen = TileGen::new(&layout, &mut []);
                        gen.next_vreg = 1;
                        let home = MemHome::Static(r as u32);
                        // e0 in register 0: run the emitted shift, if any.
                        let (addr, imm) = gen.local_addr(Src::Reg(0), c, home, base);
                        let reg = match (addr, gen.insts.as_slice()) {
                            (Src::Reg(0), []) => e0 as u32,
                            (
                                Src::Reg(t),
                                [PInst::Alu {
                                    op,
                                    dst: Dst::Reg(d),
                                    a: Src::Reg(0),
                                    b: Src::Imm(sh),
                                }],
                            ) if *d == t => op.eval(e0 as u32, sh.to_bits()),
                            other => panic!("unexpected address code {other:?}"),
                        };
                        let got = i64::from(reg as i32) + i64::from(imm);
                        assert_eq!(got, want, "N={n} r={r} c={c} e0={e0}");
                        // e0 as an immediate folds to the same word.
                        let (addr, imm) = gen.local_addr(Src::Imm(Imm::I(e0)), c, home, base);
                        let Src::Imm(word) = addr else {
                            panic!("an immediate index folds: {addr:?}")
                        };
                        let got = i64::from(word.to_bits() as i32) + i64::from(imm);
                        assert_eq!(got, want, "N={n} r={r} c={c} e0={e0} (immediate)");
                    }
                }
            }
        }
    }

    #[test]
    fn immediate_operands_fold_the_address() {
        let (code, layout) = codegen_for(4, |b| {
            let a = b.array("A", Ty::I32, &[8]);
            let d = b.array("D", Ty::I32, &[8]);
            let six = b.const_i32(6);
            let three = b.const_i32(3);
            let v = b.load(a, six, 0, MemHome::Static(2));
            b.store(d, three, 0, v, MemHome::Dynamic);
        });
        let all: Vec<&PInst> = code.iter().flat_map(|c| c.insts.iter()).collect();
        assert!(all.iter().any(|i| matches!(
            i,
            PInst::Load {
                addr: Src::Imm(Imm::I(1)),
                ..
            } // 6 >> log2 4
        )));
        let d_base = (layout.array_base[1] << 2) as i32; // base · N
        assert!(all.iter().any(|i| matches!(
            i,
            PInst::DStore { gaddr: Src::Imm(Imm::I(3)), offset, .. } if *offset == d_base
        )));
        assert!(
            !all.iter().any(|i| matches!(i, PInst::Alu { .. })),
            "no address arithmetic and no constant moves: {all:?}"
        );
    }

    #[test]
    fn dynamic_access_emits_dload() {
        let (code, _) = codegen_for(2, |b| {
            let a = b.array("A", Ty::I32, &[8]);
            let i = b.const_i32(3);
            let v = b.load(a, i, 0, MemHome::Dynamic);
            b.store(a, i, 0, v, MemHome::Dynamic);
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
            let _ = b.load(a, i, 0, MemHome::Static(0));
        });
        assert!(!code[0].insts.iter().any(|i| matches!(
            i,
            PInst::Alu {
                op: AluOp::Bin(raw_ir::BinOp::Shr | raw_ir::BinOp::Shru),
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
    fn port_values(graph: &TaskGraph, ops: &[GenOp]) -> Vec<(bool, NodeId)> {
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
                        assert!(graph.insts[node].dst.is_some());
                        events.push((true, node));
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
                            let node = g.def_of[cond];
                            Some((node, part.assignment[node]))
                        }
                        _ => None,
                    };
                    let mut facts = vec![ValueFacts::default(); g.len()];
                    for (tile, ops) in sched.proc_ops.iter().enumerate() {
                        let cond_here = cond.and_then(|(c, t)| (t.index() == tile).then_some(c));
                        let folded = fold_ops(&g, ops, cond_here, true, &mut facts);
                        let unfolded = fold_ops(&g, ops, cond_here, false, &mut facts);
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
            let xv = b.var_i32("x", 1);
            let x = b.read_var(xv);
            let one = b.const_i32(1);
            let y = b.add(x, one);
            let _ = b.mul(y, y);
        });
        assert_eq!(code[0].n_vregs, 3, "a constant takes no vreg");
    }
}
