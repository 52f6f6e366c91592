//! Linking: per-tile processor and switch streams from compiled block
//! bundles, with one program-level region analysis.
//!
//! Every tile runs two instruction streams of its own (paper §3.1). The
//! linker lays each stream's blocks out in program order and ends every block
//! with the control transfer that stream needs, and no more. Control flow is
//! orchestrated globally: the tile that computes a branch condition
//! multicasts it on the static network, every switch latches it into its
//! register 0 and branches on it, and every processor with work before the
//! branches rejoin branches on the received word (`bnez $csti`).
//!
//! The analysis runs once per program (`Regions::build`): the control-flow
//! graph over `linked_terminator`, the immediate post-dominator of every
//! block (the iterative pass over reverse postorder), and one tile bitmask
//! per branch block naming the processors with code in its region.
//!
//! ## Key invariants
//!
//! - **Every switch follows every branch.** Switch streams walk the
//!   program's full control flow, so every multicast tree stays intact and
//!   every route a block schedules runs exactly when it did before.
//! - **A processor skips only a region it has no part in.** Tile `t`'s
//!   processor ends branch block `b` with a jump to `b`'s immediate
//!   post-dominator `p` when `t` is not `b`'s condition producer and no block
//!   on a path from `b` to `p` (`p` excluded) holds a processor instruction
//!   of `t`. Everything that touches a tile's state is its own processor's
//!   code, so the tile neither reads nor writes what the region changes, and
//!   its run-ahead sends and receives wait in the FIFO order they always
//!   had. A block from which no `halt` is reachable has no post-dominator,
//!   so no tile skips its branch, nor a region that holds such a branch.
//! - **The branch word reaches exactly the processors that branch on it.**
//!   A broadcast route delivers to a processor only if that processor runs
//!   the matching `bnez`/`beqz`; every other switch on the tree only latches
//!   and forwards.
//! - **No jump lands on a jump or on the next pc.** Per stream, a jump
//!   through blocks with no code on that stream is retargeted past them, a
//!   `j` to the next emitted pc is dropped, and `bnez c, T; j F` with `T`
//!   next is emitted as `beqz c, F`.
//! - **Unreachable code is not emitted.** A block a stream can never reach
//!   emits nothing on it and adds no pc-table entry.
//! - **pc tables stay in lockstep.** Every emitted instruction pushes one
//!   provenance entry (`debug_assert`ed per stream).

use crate::blockcache::BlockBundle;
use crate::provenance::{ProvenanceMap, NO_PROV};
use crate::schedule::broadcast_routes;
use raw_ir::{Block, Imm, InstKind, Program, Terminator};
use raw_machine::asm::{ProcAsm, SwitchAsm};
use raw_machine::isa::{PInst, RoutePairs, SDst, SInst, Src};
use raw_machine::{MachineConfig, TileCode, TileId};
use std::sync::Arc;

/// The block's terminator as compiled and linked: a branch on a block
/// constant is decided at compile time and becomes a jump, because a
/// constant has no producer tile to broadcast it.
pub(crate) fn linked_terminator(block: &Block) -> Terminator {
    let Terminator::Branch {
        cond,
        if_true,
        if_false,
    } = block.term
    else {
        return block.term;
    };
    let taken = block.insts.iter().find_map(|i| match i.kind {
        InstKind::Const(Imm::I(v)) if i.dst == Some(cond) => Some(v != 0),
        InstKind::Const(Imm::F(v)) if i.dst == Some(cond) => Some(v != 0.0),
        _ => None,
    });
    match taken {
        Some(true) => Terminator::Jump(if_true),
        Some(false) => Terminator::Jump(if_false),
        None => block.term,
    }
}

/// How a block hands control on, by block index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    Jump(usize),
    Halt,
    Branch { if_true: usize, if_false: usize },
}

impl Flow {
    fn of(term: Terminator) -> Flow {
        match term {
            Terminator::Jump(t) => Flow::Jump(t.index()),
            Terminator::Halt => Flow::Halt,
            Terminator::Branch {
                if_true, if_false, ..
            } => Flow::Branch {
                if_true: if_true.index(),
                if_false: if_false.index(),
            },
        }
    }

    /// Successor blocks.
    fn successors(self) -> impl Iterator<Item = usize> {
        let (a, b) = match self {
            Flow::Jump(t) => (Some(t), None),
            Flow::Halt => (None, None),
            Flow::Branch { if_true, if_false } => (Some(if_true), Some(if_false)),
        };
        a.into_iter().chain(b)
    }
}

/// Where the paths out of a block meet again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Join {
    /// The immediate post-dominator.
    Block(usize),
    /// The paths only meet at program exit (every one halts).
    Exit,
}

/// Immediate post-dominator of every block: the iterative dominator pass
/// (Cooper, Harvey and Kennedy) over the reverse CFG, in reverse postorder
/// from a virtual exit that follows every `halt`. A block from which no
/// `halt` is reachable gets `None`.
fn post_dominators(flow: &[Flow]) -> Vec<Option<Join>> {
    let n = flow.len();
    let exit = n;
    let succs = |b: usize| {
        let halt = (flow[b] == Flow::Halt).then_some(exit);
        flow[b].successors().chain(halt)
    };
    let mut preds = vec![Vec::new(); n + 1];
    for b in 0..n {
        for s in succs(b) {
            preds[s].push(b);
        }
    }
    // Postorder of the reverse CFG from the exit.
    let mut po_num = vec![usize::MAX; n + 1];
    let mut postorder = Vec::with_capacity(n + 1);
    let mut stack = vec![(exit, 0usize)];
    po_num[exit] = 0;
    while let Some((node, next)) = stack.last_mut() {
        let node = *node;
        if let Some(&p) = preds[node].get(*next) {
            *next += 1;
            if po_num[p] == usize::MAX {
                po_num[p] = 0;
                stack.push((p, 0));
            }
        } else {
            po_num[node] = postorder.len();
            postorder.push(node);
            stack.pop();
        }
    }

    const UNDEF: usize = usize::MAX;
    let mut ipdom = vec![UNDEF; n + 1];
    ipdom[exit] = exit;
    let mut changed = true;
    while changed {
        changed = false;
        for &b in postorder.iter().rev().skip(1) {
            let mut new = UNDEF;
            for s in succs(b).filter(|&s| ipdom[s] != UNDEF) {
                new = if new == UNDEF {
                    s
                } else {
                    let (mut x, mut y) = (s, new);
                    while x != y {
                        while po_num[x] < po_num[y] {
                            x = ipdom[x];
                        }
                        while po_num[y] < po_num[x] {
                            y = ipdom[y];
                        }
                    }
                    x
                };
            }
            if ipdom[b] != new {
                ipdom[b] = new;
                changed = true;
            }
        }
    }
    ipdom[..n]
        .iter()
        .map(|&p| match p {
            UNDEF => None,
            p if p == exit => Some(Join::Exit),
            p => Some(Join::Block(p)),
        })
        .collect()
}

/// Program-level region analysis over the linked CFG, built once per link.
struct Regions {
    /// Linked control flow of every block.
    flow: Vec<Flow>,
    /// Immediate post-dominator of every block.
    join: Vec<Option<Join>>,
    /// `u64` words per tile mask.
    words: usize,
    /// Per block, `words` wide: the tiles that may not skip the block's
    /// branch, being its producer or taking part in its region.
    busy: Vec<u64>,
}

impl Regions {
    /// `code` holds one tile mask per block, `words` wide: the tiles whose
    /// processors have an instruction in the block. `producer[b]` is the tile
    /// that computes block `b`'s branch condition.
    fn new(flow: Vec<Flow>, producer: &[Option<usize>], code: &[u64], words: usize) -> Self {
        let n = flow.len();
        let join = post_dominators(&flow);
        let mut busy = vec![0u64; n * words];
        // A region nested in another lies inside it: if `x` is in `b`'s
        // region and post-dominated by `q`, every path from `x` to `b`'s
        // post-dominator `p` passes `q` first (else `p` and `q` would
        // post-dominate each other). So a tile with no code in `b`'s region
        // skips every branch in it, and no switch there hands it a word. A
        // branch with no post-dominator is never skipped: a region that can
        // reach one keeps every tile.
        let mut seen = vec![usize::MAX; n];
        let mut stack = Vec::new();
        for b in 0..n {
            let (Flow::Branch { .. }, Some(meet)) = (flow[b], join[b]) else {
                continue;
            };
            let stop = match meet {
                Join::Block(p) => p,
                Join::Exit => n,
            };
            let mask = &mut busy[b * words..][..words];
            if let Some(t) = producer[b] {
                mask[t / 64] |= 1 << (t % 64);
            }
            stack.extend(flow[b].successors());
            while let Some(x) = stack.pop() {
                if x == stop || seen[x] == b {
                    continue;
                }
                seen[x] = b;
                let endless = matches!(flow[x], Flow::Branch { .. }) && join[x].is_none();
                for (w, &c) in mask.iter_mut().zip(&code[x * words..]) {
                    *w |= if endless { u64::MAX } else { c };
                }
                stack.extend(flow[x].successors());
            }
        }
        Regions {
            flow,
            join,
            words,
            busy,
        }
    }

    fn build(program: &Program, bundles: &[Arc<BlockBundle>], n_tiles: usize) -> Self {
        let words = n_tiles.div_ceil(64);
        let mut code = vec![0u64; bundles.len() * words];
        let producer: Vec<_> = bundles
            .iter()
            .map(|b| b.cond_producer.map(|p| p.index()))
            .collect();
        // A producer counts as having code in its block, whatever codegen
        // folded, so no tile skips a region holding a branch it produces.
        for ((mask, bundle), &producer) in code.chunks_mut(words).zip(bundles).zip(&producer) {
            let tiles = bundle.phys.iter().enumerate();
            let busy = tiles.filter(|(_, phys)| !phys.insts.is_empty());
            for t in busy.map(|(t, _)| t).chain(producer) {
                mask[t / 64] |= 1 << (t % 64);
            }
        }
        let flow = program
            .blocks
            .iter()
            .map(|b| Flow::of(linked_terminator(b)))
            .collect();
        Regions::new(flow, &producer, &code, words)
    }

    /// How tile `t`'s processor leaves block `b`: a branch it skips becomes
    /// a jump to the branch's post-dominator (a halt when every path halts).
    fn proc_flow(&self, b: usize, t: usize) -> Flow {
        match (self.flow[b], self.join[b]) {
            (Flow::Branch { .. }, Some(join))
                if self.busy[b * self.words + t / 64] >> (t % 64) & 1 == 0 =>
            {
                match join {
                    Join::Block(p) => Flow::Jump(p),
                    Join::Exit => Flow::Halt,
                }
            }
            (flow, _) => flow,
        }
    }
}

/// One control instruction that ends an emitted block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Jump(usize),
    Halt,
    /// `bnez` on the branch word.
    Bnez(usize),
    /// `beqz` on the branch word.
    Beqz(usize),
}

/// One stream's block layout after jump threading.
struct Threaded {
    /// Emitted blocks in stream order: the entry's destination first, then
    /// every other reachable block in program order.
    order: Vec<usize>,
    /// `dest[b]`: where a jump to `b` really goes, past blocks that hold no
    /// code on this stream and end in a jump.
    dest: Vec<usize>,
}

impl Threaded {
    /// `code[b]`: block `b` holds code on this stream.
    fn new(entry: usize, code: &[bool], flow: &[Flow]) -> Self {
        let n = flow.len();
        let dest: Vec<usize> = (0..n)
            .map(|mut x| {
                // Bounded, so a loop of empty jumps ends on one of its blocks.
                for _ in 0..n {
                    match flow[x] {
                        Flow::Jump(y) if !code[x] => x = y,
                        _ => break,
                    }
                }
                x
            })
            .collect();
        let start = dest[entry];
        let mut reached = vec![false; n];
        let mut stack = vec![start];
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut reached[b], true) {
                stack.extend(flow[b].successors().map(|s| dest[s]));
            }
        }
        let order = std::iter::once(start)
            .chain((0..n).filter(|&b| reached[b] && b != start))
            .collect();
        Threaded { order, dest }
    }

    /// The control instructions that end the `i`-th emitted block, whose
    /// flow is `flow`: none when it falls through to the next block.
    fn end(&self, i: usize, flow: Flow) -> impl Iterator<Item = Op> {
        let next = self.order.get(i + 1).copied();
        let (first, second) = match flow {
            Flow::Halt => (Some(Op::Halt), None),
            Flow::Jump(y) if Some(self.dest[y]) == next => (None, None),
            Flow::Jump(y) => (Some(Op::Jump(self.dest[y])), None),
            Flow::Branch { if_true, if_false } => {
                let (taken, other) = (self.dest[if_true], self.dest[if_false]);
                if Some(other) == next {
                    (Some(Op::Bnez(taken)), None)
                } else if Some(taken) == next {
                    (Some(Op::Beqz(other)), None)
                } else {
                    (Some(Op::Bnez(taken)), Some(Op::Jump(other)))
                }
            }
        };
        first.into_iter().chain(second)
    }
}

/// What the per-tile emitters share: the entry block, the bundles, the
/// region analysis, one multicast tree per branch block and each block's
/// base provenance record.
struct Linker<'a> {
    entry: usize,
    bundles: &'a [Arc<BlockBundle>],
    regions: Regions,
    trees: Vec<Vec<RoutePairs>>,
    block_base: &'a [u32],
}

impl Linker<'_> {
    /// Rebases a block-relative node id to an absolute provenance record id.
    fn rebase(&self, b: usize, node: u32) -> u32 {
        if node == NO_PROV {
            NO_PROV
        } else {
            self.block_base[b] + node
        }
    }

    /// Tile `t`'s processor stream and pc table, plus which blocks' branch
    /// words it reads.
    fn proc(&self, t: usize) -> (Vec<PInst>, Vec<u32>, Vec<bool>) {
        let bundles = self.bundles;
        let code: Vec<bool> = bundles
            .iter()
            .map(|b| !b.phys[t].insts.is_empty())
            .collect();
        let flow: Vec<Flow> = (0..bundles.len())
            .map(|b| self.regions.proc_flow(b, t))
            .collect();
        let layout = Threaded::new(self.entry, &code, &flow);
        let mut pa = ProcAsm::new();
        let labels: Vec<_> = bundles.iter().map(|_| pa.new_label()).collect();
        let mut pc: Vec<u32> = Vec::new();
        let mut takes_word = vec![false; bundles.len()];
        for (i, &b) in layout.order.iter().enumerate() {
            let phys = &bundles[b].phys[t];
            pa.bind(labels[b]);
            for (inst, &node) in phys.insts.iter().zip(&phys.prov) {
                pa.push(*inst);
                pc.push(self.rebase(b, node));
            }
            takes_word[b] = matches!(flow[b], Flow::Branch { .. });
            let cond = if bundles[b].cond_producer.map(|p| p.index()) == Some(t) {
                Src::Reg(phys.cond_reg.expect("producer keeps the condition live"))
            } else {
                Src::PortIn
            };
            // The branch waits on the condition: attribute it (and any stall
            // it suffers) to the condition's source line.
            let cond_rec = self.rebase(b, bundles[b].cond_node);
            for op in layout.end(i, flow[b]) {
                pc.push(match op {
                    Op::Jump(x) => {
                        pa.jump(labels[x]);
                        NO_PROV
                    }
                    Op::Halt => {
                        pa.halt();
                        NO_PROV
                    }
                    Op::Bnez(x) => {
                        pa.bnez(cond, labels[x]);
                        cond_rec
                    }
                    Op::Beqz(x) => {
                        pa.beqz(cond, labels[x]);
                        cond_rec
                    }
                });
            }
        }
        debug_assert_eq!(pc.len(), pa.here(), "tile {t}: proc pc table skew");
        (pa.finish(), pc, takes_word)
    }

    /// Tile `t`'s switch stream and pc table; `takes_word[b]` says whether
    /// the tile's processor reads block `b`'s branch word.
    fn switch(&self, t: usize, takes_word: &[bool]) -> (Vec<SInst>, Vec<u32>) {
        let bundles = self.bundles;
        let flow = &self.regions.flow;
        let code: Vec<bool> = bundles.iter().map(|b| !b.switch[t].is_empty()).collect();
        let layout = Threaded::new(self.entry, &code, flow);
        let mut sa = SwitchAsm::new();
        let labels: Vec<_> = bundles.iter().map(|_| sa.new_label()).collect();
        let mut pc: Vec<u32> = Vec::new();
        for (i, &b) in layout.order.iter().enumerate() {
            sa.bind(labels[b]);
            for (pairs, rec) in &bundles[b].switch[t] {
                sa.route(pairs);
                pc.push(self.rebase(b, *rec));
            }
            let cond_rec = self.rebase(b, bundles[b].cond_node);
            if let Flow::Branch { .. } = flow[b] {
                // Latch and forward the branch word; hand it to the
                // processor only if the processor branches on it.
                let route: RoutePairs = self.trees[b][t]
                    .iter()
                    .copied()
                    .filter(|&(_, dst)| dst != SDst::Proc || takes_word[b])
                    .collect();
                sa.route(&route);
                pc.push(cond_rec);
            }
            for op in layout.end(i, flow[b]) {
                pc.push(match op {
                    Op::Jump(x) => {
                        sa.jump(labels[x]);
                        NO_PROV
                    }
                    Op::Halt => {
                        sa.halt();
                        NO_PROV
                    }
                    Op::Bnez(x) => {
                        sa.bnez(0, labels[x]);
                        cond_rec
                    }
                    Op::Beqz(x) => {
                        sa.beqz(0, labels[x]);
                        cond_rec
                    }
                });
            }
        }
        debug_assert_eq!(pc.len(), sa.here(), "tile {t}: switch pc table skew");
        (sa.finish(), pc)
    }
}

/// Links the per-block bundles of `program` into one processor and one
/// switch stream per tile, appending the per-tile pc → provenance tables to
/// `prov` (whose `block_base` must already hold every block's base record).
pub(crate) fn link(
    program: &Program,
    config: &MachineConfig,
    bundles: &[Arc<BlockBundle>],
    prov: &mut ProvenanceMap,
) -> Vec<TileCode> {
    let n = config.n_tiles() as usize;
    let switch_active = n > 1;
    let linker = Linker {
        entry: program.entry.index(),
        bundles,
        regions: Regions::build(program, bundles, n),
        // Empty on a one-tile machine, which has no switch code.
        trees: bundles
            .iter()
            .map(|bundle| match bundle.cond_producer {
                Some(producer) if switch_active => broadcast_routes(config, producer),
                _ => Vec::new(),
            })
            .collect(),
        block_base: &prov.block_base,
    };
    let mut tiles = Vec::with_capacity(n);
    let mut proc_pcs = Vec::with_capacity(n);
    let mut switch_pcs = Vec::with_capacity(n);
    for t in (0..n as u32).map(TileId::from_raw) {
        // The linker refuses to emit anything onto a faulty tile: its
        // processor and switch streams stay empty (an empty stream halts
        // immediately), and its provenance tables stay empty in lockstep.
        if config.is_faulty(t) {
            tiles.push(TileCode {
                proc: Vec::new(),
                switch: Vec::new(),
            });
            proc_pcs.push(Vec::new());
            switch_pcs.push(Vec::new());
            continue;
        }
        let (proc, proc_pc, takes_word) = linker.proc(t.index());
        let (switch, switch_pc) = if switch_active {
            linker.switch(t.index(), &takes_word)
        } else {
            (vec![SInst::Halt], vec![NO_PROV])
        };
        tiles.push(TileCode { proc, switch });
        proc_pcs.push(proc_pc);
        switch_pcs.push(switch_pc);
    }
    prov.proc_pc.extend(proc_pcs);
    prov.switch_pc.extend(switch_pcs);
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loop that cannot reach `halt` has no post-dominator, so no tile
    /// skips its branch; the branch before it still joins at the `halt`.
    #[test]
    fn a_loop_that_cannot_halt_has_no_post_dominator() {
        // 0: branch → 1 | 3;  1: branch → 2 | 1;  2: jump → 1;  3: halt.
        let flow = vec![
            Flow::Branch {
                if_true: 1,
                if_false: 3,
            },
            Flow::Branch {
                if_true: 2,
                if_false: 1,
            },
            Flow::Jump(1),
            Flow::Halt,
        ];
        let join = post_dominators(&flow);
        assert_eq!(join, [Some(Join::Block(3)), None, None, Some(Join::Exit)]);

        // No tile has code anywhere, yet tile 1 still branches in the loop
        // and, because that region holds the loop, on the way into it.
        let regions = Regions::new(flow, &[Some(0), Some(0), None, None], &[0; 4], 1);
        assert_eq!(regions.proc_flow(1, 1), regions.flow[1]);
        assert_eq!(regions.proc_flow(0, 1), regions.flow[0]);
        assert_eq!(regions.proc_flow(0, 0), regions.flow[0]);
    }

    /// An `if` whose arms rejoin: the join is the post-dominator, and only
    /// the tiles with code in an arm keep the branch.
    #[test]
    fn idle_tiles_jump_to_the_join() {
        // 0: branch → 1 | 2;  1: jump → 3;  2: jump → 3;  3: halt.
        let flow = vec![
            Flow::Branch {
                if_true: 1,
                if_false: 2,
            },
            Flow::Jump(3),
            Flow::Jump(3),
            Flow::Halt,
        ];
        assert_eq!(
            post_dominators(&flow),
            [
                Some(Join::Block(3)),
                Some(Join::Block(3)),
                Some(Join::Block(3)),
                Some(Join::Exit)
            ]
        );
        // Tile 0 produces, tile 1 has code in arm 2, tile 2 only in the join.
        let code = [0b001, 0, 0b010, 0b100];
        let regions = Regions::new(flow, &[Some(0), None, None, None], &code, 1);
        assert_eq!(regions.proc_flow(0, 0), regions.flow[0]);
        assert_eq!(regions.proc_flow(0, 1), regions.flow[0]);
        assert_eq!(regions.proc_flow(0, 2), Flow::Jump(3));
    }

    #[test]
    fn threading_drops_jumps_to_the_next_block_and_through_empty_ones() {
        // 0: jump → 1 (no code);  1: branch → 2 | 3;  2: jump → 3;  3: halt.
        let flow = [
            Flow::Jump(1),
            Flow::Branch {
                if_true: 2,
                if_false: 3,
            },
            Flow::Jump(3),
            Flow::Halt,
        ];
        let code = [false, true, true, false];
        let layout = Threaded::new(0, &code, &flow);
        assert_eq!(layout.order, [1, 2, 3]);
        let ends = |i: usize, b: usize| layout.end(i, flow[b]).collect::<Vec<_>>();
        assert_eq!(ends(0, 1), [Op::Beqz(3)]);
        assert_eq!(ends(1, 2), []);
        assert_eq!(ends(2, 3), [Op::Halt]);
    }
}
