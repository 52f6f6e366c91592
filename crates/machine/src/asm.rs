//! Label-based assemblers for processor and switch instruction streams.
//!
//! Branch targets in [`PInst`]/[`SInst`] are absolute instruction indices; these
//! assemblers let code generators use forward-referencing symbolic labels and
//! patch the indices at [`finish`](ProcAsm::finish) time.

use crate::isa::{AluOp, Dir, Dst, PInst, SDst, SInst, SSrc, Src};
use raw_ir::{BinOp, Imm, UnOp};

/// A symbolic branch target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

const UNRESOLVED: usize = usize::MAX;

#[derive(Debug, Default)]
struct Labels {
    bound: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
}

impl Labels {
    fn new_label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    fn bind(&mut self, label: Label, at: usize) {
        assert!(self.bound[label.0].is_none(), "label bound twice at {at}");
        self.bound[label.0] = Some(at);
    }

    fn record(&mut self, inst: usize, label: Label) {
        self.fixups.push((inst, label));
    }

    fn resolve(&self, label: Label) -> usize {
        self.bound[label.0].expect("unbound label at finish")
    }
}

/// Assembler for a tile processor's instruction stream.
#[derive(Debug, Default)]
pub struct ProcAsm {
    insts: Vec<PInst>,
    labels: Labels,
}

impl ProcAsm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.new_label()
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let at = self.insts.len();
        self.labels.bind(label, at);
    }

    /// Current instruction index.
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Emits a raw instruction.
    pub fn push(&mut self, inst: PInst) {
        debug_assert!(
            inst.port_reads() <= 1,
            "instruction may read the input port at most once"
        );
        self.insts.push(inst);
    }

    /// Emits an ALU operation.
    pub fn alu(&mut self, op: AluOp, dst: Dst, a: Src, b: Src) {
        self.push(PInst::Alu { op, dst, a, b });
    }

    /// Emits a binary ALU operation.
    pub fn bin(&mut self, op: BinOp, dst: Dst, a: Src, b: Src) {
        self.alu(AluOp::Bin(op), dst, a, b);
    }

    /// Emits a unary ALU operation.
    pub fn un(&mut self, op: UnOp, dst: Dst, a: Src) {
        self.alu(AluOp::Un(op), dst, a, Src::Imm(Imm::I(0)));
    }

    /// Emits `dst = a + imm` (MIPS-style `addi`).
    pub fn addi(&mut self, dst: Dst, a: Src, imm: i32) {
        self.bin(BinOp::Add, dst, a, Src::Imm(Imm::I(imm)));
    }

    /// Emits `dst = imm` (load immediate).
    pub fn li(&mut self, dst: Dst, imm: Imm) {
        self.un(UnOp::Mov, dst, Src::Imm(imm));
    }

    /// Emits a register/port move.
    pub fn mov(&mut self, dst: Dst, src: Src) {
        self.un(UnOp::Mov, dst, src);
    }

    /// Emits a receive: `dst = PortIn`.
    pub fn recv(&mut self, dst: Dst) {
        self.mov(dst, Src::PortIn);
    }

    /// Emits a send: `PortOut = src`.
    pub fn send(&mut self, src: Src) {
        self.mov(Dst::PortOut, src);
    }

    /// Emits a local load.
    pub fn load(&mut self, dst: Dst, addr: Src, offset: i32) {
        self.push(PInst::Load { dst, addr, offset });
    }

    /// Emits a local store.
    pub fn store(&mut self, value: Src, addr: Src, offset: i32) {
        self.push(PInst::Store {
            value,
            addr,
            offset,
        });
    }

    /// Emits a store to a constant local address.
    pub fn store_imm_addr(&mut self, value: Src, addr: u32) {
        self.store(value, Src::Imm(Imm::I(addr as i32)), 0);
    }

    /// Emits a dynamic-network (remote) load.
    pub fn dload(&mut self, dst: Dst, gaddr: Src) {
        self.push(PInst::DLoad {
            dst,
            gaddr,
            offset: 0,
        });
    }

    /// Emits a dynamic-network (remote) store.
    pub fn dstore(&mut self, gaddr: Src, value: Src) {
        self.push(PInst::DStore {
            value,
            gaddr,
            offset: 0,
        });
    }

    /// Emits an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) {
        self.labels.record(self.insts.len(), label);
        self.insts.push(PInst::Jump(UNRESOLVED));
    }

    /// Emits a branch-if-non-zero to `label`.
    pub fn bnez(&mut self, cond: Src, label: Label) {
        self.labels.record(self.insts.len(), label);
        self.insts.push(PInst::Bnez {
            cond,
            target: UNRESOLVED,
        });
    }

    /// Emits a branch-if-zero to `label`.
    pub fn beqz(&mut self, cond: Src, label: Label) {
        self.labels.record(self.insts.len(), label);
        self.insts.push(PInst::Beqz {
            cond,
            target: UNRESOLVED,
        });
    }

    /// Emits a halt.
    pub fn halt(&mut self) {
        self.insts.push(PInst::Halt);
    }

    /// Emits a no-op.
    pub fn nop(&mut self) {
        self.insts.push(PInst::Nop);
    }

    /// Resolves labels and returns the instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(self) -> Vec<PInst> {
        let mut insts = self.insts;
        for (at, label) in &self.labels.fixups {
            let target = self.labels.resolve(*label);
            match &mut insts[*at] {
                PInst::Jump(t) => *t = target,
                PInst::Bnez { target: t, .. } | PInst::Beqz { target: t, .. } => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        insts
    }
}

/// Assembler for a switch's instruction stream.
#[derive(Debug, Default)]
pub struct SwitchAsm {
    insts: Vec<SInst>,
    labels: Labels,
}

impl SwitchAsm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.new_label()
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let at = self.insts.len();
        self.labels.bind(label, at);
    }

    /// Current instruction index.
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Emits a `ROUTE` with the given pairs.
    ///
    /// # Panics
    ///
    /// Panics on more than six pairs, or two pairs sharing a destination
    /// (the rules [`RoutePairs`](crate::isa::RoutePairs) holds).
    pub fn route(&mut self, pairs: &[(SSrc, SDst)]) {
        self.insts
            .push(SInst::Route(pairs.iter().copied().collect()));
    }

    /// Emits a single-pair route from a direction to the processor.
    pub fn route_in(&mut self, from: Dir) {
        self.route(&[(SSrc::Dir(from), SDst::Proc)]);
    }

    /// Emits a single-pair route from the processor towards a direction.
    pub fn route_out(&mut self, to: Dir) {
        self.route(&[(SSrc::Proc, SDst::Dir(to))]);
    }

    /// Emits a branch-if-non-zero on a switch register.
    pub fn bnez(&mut self, reg: u8, label: Label) {
        self.labels.record(self.insts.len(), label);
        self.insts.push(SInst::Bnez {
            reg,
            target: UNRESOLVED,
        });
    }

    /// Emits a branch-if-zero on a switch register.
    pub fn beqz(&mut self, reg: u8, label: Label) {
        self.labels.record(self.insts.len(), label);
        self.insts.push(SInst::Beqz {
            reg,
            target: UNRESOLVED,
        });
    }

    /// Emits an unconditional jump.
    pub fn jump(&mut self, label: Label) {
        self.labels.record(self.insts.len(), label);
        self.insts.push(SInst::Jump(UNRESOLVED));
    }

    /// Emits a halt.
    pub fn halt(&mut self) {
        self.insts.push(SInst::Halt);
    }

    /// Emits a no-op.
    pub fn nop(&mut self) {
        self.insts.push(SInst::Nop);
    }

    /// Resolves labels and returns the instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(self) -> Vec<SInst> {
        let mut insts = self.insts;
        for (at, label) in &self.labels.fixups {
            let target = self.labels.resolve(*label);
            match &mut insts[*at] {
                SInst::Jump(t) => *t = target,
                SInst::Bnez { target: t, .. } | SInst::Beqz { target: t, .. } => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_labels_resolve() {
        let mut a = ProcAsm::new();
        let end = a.new_label();
        a.jump(end);
        a.nop();
        a.bind(end);
        a.halt();
        let code = a.finish();
        assert_eq!(code[0], PInst::Jump(2));
    }

    #[test]
    fn backward_labels_resolve() {
        let mut a = ProcAsm::new();
        let top = a.new_label();
        a.bind(top);
        a.nop();
        a.bnez(Src::Reg(1), top);
        let code = a.finish();
        assert_eq!(
            code[1],
            PInst::Bnez {
                cond: Src::Reg(1),
                target: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = ProcAsm::new();
        let l = a.new_label();
        a.jump(l);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn duplicate_route_destination_panics() {
        let mut s = SwitchAsm::new();
        s.route(&[
            (SSrc::Proc, SDst::Dir(Dir::East)),
            (SSrc::Dir(Dir::West), SDst::Dir(Dir::East)),
        ]);
    }

    #[test]
    fn multicast_same_source_allowed() {
        let mut s = SwitchAsm::new();
        s.route(&[
            (SSrc::Proc, SDst::Dir(Dir::East)),
            (SSrc::Proc, SDst::Dir(Dir::West)),
            (SSrc::Proc, SDst::Proc),
        ]);
        let l = s.new_label();
        s.bind(l);
        s.bnez(3, l);
        s.halt();
        let code = s.finish();
        assert_eq!(code.len(), 3);
        assert_eq!(code[1], SInst::Bnez { reg: 3, target: 1 });
    }

    #[test]
    fn sugar_emits_expected_instructions() {
        let mut a = ProcAsm::new();
        a.li(Dst::Reg(1), Imm::I(5));
        a.addi(Dst::Reg(2), Src::Reg(1), 3);
        a.recv(Dst::Reg(3));
        a.send(Src::Reg(2));
        let code = a.finish();
        assert_eq!(code.len(), 4);
        assert!(matches!(code[2], PInst::Alu { a: Src::PortIn, .. }));
        assert!(matches!(
            code[3],
            PInst::Alu {
                dst: Dst::PortOut,
                ..
            }
        ));
    }
}
