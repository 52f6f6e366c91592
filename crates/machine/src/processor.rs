//! The tile processor: in-order, single-issue, fully bypassed, with blocking
//! port-register operands and Table-1 functional-unit latencies.
//!
//! Functional units are pipelined: one instruction issues per cycle, and a
//! destination register becomes usable `latency` cycles after issue. A consumer
//! of a not-yet-ready register stalls at issue (scoreboard), modelling full
//! bypassing without tracking pipeline stages individually.

use crate::channel::Channel;
use crate::config::MachineConfig;
use crate::dynnet::{DynEndpoint, DynMsg, MsgKind};
use crate::isa::{Dst, PInst, Src, TileId, Word};
use std::collections::VecDeque;

/// Why a processor failed to issue this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// A source register's value is still in flight.
    RegNotReady,
    /// The static-network input port is empty.
    PortInEmpty,
    /// The static-network output port is full.
    PortOutFull,
    /// Waiting for a dynamic-network reply or injection space.
    Dynamic,
}

/// Result of stepping a processor one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcOutcome {
    /// An instruction issued (or a pending event completed).
    Progress,
    /// The processor stalled.
    Stalled(StallCause),
    /// The processor has halted.
    Halted,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DynState {
    Idle,
    WaitLoad { dst: Dst },
    WaitStoreAck,
}

/// Architectural + micro-architectural state of one tile processor.
#[derive(Debug)]
pub struct Processor {
    tile: u32,
    pc: usize,
    halted: bool,
    regs: Vec<Word>,
    ready: Vec<u64>,
    dyn_state: DynState,
    /// Slot→physical home map for dynamic references. Empty means identity:
    /// fall back to [`MachineConfig::split_gaddr`]. Non-empty (always a power
    /// of two, set by the driver under a faulty-tile mask or co-residency)
    /// means global addresses interleave over these tiles instead.
    dyn_homes: Vec<TileId>,
    /// Port writes awaiting their producer latency: `(visible_at, word)`.
    out_pending: VecDeque<(u64, Word)>,
    /// When the last [`step`](Self::step) stalled on [`StallCause::RegNotReady`]
    /// at issue, the cycle at which the blocking register becomes ready.
    wake_hint: Option<u64>,
    /// Result latency of the operation issued by the last [`step`](Self::step)
    /// (1 when the instruction produced no delayed result).
    last_latency: u32,
}

/// Maximum number of in-flight delayed port writes before issue stalls.
const MAX_PENDING_SENDS: usize = 2;

impl Processor {
    /// Creates a processor for `tile` with `gprs` registers, all zero.
    pub fn new(tile: u32, gprs: u32) -> Self {
        Processor {
            tile,
            pc: 0,
            halted: false,
            regs: vec![0; gprs as usize],
            ready: vec![0; gprs as usize],
            dyn_state: DynState::Idle,
            dyn_homes: Vec::new(),
            out_pending: VecDeque::new(),
            wake_hint: None,
            last_latency: 1,
        }
    }

    /// True once the processor executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted && self.out_pending.is_empty()
    }

    /// Current program counter (for diagnostics).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Reads an architectural register (for tests/diagnostics).
    pub fn reg(&self, r: u16) -> Word {
        self.regs[r as usize]
    }

    /// True if a pending port write is still waiting out its producer's
    /// latency — a timed wait that resolves by itself (the deadlock detector
    /// must treat it as progress).
    pub fn has_maturing_send(&self, cycle: u64) -> bool {
        self.out_pending
            .front()
            .is_some_and(|&(when, _)| cycle < when)
    }

    /// True if no delayed port write is in flight.
    pub fn out_pending_empty(&self) -> bool {
        self.out_pending.is_empty()
    }

    /// Overrides the global-address→home mapping for dynamic references.
    /// `homes.len()` must be a power of two; pass an empty vector to restore
    /// the default [`MachineConfig::split_gaddr`] interleave.
    pub fn set_dyn_homes(&mut self, homes: Vec<TileId>) {
        assert!(
            homes.is_empty() || homes.len().is_power_of_two(),
            "dyn_homes length must be a power of two"
        );
        self.dyn_homes = homes;
    }

    /// Splits a global address into `(home tile index, local word address)`,
    /// honouring the per-processor home map when one is installed.
    fn split_dyn(&self, config: &MachineConfig, g: u32) -> (u32, u32) {
        if self.dyn_homes.is_empty() {
            let (home, local) = config.split_gaddr(g);
            (home.0, local)
        } else {
            let n = self.dyn_homes.len() as u32;
            let slot = (g & (n - 1)) as usize;
            (self.dyn_homes[slot].0, g >> n.trailing_zeros())
        }
    }

    /// If the last step stalled at issue on a not-yet-ready register, the cycle
    /// at which that register becomes ready — i.e. the earliest cycle the
    /// processor can possibly issue. Used by the production stepper as the
    /// calendar timer of the processor's timed sleep. Contract: the hint must never be
    /// *later* than the actual ready cycle (a late timer would change the
    /// issue cycle and break stepper bit-identity); an early hint is harmless
    /// — the woken processor re-stalls, re-hints, and sleeps again.
    pub fn wake_hint(&self) -> Option<u64> {
        self.wake_hint
    }

    /// Result latency of the most recently issued operation (1 when it had no
    /// delayed result). Meaningful right after a [`step`](Self::step) that
    /// returned [`ProcOutcome::Progress`]; feeds issue events for tracing.
    pub fn last_issue_latency(&self) -> u32 {
        self.last_latency
    }

    fn src_ready(&self, src: Src, cycle: u64, port_in: &Channel) -> Result<(), StallCause> {
        match src {
            Src::Reg(r) => {
                if cycle >= self.ready[r as usize] {
                    Ok(())
                } else {
                    Err(StallCause::RegNotReady)
                }
            }
            Src::Imm(_) => Ok(()),
            Src::PortIn => {
                if port_in.can_read() {
                    Ok(())
                } else {
                    Err(StallCause::PortInEmpty)
                }
            }
        }
    }

    fn read_src(&self, src: Src, port_in: &mut Channel) -> Word {
        match src {
            Src::Reg(r) => self.regs[r as usize],
            Src::Imm(imm) => imm.to_bits(),
            Src::PortIn => port_in.read(),
        }
    }

    fn write_dst(&mut self, dst: Dst, value: Word, cycle: u64, latency: u32) {
        self.last_latency = latency;
        match dst {
            Dst::Reg(r) => {
                self.regs[r as usize] = value;
                self.ready[r as usize] = cycle + latency as u64;
            }
            Dst::PortOut => {
                // The word reaches the switch one cycle after the producing
                // operation completes; channel staging supplies that +1, and the
                // pending queue supplies the op latency beyond the issue cycle.
                self.out_pending
                    .push_back((cycle + latency.saturating_sub(1) as u64, value));
            }
        }
    }

    /// Steps the processor one cycle.
    ///
    /// `mem` is this tile's local data memory; `port_in`/`port_out` are the
    /// static-network channels to/from this tile's switch; `dyn_ep` is the
    /// dynamic-network endpoint.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        code: &[PInst],
        cycle: u64,
        config: &MachineConfig,
        mem: &mut [Word],
        port_in: &mut Channel,
        port_out: &mut Channel,
        dyn_ep: &mut DynEndpoint,
    ) -> ProcOutcome {
        self.wake_hint = None;
        self.last_latency = 1;
        // Drain one matured pending send per cycle (the port engine).
        let mut drained = false;
        if let Some(&(when, word)) = self.out_pending.front() {
            if cycle >= when && port_out.can_write() {
                port_out.write(word);
                self.out_pending.pop_front();
                drained = true;
            }
        }

        if self.halted {
            return if drained {
                ProcOutcome::Progress
            } else if self.out_pending.is_empty() {
                ProcOutcome::Halted
            } else if self
                .out_pending
                .front()
                .is_some_and(|&(when, _)| cycle < when)
            {
                // Timed wait for the producing op's latency — always resolves.
                ProcOutcome::Stalled(StallCause::RegNotReady)
            } else {
                ProcOutcome::Stalled(StallCause::PortOutFull)
            };
        }

        // Dynamic-network wait states block issue until the reply arrives.
        match self.dyn_state {
            DynState::WaitLoad { dst } => {
                if let Some(msg) = dyn_ep.proc_inbox.pop_front() {
                    debug_assert_eq!(msg.kind, MsgKind::LoadReply);
                    self.write_dst(dst, msg.payload[0], cycle, 1);
                    self.dyn_state = DynState::Idle;
                    return ProcOutcome::Progress;
                }
                return ProcOutcome::Stalled(StallCause::Dynamic);
            }
            DynState::WaitStoreAck => {
                if let Some(msg) = dyn_ep.proc_inbox.pop_front() {
                    debug_assert_eq!(msg.kind, MsgKind::StoreAck);
                    self.dyn_state = DynState::Idle;
                    return ProcOutcome::Progress;
                }
                return ProcOutcome::Stalled(StallCause::Dynamic);
            }
            DynState::Idle => {}
        }

        let inst = match code.get(self.pc) {
            Some(&i) => i,
            None => {
                // Running off the end is treated as halt.
                self.halted = true;
                return ProcOutcome::Progress;
            }
        };

        // Readiness checks in operand order (no side effects yet). Checked
        // inline rather than via `PInst::sources()` to keep the hot path free
        // of per-cycle allocations.
        let srcs: [Option<Src>; 2] = match inst {
            PInst::Alu { op, a, b, .. } => match op {
                crate::isa::AluOp::Un(_) => [Some(a), None],
                crate::isa::AluOp::Bin(_) => [Some(a), Some(b)],
            },
            PInst::Load { addr, .. } => [Some(addr), None],
            PInst::Store { value, addr, .. } => [Some(value), Some(addr)],
            PInst::DLoad { gaddr, .. } => [Some(gaddr), None],
            PInst::DStore { gaddr, value } => [Some(gaddr), Some(value)],
            PInst::Bnez { cond, .. } | PInst::Beqz { cond, .. } => [Some(cond), None],
            PInst::Jump(_) | PInst::Halt | PInst::Nop => [None, None],
        };
        for src in srcs.into_iter().flatten() {
            if let Err(cause) = self.src_ready(src, cycle, port_in) {
                if cause == StallCause::RegNotReady {
                    if let Src::Reg(r) = src {
                        self.wake_hint = Some(self.ready[r as usize]);
                    }
                }
                return ProcOutcome::Stalled(cause);
            }
        }
        if let Some(Dst::PortOut) = inst.dst() {
            if self.out_pending.len() >= MAX_PENDING_SENDS {
                return ProcOutcome::Stalled(StallCause::PortOutFull);
            }
        }

        match inst {
            PInst::Alu { op, dst, a, b } => {
                let av = self.read_src(a, port_in);
                let bv = match op {
                    crate::isa::AluOp::Un(_) => 0,
                    crate::isa::AluOp::Bin(_) => self.read_src(b, port_in),
                };
                let latency = config.latency.alu_latency(op);
                let val = op.eval(av, bv);
                self.write_dst(dst, val, cycle, latency);
                self.pc += 1;
            }
            PInst::Load { dst, addr, offset } => {
                let base = self.read_src(addr, port_in) as i64;
                let a = (base + offset as i64) as usize;
                let val = mem.get(a).copied().unwrap_or_else(|| {
                    panic!(
                        "tile{} load out of memory bounds: addr {a} (pc {})",
                        self.tile, self.pc
                    )
                });
                self.write_dst(dst, val, cycle, config.mem_latency);
                self.pc += 1;
            }
            PInst::Store {
                value,
                addr,
                offset,
            } => {
                let v = self.read_src(value, port_in);
                let base = self.read_src(addr, port_in) as i64;
                let a = (base + offset as i64) as usize;
                assert!(
                    a < mem.len(),
                    "tile{} store out of memory bounds: addr {a} (pc {})",
                    self.tile,
                    self.pc
                );
                mem[a] = v;
                self.pc += 1;
            }
            PInst::DLoad { dst, gaddr } => {
                if !dyn_ep.can_inject(2) {
                    return ProcOutcome::Stalled(StallCause::Dynamic);
                }
                let g = self.read_src(gaddr, port_in);
                let (home, local) = self.split_dyn(config, g);
                dyn_ep.inject(DynMsg {
                    kind: MsgKind::LoadReq,
                    src: self.tile,
                    dest: home,
                    payload: vec![local],
                });
                self.dyn_state = DynState::WaitLoad { dst };
                self.pc += 1;
            }
            PInst::DStore { gaddr, value } => {
                if !dyn_ep.can_inject(3) {
                    return ProcOutcome::Stalled(StallCause::Dynamic);
                }
                let g = self.read_src(gaddr, port_in);
                let v = self.read_src(value, port_in);
                let (home, local) = self.split_dyn(config, g);
                dyn_ep.inject(DynMsg {
                    kind: MsgKind::StoreReq,
                    src: self.tile,
                    dest: home,
                    payload: vec![local, v],
                });
                self.dyn_state = DynState::WaitStoreAck;
                self.pc += 1;
            }
            PInst::Jump(target) => {
                self.pc = target;
            }
            PInst::Bnez { cond, target } => {
                let c = self.read_src(cond, port_in);
                self.pc = if c != 0 { target } else { self.pc + 1 };
            }
            PInst::Beqz { cond, target } => {
                let c = self.read_src(cond, port_in);
                self.pc = if c == 0 { target } else { self.pc + 1 };
            }
            PInst::Halt => {
                self.halted = true;
            }
            PInst::Nop => {
                self.pc += 1;
            }
        }
        // A send whose producing op completes this cycle (e.g. a 1-cycle mov to
        // the port) must reach the switch next cycle, so drain it now unless the
        // port engine already moved a word this cycle.
        if !drained {
            if let Some(&(when, word)) = self.out_pending.front() {
                if cycle >= when && port_out.can_write() {
                    port_out.write(word);
                    self.out_pending.pop_front();
                }
            }
        }
        ProcOutcome::Progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProcAsm;
    use raw_ir::{BinOp, Imm};

    fn run_single(
        code: Vec<PInst>,
        max_cycles: u64,
    ) -> (Processor, Vec<Word>, Channel, Channel, u64) {
        let config = MachineConfig::grid(1, 1);
        let mut proc = Processor::new(0, 32);
        let mut mem = vec![0u32; 1024];
        let mut pin = Channel::new(4);
        let mut pout = Channel::new(4);
        let mut dyn_ep = DynEndpoint::new(16);
        let mut cycle = 0;
        while !proc.halted() && cycle < max_cycles {
            proc.step(
                &code,
                cycle,
                &config,
                &mut mem,
                &mut pin,
                &mut pout,
                &mut dyn_ep,
            );
            pin.commit();
            pout.commit();
            cycle += 1;
        }
        (proc, mem, pin, pout, cycle)
    }

    #[test]
    fn arithmetic_and_store() {
        let mut a = ProcAsm::new();
        a.li(Dst::Reg(1), Imm::I(40));
        a.addi(Dst::Reg(2), Src::Reg(1), 2);
        a.store_imm_addr(Src::Reg(2), 8);
        a.halt();
        let (proc, mem, ..) = run_single(a.finish(), 100);
        assert!(proc.halted());
        assert_eq!(mem[8], 42);
    }

    #[test]
    fn scoreboard_enforces_latency() {
        // mul (12 cycles) followed immediately by a dependent add: the add must
        // stall until cycle 1 + 12.
        let mut a = ProcAsm::new();
        a.bin(
            BinOp::Mul,
            Dst::Reg(1),
            Src::Imm(Imm::I(6)),
            Src::Imm(Imm::I(7)),
        );
        a.addi(Dst::Reg(2), Src::Reg(1), 0);
        a.store_imm_addr(Src::Reg(2), 0);
        a.halt();
        let (_, mem, _, _, cycles) = run_single(a.finish(), 100);
        assert_eq!(mem[0], 42);
        // issue mul at 0; add issues at 12; store at 13; halt at 14 → 15 cycles.
        assert_eq!(cycles, 15);
    }

    #[test]
    fn independent_ops_overlap_with_mul() {
        // mul at cycle 0, three independent adds at 1..3, then dependent store.
        let mut a = ProcAsm::new();
        a.bin(
            BinOp::Mul,
            Dst::Reg(1),
            Src::Imm(Imm::I(6)),
            Src::Imm(Imm::I(7)),
        );
        a.addi(Dst::Reg(3), Src::Imm(Imm::I(1)), 1);
        a.addi(Dst::Reg(4), Src::Imm(Imm::I(2)), 2);
        a.addi(Dst::Reg(5), Src::Imm(Imm::I(3)), 3);
        a.store_imm_addr(Src::Reg(1), 0);
        a.halt();
        let (_, mem, _, _, cycles) = run_single(a.finish(), 100);
        assert_eq!(mem[0], 42);
        // store must wait for mul's result at cycle 12, halts at 13 → 14 total.
        assert_eq!(cycles, 14);
    }

    #[test]
    fn load_latency_applies() {
        let mut a = ProcAsm::new();
        a.li(Dst::Reg(1), Imm::I(5));
        a.store_imm_addr(Src::Reg(1), 3);
        a.load(Dst::Reg(2), Src::Imm(Imm::I(3)), 0);
        a.addi(Dst::Reg(3), Src::Reg(2), 1);
        a.store_imm_addr(Src::Reg(3), 4);
        a.halt();
        let (_, mem, ..) = run_single(a.finish(), 100);
        assert_eq!(mem[4], 6);
    }

    #[test]
    fn port_read_blocks_until_data() {
        let config = MachineConfig::grid(1, 1);
        let mut proc = Processor::new(0, 32);
        let mut mem = vec![0u32; 64];
        let mut pin = Channel::new(4);
        let mut pout = Channel::new(4);
        let mut dyn_ep = DynEndpoint::new(16);
        let mut a = ProcAsm::new();
        a.recv(Dst::Reg(1));
        a.store_imm_addr(Src::Reg(1), 0);
        a.halt();
        let code = a.finish();
        // Three cycles with no data: all stall.
        for cycle in 0..3 {
            let out = proc.step(
                &code,
                cycle,
                &config,
                &mut mem,
                &mut pin,
                &mut pout,
                &mut dyn_ep,
            );
            assert_eq!(out, ProcOutcome::Stalled(StallCause::PortInEmpty));
            pin.commit();
        }
        pin.write(99);
        pin.commit();
        for cycle in 3..10 {
            proc.step(
                &code,
                cycle,
                &config,
                &mut mem,
                &mut pin,
                &mut pout,
                &mut dyn_ep,
            );
            pin.commit();
        }
        assert!(proc.halted());
        assert_eq!(mem[0], 99);
    }

    #[test]
    fn branch_loop_counts() {
        // r1 = 0; do { r1 += 1 } while (r1 != 5); store r1.
        let mut a = ProcAsm::new();
        a.li(Dst::Reg(1), Imm::I(0));
        let top = a.new_label();
        a.bind(top);
        a.addi(Dst::Reg(1), Src::Reg(1), 1);
        a.bin(BinOp::Sne, Dst::Reg(2), Src::Reg(1), Src::Imm(Imm::I(5)));
        a.bnez(Src::Reg(2), top);
        a.store_imm_addr(Src::Reg(1), 0);
        a.halt();
        let (_, mem, ..) = run_single(a.finish(), 1000);
        assert_eq!(mem[0], 5);
    }

    #[test]
    fn halted_processor_drains_pending_sends() {
        let config = MachineConfig::grid(1, 1);
        let mut proc = Processor::new(0, 32);
        let mut mem = vec![0u32; 16];
        let mut pin = Channel::new(4);
        let mut pout = Channel::new(4);
        let mut dyn_ep = DynEndpoint::new(16);
        let mut a = ProcAsm::new();
        a.send(Src::Imm(Imm::I(11)));
        a.halt();
        let code = a.finish();
        let mut cycle = 0;
        while !proc.halted() && cycle < 50 {
            proc.step(
                &code,
                cycle,
                &config,
                &mut mem,
                &mut pin,
                &mut pout,
                &mut dyn_ep,
            );
            pout.commit();
            cycle += 1;
        }
        assert!(proc.halted());
        assert_eq!(pout.read(), 11);
    }
}
