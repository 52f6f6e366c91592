//! The tile processor: in-order, single-issue, fully bypassed, with blocking
//! port-register operands and Table-1 functional-unit latencies.
//!
//! Functional units are pipelined: one instruction issues per cycle, and a
//! destination register becomes usable `latency` cycles after issue. A consumer
//! of a not-yet-ready register stalls at issue (scoreboard), modelling full
//! bypassing without tracking pipeline stages individually.

use crate::channel::Channels;
use crate::config::MachineConfig;
use crate::decode::{Operand, PKind, POp, Stream, ALU_FNS};
use crate::dynnet::{DynEndpoint, DynMsg, MsgKind};
use crate::isa::{Dst, TileId, Word};
use crate::memory::LocalMem;
use crate::trace::StallReason;

/// Result of stepping a processor one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcOutcome {
    /// An instruction issued (or a pending event completed).
    Progress,
    /// The processor stalled (never [`StallReason::Chaos`]: chaos skips a
    /// step rather than stalling it).
    Stalled(StallReason),
    /// The processor has halted.
    Halted,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DynState {
    Idle,
    WaitLoad { dst: Dst },
    WaitStoreAck,
}

/// Maximum number of in-flight delayed port writes before issue stalls.
const MAX_PENDING_SENDS: usize = 2;

/// Everything one processor step touches outside the processor's own state:
/// the tile's decoded code, register file, memory, ports and endpoint.
pub(crate) struct TileView<'a> {
    /// The flat processor op table.
    pub(crate) ops: &'a [POp],
    pub(crate) regs: &'a mut [Word],
    pub(crate) ready: &'a mut [u64],
    pub(crate) mem: &'a mut LocalMem,
    pub(crate) chans: &'a mut Channels,
    pub(crate) dyn_ep: &'a mut DynEndpoint,
    pub(crate) config: &'a MachineConfig,
}

/// Control and micro-architectural state of one tile processor. Its
/// registers and their ready cycles live in the machine's per-tile slabs.
#[derive(Debug)]
pub(crate) struct Processor {
    tile: u32,
    /// This tile's stream in the machine's processor op table.
    code: Stream,
    /// Switch → processor channel id.
    pin: u32,
    /// Processor → switch channel id.
    pout: u32,
    pc: usize,
    halted: bool,
    dyn_state: DynState,
    /// Slot→physical home map for dynamic references. Empty means identity:
    /// fall back to [`MachineConfig::split_gaddr`]. Non-empty (always a power
    /// of two, set by the driver under a faulty-tile mask or co-residency)
    /// means global addresses interleave over these tiles instead.
    dyn_homes: Vec<TileId>,
    /// Port writes awaiting their producer latency, oldest first:
    /// `(visible_at, word)`; the first `n_pending` entries are live.
    pending: [(u64, Word); MAX_PENDING_SENDS],
    n_pending: usize,
    /// When the last step stalled on [`StallReason::Scoreboard`]
    /// at issue, the cycle at which the blocking register becomes ready.
    wake_hint: Option<u64>,
    /// Result latency of the operation issued by the last step
    /// (1 when the instruction produced no delayed result).
    last_latency: u32,
}

impl Processor {
    /// Creates a processor for `tile` at pc 0, running `code` with its
    /// ports on channels `pin` (from the switch) and `pout` (to it).
    pub(crate) fn new(tile: u32, code: Stream, pin: usize, pout: usize) -> Self {
        Processor {
            tile,
            code,
            pin: pin as u32,
            pout: pout as u32,
            pc: 0,
            halted: false,
            dyn_state: DynState::Idle,
            dyn_homes: Vec::new(),
            pending: [(0, 0); MAX_PENDING_SENDS],
            n_pending: 0,
            wake_hint: None,
            last_latency: 1,
        }
    }

    /// True once the processor executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted && self.n_pending == 0
    }

    /// Current program counter (for diagnostics).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// The switch → processor channel id.
    pub(crate) fn pin(&self) -> usize {
        self.pin as usize
    }

    /// The processor → switch channel id.
    pub(crate) fn pout(&self) -> usize {
        self.pout as usize
    }

    /// When the oldest pending port write is still waiting out its
    /// producer's latency, the cycle it matures — a timed wait that resolves
    /// by itself (the deadlock detector must treat it as progress).
    pub fn maturing_send(&self, cycle: u64) -> Option<u64> {
        let when = self.pending[0].0;
        (self.n_pending != 0 && cycle < when).then_some(when)
    }

    /// True if a pending port write is still waiting out its producer's
    /// latency.
    pub fn has_maturing_send(&self, cycle: u64) -> bool {
        self.maturing_send(cycle).is_some()
    }

    /// True while a remote load or store awaits its reply: the one state in
    /// which a step touches the dynamic-network endpoint.
    pub(crate) fn dyn_waiting(&self) -> bool {
        self.dyn_state != DynState::Idle
    }

    /// True if no delayed port write is in flight.
    pub fn out_pending_empty(&self) -> bool {
        self.n_pending == 0
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

    /// Injects a remote-memory request for global address `g` (a store's
    /// `value` follows the local address). Out of line, so the inlined step
    /// of static-network code does not carry it.
    #[cold]
    #[inline(never)]
    fn request(&self, tile: &mut TileView<'_>, kind: MsgKind, g: u32, value: Option<Word>) {
        let (home, local) = self.split_dyn(tile.config, g);
        let msg = match value {
            None => DynMsg::new(kind, self.tile, home, &[local]),
            Some(v) => DynMsg::new(kind, self.tile, home, &[local, v]),
        };
        debug_assert_eq!(msg.flits(), kind.flits());
        tile.dyn_ep.inject(msg);
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
    /// delayed result). Meaningful right after a step that
    /// returned [`ProcOutcome::Progress`]; feeds issue events for tracing.
    pub fn last_issue_latency(&self) -> u32 {
        self.last_latency
    }

    /// Drains the oldest pending send into the output port if it has
    /// matured and the port has space (the port engine, one word a cycle).
    #[inline]
    fn drain(&mut self, cycle: u64, chans: &mut Channels, pout: usize) -> bool {
        if self.n_pending == 0 {
            return false;
        }
        let (when, word) = self.pending[0];
        if cycle < when || !chans.can_write(pout) {
            return false;
        }
        chans.write(pout, word);
        self.pending[0] = self.pending[1];
        self.n_pending -= 1;
        true
    }

    #[inline]
    fn write_dst(
        &mut self,
        tile: &mut TileView<'_>,
        dst: Dst,
        value: Word,
        cycle: u64,
        latency: u32,
    ) {
        self.last_latency = latency;
        match dst {
            Dst::Reg(r) => {
                tile.regs[r as usize] = value;
                tile.ready[r as usize] = cycle + latency as u64;
            }
            Dst::PortOut => {
                // The word reaches the switch one cycle after the producing
                // operation completes; channel staging supplies that +1, and the
                // pending queue supplies the op latency beyond the issue cycle.
                assert!(self.n_pending < MAX_PENDING_SENDS, "port engine overflow");
                self.pending[self.n_pending] = (cycle + latency.saturating_sub(1) as u64, value);
                self.n_pending += 1;
            }
        }
    }

    /// Steps the processor one cycle over its tile's decoded code.
    #[inline(always)]
    pub(crate) fn step(&mut self, tile: &mut TileView<'_>, cycle: u64) -> ProcOutcome {
        self.wake_hint = None;
        self.last_latency = 1;
        // Drain one matured pending send per cycle (the port engine).
        let (pin, pout) = (self.pin(), self.pout());
        let drained = self.drain(cycle, tile.chans, pout);

        if self.halted {
            return if drained {
                ProcOutcome::Progress
            } else if self.n_pending == 0 {
                ProcOutcome::Halted
            } else if self.has_maturing_send(cycle) {
                // Timed wait for the producing op's latency — always resolves.
                ProcOutcome::Stalled(StallReason::Scoreboard)
            } else {
                ProcOutcome::Stalled(StallReason::SendFull)
            };
        }

        // Dynamic-network wait states block issue until the reply arrives.
        match self.dyn_state {
            DynState::WaitLoad { dst } => {
                if let Some(msg) = tile.dyn_ep.proc_inbox.pop_front() {
                    debug_assert_eq!(msg.kind, MsgKind::LoadReply);
                    self.write_dst(tile, dst, msg.payload()[0], cycle, 1);
                    self.dyn_state = DynState::Idle;
                    return ProcOutcome::Progress;
                }
                return ProcOutcome::Stalled(StallReason::DynamicNetwork);
            }
            DynState::WaitStoreAck => {
                if let Some(msg) = tile.dyn_ep.proc_inbox.pop_front() {
                    debug_assert_eq!(msg.kind, MsgKind::StoreAck);
                    self.dyn_state = DynState::Idle;
                    return ProcOutcome::Progress;
                }
                return ProcOutcome::Stalled(StallReason::DynamicNetwork);
            }
            DynState::Idle => {}
        }

        let ops = tile.ops;
        let Some(op) = self.code.fetch(ops, self.pc) else {
            // Running off the end is treated as halt.
            self.halted = true;
            return ProcOutcome::Progress;
        };

        // Readiness checks in operand order (no side effects yet).
        for &src in &op.srcs[..op.n_srcs as usize] {
            match src {
                Operand::Reg(r) => {
                    let ready = tile.ready[usize::from(u16::from_ne_bytes(r))];
                    if cycle < ready {
                        self.wake_hint = Some(ready);
                        return ProcOutcome::Stalled(StallReason::Scoreboard);
                    }
                }
                Operand::Port => {
                    if !tile.chans.can_read(pin) {
                        return ProcOutcome::Stalled(StallReason::ReceiveEmpty);
                    }
                }
                Operand::Int(_) | Operand::Float(_) => {}
            }
        }
        if op.sends && self.n_pending >= MAX_PENDING_SENDS {
            return ProcOutcome::Stalled(StallReason::SendFull);
        }

        #[inline(always)]
        fn read(tile: &mut TileView<'_>, src: Operand, pin: usize) -> Word {
            match src {
                Operand::Reg(r) => tile.regs[usize::from(u16::from_ne_bytes(r))],
                Operand::Int(w) | Operand::Float(w) => Word::from_ne_bytes(w),
                Operand::Port => tile.chans.read(pin),
            }
        }
        match op.kind {
            PKind::Alu => {
                let av = read(tile, op.srcs[0], pin);
                let bv = if op.n_srcs == 2 {
                    read(tile, op.srcs[1], pin)
                } else {
                    0
                };
                self.write_dst(
                    tile,
                    op.dst,
                    ALU_FNS[op.alu as usize](av, bv),
                    cycle,
                    op.latency.into(),
                );
                self.pc += 1;
            }
            PKind::Load => {
                let a = effective_addr(read(tile, op.srcs[0], pin), op.offset());
                let val = usize::try_from(a)
                    .ok()
                    .and_then(|a| tile.mem.load(a))
                    .unwrap_or_else(|| {
                        panic!(
                            "tile{} load out of memory bounds: addr {a} (pc {})",
                            self.tile, self.pc
                        )
                    });
                self.write_dst(tile, op.dst, val, cycle, op.latency.into());
                self.pc += 1;
            }
            PKind::Store => {
                let v = read(tile, op.srcs[0], pin);
                let a = effective_addr(read(tile, op.srcs[1], pin), op.offset());
                usize::try_from(a)
                    .ok()
                    .and_then(|a| tile.mem.store(a, v))
                    .unwrap_or_else(|| {
                        panic!(
                            "tile{} store out of memory bounds: addr {a} (pc {})",
                            self.tile, self.pc
                        )
                    });
                self.pc += 1;
            }
            PKind::DLoad => {
                if !tile.dyn_ep.can_inject(MsgKind::LoadReq.flits()) {
                    return ProcOutcome::Stalled(StallReason::DynamicNetwork);
                }
                let g = read(tile, op.srcs[0], pin).wrapping_add(op.arg);
                self.request(tile, MsgKind::LoadReq, g, None);
                self.dyn_state = DynState::WaitLoad { dst: op.dst };
                self.pc += 1;
            }
            PKind::DStore => {
                if !tile.dyn_ep.can_inject(MsgKind::StoreReq.flits()) {
                    return ProcOutcome::Stalled(StallReason::DynamicNetwork);
                }
                let v = read(tile, op.srcs[0], pin);
                let g = read(tile, op.srcs[1], pin).wrapping_add(op.arg);
                self.request(tile, MsgKind::StoreReq, g, Some(v));
                self.dyn_state = DynState::WaitStoreAck;
                self.pc += 1;
            }
            PKind::Jump => {
                self.pc = op.target();
            }
            PKind::Bnez => {
                let c = read(tile, op.srcs[0], pin);
                self.pc = if c != 0 { op.target() } else { self.pc + 1 };
            }
            PKind::Beqz => {
                let c = read(tile, op.srcs[0], pin);
                self.pc = if c == 0 { op.target() } else { self.pc + 1 };
            }
            PKind::Halt => {
                self.halted = true;
            }
            PKind::Nop => {
                self.pc += 1;
            }
        }
        // A send whose producing op completes this cycle (e.g. a 1-cycle mov to
        // the port) must reach the switch next cycle, so drain it now unless the
        // port engine already moved a word this cycle.
        if !drained {
            self.drain(cycle, tile.chans, pout);
        }
        ProcOutcome::Progress
    }
}

/// A local memory instruction's word address: the base register,
/// sign-extended as on MIPS, plus the immediate offset. A negative base
/// with a larger offset addresses a real word; a negative sum addresses
/// none and faults.
fn effective_addr(base: Word, offset: i32) -> i64 {
    i64::from(base as i32) + i64::from(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProcAsm;
    use crate::decode::{Program, Wiring};
    use crate::isa::{PInst, Src, TileCode};
    use raw_ir::{BinOp, Imm};

    /// One processor wired to two channels (0: switch → processor, 1:
    /// processor → switch), stepped over the decoded form of `code`.
    struct Bench {
        proc: Processor,
        code: Vec<POp>,
        regs: Vec<Word>,
        ready: Vec<u64>,
        mem: LocalMem,
        chans: Channels,
        dyn_ep: DynEndpoint,
        config: MachineConfig,
    }

    impl Bench {
        fn new(code: Vec<PInst>, mem_words: usize) -> Bench {
            let config = MachineConfig::grid(1, 1);
            let wiring = Wiring {
                ps: vec![1],
                sp: vec![0],
                link_out: vec![[None; 4]],
                link_in: vec![[None; 4]],
                regs: config.switch_regs,
            };
            let tiles = [TileCode {
                proc: code,
                switch: Vec::new(),
            }];
            let prog = Program::decode(&tiles, &wiring, &config);
            Bench {
                proc: Processor::new(0, prog.proc_code[0], 0, 1),
                code: prog.pops,
                regs: vec![0; 32],
                ready: vec![0; 32],
                mem: LocalMem::new(mem_words),
                chans: Channels::new(2, 4),
                dyn_ep: DynEndpoint::new(16),
                config,
            }
        }

        fn step(&mut self, cycle: u64) -> ProcOutcome {
            let mut tile = TileView {
                ops: &self.code,
                regs: &mut self.regs,
                ready: &mut self.ready,
                mem: &mut self.mem,
                chans: &mut self.chans,
                dyn_ep: &mut self.dyn_ep,
                config: &self.config,
            };
            self.proc.step(&mut tile, cycle)
        }

        /// Steps until halted (committing both channels every cycle);
        /// returns the cycle count.
        fn run(&mut self, max_cycles: u64) -> u64 {
            let mut cycle = 0;
            while !self.proc.halted() && cycle < max_cycles {
                self.step(cycle);
                self.chans.commit(0);
                self.chans.commit(1);
                cycle += 1;
            }
            cycle
        }
    }

    fn run_single(code: Vec<PInst>, max_cycles: u64) -> (Bench, u64) {
        let mut bench = Bench::new(code, 1024);
        let cycles = bench.run(max_cycles);
        (bench, cycles)
    }

    #[test]
    fn arithmetic_and_store() {
        let mut a = ProcAsm::new();
        a.li(Dst::Reg(1), Imm::I(40));
        a.addi(Dst::Reg(2), Src::Reg(1), 2);
        a.store_imm_addr(Src::Reg(2), 8);
        a.halt();
        let (bench, _) = run_single(a.finish(), 100);
        assert!(bench.proc.halted());
        assert_eq!(bench.mem.load(8).unwrap(), 42);
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
        let (bench, cycles) = run_single(a.finish(), 100);
        assert_eq!(bench.mem.load(0).unwrap(), 42);
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
        let (bench, cycles) = run_single(a.finish(), 100);
        assert_eq!(bench.mem.load(0).unwrap(), 42);
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
        let (bench, _) = run_single(a.finish(), 100);
        assert_eq!(bench.mem.load(4).unwrap(), 6);
    }

    #[test]
    fn port_read_blocks_until_data() {
        let mut a = ProcAsm::new();
        a.recv(Dst::Reg(1));
        a.store_imm_addr(Src::Reg(1), 0);
        a.halt();
        let mut bench = Bench::new(a.finish(), 64);
        // Three cycles with no data: all stall.
        for cycle in 0..3 {
            let out = bench.step(cycle);
            assert_eq!(out, ProcOutcome::Stalled(StallReason::ReceiveEmpty));
            bench.chans.commit(0);
        }
        bench.chans.write(0, 99);
        bench.chans.commit(0);
        for cycle in 3..10 {
            bench.step(cycle);
            bench.chans.commit(0);
        }
        assert!(bench.proc.halted());
        assert_eq!(bench.mem.load(0).unwrap(), 99);
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
        let (bench, _) = run_single(a.finish(), 1000);
        assert_eq!(bench.mem.load(0).unwrap(), 5);
    }

    #[test]
    fn halted_processor_drains_pending_sends() {
        let mut a = ProcAsm::new();
        a.send(Src::Imm(Imm::I(11)));
        a.halt();
        let mut bench = Bench::new(a.finish(), 16);
        bench.run(50);
        assert!(bench.proc.halted());
        assert_eq!(bench.chans.read(1), 11);
    }

    #[test]
    fn a_maturing_send_is_reported_until_it_matures() {
        // A 12-cycle multiply into the port: the word waits out the latency
        // in the port engine before it reaches the channel.
        let mut a = ProcAsm::new();
        a.bin(
            BinOp::Mul,
            Dst::PortOut,
            Src::Imm(Imm::I(6)),
            Src::Imm(Imm::I(7)),
        );
        a.halt();
        let mut bench = Bench::new(a.finish(), 16);
        assert_eq!(bench.step(0), ProcOutcome::Progress);
        assert_eq!(bench.proc.maturing_send(0), Some(11));
        assert_eq!(bench.step(1), ProcOutcome::Progress, "the halt issues");
        assert_eq!(bench.step(2), ProcOutcome::Stalled(StallReason::Scoreboard));
        assert_eq!(bench.proc.maturing_send(10), Some(11));
        assert_eq!(bench.proc.maturing_send(11), None);
        assert_eq!(bench.step(11), ProcOutcome::Progress, "the word drains");
        assert!(bench.proc.halted());
    }

    #[test]
    fn negative_base_register_plus_offset_addresses_a_word() {
        let mut a = ProcAsm::new();
        a.li(Dst::Reg(1), Imm::I(77));
        a.store_imm_addr(Src::Reg(1), 5);
        a.li(Dst::Reg(2), Imm::I(-3));
        a.load(Dst::Reg(3), Src::Reg(2), 8);
        a.store(Src::Reg(3), Src::Reg(2), 10);
        a.halt();
        let (bench, _) = run_single(a.finish(), 100);
        assert!(bench.proc.halted());
        assert_eq!(
            bench.mem.load(7).unwrap(),
            77,
            "-3 + 8 loads word 5, -3 + 10 stores word 7"
        );
    }

    #[test]
    #[should_panic(expected = "load out of memory bounds: addr -1")]
    fn negative_effective_address_faults() {
        let mut a = ProcAsm::new();
        a.li(Dst::Reg(2), Imm::I(-3));
        a.load(Dst::Reg(3), Src::Reg(2), 2);
        a.halt();
        run_single(a.finish(), 100);
    }
}
