//! The dynamic network: a dimension-ordered wormhole router per tile plus a
//! remote-memory message handler (paper §3.1 and §5.1).
//!
//! Messages are sequences of word-sized flits: a header (encoding kind, source,
//! destination, and payload length) followed by payload words. Flits move one
//! hop per cycle per link; a message's flits stay contiguous (wormhole), with an
//! output port locked to one input until the current message's tail passes.
//! Routing is X-then-Y dimension ordered, which is deadlock-free on a mesh.
//!
//! Each tile also has a **remote-memory handler**: when a `LoadReq`/`StoreReq`
//! message arrives, the handler performs the local memory access (after the
//! normal memory latency) and sends back a `LoadReply`/`StoreAck`. The handler
//! is modelled as a small autonomous unit so remote traffic does not perturb the
//! tile's statically scheduled processor — the property that makes static
//! schedules robust to dynamic events.

use crate::config::MAX_TILES;
use crate::isa::Word;
use crate::memory::LocalMem;
use std::collections::VecDeque;

/// The four dynamic message kinds used by the remote-memory protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Request: read one word at a local address. Payload: `[local_addr]`.
    LoadReq,
    /// Response to `LoadReq`. Payload: `[value]`.
    LoadReply,
    /// Request: write one word. Payload: `[local_addr, value]`.
    StoreReq,
    /// Response to `StoreReq`. Payload: `[]`.
    StoreAck,
}

impl MsgKind {
    fn encode(self) -> u32 {
        match self {
            MsgKind::LoadReq => 0,
            MsgKind::LoadReply => 1,
            MsgKind::StoreReq => 2,
            MsgKind::StoreAck => 3,
        }
    }

    fn decode(v: u32) -> MsgKind {
        match v {
            0 => MsgKind::LoadReq,
            1 => MsgKind::LoadReply,
            2 => MsgKind::StoreReq,
            3 => MsgKind::StoreAck,
            other => panic!("bad message kind {other}"),
        }
    }

    /// True for messages consumed by the handler (requests); false for
    /// messages consumed by the processor (responses).
    pub fn for_handler(self) -> bool {
        matches!(self, MsgKind::LoadReq | MsgKind::StoreReq)
    }
}

/// An assembled dynamic-network message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynMsg {
    /// Message kind.
    pub kind: MsgKind,
    /// Source tile index.
    pub src: u32,
    /// Destination tile index.
    pub dest: u32,
    /// Payload words.
    pub payload: Vec<Word>,
}

impl DynMsg {
    /// Encodes into header + payload flits.
    ///
    /// Header layout (most- to least-significant): 2-bit kind, 11-bit source
    /// tile, 11-bit destination tile, 8-bit payload length — sized for the
    /// simulator's large-mesh regime (up to [`MAX_TILES`] tiles; the
    /// original 8-bit tile fields silently truncated indices past a 16×16
    /// mesh).
    pub fn to_flits(&self) -> Vec<Word> {
        debug_assert!(
            self.src < MAX_TILES && self.dest < MAX_TILES,
            "tile index does not fit the 11-bit header field"
        );
        debug_assert!(self.payload.len() < (1 << 8), "payload too long");
        let header = (self.kind.encode() << 30)
            | ((self.src & 0x7ff) << 19)
            | ((self.dest & 0x7ff) << 8)
            | (self.payload.len() as u32 & 0xff);
        let mut flits = Vec::with_capacity(1 + self.payload.len());
        flits.push(header);
        flits.extend_from_slice(&self.payload);
        flits
    }

    /// Decodes a header flit into `(kind, src, dest, payload_len)`.
    pub fn decode_header(header: Word) -> (MsgKind, u32, u32, usize) {
        (
            MsgKind::decode(header >> 30),
            (header >> 19) & 0x7ff,
            (header >> 8) & 0x7ff,
            (header & 0xff) as usize,
        )
    }
}

/// Per-tile interface between the dynamic network and the processor/handler.
#[derive(Debug)]
pub struct DynEndpoint {
    inject: VecDeque<Word>,
    inject_cap: usize,
    /// Assembled responses awaiting the processor.
    pub proc_inbox: VecDeque<DynMsg>,
    /// Assembled requests awaiting the remote-memory handler.
    pub handler_inbox: VecDeque<DynMsg>,
}

impl DynEndpoint {
    /// Creates an endpoint whose injection FIFO holds `inject_cap` flits.
    pub fn new(inject_cap: usize) -> Self {
        DynEndpoint {
            inject: VecDeque::new(),
            inject_cap,
            proc_inbox: VecDeque::new(),
            handler_inbox: VecDeque::new(),
        }
    }

    /// True if a message of `flits` total flits can be injected atomically.
    pub fn can_inject(&self, flits: usize) -> bool {
        self.inject.len() + flits <= self.inject_cap
    }

    /// Injects a whole message (atomically, preserving flit contiguity).
    ///
    /// # Panics
    ///
    /// Panics if there is not enough space; check
    /// [`can_inject`](Self::can_inject) first.
    pub fn inject(&mut self, msg: DynMsg) {
        let flits = msg.to_flits();
        assert!(self.can_inject(flits.len()), "dynamic inject overflow");
        self.inject.extend(flits);
    }

    /// True if nothing is buffered at this endpoint (used for quiescence).
    pub fn is_idle(&self) -> bool {
        self.inject.is_empty() && self.proc_inbox.is_empty() && self.handler_inbox.is_empty()
    }

    /// True while flits await injection into the local router (the router
    /// must stay on the hot worklist until it drains them).
    pub fn inject_backlog(&self) -> bool {
        !self.inject.is_empty()
    }
}

const NUM_PORTS: usize = 5; // N, E, S, W, Local
const LOCAL: usize = 4;

#[derive(Debug, Default)]
struct RouterState {
    /// Input FIFOs: N, E, S, W, Local (fed from the endpoint's inject queue).
    in_q: [VecDeque<Word>; NUM_PORTS],
    /// Per-output wormhole lock: (input port, payload flits remaining).
    out_lock: [Option<(usize, usize)>; NUM_PORTS],
    /// Per input: some output's lock names it, so its head is mid-message
    /// (mirrors `out_lock`; an input is owned by at most one output).
    owned: [bool; NUM_PORTS],
    /// Round-robin arbitration pointer per output.
    rr: [usize; NUM_PORTS],
    /// Eject reassembly buffer.
    reasm: Vec<Word>,
    reasm_need: usize,
}

/// The whole-machine dynamic network: one wormhole router per tile.
///
/// Two stepping entry points share the same per-router logic:
/// [`step`](Self::step) scans every router (the reference stepper's path) and
/// [`step_hot`](Self::step_hot) visits only the hot worklist — routers that
/// hold flits or were [`poke`](Self::poke)d because their endpoint gained
/// injection backlog. The differential suites compare the two bit-for-bit.
#[derive(Debug)]
pub struct DynNet {
    cols: u32,
    fifo_cap: usize,
    /// `(row, col)` per tile, so routing never divides.
    coords: Vec<(u32, u32)>,
    routers: Vec<RouterState>,
    /// Membership flags for `work` (dedup guard).
    hot: Vec<bool>,
    /// Routers to visit on the next `step_hot` (unsorted; sorted on drain).
    work: Vec<usize>,
    /// Tiles whose endpoint received a complete message during the last step
    /// (the machine puts their handlers/processors under watch).
    delivered: Vec<usize>,
    /// Per-(tile, input-port) count of flits staged this cycle; persistent to
    /// avoid an O(tiles) allocation per step, reset entry-wise after use.
    staged_count: Vec<[usize; NUM_PORTS]>,
    /// Cross-router transfers `(tile, port, flit)` decided this cycle; kept
    /// to reuse its allocation, empty between steps.
    staged: Vec<(usize, usize, Word)>,
    /// Total flits buffered in router FIFOs and reassembly buffers: an O(1)
    /// [`is_idle`](Self::is_idle) for the per-cycle quiescence check.
    buffered: usize,
}

impl DynNet {
    /// Creates the network for a `rows × cols` mesh with per-link FIFO depth
    /// `fifo_cap`.
    pub fn new(rows: u32, cols: u32, fifo_cap: usize) -> Self {
        let n = (rows * cols) as usize;
        DynNet {
            cols,
            fifo_cap,
            coords: (0..rows)
                .flat_map(|r| (0..cols).map(move |c| (r, c)))
                .collect(),
            routers: (0..n).map(|_| RouterState::default()).collect(),
            hot: vec![false; n],
            work: Vec::new(),
            delivered: Vec::new(),
            staged_count: vec![[0; NUM_PORTS]; n],
            staged: Vec::new(),
            buffered: 0,
        }
    }

    /// Puts router `t` on the hot worklist for the next [`step_hot`](Self::step_hot).
    ///
    /// The machine pokes a router whenever tile `t`'s endpoint may have
    /// gained injection backlog (a processor issued a dynamic access, a
    /// handler injected a reply); all other hotness — buffered flits,
    /// incoming staged transfers — is maintained internally.
    pub fn poke(&mut self, t: usize) {
        if !self.hot[t] {
            self.hot[t] = true;
            self.work.push(t);
        }
    }

    /// Tiles that completed message reassembly during the last step (either
    /// inbox); cleared at the start of every step.
    pub fn delivered(&self) -> &[usize] {
        &self.delivered
    }

    /// Output port (0=N,1=E,2=S,3=W,4=eject) for a header destined to `dest`,
    /// X-then-Y dimension ordered.
    fn route_port(&self, here: usize, dest: u32) -> usize {
        let (r, c) = self.coords[here];
        let (dr, dc) = self.coords[dest as usize];
        if dc > c {
            1 // East
        } else if dc < c {
            3 // West
        } else if dr > r {
            2 // South
        } else if dr < r {
            0 // North
        } else {
            LOCAL
        }
    }

    fn neighbor(&self, t: usize, port: usize) -> usize {
        match port {
            0 => t - self.cols as usize,
            1 => t + 1,
            2 => t + self.cols as usize,
            3 => t - 1,
            _ => unreachable!(),
        }
    }

    /// True if no flit is buffered anywhere in the network (O(1): the flit
    /// count is maintained by feed and eject).
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.buffered == 0,
            self.routers
                .iter()
                .all(|r| r.in_q.iter().all(|q| q.is_empty()) && r.reasm.is_empty()),
            "buffered-flit counter out of sync"
        );
        self.buffered == 0
    }

    /// Advances the network one cycle by scanning every router (the
    /// reference stepper's path). Returns `true` if any flit moved.
    ///
    /// `endpoints[t]` supplies tile `t`'s injection queue and receives its
    /// ejected messages.
    pub fn step(&mut self, endpoints: &mut [DynEndpoint]) -> bool {
        // The full scan visits everything, so pending hot marks are moot;
        // step_tiles regenerates them from the post-step state.
        for i in 0..self.work.len() {
            self.hot[self.work[i]] = false;
        }
        self.work.clear();
        let all: Vec<usize> = (0..self.routers.len()).collect();
        self.step_tiles(&all, endpoints)
    }

    /// Advances the network one cycle visiting only the hot worklist:
    /// routers holding flits plus routers [`poke`](Self::poke)d since the
    /// last step. Observationally identical to [`step`](Self::step) — a
    /// router that is neither fed nor holds flits cannot move anything — at
    /// cost proportional to live traffic rather than mesh size.
    pub fn step_hot(&mut self, endpoints: &mut [DynEndpoint]) -> bool {
        let mut work = std::mem::take(&mut self.work);
        // Ascending tile order: FIFO-capacity arbitration between routers
        // must resolve exactly as the reference scan's 0..n loop does.
        work.sort_unstable();
        for &t in &work {
            self.hot[t] = false;
        }
        self.step_tiles(&work, endpoints)
    }

    /// One cycle over `tiles` (ascending, deduplicated). Shared between the
    /// full scan and the hot-worklist paths.
    fn step_tiles(&mut self, tiles: &[usize], endpoints: &mut [DynEndpoint]) -> bool {
        let mut progress = false;
        self.delivered.clear();

        // 1. Feed one flit per tile from the endpoint inject queue into the
        //    router's local input port.
        for &t in tiles {
            let router = &mut self.routers[t];
            if router.in_q[LOCAL].len() < self.fifo_cap {
                if let Some(f) = endpoints[t].inject.pop_front() {
                    router.in_q[LOCAL].push_back(f);
                    self.buffered += 1;
                    progress = true;
                }
            }
        }

        // 2. Per router, per output port: move at most one flit. Cross-router
        //    transfers are staged and applied after all routers have decided,
        //    making the step order-independent.
        let mut staged = std::mem::take(&mut self.staged);

        for &t in tiles {
            for out in 0..NUM_PORTS {
                // Which input currently owns this output?
                let owner = match self.routers[t].out_lock[out] {
                    Some((input, _)) => Some(input),
                    None => {
                        // Arbitrate: find an input whose head is a header routed
                        // to this output, round-robin from rr[out].
                        let start = self.routers[t].rr[out];
                        let mut found = None;
                        for k in 0..NUM_PORTS {
                            let input = (start + k) % NUM_PORTS;
                            if let Some(&head) = self.routers[t].in_q[input].front() {
                                // Only a header can claim a free output; inputs
                                // mid-message are owned by some other output.
                                if !self.routers[t].owned[input]
                                    && self.route_port(t, DynMsg::decode_header(head).2) == out
                                {
                                    found = Some(input);
                                    break;
                                }
                            }
                        }
                        if let Some(input) = found {
                            let head = *self.routers[t].in_q[input].front().unwrap();
                            let (.., len) = DynMsg::decode_header(head);
                            self.routers[t].out_lock[out] = Some((input, len + 1));
                            self.routers[t].owned[input] = true;
                            self.routers[t].rr[out] = (input + 1) % NUM_PORTS;
                        }
                        self.routers[t].out_lock[out].map(|(i, _)| i)
                    }
                };
                let Some(input) = owner else { continue };
                // Try to move one flit from `input` to `out`.
                if self.routers[t].in_q[input].is_empty() {
                    continue;
                }
                let can = if out == LOCAL {
                    true // eject reassembly is unbounded
                } else {
                    let nb = self.neighbor(t, out);
                    let nb_port = opposite(out);
                    self.routers[nb].in_q[nb_port].len() + self.staged_count[nb][nb_port]
                        < self.fifo_cap
                };
                if !can {
                    continue;
                }
                let flit = self.routers[t].in_q[input].pop_front().unwrap();
                progress = true;
                // Update the wormhole lock.
                let (_, remaining) = self.routers[t].out_lock[out].unwrap();
                if remaining == 1 {
                    self.routers[t].out_lock[out] = None;
                    self.routers[t].owned[input] = false;
                } else {
                    self.routers[t].out_lock[out] = Some((input, remaining - 1));
                }
                if out == LOCAL {
                    self.eject(t, flit, endpoints);
                } else {
                    let nb = self.neighbor(t, out);
                    let nb_port = opposite(out);
                    self.staged_count[nb][nb_port] += 1;
                    staged.push((nb, nb_port, flit));
                }
            }
        }

        for &(t, port, _) in &staged {
            self.staged_count[t][port] = 0;
        }
        for (t, port, flit) in staged.drain(..) {
            self.routers[t].in_q[port].push_back(flit);
            // The receiving router has a flit to move next cycle.
            self.poke(t);
        }
        self.staged = staged;
        // 3. Re-mark visited routers that still hold flits or whose endpoint
        //    kept injection backlog (e.g. a full local FIFO this cycle).
        for &t in tiles {
            if self.routers[t].in_q.iter().any(|q| !q.is_empty()) || endpoints[t].inject_backlog() {
                self.poke(t);
            }
        }
        progress
    }

    fn eject(&mut self, t: usize, flit: Word, endpoints: &mut [DynEndpoint]) {
        let r = &mut self.routers[t];
        if r.reasm.is_empty() {
            let (.., len) = DynMsg::decode_header(flit);
            r.reasm_need = len + 1;
        }
        r.reasm.push(flit);
        if r.reasm.len() == r.reasm_need {
            let (kind, src, dest, _) = DynMsg::decode_header(r.reasm[0]);
            let msg = DynMsg {
                kind,
                src,
                dest,
                payload: r.reasm[1..].to_vec(),
            };
            let flits = r.reasm.len();
            r.reasm.clear();
            r.reasm_need = 0;
            debug_assert_eq!(dest as usize, t, "message ejected at wrong tile");
            if kind.for_handler() {
                endpoints[t].handler_inbox.push_back(msg);
            } else {
                endpoints[t].proc_inbox.push_back(msg);
            }
            // The message left the network: drop its flits from the buffered
            // count and report the delivery so the machine can watch tile t.
            self.buffered -= flits;
            self.delivered.push(t);
        }
    }
}

fn opposite(port: usize) -> usize {
    match port {
        0 => 2,
        1 => 3,
        2 => 0,
        3 => 1,
        _ => unreachable!(),
    }
}

/// The per-tile remote-memory handler.
#[derive(Debug, Default)]
pub struct Handler {
    current: Option<(DynMsg, u64)>, // (request, done_at)
}

impl Handler {
    /// Creates an idle handler.
    pub fn new() -> Self {
        Handler::default()
    }

    /// True if no request is in flight.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Steps the handler: accepts one request, services it after `mem_latency`
    /// cycles, and injects the response. Returns `true` on progress.
    pub fn step(
        &mut self,
        tile: u32,
        cycle: u64,
        mem_latency: u32,
        mem: &mut LocalMem,
        ep: &mut DynEndpoint,
    ) -> bool {
        if self.current.is_none() {
            if let Some(req) = ep.handler_inbox.pop_front() {
                self.current = Some((req, cycle + mem_latency as u64));
                return true;
            }
            return false;
        }
        let (req, done_at) = self.current.as_ref().unwrap();
        if cycle < *done_at {
            return false;
        }
        let reply = match req.kind {
            MsgKind::LoadReq => {
                let addr = req.payload[0] as usize;
                let value = mem
                    .load(addr)
                    .expect("remote load within the home tile's memory");
                DynMsg {
                    kind: MsgKind::LoadReply,
                    src: tile,
                    dest: req.src,
                    payload: vec![value],
                }
            }
            MsgKind::StoreReq => {
                let addr = req.payload[0] as usize;
                mem.store(addr, req.payload[1])
                    .expect("remote store within the home tile's memory");
                DynMsg {
                    kind: MsgKind::StoreAck,
                    src: tile,
                    dest: req.src,
                    payload: vec![],
                }
            }
            other => panic!("handler received non-request {other:?}"),
        };
        if ep.can_inject(reply.to_flits().len()) {
            ep.inject(reply);
            self.current = None;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let msg = DynMsg {
            kind: MsgKind::StoreReq,
            src: 3,
            dest: 7,
            payload: vec![100, 42],
        };
        let flits = msg.to_flits();
        assert_eq!(flits.len(), 3);
        let (kind, src, dest, len) = DynMsg::decode_header(flits[0]);
        assert_eq!((kind, src, dest, len), (MsgKind::StoreReq, 3, 7, 2));
    }

    #[test]
    fn message_crosses_mesh() {
        // 2x2 mesh: tile 0 sends a LoadReply to tile 3 (1 hop E + 1 hop S).
        let mut net = DynNet::new(2, 2, 4);
        let mut eps: Vec<DynEndpoint> = (0..4).map(|_| DynEndpoint::new(16)).collect();
        eps[0].inject(DynMsg {
            kind: MsgKind::LoadReply,
            src: 0,
            dest: 3,
            payload: vec![99],
        });
        let mut cycles = 0;
        while eps[3].proc_inbox.is_empty() && cycles < 50 {
            net.step(&mut eps);
            cycles += 1;
        }
        let msg = eps[3].proc_inbox.pop_front().expect("message delivered");
        assert_eq!(msg.payload, vec![99]);
        assert!(net.is_idle());
        // Sanity on latency: ~1 cycle injection feed + 2 hops + eject flits.
        assert!(cycles <= 12, "took {cycles} cycles");
    }

    #[test]
    fn request_routes_to_handler_inbox() {
        let mut net = DynNet::new(1, 2, 4);
        let mut eps: Vec<DynEndpoint> = (0..2).map(|_| DynEndpoint::new(16)).collect();
        eps[0].inject(DynMsg {
            kind: MsgKind::LoadReq,
            src: 0,
            dest: 1,
            payload: vec![5],
        });
        for _ in 0..20 {
            net.step(&mut eps);
        }
        assert_eq!(eps[1].handler_inbox.len(), 1);
        assert!(eps[1].proc_inbox.is_empty());
    }

    #[test]
    fn handler_services_load_and_store() {
        let mut ep = DynEndpoint::new(16);
        let mut mem = LocalMem::new(32);
        mem.store(5, 77);
        let mut h = Handler::new();
        ep.handler_inbox.push_back(DynMsg {
            kind: MsgKind::LoadReq,
            src: 2,
            dest: 0,
            payload: vec![5],
        });
        let mut cycle = 0;
        while !(h.is_idle() && ep.handler_inbox.is_empty() && !ep.inject.is_empty()) {
            h.step(0, cycle, 2, &mut mem, &mut ep);
            cycle += 1;
            assert!(cycle < 20);
        }
        // Reply flits are in the inject queue: header + value.
        let header = ep.inject[0];
        let (kind, _, dest, _) = DynMsg::decode_header(header);
        assert_eq!(kind, MsgKind::LoadReply);
        assert_eq!(dest, 2);
        assert_eq!(ep.inject[1], 77);

        // Store request.
        let mut ep2 = DynEndpoint::new(16);
        let mut h2 = Handler::new();
        ep2.handler_inbox.push_back(DynMsg {
            kind: MsgKind::StoreReq,
            src: 1,
            dest: 0,
            payload: vec![9, 1234],
        });
        for cycle in 0..20 {
            h2.step(0, cycle, 2, &mut mem, &mut ep2);
        }
        assert_eq!(mem.load(9), Some(1234));
        assert!(!ep2.inject.is_empty(), "ack injected");
    }

    #[test]
    fn two_messages_same_link_stay_contiguous() {
        // Tiles 0 and 2 both send 2-payload messages through tile 1 to tile 1?
        // Use 1x3 mesh: 0 -> 2 and a local message 1 -> 2 contending on the
        // link 1->2. Flits of each message must arrive contiguously.
        let mut net = DynNet::new(1, 3, 2);
        let mut eps: Vec<DynEndpoint> = (0..3).map(|_| DynEndpoint::new(16)).collect();
        eps[0].inject(DynMsg {
            kind: MsgKind::StoreReq,
            src: 0,
            dest: 2,
            payload: vec![1, 11],
        });
        eps[1].inject(DynMsg {
            kind: MsgKind::StoreReq,
            src: 1,
            dest: 2,
            payload: vec![2, 22],
        });
        for _ in 0..60 {
            net.step(&mut eps);
        }
        assert_eq!(eps[2].handler_inbox.len(), 2, "both messages delivered");
        for msg in &eps[2].handler_inbox {
            match msg.src {
                0 => assert_eq!(msg.payload, vec![1, 11]),
                1 => assert_eq!(msg.payload, vec![2, 22]),
                other => panic!("unexpected source {other}"),
            }
        }
    }

    /// Injects pending messages as capacity frees, steps until the network
    /// and all endpoints drain, and panics if it fails to settle.
    fn drain(
        net: &mut DynNet,
        eps: &mut [DynEndpoint],
        pending: &mut [VecDeque<DynMsg>],
        limit: u64,
    ) {
        let mut cycles = 0u64;
        loop {
            for (t, q) in pending.iter_mut().enumerate() {
                while let Some(m) = q.front() {
                    if !eps[t].can_inject(m.payload.len() + 1) {
                        break;
                    }
                    let m = q.pop_front().unwrap();
                    eps[t].inject(m);
                }
            }
            net.step(eps);
            cycles += 1;
            assert!(cycles < limit, "network did not drain in {limit} cycles");
            let drained = pending.iter().all(|q| q.is_empty())
                && eps.iter().all(|e| e.inject.is_empty())
                && net.is_idle();
            if drained {
                break;
            }
        }
    }

    #[test]
    fn random_traffic_delivers_every_message_in_flow_order() {
        // Property sweep: random sources, destinations, kinds, and payload
        // sizes on a 4x4 mesh with shallow FIFOs. Every message must arrive
        // exactly once, bit-identical, and messages of one (src → dest) flow
        // must arrive in injection order (single dimension-ordered path +
        // FIFO links ⇒ no overtaking).
        let mut rng = raw_testkit::Rng::new(0x00D1_44E7);
        let n = 16usize;
        let mut net = DynNet::new(4, 4, 2);
        let mut eps: Vec<DynEndpoint> = (0..n).map(|_| DynEndpoint::new(8)).collect();
        let mut pending: Vec<VecDeque<DynMsg>> = vec![VecDeque::new(); n];
        let mut sent: Vec<DynMsg> = Vec::new();
        for id in 0..120i32 {
            let src = rng.gen_range(0..n as i32) as u32;
            let mut dest = rng.gen_range(0..n as i32) as u32;
            if dest == src {
                dest = (dest + 1) % n as u32;
            }
            let kind = match rng.gen_range(0..3) {
                0 => MsgKind::StoreReq,
                1 => MsgKind::LoadReq,
                _ => MsgKind::LoadReply,
            };
            // payload[0] is a unique id; per-flow ids are increasing.
            let mut payload = vec![id as Word];
            for _ in 0..rng.gen_range(0..3) {
                payload.push(rng.gen_range(0..1000) as Word);
            }
            let msg = DynMsg {
                kind,
                src,
                dest,
                payload,
            };
            pending[src as usize].push_back(msg.clone());
            sent.push(msg);
        }
        drain(&mut net, &mut eps, &mut pending, 20_000);

        let mut received: Vec<DynMsg> = Vec::new();
        for (t, ep) in eps.iter().enumerate() {
            for inbox in [&ep.handler_inbox, &ep.proc_inbox] {
                // Per-flow ordering: within one inbox (fixed dest), ids from
                // any one source must be increasing.
                let mut last_per_src = vec![-1i64; n];
                for m in inbox {
                    assert_eq!(m.dest as usize, t, "ejected at the wrong tile");
                    let id = m.payload[0] as i64;
                    assert!(
                        last_per_src[m.src as usize] < id,
                        "flow {} -> {t} reordered: {} after {}",
                        m.src,
                        id,
                        last_per_src[m.src as usize]
                    );
                    last_per_src[m.src as usize] = id;
                    received.push(m.clone());
                }
            }
        }
        assert_eq!(received.len(), sent.len(), "message count mismatch");
        let by_id = |v: &mut Vec<DynMsg>| v.sort_by_key(|m| m.payload[0]);
        by_id(&mut sent);
        by_id(&mut received);
        assert_eq!(received, sent, "delivered messages differ from injected");
    }

    #[test]
    fn converging_bursts_survive_backpressure_without_drops() {
        // Minimum-depth FIFOs (1 flit) and every tile of a 1x4 line bursting
        // at tile 3: maximum backpressure on the shared East links. Wormhole
        // flow control must stall, never drop or tear a message.
        let n = 4usize;
        let mut net = DynNet::new(1, 4, 1);
        let mut eps: Vec<DynEndpoint> = (0..n).map(|_| DynEndpoint::new(3)).collect();
        let mut pending: Vec<VecDeque<DynMsg>> = vec![VecDeque::new(); n];
        let per_tile = 10u32;
        for (t, q) in pending.iter_mut().enumerate().take(3) {
            for seq in 0..per_tile {
                q.push_back(DynMsg {
                    kind: MsgKind::StoreReq,
                    src: t as u32,
                    dest: 3,
                    payload: vec![seq, t as Word],
                });
            }
        }
        drain(&mut net, &mut eps, &mut pending, 20_000);
        let inbox = &eps[3].handler_inbox;
        assert_eq!(
            inbox.len(),
            3 * per_tile as usize,
            "dropped under backpressure"
        );
        let mut next = [0u32; 3];
        for m in inbox {
            let t = m.src as usize;
            assert_eq!(m.payload, vec![next[t], t as Word], "flow {t} reordered");
            next[t] += 1;
        }
        assert_eq!(next, [per_tile; 3]);
    }

    #[test]
    fn reassembly_frames_zero_payload_and_back_to_back_messages() {
        // Header-only messages (StoreAck) complete reassembly on a single
        // flit; a run of them racing a multi-payload message into the same
        // eject port must frame every message exactly — the reassembly buffer
        // may never splice one message's flits into another's.
        let n = 3usize;
        let mut net = DynNet::new(1, 3, 2);
        let mut eps: Vec<DynEndpoint> = (0..n).map(|_| DynEndpoint::new(16)).collect();
        let mut pending: Vec<VecDeque<DynMsg>> = vec![VecDeque::new(); n];
        for _ in 0..3 {
            pending[0].push_back(DynMsg {
                kind: MsgKind::StoreAck,
                src: 0,
                dest: 2,
                payload: vec![],
            });
        }
        for i in 0..2u32 {
            pending[1].push_back(DynMsg {
                kind: MsgKind::StoreReq,
                src: 1,
                dest: 2,
                payload: vec![i, 100 + i],
            });
        }
        drain(&mut net, &mut eps, &mut pending, 1_000);
        assert_eq!(eps[2].proc_inbox.len(), 3);
        for m in &eps[2].proc_inbox {
            assert_eq!((m.kind, m.src, m.payload.len()), (MsgKind::StoreAck, 0, 0));
        }
        assert_eq!(eps[2].handler_inbox.len(), 2);
        for (i, m) in eps[2].handler_inbox.iter().enumerate() {
            assert_eq!(
                m.payload,
                vec![i as Word, 100 + i as Word],
                "spliced payload"
            );
        }
    }

    #[test]
    fn inject_capacity_enforced() {
        let mut ep = DynEndpoint::new(4);
        assert!(ep.can_inject(4));
        assert!(!ep.can_inject(5));
        ep.inject(DynMsg {
            kind: MsgKind::StoreAck,
            src: 0,
            dest: 0,
            payload: vec![],
        });
        assert!(ep.can_inject(3));
        assert!(!ep.can_inject(4));
    }
}
