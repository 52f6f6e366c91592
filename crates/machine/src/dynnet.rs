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
//!
//! # Representation
//!
//! Nothing is allocated per message or per cycle:
//!
//! * a [`DynMsg`] is `Copy` and carries its payload inline (at most
//!   [`PAYLOAD_CAP`] words), so injection, eject reassembly and the
//!   handler's reply build no heap value;
//! * every router input port is a fixed ring of `dyn_fifo` flit slots in one
//!   slab for the whole mesh, as `channel::Channels` holds static words;
//! * per router, one *request mask* per output holds the inputs whose head
//!   is an unowned header routed there. It is refreshed only when a head or
//!   an ownership changes (a flit lands in an empty ring, a lock is taken, a
//!   tail releases one), so arbitration is a rotate of the mask from the
//!   output's round-robin pointer plus a `trailing_zeros`, not a scan and
//!   decode of all five inputs.
//!
//! # One sweep
//!
//! [`DynNet`] owns every tile's router, endpoint and handler, and one run set
//! (a bitset pair, `calendar::RunSet`: the set a step sweeps and the set it
//! marks for the next) decides which tiles a step visits.
//! [`DynNet::step_hot`] sweeps the marked tiles in ascending tile order;
//! [`DynNet::step`], the reference stepper's path, marks every tile and runs
//! the same sweep.
//!
//! At each visited tile the sweep feeds one flit from the endpoint's
//! injection queue into the local input, routes, then steps the tile's
//! handler over its memory. Routing visits outputs 0..4 in order — a head
//! exposed by an earlier output's pop is visible to later outputs the same
//! cycle — and moves at most one flit per output. A flit bound for a
//! neighbour moves only if the neighbour's ring has room after the flits
//! already staged for it this cycle, and it is staged: staged flits land
//! after every tile has been visited.
//!
//! Each step is local to its tile, so the interleaving equals feeding every
//! router, then routing every router, then stepping every handler:
//!
//! * feeding tile `t` touches only its own local ring and injection queue,
//!   which no other router reads;
//! * only router `t` ejects into tile `t`'s inboxes, so handler `t` has seen
//!   every delivery of the cycle once router `t` has run;
//! * only router `t` feeds from tile `t`'s injection queue, and it has fed
//!   already, so a reply the handler injects waits for the next cycle either
//!   way.
//!
//! A visited tile stays marked while its router holds flits, its endpoint
//! has injection backlog, or its handler is busy or has requests waiting; a
//! tile that receives a staged flit is marked too, and the machine
//! [`poke`](DynNet::poke)s a tile whose processor injected a request.

use crate::calendar::RunSet;
use crate::config::MAX_TILES;
use crate::isa::Word;
use crate::memory::LocalMem;
use crate::stats::WorkCounters;
use std::collections::VecDeque;

/// Most payload words a message carries: a store request's address and
/// value, plus one spare.
pub const PAYLOAD_CAP: usize = 3;

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

    /// The kind in the low two bits of `v` (every value names one).
    fn decode(v: u32) -> MsgKind {
        match v & 3 {
            0 => MsgKind::LoadReq,
            1 => MsgKind::LoadReply,
            2 => MsgKind::StoreReq,
            _ => MsgKind::StoreAck,
        }
    }

    /// True for messages consumed by the handler (requests); false for
    /// messages consumed by the processor (responses).
    pub fn for_handler(self) -> bool {
        matches!(self, MsgKind::LoadReq | MsgKind::StoreReq)
    }

    /// Flits of the protocol's message of this kind: the header plus the
    /// payload its documentation names.
    pub fn flits(self) -> usize {
        match self {
            MsgKind::StoreAck => 1,
            MsgKind::LoadReq | MsgKind::LoadReply => 2,
            MsgKind::StoreReq => 3,
        }
    }
}

/// An assembled dynamic-network message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynMsg {
    /// Message kind.
    pub kind: MsgKind,
    /// Source tile index.
    pub src: u32,
    /// Destination tile index.
    pub dest: u32,
    len: u8,
    /// Payload words, zero past `len` (so the derived equality is the
    /// payload's).
    words: [Word; PAYLOAD_CAP],
}

impl DynMsg {
    /// A message carrying `payload`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` holds more than [`PAYLOAD_CAP`] words.
    pub fn new(kind: MsgKind, src: u32, dest: u32, payload: &[Word]) -> DynMsg {
        assert!(
            payload.len() <= PAYLOAD_CAP,
            "a dynamic message carries at most {PAYLOAD_CAP} payload words"
        );
        let mut words = [0; PAYLOAD_CAP];
        words[..payload.len()].copy_from_slice(payload);
        DynMsg {
            kind,
            src,
            dest,
            len: payload.len() as u8,
            words,
        }
    }

    /// Payload words.
    pub fn payload(&self) -> &[Word] {
        &self.words[..usize::from(self.len)]
    }

    /// Flits on the wire: the header plus the payload.
    pub fn flits(&self) -> usize {
        1 + usize::from(self.len)
    }

    /// The header flit.
    ///
    /// Layout (most- to least-significant): 2-bit kind, 11-bit source tile,
    /// 11-bit destination tile, 8-bit payload length — sized for the
    /// simulator's large-mesh regime (up to [`MAX_TILES`] tiles, which
    /// `MachineConfig::grid` and `Machine::with_sink` enforce).
    pub fn header(&self) -> Word {
        debug_assert!(
            self.src < MAX_TILES && self.dest < MAX_TILES,
            "tile index does not fit the 11-bit header field"
        );
        (self.kind.encode() << 30)
            | ((self.src & 0x7ff) << 19)
            | ((self.dest & 0x7ff) << 8)
            | u32::from(self.len)
    }

    /// Decodes a header flit into `(kind, src, dest, payload_len)`.
    pub fn decode_header(header: Word) -> (MsgKind, u32, u32, usize) {
        (
            MsgKind::decode(header >> 30),
            (header >> 19) & 0x7ff,
            header_dest(header),
            header_len(header),
        )
    }
}

/// The destination tile of a header flit.
#[inline]
fn header_dest(header: Word) -> u32 {
    (header >> 8) & 0x7ff
}

/// The payload length of a header flit.
#[inline]
fn header_len(header: Word) -> usize {
    (header & 0xff) as usize
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
            inject: VecDeque::with_capacity(inject_cap),
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
        assert!(self.can_inject(msg.flits()), "dynamic inject overflow");
        self.inject.push_back(msg.header());
        self.inject.extend(msg.payload());
    }

    /// True while flits await injection into the local router (the router
    /// must stay marked until it drains them).
    pub fn inject_backlog(&self) -> bool {
        !self.inject.is_empty()
    }
}

const NUM_PORTS: usize = 5; // N, E, S, W, Local
const LOCAL: usize = 4;
/// One bit per output in a request mask: input `i`'s bits are
/// `INPUT_BITS << i` (output `o`'s inputs sit at bits `5 * o .. 5 * o + 5`).
const INPUT_BITS: u32 = 1 | 1 << 5 | 1 << 10 | 1 << 15 | 1 << 20;

/// One input port's flit ring; its slots live in [`DynNet::slots`].
#[derive(Clone, Copy, Debug, Default)]
struct Ring {
    /// Slot of the oldest flit.
    head: u32,
    /// Flits held.
    len: u32,
    /// Flits staged for this ring this cycle (zero between steps).
    staged: u32,
}

/// One router's arbitration state.
#[derive(Clone, Copy, Debug, Default)]
struct Router {
    /// Per output `o`, bits `5 * o .. 5 * o + 5`: the inputs whose head is a
    /// header, not owned by any output, routed to `o`.
    req: u32,
    /// Flits held across the five input rings.
    queued: u32,
    /// Outputs holding a wormhole lock.
    locked: u8,
    /// Inputs some output's lock names (so their head is mid-message).
    owned: u8,
    /// Per locked output: the input it is locked to.
    lock_in: [u8; NUM_PORTS],
    /// Per locked output: flits of the current message still to pass.
    lock_left: [u16; NUM_PORTS],
    /// Round-robin arbitration pointer per output.
    rr: [u8; NUM_PORTS],
}

/// A router's eject reassembly: the message so far (its length from the
/// header) and the flits received.
#[derive(Clone, Copy, Debug)]
struct Reassembly {
    msg: DynMsg,
    have: u8,
}

/// What one step of the dynamic network did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynProgress {
    /// A flit moved: fed, routed or ejected.
    pub moved: bool,
    /// A handler took or answered a request, or holds one in flight (a
    /// timed wait, not a deadlock).
    pub handling: bool,
}

/// The whole-machine dynamic network: one wormhole router, endpoint and
/// remote-memory handler per tile, and the run set that decides which tiles
/// a step visits.
///
/// [`step_hot`](Self::step_hot) sweeps the marked tiles — those holding
/// flits or requests, receiving a flit, or [`poke`](Self::poke)d because
/// their processor injected a request; [`step`](Self::step) marks every
/// tile and runs the same sweep (see the module docs).
#[derive(Debug)]
pub struct DynNet {
    cols: u32,
    fifo_cap: u32,
    /// Cycles a handler's memory access takes.
    mem_latency: u32,
    /// `(row, col)` per tile, so routing never divides.
    coords: Vec<(u32, u32)>,
    routers: Vec<Router>,
    /// One ring per `(tile, input port)`, at `tile * 5 + port`.
    rings: Vec<Ring>,
    /// `fifo_cap` flit slots per ring, ring-major.
    slots: Vec<Word>,
    reassembly: Vec<Reassembly>,
    endpoints: Vec<DynEndpoint>,
    handlers: Vec<Handler>,
    /// The tiles this step sweeps (empty between steps).
    hot: RunSet,
    /// The tiles the next step sweeps.
    next_hot: RunSet,
    /// Tiles whose processor inbox received a message during the last step
    /// (the machine wakes a processor asleep on its reply).
    delivered: Vec<usize>,
    /// Cross-router transfers `(ring, flit)` decided this cycle; kept to reuse
    /// its allocation, empty between steps.
    staged: Vec<(u32, Word)>,
    /// Total flits buffered in router rings and reassembly buffers: an O(1)
    /// [`is_idle`](Self::is_idle) for the per-cycle quiescence check.
    buffered: usize,
}

impl DynNet {
    /// Creates the network for a `rows × cols` mesh with per-link FIFO depth
    /// `fifo_cap`, injection queues of `inject_cap` flits, and handlers
    /// whose memory access takes `mem_latency` cycles.
    pub fn new(rows: u32, cols: u32, fifo_cap: usize, inject_cap: usize, mem_latency: u32) -> Self {
        let n = (rows * cols) as usize;
        let empty = Reassembly {
            msg: DynMsg::new(MsgKind::LoadReq, 0, 0, &[]),
            have: 0,
        };
        DynNet {
            cols,
            fifo_cap: u32::try_from(fifo_cap).expect("dynamic FIFO depth fits 32 bits"),
            mem_latency,
            coords: (0..rows)
                .flat_map(|r| (0..cols).map(move |c| (r, c)))
                .collect(),
            routers: vec![Router::default(); n],
            rings: vec![Ring::default(); n * NUM_PORTS],
            slots: vec![0; n * NUM_PORTS * fifo_cap],
            reassembly: vec![empty; n],
            endpoints: (0..n).map(|_| DynEndpoint::new(inject_cap)).collect(),
            handlers: (0..n).map(|_| Handler::default()).collect(),
            hot: RunSet::empty(n),
            next_hot: RunSet::empty(n),
            delivered: Vec::new(),
            staged: Vec::new(),
            buffered: 0,
        }
    }

    /// Marks tile `t` for the next [`step_hot`](Self::step_hot).
    ///
    /// The machine pokes a tile whose processor injected a request; all
    /// other marking — buffered flits, incoming staged transfers, injection
    /// backlog, requests and busy handlers — is maintained by the sweep.
    pub fn poke(&mut self, t: usize) {
        self.next_hot.insert(t);
    }

    /// Tiles whose processor inbox received a message during the last step;
    /// cleared at the start of every step.
    pub fn delivered(&self) -> &[usize] {
        &self.delivered
    }

    /// Tile `t`'s endpoint.
    pub fn endpoint(&self, t: usize) -> &DynEndpoint {
        &self.endpoints[t]
    }

    /// Tile `t`'s endpoint, for its processor to inject requests and pop
    /// replies. A processor that injects must [`poke`](Self::poke) the tile.
    pub fn endpoint_mut(&mut self, t: usize) -> &mut DynEndpoint {
        &mut self.endpoints[t]
    }

    /// Output port (0=N,1=E,2=S,3=W,4=eject) for a header destined to `dest`,
    /// X-then-Y dimension ordered.
    #[inline]
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

    /// The router beyond output `port` (0..4) of router `t`.
    #[inline]
    fn neighbor(&self, t: usize, port: usize) -> usize {
        match port {
            0 => t - self.cols as usize,
            1 => t + 1,
            2 => t + self.cols as usize,
            3 => t - 1,
            _ => unreachable!(),
        }
    }

    /// True if nothing is in flight: no flit is buffered and no tile is
    /// marked, so no endpoint holds injection backlog or requests and every
    /// handler is idle. O(1): feed and eject maintain the flit count, and the
    /// sweep keeps every busy tile marked. A reply waiting in a processor
    /// inbox does not count; its processor is alive and pops it.
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.buffered == 0,
            self.rings.iter().all(|r| r.len == 0) && self.reassembly.iter().all(|r| r.have == 0),
            "buffered-flit counter out of sync"
        );
        let idle = self.buffered == 0 && self.next_hot.is_empty();
        debug_assert!(
            !idle
                || self.endpoints.iter().zip(&self.handlers).all(|(e, h)| {
                    !e.inject_backlog() && e.handler_inbox.is_empty() && h.is_idle()
                }),
            "a busy tile is not marked"
        );
        idle
    }

    /// Advances the network one cycle over every tile (the reference
    /// stepper's path). `mems[t]` is tile `t`'s memory, which its handler
    /// serves.
    pub fn step(
        &mut self,
        cycle: u64,
        mems: &mut [LocalMem],
        work: &mut WorkCounters,
    ) -> DynProgress {
        for t in 0..self.routers.len() {
            self.next_hot.insert(t);
        }
        self.step_hot(cycle, mems, work)
    }

    /// Advances the network one cycle over the marked tiles only.
    /// Observationally identical to [`step`](Self::step) — an unmarked
    /// tile holds no flit, backlog or request and has an idle handler, so
    /// its visit would change nothing — at cost proportional to live
    /// traffic rather than mesh size.
    pub fn step_hot(
        &mut self,
        cycle: u64,
        mems: &mut [LocalMem],
        work: &mut WorkCounters,
    ) -> DynProgress {
        std::mem::swap(&mut self.hot, &mut self.next_hot);
        self.delivered.clear();
        let mut progress = DynProgress::default();
        // Ascending tile order: neighbour-space checks see exactly the rings
        // a `0..n` scan would. Nothing marks `hot` during the sweep.
        for w in 0..self.hot.word_count() {
            let mut bits = self.hot.word(w);
            while bits != 0 {
                let t = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let fed = self.feed(t);
                let routed = self.route(t);
                let (ep, handler) = (&mut self.endpoints[t], &mut self.handlers[t]);
                let handled = handler.step(t as u32, cycle, self.mem_latency, &mut mems[t], ep);
                progress.moved |= fed | routed;
                progress.handling |= handled || !handler.is_idle();
                work.dyn_visits += 1;
                work.dyn_idle_visits += u64::from(!(fed | routed | handled));
                // A tile's rings only grow after its own turn, and a staged
                // arrival marks its receiver below.
                if self.routers[t].queued != 0
                    || ep.inject_backlog()
                    || !ep.handler_inbox.is_empty()
                    || !handler.is_idle()
                {
                    self.next_hot.insert(t);
                }
            }
        }
        self.hot.clear();
        self.land_staged();
        progress
    }

    /// Lands the flits staged for neighbouring rings this cycle, marking
    /// each receiver.
    fn land_staged(&mut self) {
        let mut staged = std::mem::take(&mut self.staged);
        for (ring, flit) in staged.drain(..) {
            let ring = ring as usize;
            self.rings[ring].staged = 0;
            self.push(ring, flit);
            self.next_hot.insert(ring / NUM_PORTS);
        }
        self.staged = staged;
    }

    /// Moves one flit from tile `t`'s endpoint into its local input ring if
    /// the ring has room. Returns `true` if a flit moved.
    #[inline]
    fn feed(&mut self, t: usize) -> bool {
        if self.rings[t * NUM_PORTS + LOCAL].len >= self.fifo_cap {
            return false;
        }
        let Some(flit) = self.endpoints[t].inject.pop_front() else {
            return false;
        };
        self.push(t * NUM_PORTS + LOCAL, flit);
        self.buffered += 1;
        true
    }

    /// Moves at most one flit per output of router `t`, outputs in order.
    /// Returns `true` if a flit moved.
    #[inline]
    fn route(&mut self, t: usize) -> bool {
        if self.routers[t].queued == 0 {
            return false;
        }
        let mut progress = false;
        for out in 0..NUM_PORTS {
            let r = &mut self.routers[t];
            let input = if r.locked & (1 << out) != 0 {
                usize::from(r.lock_in[out])
            } else {
                // Arbitrate: the first requesting input round-robin from
                // rr[out]. Bit k of the rotated mask is input rr + k (mod 5).
                let reqs = (r.req >> (5 * out)) & 0x1f;
                if reqs == 0 {
                    continue;
                }
                let rr = u32::from(r.rr[out]);
                let rotated = ((reqs >> rr) | (reqs << (5 - rr))) & 0x1f;
                let input = (rr + rotated.trailing_zeros()) as usize % NUM_PORTS;
                let head = self.head(t * NUM_PORTS + input);
                let r = &mut self.routers[t];
                r.locked |= 1 << out;
                r.lock_in[out] = input as u8;
                r.lock_left[out] = header_len(head) as u16 + 1;
                r.owned |= 1 << input;
                r.req &= !(INPUT_BITS << input);
                r.rr[out] = ((input + 1) % NUM_PORTS) as u8;
                input
            };
            let ring = t * NUM_PORTS + input;
            if self.rings[ring].len == 0 {
                continue;
            }
            let target = if out == LOCAL {
                None // eject reassembly is unbounded
            } else {
                let nb = self.neighbor(t, out) * NUM_PORTS + opposite(out);
                let nb_ring = &self.rings[nb];
                if nb_ring.len + nb_ring.staged >= self.fifo_cap {
                    continue;
                }
                Some(nb)
            };
            let flit = self.pop(ring);
            progress = true;
            let r = &mut self.routers[t];
            r.lock_left[out] -= 1;
            if r.lock_left[out] == 0 {
                // The tail passed: the input's next head may request.
                r.locked &= !(1 << out);
                r.owned &= !(1 << input);
                self.refresh(ring);
            }
            match target {
                None => self.eject(t, flit),
                Some(nb) => {
                    self.rings[nb].staged += 1;
                    self.staged.push((nb as u32, flit));
                }
            }
        }
        progress
    }

    /// Appends `flit` to `ring` (which has room), refreshing the ring's
    /// request if the flit became its head.
    #[inline]
    fn push(&mut self, ring: usize, flit: Word) {
        let cap = self.fifo_cap;
        let rg = &mut self.rings[ring];
        let mut slot = rg.head + rg.len;
        if slot >= cap {
            slot -= cap;
        }
        rg.len += 1;
        let was_empty = rg.len == 1;
        self.slots[ring * cap as usize + slot as usize] = flit;
        self.routers[ring / NUM_PORTS].queued += 1;
        if was_empty {
            self.refresh(ring);
        }
    }

    /// Removes and returns the head of `ring` (which is non-empty).
    #[inline]
    fn pop(&mut self, ring: usize) -> Word {
        let cap = self.fifo_cap;
        let rg = &mut self.rings[ring];
        let slot = rg.head;
        rg.head = if slot + 1 == cap { 0 } else { slot + 1 };
        rg.len -= 1;
        self.routers[ring / NUM_PORTS].queued -= 1;
        self.slots[ring * cap as usize + slot as usize]
    }

    /// The oldest flit of `ring` (which is non-empty).
    #[inline]
    fn head(&self, ring: usize) -> Word {
        self.slots[ring * self.fifo_cap as usize + self.rings[ring].head as usize]
    }

    /// Recomputes the request of input `ring`: its head's output if the
    /// head is an unowned header, none otherwise.
    #[inline]
    fn refresh(&mut self, ring: usize) {
        let (t, input) = (ring / NUM_PORTS, ring % NUM_PORTS);
        let out = (self.routers[t].owned & (1 << input) == 0 && self.rings[ring].len != 0)
            .then(|| self.route_port(t, header_dest(self.head(ring))));
        let r = &mut self.routers[t];
        r.req &= !(INPUT_BITS << input);
        if let Some(out) = out {
            r.req |= 1 << (5 * out + input);
        }
    }

    fn eject(&mut self, t: usize, flit: Word) {
        let re = &mut self.reassembly[t];
        if re.have == 0 {
            let (kind, src, dest, len) = DynMsg::decode_header(flit);
            debug_assert!(len <= PAYLOAD_CAP, "header names {len} payload words");
            debug_assert_eq!(dest as usize, t, "message ejected at wrong tile");
            re.msg = DynMsg::new(kind, src, dest, &[]);
            re.msg.len = len as u8;
        } else {
            re.msg.words[usize::from(re.have) - 1] = flit;
        }
        re.have += 1;
        if usize::from(re.have) == re.msg.flits() {
            let msg = re.msg;
            re.have = 0;
            // The message left the network: drop its flits from the buffered
            // count. A reply is reported, so the machine can wake the
            // processor waiting on it; a request is the handler's, stepped
            // right after this router.
            self.buffered -= msg.flits();
            if msg.kind.for_handler() {
                self.endpoints[t].handler_inbox.push_back(msg);
            } else {
                self.endpoints[t].proc_inbox.push_back(msg);
                self.delivered.push(t);
            }
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

/// A tile's remote-memory handler; only [`DynNet`]'s sweep steps it.
#[derive(Debug, Default)]
struct Handler {
    current: Option<(DynMsg, u64)>, // (request, done_at)
}

impl Handler {
    /// True if no request is in flight.
    fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Steps the handler: accepts one request, services it after `mem_latency`
    /// cycles, and injects the response. Returns `true` on progress.
    fn step(
        &mut self,
        tile: u32,
        cycle: u64,
        mem_latency: u32,
        mem: &mut LocalMem,
        ep: &mut DynEndpoint,
    ) -> bool {
        let Some((req, done_at)) = self.current else {
            if let Some(req) = ep.handler_inbox.pop_front() {
                self.current = Some((req, cycle + mem_latency as u64));
                return true;
            }
            return false;
        };
        if cycle < done_at {
            return false;
        }
        let reply = match req.kind {
            MsgKind::LoadReq => {
                let value = mem
                    .load(req.payload()[0] as usize)
                    .expect("remote load within the home tile's memory");
                DynMsg::new(MsgKind::LoadReply, tile, req.src, &[value])
            }
            MsgKind::StoreReq => {
                let (addr, value) = (req.payload()[0], req.payload()[1]);
                mem.store(addr as usize, value)
                    .expect("remote store within the home tile's memory");
                DynMsg::new(MsgKind::StoreAck, tile, req.src, &[])
            }
            other => panic!("handler received non-request {other:?}"),
        };
        if ep.can_inject(reply.flits()) {
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

    /// Words of every test tile's memory.
    const MEM_WORDS: usize = 8;

    /// A network and its tiles' memories, stepped by the full sweep.
    struct Mesh {
        net: DynNet,
        mems: Vec<LocalMem>,
        cycle: u64,
        work: WorkCounters,
    }

    impl Mesh {
        fn new(rows: u32, cols: u32, fifo: usize, inject_cap: usize) -> Mesh {
            Mesh {
                net: DynNet::new(rows, cols, fifo, inject_cap, 2),
                mems: vec![LocalMem::new(MEM_WORDS); (rows * cols) as usize],
                cycle: 0,
                work: WorkCounters::default(),
            }
        }

        fn step(&mut self) -> DynProgress {
            let progress = self.net.step(self.cycle, &mut self.mems, &mut self.work);
            self.cycle += 1;
            progress
        }

        fn ep(&mut self, t: usize) -> &mut DynEndpoint {
            self.net.endpoint_mut(t)
        }
    }

    #[test]
    fn header_round_trip() {
        let msg = DynMsg::new(MsgKind::StoreReq, 3, 7, &[100, 42]);
        assert_eq!(msg.flits(), 3);
        let (kind, src, dest, len) = DynMsg::decode_header(msg.header());
        assert_eq!((kind, src, dest, len), (MsgKind::StoreReq, 3, 7, 2));
    }

    #[test]
    fn message_crosses_mesh() {
        // 2x2 mesh: tile 0 sends a LoadReply to tile 3 (1 hop E + 1 hop S).
        let mut mesh = Mesh::new(2, 2, 4, 16);
        mesh.ep(0)
            .inject(DynMsg::new(MsgKind::LoadReply, 0, 3, &[99]));
        while mesh.ep(3).proc_inbox.is_empty() && mesh.cycle < 50 {
            mesh.step();
        }
        let msg = mesh
            .ep(3)
            .proc_inbox
            .pop_front()
            .expect("message delivered");
        assert_eq!(msg.payload(), vec![99]);
        assert!(mesh.net.is_idle());
        // Sanity on latency: ~1 cycle injection feed + 2 hops + eject flits.
        assert!(mesh.cycle <= 12, "took {} cycles", mesh.cycle);
    }

    #[test]
    fn requests_are_served_by_their_home_handler() {
        // Tile 0 of a 1x2 line loads word 5 of tile 1 and stores 1234 at its
        // word 6. Tile 1's handler serves both in its router's turn, and the
        // reply and the ack come back to tile 0's processor inbox.
        let mut mesh = Mesh::new(1, 2, 4, 16);
        mesh.mems[1].store(5, 77);
        mesh.ep(0).inject(DynMsg::new(MsgKind::LoadReq, 0, 1, &[5]));
        mesh.ep(0)
            .inject(DynMsg::new(MsgKind::StoreReq, 0, 1, &[6, 1234]));
        mesh.net.poke(0);
        while !mesh.net.is_idle() {
            mesh.step();
            assert!(mesh.cycle < 40, "requests not served");
        }
        let replies: Vec<_> = mesh.ep(0).proc_inbox.drain(..).collect();
        assert_eq!(
            replies,
            [
                DynMsg::new(MsgKind::LoadReply, 1, 0, &[77]),
                DynMsg::new(MsgKind::StoreAck, 1, 0, &[]),
            ]
        );
        assert!(mesh.ep(1).proc_inbox.is_empty());
        assert_eq!(mesh.mems[1].load(6), Some(1234));
    }

    #[test]
    fn handler_services_load_and_store() {
        let mut ep = DynEndpoint::new(16);
        let mut mem = LocalMem::new(32);
        mem.store(5, 77);
        let mut h = Handler::default();
        ep.handler_inbox
            .push_back(DynMsg::new(MsgKind::LoadReq, 2, 0, &[5]));
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
        let mut h2 = Handler::default();
        ep2.handler_inbox
            .push_back(DynMsg::new(MsgKind::StoreReq, 1, 0, &[9, 1234]));
        for cycle in 0..20 {
            h2.step(0, cycle, 2, &mut mem, &mut ep2);
        }
        assert_eq!(mem.load(9), Some(1234));
        assert!(!ep2.inject.is_empty(), "ack injected");
    }

    #[test]
    fn two_messages_same_link_stay_contiguous() {
        // 1x3 mesh: 0 -> 2 and a local message 1 -> 2 contend on the link
        // 1->2. Flits of each message must arrive contiguously.
        let mut mesh = Mesh::new(1, 3, 2, 16);
        mesh.ep(0)
            .inject(DynMsg::new(MsgKind::LoadReply, 0, 2, &[1, 11]));
        mesh.ep(1)
            .inject(DynMsg::new(MsgKind::LoadReply, 1, 2, &[2, 22]));
        for _ in 0..60 {
            mesh.step();
        }
        assert_eq!(mesh.ep(2).proc_inbox.len(), 2, "both messages delivered");
        for msg in &mesh.ep(2).proc_inbox {
            match msg.src {
                0 => assert_eq!(msg.payload(), vec![1, 11]),
                1 => assert_eq!(msg.payload(), vec![2, 22]),
                other => panic!("unexpected source {other}"),
            }
        }
    }

    /// Injects pending messages as capacity frees, steps until the network
    /// and all endpoints drain, and panics if it fails to settle.
    fn drain(mesh: &mut Mesh, pending: &mut [VecDeque<DynMsg>], limit: u64) {
        loop {
            for (t, q) in pending.iter_mut().enumerate() {
                while q.front().is_some_and(|m| mesh.ep(t).can_inject(m.flits())) {
                    let m = q.pop_front().unwrap();
                    mesh.ep(t).inject(m);
                }
            }
            mesh.step();
            assert!(
                mesh.cycle < limit,
                "network did not drain in {limit} cycles"
            );
            if pending.iter().all(|q| q.is_empty()) && mesh.net.is_idle() {
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
        // FIFO links ⇒ no overtaking). The kinds are the processor-bound
        // ones, so every message stays in its inbox.
        let mut rng = raw_testkit::Rng::new(0x00D1_44E7);
        let n = 16usize;
        let mut mesh = Mesh::new(4, 4, 2, 8);
        let mut pending: Vec<VecDeque<DynMsg>> = vec![VecDeque::new(); n];
        let mut sent: Vec<DynMsg> = Vec::new();
        for id in 0..120i32 {
            let src = rng.gen_range(0..n as i32) as u32;
            let mut dest = rng.gen_range(0..n as i32) as u32;
            if dest == src {
                dest = (dest + 1) % n as u32;
            }
            let kind = if rng.gen_bool(0.5) {
                MsgKind::StoreAck
            } else {
                MsgKind::LoadReply
            };
            // payload[0] is a unique id; per-flow ids are increasing.
            let mut payload = vec![id as Word];
            for _ in 0..rng.gen_range(0..3) {
                payload.push(rng.gen_range(0..1000) as Word);
            }
            let msg = DynMsg::new(kind, src, dest, &payload);
            pending[src as usize].push_back(msg);
            sent.push(msg);
        }
        drain(&mut mesh, &mut pending, 20_000);

        let mut received: Vec<DynMsg> = Vec::new();
        for t in 0..n {
            let ep = mesh.net.endpoint(t);
            assert!(ep.handler_inbox.is_empty());
            // Per-flow ordering: within the inbox (fixed dest), ids from any
            // one source must be increasing.
            let mut last_per_src = vec![-1i64; n];
            for m in &ep.proc_inbox {
                assert_eq!(m.dest as usize, t, "ejected at the wrong tile");
                let id = m.payload()[0] as i64;
                assert!(
                    last_per_src[m.src as usize] < id,
                    "flow {} -> {t} reordered: {} after {}",
                    m.src,
                    id,
                    last_per_src[m.src as usize]
                );
                last_per_src[m.src as usize] = id;
                received.push(*m);
            }
        }
        assert_eq!(received.len(), sent.len(), "message count mismatch");
        let by_id = |v: &mut Vec<DynMsg>| v.sort_by_key(|m| m.payload()[0]);
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
        let mut mesh = Mesh::new(1, 4, 1, 3);
        let mut pending: Vec<VecDeque<DynMsg>> = vec![VecDeque::new(); n];
        let per_tile = 10u32;
        for (t, q) in pending.iter_mut().enumerate().take(3) {
            for seq in 0..per_tile {
                q.push_back(DynMsg::new(
                    MsgKind::LoadReply,
                    t as u32,
                    3,
                    &[seq, t as Word],
                ));
            }
        }
        drain(&mut mesh, &mut pending, 20_000);
        let inbox = &mesh.ep(3).proc_inbox;
        assert_eq!(
            inbox.len(),
            3 * per_tile as usize,
            "dropped under backpressure"
        );
        let mut next = [0u32; 3];
        for m in inbox {
            let t = m.src as usize;
            assert_eq!(m.payload(), vec![next[t], t as Word], "flow {t} reordered");
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
        let mut mesh = Mesh::new(1, 3, 2, 16);
        let mut pending: Vec<VecDeque<DynMsg>> = vec![VecDeque::new(); n];
        for _ in 0..3 {
            pending[0].push_back(DynMsg::new(MsgKind::StoreAck, 0, 2, &[]));
        }
        for i in 0..2u32 {
            pending[1].push_back(DynMsg::new(MsgKind::LoadReply, 1, 2, &[i, 100 + i]));
        }
        drain(&mut mesh, &mut pending, 1_000);
        let inbox = &mesh.ep(2).proc_inbox;
        let acks: Vec<_> = inbox
            .iter()
            .filter(|m| m.kind == MsgKind::StoreAck)
            .collect();
        assert_eq!(acks.len(), 3);
        for m in acks {
            assert_eq!((m.src, m.payload().len()), (0, 0));
        }
        let replies: Vec<_> = inbox
            .iter()
            .filter(|m| m.kind == MsgKind::LoadReply)
            .collect();
        assert_eq!(replies.len(), 2);
        for (i, m) in replies.iter().enumerate() {
            assert_eq!(
                m.payload(),
                vec![i as Word, 100 + i as Word],
                "spliced payload"
            );
        }
    }

    /// One cycle in the order the machine stepped the network before the
    /// handlers joined the sweep: every router fed and routed in ascending
    /// order, the staged flits landed, then every handler.
    fn step_routers_then_handlers(
        net: &mut DynNet,
        cycle: u64,
        mems: &mut [LocalMem],
    ) -> DynProgress {
        net.delivered.clear();
        let mut progress = DynProgress::default();
        for t in 0..net.routers.len() {
            progress.moved |= net.feed(t);
            progress.moved |= net.route(t);
        }
        net.land_staged();
        for (t, (handler, ep)) in net.handlers.iter_mut().zip(&mut net.endpoints).enumerate() {
            progress.handling |= handler.step(t as u32, cycle, net.mem_latency, &mut mems[t], ep)
                || !handler.is_idle();
        }
        progress
    }

    /// True if no flit, injection backlog, request or in-flight handler is
    /// left anywhere: the full scan [`DynNet::is_idle`] must agree with.
    fn drained(net: &DynNet) -> bool {
        net.buffered == 0
            && net
                .endpoints
                .iter()
                .zip(&net.handlers)
                .all(|(ep, h)| ep.inject.is_empty() && ep.handler_inbox.is_empty() && h.is_idle())
    }

    raw_testkit::proptest! {
        #![cases(32)]
        #[test]
        fn hot_worklist_steps_like_the_full_scan(
            shape in 0u32..3,
            a in 1u32..65,
            b in 1u32..33,
            fifo in 1usize..5,
            seed in raw_testkit::prop::any::<u64>(),
        ) {
            // One seeded burst of traffic, driven through two networks: a
            // model that steps every router and then every handler, and the
            // hot worklist, which steps each marked tile's handler at its
            // router's turn. A 1×N line, an N×1 column, or a mesh of up to
            // 32×32 (a hot set over 16 words); every message may target its
            // own tile, whose flits eject the cycle they are fed. Requests
            // name words of their home's memory, so the handlers serve them
            // and their replies travel back; replies and acks of any length
            // ride along to the processor inboxes.
            let (rows, cols) = match shape {
                0 => (1, a),
                1 => (a, 1),
                _ => ((a - 1) % 32 + 1, b),
            };
            let n = (rows * cols) as usize;
            let mut rng = raw_testkit::Rng::new(seed);
            let mem_latency = rng.gen_range(0..4u32);
            // A hotspot draws a third of the messages: converging bursts
            // contend for its links and exercise arbitration and backpressure.
            let hotspot = rng.gen_range(0..n as u32);
            let mut schedule: Vec<(u64, DynMsg)> = (0..rng.gen_range(1..65u32))
                .map(|id| {
                    let addr = rng.gen_range(0..MEM_WORDS as u32);
                    let len = rng.gen_range(0..4u32);
                    let any: Vec<Word> = (0..len).map(|k| id * 4 + k).collect();
                    let (kind, payload) = match rng.gen_range(0..4) {
                        0 => (MsgKind::LoadReq, vec![addr]),
                        1 => (MsgKind::StoreReq, vec![addr, id]),
                        2 => (MsgKind::LoadReply, any),
                        _ => (MsgKind::StoreAck, any),
                    };
                    let src = rng.gen_range(0..n as u32);
                    let dest = if rng.gen_bool(0.3) {
                        hotspot
                    } else {
                        rng.gen_range(0..n as u32)
                    };
                    (rng.gen_range(0..24u64), DynMsg::new(kind, src, dest, &payload))
                })
                .collect();
            schedule.sort_by_key(|(at, _)| *at);
            let mut model = DynNet::new(rows, cols, fifo, 16, mem_latency);
            let mut hot = DynNet::new(rows, cols, fifo, 16, mem_latency);
            let mut mems: [Vec<LocalMem>; 2] =
                std::array::from_fn(|_| vec![LocalMem::new(MEM_WORDS); n]);
            let mut pending: [Vec<VecDeque<DynMsg>>; 2] =
                std::array::from_fn(|_| vec![VecDeque::new(); n]);
            let mut work = WorkCounters::default();
            let mut next = 0;
            for cycle in 0..4_000u64 {
                while next < schedule.len() && schedule[next].0 <= cycle {
                    let msg = &schedule[next].1;
                    for side in &mut pending {
                        side[msg.src as usize].push_back(*msg);
                    }
                    next += 1;
                }
                for (side, net) in [&mut model, &mut hot].into_iter().enumerate() {
                    for (t, queue) in pending[side].iter_mut().enumerate() {
                        while queue
                            .front()
                            .is_some_and(|m| net.endpoint(t).can_inject(m.flits()))
                        {
                            net.endpoint_mut(t).inject(queue.pop_front().unwrap());
                            net.poke(t);
                        }
                    }
                }
                assert_eq!(pending[0], pending[1], "cycle {cycle}: injection differs");
                let [model_mems, hot_mems] = &mut mems;
                let moved = step_routers_then_handlers(&mut model, cycle, model_mems);
                assert_eq!(
                    moved,
                    hot.step_hot(cycle, hot_mems, &mut work),
                    "cycle {cycle}: progress differs"
                );
                assert_eq!(model.delivered(), hot.delivered(), "cycle {cycle}: delivered");
                for t in 0..n {
                    let (m, h) = (model.endpoint(t), hot.endpoint(t));
                    assert_eq!(m.proc_inbox, h.proc_inbox, "cycle {cycle}: tile {t}");
                    assert_eq!(m.handler_inbox, h.handler_inbox, "cycle {cycle}: tile {t}");
                    for addr in 0..MEM_WORDS {
                        assert_eq!(
                            model_mems[t].load(addr),
                            hot_mems[t].load(addr),
                            "cycle {cycle}: tile {t} word {addr}"
                        );
                    }
                }
                assert_eq!(drained(&model), hot.is_idle(), "cycle {cycle}: idle differs");
                if next == schedule.len() && pending[0].iter().all(VecDeque::is_empty) && hot.is_idle() {
                    assert!(work.dyn_idle_visits < work.dyn_visits);
                    assert!(work.dyn_visits <= (cycle + 1) * n as u64);
                    return;
                }
            }
            panic!("traffic did not drain in 4 000 cycles");
        }
    }

    #[test]
    fn inject_capacity_enforced() {
        let mut ep = DynEndpoint::new(4);
        assert!(ep.can_inject(4));
        assert!(!ep.can_inject(5));
        ep.inject(DynMsg::new(MsgKind::StoreAck, 0, 0, &[]));
        assert!(ep.can_inject(3));
        assert!(!ep.can_inject(4));
    }
}
