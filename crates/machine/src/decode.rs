//! The decoded program: every tile's code translated once, at load, into flat
//! `Copy` op tables with every lookup resolved.
//!
//! [`Machine::with_sink`](crate::Machine::with_sink) decodes the
//! [`MachineProgram`](crate::isa::MachineProgram) it is given, and both
//! steppers execute only the decoded ops — one instruction semantics, read
//! from contiguous tables:
//!
//! * a processor op ([`POp`]) carries its source operands in issue-check
//!   order, its immediate bits, whether it writes the output port, and its
//!   result latency resolved from the machine's latency model;
//! * a switch `ROUTE` becomes a slice of one flat per-machine port array
//!   ([`RoutePort`]): the distinct sources first (each consumed once — a
//!   multicast), then one `(source index, destination)` entry per pair. A
//!   port is a channel id or a switch register, so no neighbour lookup or
//!   value search is left for execution time. An instruction naming a
//!   missing neighbour or a switch register past `config.switch_regs`
//!   decodes to [`SOp::Fault`], which panics naming the tile and the port,
//!   and only when the switch executes it.
//!
//! The decode is lossless: [`Program::encode`] rebuilds the original
//! [`TileCode`]s from the tables alone, and the round trip is the decode's
//! oracle (`Machine::reencode`). A route event's pairs are rebuilt the same
//! way ([`Program::encode_route`]), so a machine keeps no second copy of its
//! code.

use crate::config::MachineConfig;
use crate::isa::{AluOp, Dir, Dst, PInst, RoutePairs, SDst, SInst, SSrc, Src, TileCode, Word};
use raw_ir::{BinOp, Imm, UnOp};
use std::ops::Range;

/// A processor source operand, resolved at load. Its payloads are byte
/// arrays, so the operand is 1-aligned (5 bytes) and a [`POp`] with two of
/// them packs into 24 bytes: op tables are walked once per issue, so their
/// density is cache footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Operand {
    /// General-purpose register (`u16`, native byte order).
    Reg([u8; 2]),
    /// Integer immediate, as bits (native byte order).
    Int([u8; 4]),
    /// Float immediate, as bits (native byte order).
    Float([u8; 4]),
    /// The static-network input port.
    Port,
}

impl Operand {
    fn decode(src: Src) -> Operand {
        match src {
            Src::Reg(r) => Operand::Reg(r.to_ne_bytes()),
            Src::Imm(Imm::I(v)) => Operand::Int(v.to_ne_bytes()),
            Src::Imm(Imm::F(v)) => Operand::Float(v.to_bits().to_ne_bytes()),
            Src::PortIn => Operand::Port,
        }
    }

    fn encode(self) -> Src {
        match self {
            Operand::Reg(r) => Src::Reg(u16::from_ne_bytes(r)),
            Operand::Int(w) => Src::Imm(Imm::I(i32::from_ne_bytes(w))),
            Operand::Float(w) => Src::Imm(Imm::F(f32::from_bits(Word::from_ne_bytes(w)))),
            Operand::Port => Src::PortIn,
        }
    }
}

/// What a processor op does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PKind {
    /// The operation is `ALU_OPS[POp::alu]`.
    Alu,
    Load,
    Store,
    DLoad,
    DStore,
    Jump,
    Bnez,
    Beqz,
    Halt,
    Nop,
}

/// An ALU operation as a function of its two source words.
pub(crate) type AluFn = fn(Word, Word) -> Word;

/// Every ALU operation, and beside it, at the same index, its [`AluFn`]:
/// [`AluOp::eval`] with the operator fixed, so the interpreter's semantics
/// hold by construction while the operator and operand-type dispatch fold
/// away. A [`POp`] names its operation by index.
macro_rules! alu_table {
    ($($variant:ident($ty:ident::$op:ident)),* $(,)?) => {
        const ALU_OPS: &[AluOp] = &[$(AluOp::$variant($ty::$op)),*];
        pub(crate) const ALU_FNS: &[AluFn] =
            &[$(|a, b| AluOp::$variant($ty::$op).eval(a, b)),*];
    };
}

alu_table!(
    Bin(BinOp::Add),
    Bin(BinOp::Sub),
    Bin(BinOp::Mul),
    Bin(BinOp::Div),
    Bin(BinOp::Rem),
    Bin(BinOp::And),
    Bin(BinOp::Or),
    Bin(BinOp::Xor),
    Bin(BinOp::Shl),
    Bin(BinOp::Shr),
    Bin(BinOp::Shru),
    Bin(BinOp::Slt),
    Bin(BinOp::Sle),
    Bin(BinOp::Seq),
    Bin(BinOp::Sne),
    Bin(BinOp::AddF),
    Bin(BinOp::SubF),
    Bin(BinOp::MulF),
    Bin(BinOp::DivF),
    Bin(BinOp::FLt),
    Bin(BinOp::FLe),
    Bin(BinOp::FEq),
    Un(UnOp::Neg),
    Un(UnOp::Not),
    Un(UnOp::Mov),
    Un(UnOp::NegF),
    Un(UnOp::AbsF),
    Un(UnOp::SqrtF),
    Un(UnOp::CvtIF),
    Un(UnOp::CvtFI),
);

/// One decoded processor instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct POp {
    pub(crate) kind: PKind,
    /// An ALU op's index into [`ALU_FNS`] (unused otherwise).
    pub(crate) alu: u8,
    /// Source operands. The first `n_srcs` are read (and checked at issue)
    /// in order; a unary ALU op keeps its ignored second operand here only
    /// so the decode stays lossless.
    pub(crate) srcs: [Operand; 2],
    pub(crate) n_srcs: u8,
    /// The op writes the output port (an ALU, load or remote-load result).
    pub(crate) sends: bool,
    /// Destination of an ALU, load or remote-load op.
    pub(crate) dst: Dst,
    /// The word offset of a memory op (`i32` bits), or a branch or jump
    /// target.
    pub(crate) arg: u32,
    /// Result latency: the ALU op's under the latency model, the memory
    /// latency for a load, 1 otherwise.
    pub(crate) latency: u16,
}

impl POp {
    fn decode(inst: PInst, config: &MachineConfig) -> POp {
        let mut op = POp {
            kind: PKind::Nop,
            alu: 0,
            srcs: [Operand::Int([0; 4]); 2],
            n_srcs: 0,
            sends: matches!(inst.dst(), Some(Dst::PortOut)),
            dst: inst.dst().unwrap_or(Dst::Reg(0)),
            arg: 0,
            latency: 1,
        };
        let latency = |cycles: u32| u16::try_from(cycles).expect("a result latency fits 16 bits");
        let (kind, srcs, n_srcs) = match inst {
            PInst::Alu { op: alu, a, b, .. } => {
                op.latency = latency(config.latency.alu_latency(alu));
                let index = ALU_OPS
                    .iter()
                    .position(|&o| o == alu)
                    .expect("every ALU op is tabled");
                op.alu = index as u8;
                let n = match alu {
                    AluOp::Un(_) => 1,
                    AluOp::Bin(_) => 2,
                };
                (PKind::Alu, [a, b], n)
            }
            PInst::Load { addr, offset, .. } => {
                op.latency = latency(config.mem_latency);
                op.arg = offset as u32;
                (PKind::Load, [addr, addr], 1)
            }
            PInst::Store {
                value,
                addr,
                offset,
            } => {
                op.arg = offset as u32;
                (PKind::Store, [value, addr], 2)
            }
            PInst::DLoad { gaddr, offset, .. } => {
                op.arg = offset as u32;
                (PKind::DLoad, [gaddr, gaddr], 1)
            }
            PInst::DStore {
                value,
                gaddr,
                offset,
            } => {
                op.arg = offset as u32;
                (PKind::DStore, [value, gaddr], 2)
            }
            PInst::Jump(target) => {
                op.arg = target_index(target);
                (PKind::Jump, [Src::PortIn; 2], 0)
            }
            PInst::Bnez { cond, target } => {
                op.arg = target_index(target);
                (PKind::Bnez, [cond, cond], 1)
            }
            PInst::Beqz { cond, target } => {
                op.arg = target_index(target);
                (PKind::Beqz, [cond, cond], 1)
            }
            PInst::Halt => (PKind::Halt, [Src::PortIn; 2], 0),
            PInst::Nop => (PKind::Nop, [Src::PortIn; 2], 0),
        };
        op.kind = kind;
        op.n_srcs = n_srcs;
        // Operands past the ones an instruction names stay zero; a
        // unary ALU op keeps its second.
        let named = if kind == PKind::Alu { 2 } else { n_srcs };
        for (slot, &src) in op.srcs.iter_mut().zip(&srcs[..named as usize]) {
            *slot = Operand::decode(src);
        }
        op
    }

    /// A memory op's word offset.
    pub(crate) fn offset(&self) -> i32 {
        self.arg as i32
    }

    /// A branch's or jump's target.
    pub(crate) fn target(&self) -> usize {
        self.arg as usize
    }

    fn encode(&self) -> PInst {
        let [a, b] = self.srcs.map(Operand::encode);
        match self.kind {
            PKind::Alu => PInst::Alu {
                op: ALU_OPS[self.alu as usize],
                dst: self.dst,
                a,
                b,
            },
            PKind::Load => PInst::Load {
                dst: self.dst,
                addr: a,
                offset: self.offset(),
            },
            PKind::Store => PInst::Store {
                value: a,
                addr: b,
                offset: self.offset(),
            },
            PKind::DLoad => PInst::DLoad {
                dst: self.dst,
                gaddr: a,
                offset: self.offset(),
            },
            PKind::DStore => PInst::DStore {
                value: a,
                gaddr: b,
                offset: self.offset(),
            },
            PKind::Jump => PInst::Jump(self.target()),
            PKind::Bnez => PInst::Bnez {
                cond: a,
                target: self.target(),
            },
            PKind::Beqz => PInst::Beqz {
                cond: a,
                target: self.target(),
            },
            PKind::Halt => PInst::Halt,
            PKind::Nop => PInst::Nop,
        }
    }
}

/// A static-network channel id stored as bytes, so a [`RoutePort`] is
/// 1-aligned and packs into 6 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChanId([u8; 4]);

impl ChanId {
    fn new(id: usize) -> ChanId {
        ChanId(
            u32::try_from(id)
                .expect("channel ids fit 32 bits")
                .to_ne_bytes(),
        )
    }

    #[inline(always)]
    pub(crate) fn get(self) -> usize {
        u32::from_ne_bytes(self.0) as usize
    }
}

/// A route endpoint, resolved at load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Port {
    /// A static-network channel.
    Chan(ChanId),
    /// A switch register, below `config.switch_regs`.
    Reg(u8),
}

/// One entry of the flat route array: a distinct source (`src` unused) or
/// a pair — the index of its source among the route's sources and its
/// destination.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoutePort {
    pub(crate) src: u8,
    pub(crate) port: Port,
}

/// A route's slice of [`Program::ports`]: `n_srcs` sources from `first`,
/// then `n_pairs` pairs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RouteSlice {
    pub(crate) first: u32,
    pub(crate) n_srcs: u8,
    pub(crate) n_pairs: u8,
}

impl RouteSlice {
    pub(crate) fn sources(self) -> Range<usize> {
        let first = self.first as usize;
        first..first + self.n_srcs as usize
    }

    pub(crate) fn pairs(self) -> Range<usize> {
        let start = self.sources().end;
        start..start + self.n_pairs as usize
    }
}

/// One decoded switch instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SOp {
    Route(RouteSlice),
    /// An instruction this machine cannot execute: index into
    /// [`Program::faults`], whose message it panics with.
    Fault(u32),
    Bnez {
        reg: u8,
        target: u32,
    },
    Beqz {
        reg: u8,
        target: u32,
    },
    Jump(u32),
    Halt,
    Nop,
}

/// Static-network channel ids of each tile's ports (the machine's wiring).
#[derive(Clone, Debug)]
pub(crate) struct Wiring {
    /// Processor → switch, per tile.
    pub(crate) ps: Vec<usize>,
    /// Switch → processor, per tile.
    pub(crate) sp: Vec<usize>,
    /// Switch → neighbour switch, per tile per direction.
    pub(crate) link_out: Vec<[Option<usize>; 4]>,
    /// Neighbour switch → switch, per tile per direction.
    pub(crate) link_in: Vec<[Option<usize>; 4]>,
    /// Switch registers per tile (`config.switch_regs`).
    pub(crate) regs: u32,
}

impl Wiring {
    /// The port source `src` of tile `t` reads, or why the tile has none.
    fn source(&self, t: usize, src: SSrc) -> Result<Port, String> {
        match src {
            SSrc::Proc => Ok(Port::Chan(ChanId::new(self.ps[t]))),
            SSrc::Reg(r) => self.register(t, r).map(Port::Reg),
            SSrc::Dir(d) => self.link_in[t][d.index()]
                .map(|id| Port::Chan(ChanId::new(id)))
                .ok_or_else(|| {
                    format!("tile{t} switch routes from {d:?} but there is no neighbour")
                }),
        }
    }

    /// The port destination `dst` of tile `t` writes, or why it has none.
    fn destination(&self, t: usize, dst: SDst) -> Result<Port, String> {
        match dst {
            SDst::Proc => Ok(Port::Chan(ChanId::new(self.sp[t]))),
            SDst::Reg(r) => self.register(t, r).map(Port::Reg),
            SDst::Dir(d) => self.link_out[t][d.index()]
                .map(|id| Port::Chan(ChanId::new(id)))
                .ok_or_else(|| format!("tile{t} switch routes to {d:?} but there is no neighbour")),
        }
    }

    /// Switch register `reg` of tile `t`, or why the tile has none.
    fn register(&self, t: usize, reg: u8) -> Result<u8, String> {
        let regs = self.regs;
        (u32::from(reg) < regs).then_some(reg).ok_or_else(|| {
            format!("tile{t} switch names register r{reg} but has only {regs} switch registers")
        })
    }

    fn encode_source(&self, t: usize, port: Port) -> SSrc {
        match port {
            Port::Reg(r) => SSrc::Reg(r),
            Port::Chan(id) if id.get() == self.ps[t] => SSrc::Proc,
            Port::Chan(id) => SSrc::Dir(link_dir(&self.link_in[t], id)),
        }
    }

    fn encode_destination(&self, t: usize, port: Port) -> SDst {
        match port {
            Port::Reg(r) => SDst::Reg(r),
            Port::Chan(id) if id.get() == self.sp[t] => SDst::Proc,
            Port::Chan(id) => SDst::Dir(link_dir(&self.link_out[t], id)),
        }
    }
}

/// The direction of a tile's link channel `id` among `links`.
fn link_dir(links: &[Option<usize>; 4], id: ChanId) -> Dir {
    Dir::ALL
        .into_iter()
        .find(|d| links[d.index()] == Some(id.get()))
        .expect("a route channel is one of the tile's links")
}

/// A branch target as stored in an op.
fn target_index(target: usize) -> u32 {
    u32::try_from(target).expect("a branch target fits 32 bits")
}

/// One tile's stream within a flat op table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stream {
    start: u32,
    len: u32,
}

impl Stream {
    fn new(range: Range<usize>) -> Stream {
        let index = |i: usize| u32::try_from(i).expect("an op table fits 32-bit indices");
        Stream {
            start: index(range.start),
            len: index(range.len()),
        }
    }

    /// The op at `pc` of this stream in `table`; `None` past its end.
    #[inline(always)]
    pub(crate) fn fetch<T>(self, table: &[T], pc: usize) -> Option<&T> {
        if pc < self.len as usize {
            Some(&table[self.start as usize + pc])
        } else {
            None
        }
    }

    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A whole machine's decoded code.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    /// Every tile's processor ops, tile-major.
    pub(crate) pops: Vec<POp>,
    /// Each tile's stream of `pops`.
    pub(crate) proc_code: Vec<Stream>,
    /// Every tile's switch ops, tile-major.
    pub(crate) sops: Vec<SOp>,
    /// Each tile's stream of `sops`.
    pub(crate) switch_code: Vec<Stream>,
    /// Route sources and pairs, sliced by [`RouteSlice`].
    pub(crate) ports: Vec<RoutePort>,
    /// Every [`SOp::Fault`]'s instruction, kept for the lossless encode,
    /// and the message it panics with: the first source in pair order the
    /// tile lacks, else the first destination.
    pub(crate) faults: Vec<(SInst, String)>,
}

impl Program {
    /// Decodes every tile's code against the machine's wiring and latency
    /// model.
    pub(crate) fn decode(tiles: &[TileCode], wiring: &Wiring, config: &MachineConfig) -> Program {
        let mut prog = Program {
            pops: Vec::with_capacity(tiles.iter().map(|code| code.proc.len()).sum()),
            proc_code: Vec::with_capacity(tiles.len()),
            sops: Vec::with_capacity(tiles.iter().map(|code| code.switch.len()).sum()),
            switch_code: Vec::with_capacity(tiles.len()),
            ports: Vec::new(),
            faults: Vec::new(),
        };
        for (t, code) in tiles.iter().enumerate() {
            let start = prog.pops.len();
            prog.pops
                .extend(code.proc.iter().map(|&inst| POp::decode(inst, config)));
            prog.proc_code.push(Stream::new(start..prog.pops.len()));
            let start = prog.sops.len();
            for &inst in &code.switch {
                let mark = prog.ports.len();
                let op = prog.decode_switch(t, inst, wiring).unwrap_or_else(|fault| {
                    prog.ports.truncate(mark);
                    prog.faults.push((inst, fault));
                    SOp::Fault((prog.faults.len() - 1) as u32)
                });
                prog.sops.push(op);
            }
            prog.switch_code.push(Stream::new(start..prog.sops.len()));
        }
        prog
    }

    /// Decodes one switch instruction of tile `t`, or says why the machine
    /// cannot execute it.
    fn decode_switch(&mut self, t: usize, inst: SInst, wiring: &Wiring) -> Result<SOp, String> {
        Ok(match inst {
            SInst::Route(pairs) => {
                // Distinct sources first — two pairs name the same source iff
                // they resolve to the same port — then one entry per pair.
                let first = self.ports.len();
                for &(src, _) in pairs.iter() {
                    let port = wiring.source(t, src)?;
                    if !self.ports[first..].iter().any(|p| p.port == port) {
                        self.ports.push(RoutePort { src: 0, port });
                    }
                }
                let n_srcs = self.ports.len() - first;
                for &(src, dst) in pairs.iter() {
                    let port = wiring.source(t, src)?;
                    let index = self.ports[first..first + n_srcs]
                        .iter()
                        .position(|p| p.port == port)
                        .expect("every pair's source is listed");
                    self.ports.push(RoutePort {
                        src: index as u8,
                        port: wiring.destination(t, dst)?,
                    });
                }
                SOp::Route(RouteSlice {
                    first: u32::try_from(first).expect("route table fits u32 indices"),
                    n_srcs: n_srcs as u8,
                    n_pairs: pairs.len() as u8,
                })
            }
            SInst::Bnez { reg, target } => SOp::Bnez {
                reg: wiring.register(t, reg)?,
                target: target_index(target),
            },
            SInst::Beqz { reg, target } => SOp::Beqz {
                reg: wiring.register(t, reg)?,
                target: target_index(target),
            },
            SInst::Jump(target) => SOp::Jump(target_index(target)),
            SInst::Halt => SOp::Halt,
            SInst::Nop => SOp::Nop,
        })
    }

    /// The tiles' code rebuilt from the tables alone: equal to the decoded
    /// input (the decode is lossless).
    pub(crate) fn encode(&self, wiring: &Wiring) -> Vec<TileCode> {
        (0..self.proc_code.len())
            .map(|t| TileCode {
                proc: self.pops[self.proc_code[t].range()]
                    .iter()
                    .map(POp::encode)
                    .collect(),
                switch: self.sops[self.switch_code[t].range()]
                    .iter()
                    .map(|op| self.encode_switch(t, op, wiring))
                    .collect(),
            })
            .collect()
    }

    /// A route's pairs rebuilt from the tables: the inverse of its decode.
    pub(crate) fn encode_route(&self, t: usize, route: RouteSlice, wiring: &Wiring) -> RoutePairs {
        let sources = &self.ports[route.sources()];
        self.ports[route.pairs()]
            .iter()
            .map(|pair| {
                let src = sources[pair.src as usize].port;
                (
                    wiring.encode_source(t, src),
                    wiring.encode_destination(t, pair.port),
                )
            })
            .collect()
    }

    fn encode_switch(&self, t: usize, op: &SOp, wiring: &Wiring) -> SInst {
        match *op {
            SOp::Route(route) => SInst::Route(self.encode_route(t, route, wiring)),
            SOp::Fault(i) => self.faults[i as usize].0,
            SOp::Bnez { reg, target } => SInst::Bnez {
                reg,
                target: target as usize,
            },
            SOp::Beqz { reg, target } => SInst::Beqz {
                reg,
                target: target as usize,
            },
            SOp::Jump(target) => SInst::Jump(target as usize),
            SOp::Halt => SInst::Halt,
            SOp::Nop => SInst::Nop,
        }
    }
}
