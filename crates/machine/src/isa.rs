//! Instruction sets of the tile processor and the static switch.
//!
//! The processor ISA is an R2000-like three-operand subset extended with
//! port-register operands (paper §3.1: "communication ports are exported to the
//! software as extensions to the register set"). The switch ISA consists of
//! `ROUTE` instructions — each a set of (source, destination) pairs executed
//! atomically — plus branches so the switch's instruction stream can follow the
//! program's control flow.
//!
//! Branch targets are absolute instruction indices; use the assemblers in
//! [`asm`](crate::asm) to build code with symbolic labels.

use raw_ir::{BinOp, Imm, Ty, UnOp};
use std::fmt;

/// A 32-bit machine word.
pub type Word = u32;

/// Identifies a tile; the raw index is row-major over the mesh.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub u32);

impl TileId {
    /// Creates a tile id from a raw row-major index.
    pub fn from_raw(i: u32) -> Self {
        TileId(i)
    }

    /// Raw row-major index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for TileId {
    fn from(i: u32) -> Self {
        TileId(i)
    }
}

impl fmt::Debug for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

/// Mesh directions. Row 0 is the top row, so `North` decreases the row index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Towards row − 1.
    North,
    /// Towards col + 1.
    East,
    /// Towards row + 1.
    South,
    /// Towards col − 1.
    West,
}

impl Dir {
    /// All four directions.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// The opposite direction.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// Dense index (N=0, E=1, S=2, W=3).
    pub fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::East => 1,
            Dir::South => 2,
            Dir::West => 3,
        }
    }
}

/// A source operand of a processor instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Src {
    /// General-purpose register.
    Reg(u16),
    /// Immediate (folded `li`).
    Imm(Imm),
    /// The static-network input port (consuming, blocking read).
    PortIn,
}

impl From<Imm> for Src {
    fn from(i: Imm) -> Self {
        Src::Imm(i)
    }
}

/// A destination operand of a processor instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dst {
    /// General-purpose register.
    Reg(u16),
    /// The static-network output port (blocking write).
    PortOut,
}

/// ALU function: any IR binary or unary operator.
///
/// Reusing the IR operator enums keeps evaluation semantics bit-identical
/// between the golden-model interpreter and the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Two-source operation.
    Bin(BinOp),
    /// One-source operation (second operand ignored).
    Un(UnOp),
}

impl AluOp {
    /// Latency under the Table-1 model (the machine config may override to 1).
    pub fn table1_latency(self) -> u32 {
        match self {
            AluOp::Bin(op) => op.latency(),
            AluOp::Un(op) => op.latency(),
        }
    }

    /// Evaluates on raw words, decoding operands per the operator's type.
    pub fn eval(self, a: Word, b: Word) -> Word {
        match self {
            AluOp::Bin(op) => {
                let ty = op.operand_ty();
                op.eval(Imm::from_bits(a, ty), Imm::from_bits(b, ty))
                    .to_bits()
            }
            AluOp::Un(op) => {
                // Mov is polymorphic on bits; other unaries decode per operand type.
                let ty = op.operand_ty().unwrap_or(Ty::I32);
                if op == UnOp::Mov {
                    a
                } else {
                    op.eval(Imm::from_bits(a, ty)).to_bits()
                }
            }
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AluOp::Bin(op) => write!(f, "{op}"),
            AluOp::Un(op) => write!(f, "{op}"),
        }
    }
}

/// An absolute instruction index (resolved branch target).
pub type Target = usize;

/// Processor instructions.
///
/// Every field is plain data, so the whole instruction is `Copy` — the
/// simulator fetches by value without touching the heap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PInst {
    /// ALU operation: `dst = op(a, b)`. For unary ops `b` is ignored.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: Dst,
        /// First source.
        a: Src,
        /// Second source.
        b: Src,
    },
    /// Local memory load: `dst = mem[addr + offset]` (word addressed). As on
    /// MIPS, the base is sign-extended before the offset is added, so a
    /// negative base with a larger offset addresses a real word; an address
    /// outside memory faults.
    Load {
        /// Destination.
        dst: Dst,
        /// Base address source (sign-extended).
        addr: Src,
        /// Word offset.
        offset: i32,
    },
    /// Local memory store: `mem[addr + offset] = value`, with the base
    /// sign-extended as for [`PInst::Load`].
    Store {
        /// Value to store.
        value: Src,
        /// Base address source (sign-extended).
        addr: Src,
        /// Word offset.
        offset: i32,
    },
    /// Remote load over the dynamic network (blocking):
    /// `dst = gmem[gaddr + offset]`.
    ///
    /// The global address interleaves the home tile in its low-order bits
    /// (paper Figure 7): for `g = gaddr + offset`, home = `g mod n_tiles`,
    /// local = `g / n_tiles`.
    DLoad {
        /// Destination.
        dst: Dst,
        /// Global (interleaved) word address source.
        gaddr: Src,
        /// Word offset.
        offset: i32,
    },
    /// Remote store over the dynamic network (blocks until acknowledged):
    /// `gmem[gaddr + offset] = value`.
    DStore {
        /// Value to store.
        value: Src,
        /// Global (interleaved) word address source.
        gaddr: Src,
        /// Word offset.
        offset: i32,
    },
    /// Unconditional jump.
    Jump(Target),
    /// Branch if `cond != 0`.
    Bnez {
        /// Condition source.
        cond: Src,
        /// Branch target.
        target: Target,
    },
    /// Branch if `cond == 0`.
    Beqz {
        /// Condition source.
        cond: Src,
        /// Branch target.
        target: Target,
    },
    /// Stop this processor.
    Halt,
    /// Do nothing for a cycle.
    Nop,
}

impl PInst {
    /// Source operands of the instruction.
    pub fn sources(&self) -> Vec<Src> {
        match self {
            PInst::Alu { op, a, b, .. } => match op {
                AluOp::Un(_) => vec![*a],
                AluOp::Bin(_) => vec![*a, *b],
            },
            PInst::Load { addr, .. } => vec![*addr],
            PInst::Store { value, addr, .. } => vec![*value, *addr],
            PInst::DLoad { gaddr, .. } => vec![*gaddr],
            PInst::DStore { value, gaddr, .. } => vec![*value, *gaddr],
            PInst::Bnez { cond, .. } | PInst::Beqz { cond, .. } => vec![*cond],
            PInst::Jump(_) | PInst::Halt | PInst::Nop => vec![],
        }
    }

    /// Destination operand, if any.
    pub fn dst(&self) -> Option<Dst> {
        match self {
            PInst::Alu { dst, .. } | PInst::Load { dst, .. } | PInst::DLoad { dst, .. } => {
                Some(*dst)
            }
            _ => None,
        }
    }

    /// Number of `PortIn` source operands (at most one is legal).
    pub fn port_reads(&self) -> usize {
        self.sources()
            .iter()
            .filter(|s| matches!(s, Src::PortIn))
            .count()
    }
}

/// A source of a switch route pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SSrc {
    /// Input port from a neighbouring switch.
    Dir(Dir),
    /// Input port from this tile's processor.
    Proc,
    /// A switch register.
    Reg(u8),
}

/// A destination of a switch route pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SDst {
    /// Output port towards a neighbouring switch.
    Dir(Dir),
    /// Output port towards this tile's processor.
    Proc,
    /// A switch register (used e.g. to latch a broadcast branch condition).
    Reg(u8),
}

/// The most pairs one switch route can hold: one per output port (the four
/// directions and the processor) plus switch register 0, where a branch
/// broadcast latches its word.
pub const MAX_ROUTE_PAIRS: usize = 6;

/// The source→destination pairs of one `ROUTE`, held inline. Its
/// constructors enforce the ISA's two rules: at most [`MAX_ROUTE_PAIRS`]
/// pairs, and no destination named twice (an output port can appear in only
/// one pair of a `ROUTE` — paper §3.1). Reads as a slice.
#[derive(Clone, Copy)]
pub struct RoutePairs {
    pairs: [(SSrc, SDst); MAX_ROUTE_PAIRS],
    len: u8,
}

impl RoutePairs {
    /// An empty route.
    pub const EMPTY: RoutePairs = RoutePairs {
        pairs: [(SSrc::Proc, SDst::Proc); MAX_ROUTE_PAIRS],
        len: 0,
    };

    /// Appends a pair, or leaves the route as it is and says why it cannot:
    /// the route is full, or it already names the pair's destination.
    pub fn push(&mut self, pair: (SSrc, SDst)) -> Result<(), &'static str> {
        if self.iter().any(|&(_, dst)| dst == pair.1) {
            return Err("duplicate destination in ROUTE");
        }
        let slot = self
            .pairs
            .get_mut(self.len as usize)
            .ok_or("a switch route holds at most six pairs")?;
        *slot = pair;
        self.len += 1;
        Ok(())
    }
}

impl std::ops::Deref for RoutePairs {
    type Target = [(SSrc, SDst)];

    fn deref(&self) -> &[(SSrc, SDst)] {
        &self.pairs[..self.len as usize]
    }
}

impl PartialEq for RoutePairs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// A plain list, as a `Vec` of the pairs prints: `SInst`'s `Debug` output,
/// which the assembly hash reads, stays what it was.
impl fmt::Debug for RoutePairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Collects through [`RoutePairs::push`].
///
/// # Panics
///
/// Panics where `push` refuses a pair: a seventh, or a repeated destination.
impl FromIterator<(SSrc, SDst)> for RoutePairs {
    fn from_iter<I: IntoIterator<Item = (SSrc, SDst)>>(iter: I) -> Self {
        let mut pairs = RoutePairs::EMPTY;
        for pair in iter {
            if let Err(why) = pairs.push(pair) {
                panic!("{why}: {pair:?}");
            }
        }
        pairs
    }
}

/// Switch instructions. Every field is plain data, so the whole instruction
/// is `Copy`, like [`PInst`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SInst {
    /// Atomically move words along all pairs. The instruction stalls until
    /// every source has a word and every destination can accept one; an input
    /// port listed in several pairs is a multicast and is consumed once.
    Route(RoutePairs),
    /// Branch if switch register `reg` is non-zero.
    Bnez {
        /// Register holding the condition.
        reg: u8,
        /// Branch target.
        target: Target,
    },
    /// Branch if switch register `reg` is zero.
    Beqz {
        /// Register holding the condition.
        reg: u8,
        /// Branch target.
        target: Target,
    },
    /// Unconditional jump.
    Jump(Target),
    /// Stop this switch.
    Halt,
    /// Do nothing for a cycle.
    Nop,
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "r{r}"),
            Src::Imm(i) => write!(f, "{i}"),
            Src::PortIn => write!(f, "$csti"),
        }
    }
}

impl fmt::Display for Dst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dst::Reg(r) => write!(f, "r{r}"),
            Dst::PortOut => write!(f, "$csto"),
        }
    }
}

impl fmt::Display for PInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PInst::Alu { op, dst, a, b } => match op {
                AluOp::Un(u) => write!(f, "{u} {dst}, {a}"),
                AluOp::Bin(_) => write!(f, "{op} {dst}, {a}, {b}"),
            },
            PInst::Load { dst, addr, offset } => write!(f, "lw {dst}, {offset}({addr})"),
            PInst::Store {
                value,
                addr,
                offset,
            } => write!(f, "sw {value}, {offset}({addr})"),
            PInst::DLoad { dst, gaddr, offset } => write!(f, "dlw {dst}, {offset}[{gaddr}]"),
            PInst::DStore {
                value,
                gaddr,
                offset,
            } => write!(f, "dsw {value}, {offset}[{gaddr}]"),
            PInst::Jump(t) => write!(f, "j {t}"),
            PInst::Bnez { cond, target } => write!(f, "bnez {cond}, {target}"),
            PInst::Beqz { cond, target } => write!(f, "beqz {cond}, {target}"),
            PInst::Halt => write!(f, "halt"),
            PInst::Nop => write!(f, "nop"),
        }
    }
}

impl fmt::Display for SSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SSrc::Dir(Dir::North) => write!(f, "$cNi"),
            SSrc::Dir(Dir::East) => write!(f, "$cEi"),
            SSrc::Dir(Dir::South) => write!(f, "$cSi"),
            SSrc::Dir(Dir::West) => write!(f, "$cWi"),
            SSrc::Proc => write!(f, "$cPi"),
            SSrc::Reg(r) => write!(f, "r{r}"),
        }
    }
}

impl fmt::Display for SDst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SDst::Dir(Dir::North) => write!(f, "$cNo"),
            SDst::Dir(Dir::East) => write!(f, "$cEo"),
            SDst::Dir(Dir::South) => write!(f, "$cSo"),
            SDst::Dir(Dir::West) => write!(f, "$cWo"),
            SDst::Proc => write!(f, "$cPo"),
            SDst::Reg(r) => write!(f, "r{r}"),
        }
    }
}

impl fmt::Display for SInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SInst::Route(pairs) => {
                write!(f, "route ")?;
                for (i, (s, d)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}->{d}")?;
                }
                Ok(())
            }
            SInst::Bnez { reg, target } => write!(f, "bnez r{reg}, {target}"),
            SInst::Beqz { reg, target } => write!(f, "beqz r{reg}, {target}"),
            SInst::Jump(t) => write!(f, "j {t}"),
            SInst::Halt => write!(f, "halt"),
            SInst::Nop => write!(f, "nop"),
        }
    }
}

/// The code loaded onto one tile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TileCode {
    /// Processor instruction stream.
    pub proc: Vec<PInst>,
    /// Switch instruction stream.
    pub switch: Vec<SInst>,
}

/// A complete program for the machine: one [`TileCode`] per tile, row-major.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineProgram {
    /// Per-tile code, indexed by [`TileId`].
    pub tiles: Vec<TileCode>,
}

impl MachineProgram {
    /// An empty program (every tile halts immediately) for `n` tiles.
    pub fn empty(n: usize) -> Self {
        MachineProgram {
            tiles: (0..n)
                .map(|_| TileCode {
                    proc: vec![PInst::Halt],
                    switch: vec![SInst::Halt],
                })
                .collect(),
        }
    }

    /// Total instruction count (processor + switch) across all tiles.
    pub fn num_insts(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| t.proc.len() + t.switch.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_opposites() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_eq!(Dir::North.opposite(), Dir::South);
        assert_eq!(Dir::East.opposite(), Dir::West);
    }

    #[test]
    fn alu_eval_decodes_types() {
        let add = AluOp::Bin(BinOp::Add);
        assert_eq!(add.eval(5, (-3i32) as u32), 2);
        let addf = AluOp::Bin(BinOp::AddF);
        assert_eq!(
            addf.eval(1.5f32.to_bits(), 2.25f32.to_bits()),
            3.75f32.to_bits()
        );
        let mov = AluOp::Un(UnOp::Mov);
        let nan_bits = f32::NAN.to_bits() | 0x1234;
        assert_eq!(
            mov.eval(nan_bits, 0),
            nan_bits,
            "mov must be bit-transparent"
        );
    }

    #[test]
    fn pinst_sources_and_dst() {
        let i = PInst::Alu {
            op: AluOp::Bin(BinOp::Add),
            dst: Dst::Reg(3),
            a: Src::Reg(1),
            b: Src::PortIn,
        };
        assert_eq!(i.sources().len(), 2);
        assert_eq!(i.dst(), Some(Dst::Reg(3)));
        assert_eq!(i.port_reads(), 1);
        assert_eq!(PInst::Halt.dst(), None);
    }

    #[test]
    fn unary_alu_ignores_second_source() {
        let i = PInst::Alu {
            op: AluOp::Un(UnOp::Neg),
            dst: Dst::Reg(1),
            a: Src::Reg(2),
            b: Src::PortIn, // must NOT count as a port read
        };
        assert_eq!(i.sources(), vec![Src::Reg(2)]);
        assert_eq!(i.port_reads(), 0);
    }

    #[test]
    fn display_renders_assembly_style() {
        let i = PInst::Alu {
            op: AluOp::Bin(BinOp::Add),
            dst: Dst::Reg(3),
            a: Src::Reg(1),
            b: Src::PortIn,
        };
        assert_eq!(i.to_string(), "add r3, r1, $csti");
        let l = PInst::Load {
            dst: Dst::PortOut,
            addr: Src::Reg(5),
            offset: 36,
        };
        assert_eq!(l.to_string(), "lw $csto, 36(r5)");
        let pairs = [
            (SSrc::Proc, SDst::Dir(Dir::East)),
            (SSrc::Proc, SDst::Reg(0)),
        ];
        let r = SInst::Route(pairs.into_iter().collect());
        assert_eq!(r.to_string(), "route $cPi->$cEo, $cPi->r0");
        assert_eq!(SInst::Bnez { reg: 0, target: 9 }.to_string(), "bnez r0, 9");
    }

    #[test]
    fn empty_program_halts_everywhere() {
        let p = MachineProgram::empty(4);
        assert_eq!(p.tiles.len(), 4);
        assert_eq!(p.num_insts(), 8);
    }
}
