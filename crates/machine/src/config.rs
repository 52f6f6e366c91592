//! Machine configuration: mesh shape, register counts, latency model, and
//! the faulty-tile map.

use crate::isa::{AluOp, Dir, TileId};

/// Most tiles a mesh may have: a dynamic-network header names a tile in an
/// 11-bit field.
pub const MAX_TILES: u32 = 1 << 11;

/// A set of faulty (dead) tiles, as a bitset over tile indices.
///
/// A masked tile's processor, switch, and local memory are dead: the compiler
/// must not place work or data there and the linker emits empty instruction
/// streams for it. The tile's *dynamic-network router* is modelled as an
/// autonomous unit that keeps forwarding wormhole traffic — only the tile's
/// own endpoints are gone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TileMask(u64);

impl TileMask {
    /// No faulty tiles.
    pub const EMPTY: TileMask = TileMask(0);

    /// Builds a mask from a list of faulty tiles.
    ///
    /// # Panics
    ///
    /// Panics on a tile index ≥ 64 (the mask covers the paper's mesh sizes).
    pub fn of(tiles: &[TileId]) -> TileMask {
        let mut m = TileMask::EMPTY;
        for &t in tiles {
            m.insert(t);
        }
        m
    }

    /// Marks `t` faulty.
    ///
    /// # Panics
    ///
    /// Panics on a tile index ≥ 64.
    pub fn insert(&mut self, t: TileId) {
        assert!(t.0 < 64, "TileMask covers tile indices 0..64");
        self.0 |= 1 << t.0;
    }

    /// True if `t` is faulty.
    pub fn contains(&self, t: TileId) -> bool {
        t.0 < 64 && self.0 & (1 << t.0) != 0
    }

    /// True if no tile is faulty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of faulty tiles.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// The raw bitset (stable fingerprint for cache keys).
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// The faulty tiles, in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..64).filter(|&i| self.0 & (1 << i) != 0).map(TileId)
    }
}

/// Which operation latencies the processors use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LatencyModel {
    /// Table 1 of the paper: ADD 1, MUL 12, DIV 35, ADDF 2, MULF 4, DIVF 12, …
    #[default]
    Table1,
    /// Every compute instruction takes one cycle (the paper's `1-cycle`
    /// configuration in Figure 8; memory latency is unaffected).
    Unit,
}

impl LatencyModel {
    /// Latency of an ALU operation under this model.
    pub fn alu_latency(self, op: AluOp) -> u32 {
        match self {
            LatencyModel::Table1 => op.table1_latency(),
            LatencyModel::Unit => 1,
        }
    }
}

/// Static configuration of a simulated Raw machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Mesh rows.
    pub rows: u32,
    /// Mesh columns.
    pub cols: u32,
    /// General-purpose registers per processor (32 on the prototype; set very
    /// large for the paper's `inf-reg` configuration).
    pub gprs: u32,
    /// Registers per switch (8 on the prototype).
    pub switch_regs: u32,
    /// Local memory (cache-hit) access latency in cycles (2 on the prototype).
    pub mem_latency: u32,
    /// Words of data memory per tile.
    pub mem_words: u32,
    /// Operation latency model.
    pub latency: LatencyModel,
    /// Static-network port FIFO depth in words.
    pub port_capacity: usize,
    /// Dynamic-network link FIFO depth in flits.
    pub dyn_fifo: usize,
    /// Simulation cycle budget before aborting.
    pub step_limit: u64,
    /// Faulty tiles: no code, data, or static routes may touch them.
    pub faulty: TileMask,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::grid(4, 4)
    }
}

impl MachineConfig {
    /// A `rows × cols` machine with prototype defaults.
    pub fn grid(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "mesh must be non-empty");
        MachineConfig {
            rows,
            cols,
            gprs: 32,
            switch_regs: 8,
            mem_latency: 2,
            mem_words: 1 << 16,
            latency: LatencyModel::Table1,
            port_capacity: 4,
            dyn_fifo: 4,
            step_limit: 4_000_000_000,
            faulty: TileMask::EMPTY,
        }
    }

    /// A machine with `n` tiles in the most nearly square power-of-two mesh
    /// (the shapes used for the paper's N = 1, 2, 4, 8, 16, 32 experiments:
    /// 1×1, 1×2, 2×2, 2×4, 4×4, 4×8).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (low-order interleaving requires it).
    pub fn square(n: u32) -> Self {
        assert!(n.is_power_of_two(), "tile count must be a power of two");
        let log = n.trailing_zeros();
        let rows = 1 << (log / 2);
        let cols = n / rows;
        MachineConfig::grid(rows, cols)
    }

    /// The paper's `inf-reg` variant: effectively unlimited registers.
    pub fn with_infinite_registers(mut self) -> Self {
        self.gprs = 1 << 16;
        self
    }

    /// The paper's `1-cycle` variant: all compute ops take one cycle.
    pub fn with_unit_latency(mut self) -> Self {
        self.latency = LatencyModel::Unit;
        self
    }

    /// Marks the given tiles faulty (replacing any previous mask).
    pub fn with_faulty(mut self, faulty: TileMask) -> Self {
        self.faulty = faulty;
        self
    }

    /// Number of tiles (live or faulty).
    pub fn n_tiles(&self) -> u32 {
        self.rows * self.cols
    }

    /// True if `t` is masked faulty.
    pub fn is_faulty(&self, t: TileId) -> bool {
        self.faulty.contains(t)
    }

    /// Number of live (non-faulty) tiles.
    pub fn n_live(&self) -> u32 {
        self.n_tiles() - self.faulty.len()
    }

    /// The live tiles, in ascending index order. With an empty mask this is
    /// simply `0..n_tiles()`.
    pub fn live_tiles(&self) -> Vec<TileId> {
        (0..self.n_tiles())
            .map(TileId)
            .filter(|&t| !self.is_faulty(t))
            .collect()
    }

    /// True if every live tile can reach every other through live tiles only
    /// (faulty switches cannot carry static routes). Vacuously true with one
    /// or zero live tiles.
    pub fn live_connected(&self) -> bool {
        let live = self.live_tiles();
        let Some(&start) = live.first() else {
            return true;
        };
        let n = self.n_tiles() as usize;
        let mut seen = vec![false; n];
        seen[start.index()] = true;
        let mut queue = vec![start];
        while let Some(t) = queue.pop() {
            for dir in Dir::ALL {
                if let Some(nb) = self.neighbor(t, dir) {
                    if !self.is_faulty(nb) && !seen[nb.index()] {
                        seen[nb.index()] = true;
                        queue.push(nb);
                    }
                }
            }
        }
        live.iter().all(|t| seen[t.index()])
    }

    /// Builds a faulty mask containing `dead` plus, if needed, the
    /// highest-index healthy tiles required to bring the live count down to a
    /// power of two (low-order interleaving needs one).
    ///
    /// # Panics
    ///
    /// Panics if every tile is dead.
    pub fn mask_to_pow2(&self, dead: &[TileId]) -> TileMask {
        let mut mask = TileMask::of(dead);
        let live = self.n_tiles() - mask.len();
        assert!(live > 0, "mask kills every tile");
        let target = if live.is_power_of_two() {
            live
        } else {
            1 << (31 - live.leading_zeros()) // largest power of two below live
        };
        let mut excess = live - target;
        for i in (0..self.n_tiles()).rev() {
            if excess == 0 {
                break;
            }
            let t = TileId(i);
            if !mask.contains(t) {
                mask.insert(t);
                excess -= 1;
            }
        }
        mask
    }

    /// `(row, col)` of a tile.
    pub fn coords(&self, t: TileId) -> (u32, u32) {
        (t.0 / self.cols, t.0 % self.cols)
    }

    /// Tile at `(row, col)`.
    pub fn tile_at(&self, row: u32, col: u32) -> TileId {
        debug_assert!(row < self.rows && col < self.cols);
        TileId(row * self.cols + col)
    }

    /// The neighbouring tile in `dir`, if it exists.
    pub fn neighbor(&self, t: TileId, dir: Dir) -> Option<TileId> {
        let (r, c) = self.coords(t);
        let (nr, nc) = match dir {
            Dir::North => (r.checked_sub(1)?, c),
            Dir::South => (r + 1, c),
            Dir::West => (r, c.checked_sub(1)?),
            Dir::East => (r, c + 1),
        };
        if nr < self.rows && nc < self.cols {
            Some(self.tile_at(nr, nc))
        } else {
            None
        }
    }

    /// Manhattan distance between two tiles in hops.
    pub fn hops(&self, a: TileId, b: TileId) -> u32 {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }

    /// The dimension-ordered (X-then-Y) route from `a` to `b`, as a direction
    /// sequence. Empty when `a == b`.
    pub fn xy_route(&self, a: TileId, b: TileId) -> Vec<Dir> {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        let mut route = Vec::new();
        let (mut r, mut c) = (ar, ac);
        while c != bc {
            if c < bc {
                route.push(Dir::East);
                c += 1;
            } else {
                route.push(Dir::West);
                c -= 1;
            }
        }
        while r != br {
            if r < br {
                route.push(Dir::South);
                r += 1;
            } else {
                route.push(Dir::North);
                r -= 1;
            }
        }
        route
    }

    /// Splits an interleaved global word address into `(home tile, local word)`.
    ///
    /// Low-order interleaving (paper §5.2 / Figure 7): the home tile occupies
    /// the low-order bits.
    pub fn split_gaddr(&self, gaddr: u32) -> (TileId, u32) {
        let n = self.n_tiles();
        debug_assert!(n.is_power_of_two());
        (TileId(gaddr & (n - 1)), gaddr >> n.trailing_zeros())
    }

    /// Builds an interleaved global word address from home tile and local word.
    pub fn make_gaddr(&self, home: TileId, local: u32) -> u32 {
        let n = self.n_tiles();
        (local << n.trailing_zeros()) | home.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_shapes_match_paper_sizes() {
        let shapes: Vec<(u32, u32)> = [1, 2, 4, 8, 16, 32]
            .iter()
            .map(|&n| {
                let c = MachineConfig::square(n);
                (c.rows, c.cols)
            })
            .collect();
        assert_eq!(shapes, vec![(1, 1), (1, 2), (2, 2), (2, 4), (4, 4), (4, 8)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        MachineConfig::square(12);
    }

    #[test]
    fn coords_round_trip() {
        let c = MachineConfig::grid(3, 5);
        for i in 0..15 {
            let t = TileId(i);
            let (r, col) = c.coords(t);
            assert_eq!(c.tile_at(r, col), t);
        }
    }

    #[test]
    fn neighbors_respect_mesh_edges() {
        let c = MachineConfig::grid(2, 2);
        let t0 = TileId(0);
        assert_eq!(c.neighbor(t0, Dir::North), None);
        assert_eq!(c.neighbor(t0, Dir::West), None);
        assert_eq!(c.neighbor(t0, Dir::East), Some(TileId(1)));
        assert_eq!(c.neighbor(t0, Dir::South), Some(TileId(2)));
        // Neighbor relation is symmetric via opposite direction.
        for t in 0..4 {
            for d in Dir::ALL {
                if let Some(n) = c.neighbor(TileId(t), d) {
                    assert_eq!(c.neighbor(n, d.opposite()), Some(TileId(t)));
                }
            }
        }
    }

    #[test]
    fn xy_route_is_x_first_and_correct_length() {
        let c = MachineConfig::grid(4, 8);
        let a = c.tile_at(3, 1);
        let b = c.tile_at(0, 6);
        let route = c.xy_route(a, b);
        assert_eq!(route.len() as u32, c.hops(a, b));
        // X (East/West) moves must all precede Y (North/South) moves.
        let first_y = route
            .iter()
            .position(|d| matches!(d, Dir::North | Dir::South));
        if let Some(fy) = first_y {
            assert!(route[fy..]
                .iter()
                .all(|d| matches!(d, Dir::North | Dir::South)));
        }
        assert!(c.xy_route(a, a).is_empty());
    }

    #[test]
    fn gaddr_round_trip() {
        let c = MachineConfig::square(8);
        for local in [0u32, 1, 100, 9999] {
            for home in 0..8 {
                let g = c.make_gaddr(TileId(home), local);
                assert_eq!(c.split_gaddr(g), (TileId(home), local));
            }
        }
    }

    #[test]
    fn tile_mask_basics() {
        let mut m = TileMask::of(&[TileId(1), TileId(5)]);
        assert!(m.contains(TileId(1)) && m.contains(TileId(5)));
        assert!(!m.contains(TileId(0)));
        assert_eq!(m.len(), 2);
        m.insert(TileId(1)); // idempotent
        assert_eq!(m.len(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![TileId(1), TileId(5)]);
        assert!(TileMask::EMPTY.is_empty());
    }

    #[test]
    fn live_tiles_and_connectivity() {
        let c = MachineConfig::grid(2, 2).with_faulty(TileMask::of(&[TileId(1), TileId(2)]));
        assert_eq!(c.n_live(), 2);
        assert_eq!(c.live_tiles(), vec![TileId(0), TileId(3)]);
        // Tiles 0 and 3 are diagonal: no live path between them.
        assert!(!c.live_connected());
        // A 1x4 with the interior alive stays connected.
        let c = MachineConfig::grid(1, 4).with_faulty(TileMask::of(&[TileId(0), TileId(3)]));
        assert!(c.live_connected());
        assert!(MachineConfig::grid(4, 4).live_connected());
    }

    #[test]
    fn mask_to_pow2_pads_with_healthy_tiles() {
        let c = MachineConfig::grid(2, 4);
        // One dead tile leaves 7 live; the mask pads down to 4 using the
        // highest-index healthy tiles.
        let m = c.mask_to_pow2(&[TileId(2)]);
        assert_eq!(c.clone().with_faulty(m).n_live(), 4);
        assert!(m.contains(TileId(2)));
        assert!(m.contains(TileId(7)) && m.contains(TileId(6)) && m.contains(TileId(5)));
        // Already a power of two: nothing added.
        let m = c.mask_to_pow2(&[TileId(0), TileId(1), TileId(2), TileId(3)]);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn latency_model_variants() {
        use raw_ir::BinOp;
        let mul = AluOp::Bin(BinOp::Mul);
        assert_eq!(LatencyModel::Table1.alu_latency(mul), 12);
        assert_eq!(LatencyModel::Unit.alu_latency(mul), 1);
        let cfg = MachineConfig::square(4)
            .with_unit_latency()
            .with_infinite_registers();
        assert_eq!(cfg.latency, LatencyModel::Unit);
        assert!(cfg.gprs > 1000);
    }
}
