//! Data partitioning and memory layout (paper §3.3 "data partitioner" and §5).
//!
//! Every persistent scalar variable is assigned a **home tile** (round-robin,
//! as in the paper's current data partitioner). Arrays are **low-order
//! interleaved element-wise**: element `k` of an array lives on tile
//! `k mod N` at local word `base + k / N`. All tiles use the same local base
//! address for a given array, which makes the interleaved global address of
//! element `k` simply `base · N + k` (paper Figure 7).
//!
//! Arrays are classified **statically accessed** or **dynamically accessed**
//! at whole-program granularity: if any reference to an array anywhere in the
//! program is not statically analyzable, *all* references to it are compiled
//! as dynamic-network accesses and pinned to a single issuing tile. This is
//! the conservative choice the paper describes in §5.1: it keeps every pair of
//! potentially aliasing references totally ordered (by the issuing tile's
//! instruction stream) without cross-tile synchronization.

use raw_ir::{ArrayId, InstKind, MemHome, Program, VarId};
use raw_machine::{MachineConfig, TileId};

/// How all references to an array are compiled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayClass {
    /// Every reference has a compile-time home tile; accesses ride the static
    /// network by pinning each access to its element's home tile.
    Static,
    /// At least one reference is unanalyzable; every reference goes over the
    /// dynamic network, issued from the given tile.
    Dynamic {
        /// The tile from which all dynamic accesses to this array issue.
        issue_tile: TileId,
    },
}

/// The complete data layout for one (program, machine) pair.
///
/// Layout operates in **slot space**: `n_tiles` is the number of *live* tiles
/// (a power of two), and every `k % n_tiles` / `k >> tile_shift` computation
/// is over slots. `live` maps each slot to the physical tile that hosts it;
/// with no faulty mask it is the identity and slot == physical tile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataLayout {
    /// Number of *live* tiles — the size of slot space.
    pub n_tiles: u32,
    /// Physical tile hosting each slot, ascending; `live.len() == n_tiles`.
    pub live: Vec<TileId>,
    /// Home tile per variable.
    pub var_home: Vec<TileId>,
    /// Local word address of each variable's slot (on its home tile).
    pub var_addr: Vec<u32>,
    /// Local base word address of each array (identical on every tile).
    pub array_base: Vec<u32>,
    /// Per-array access classification.
    pub array_class: Vec<ArrayClass>,
    /// First local word address available for spill slots.
    pub spill_base: u32,
}

impl DataLayout {
    /// Computes the layout: round-robin variable homes, sequential array
    /// bases, and the global static/dynamic array classification.
    pub fn build(program: &Program, config: &MachineConfig) -> Self {
        let live = config.live_tiles();
        let n = live.len() as u32;
        assert!(
            n.is_power_of_two(),
            "low-order interleaving needs 2^k live tiles"
        );

        let var_home = (0..program.vars.len())
            .map(|i| live[i % n as usize])
            .collect();
        let var_addr = (0..program.vars.len()).map(|i| i as u32).collect();

        let mut next = program.vars.len() as u32;
        let mut array_base = Vec::with_capacity(program.arrays.len());
        for a in &program.arrays {
            array_base.push(next);
            // Per-tile segment: enough words for the elements this tile owns.
            next += a.len().div_ceil(n).max(1);
        }

        // Classification: an array is dynamic if any reference to it anywhere
        // is marked MemHome::Dynamic.
        let mut dynamic = vec![false; program.arrays.len()];
        for (_, block) in program.iter_blocks() {
            for inst in &block.insts {
                match inst.kind {
                    InstKind::Load { array, home, .. } | InstKind::Store { array, home, .. }
                        if home == MemHome::Dynamic =>
                    {
                        dynamic[array.index()] = true;
                    }
                    _ => {}
                }
            }
        }
        let mut dyn_count = 0u32;
        let array_class = dynamic
            .iter()
            .map(|&d| {
                if d {
                    let tile = live[(dyn_count % n) as usize];
                    dyn_count += 1;
                    ArrayClass::Dynamic { issue_tile: tile }
                } else {
                    ArrayClass::Static
                }
            })
            .collect();

        DataLayout {
            n_tiles: n,
            live,
            var_home,
            var_addr,
            array_base,
            array_class,
            spill_base: next,
        }
    }

    /// Home tile of a variable.
    pub fn var_home(&self, v: VarId) -> TileId {
        self.var_home[v.index()]
    }

    /// Local slot address of a variable (valid on its home tile).
    pub fn var_addr(&self, v: VarId) -> u32 {
        self.var_addr[v.index()]
    }

    /// Local base address of an array (same on every tile).
    pub fn array_base(&self, a: ArrayId) -> u32 {
        self.array_base[a.index()]
    }

    /// Home tile of array element `k` under low-order interleaving over the
    /// live tiles.
    pub fn element_home(&self, k: u32) -> TileId {
        self.live[(k % self.n_tiles) as usize]
    }

    /// True when slot space is the identity map onto physical tiles (no
    /// faulty mask in effect).
    pub fn identity_homes(&self) -> bool {
        self.live.iter().enumerate().all(|(i, t)| t.index() == i)
    }

    /// Local word address of array element `k` on its home tile.
    pub fn element_local(&self, a: ArrayId, k: u32) -> u32 {
        self.array_base(a) + k / self.n_tiles
    }

    /// log2(number of tiles): the shift used in address arithmetic.
    pub fn tile_shift(&self) -> u32 {
        self.n_tiles.trailing_zeros()
    }

    /// The effective [`ArrayClass`] of an array.
    pub fn class(&self, a: ArrayId) -> ArrayClass {
        self.array_class[a.index()]
    }
}

/// Builds the per-tile initial memory images (variable initials on home tiles,
/// interleaved array initials) for loading into a [`raw_machine::Machine`].
pub fn initial_memory_images(program: &Program, layout: &DataLayout) -> Vec<Vec<(u32, u32)>> {
    // Indexed by *physical* tile: under a faulty mask, live tiles can have
    // indices well past the slot count.
    let n = layout.live.iter().map(|t| t.index() + 1).max().unwrap_or(1);
    let mut images: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for (i, var) in program.vars.iter().enumerate() {
        let v = VarId::from_raw(i as u32);
        images[layout.var_home(v).index()].push((layout.var_addr(v), var.init.to_bits()));
    }
    for (i, arr) in program.arrays.iter().enumerate() {
        let a = ArrayId::from_raw(i as u32);
        for k in 0..arr.len() {
            let home = layout.element_home(k);
            let addr = layout.element_local(a, k);
            images[home.index()].push((addr, arr.init_value(k).to_bits()));
        }
    }
    images
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_ir::builder::ProgramBuilder;
    use raw_ir::{Imm, Ty};

    fn program_with(home_a: MemHome, home_b: MemHome) -> Program {
        let mut b = ProgramBuilder::new("t");
        let _x = b.var_i32("x", 7);
        let _y = b.var_f32("y", 1.5);
        let arr = b.array("A", Ty::I32, &[10]);
        b.set_array_init(arr, (0..10).map(Imm::I).collect());
        let brr = b.array("B", Ty::I32, &[4]);
        let i0 = b.const_i32(0);
        let v = b.load(arr, i0, 0, home_a);
        b.store(brr, i0, 0, v, home_b);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn round_robin_homes_and_slots() {
        let p = program_with(MemHome::Static(0), MemHome::Static(0));
        let layout = DataLayout::build(&p, &MachineConfig::square(4));
        assert_eq!(layout.var_home[0], TileId::from_raw(0));
        assert_eq!(layout.var_home[1], TileId::from_raw(1));
        assert_eq!(layout.var_addr, vec![0, 1]);
        // Arrays packed after the two var slots: A needs ceil(10/4)=3 words.
        assert_eq!(layout.array_base, vec![2, 5]);
        assert_eq!(layout.spill_base, 6);
    }

    #[test]
    fn interleaving_math() {
        let p = program_with(MemHome::Static(0), MemHome::Static(0));
        let layout = DataLayout::build(&p, &MachineConfig::square(4));
        let a = p.array_by_name("A").unwrap();
        assert_eq!(layout.element_home(6), TileId::from_raw(2));
        assert_eq!(layout.element_local(a, 6), 2 + 1);
        assert_eq!(layout.tile_shift(), 2);
    }

    #[test]
    fn dynamic_reference_poisons_whole_array() {
        let p = program_with(MemHome::Dynamic, MemHome::Static(0));
        let layout = DataLayout::build(&p, &MachineConfig::square(2));
        assert!(matches!(
            layout.class(p.array_by_name("A").unwrap()),
            ArrayClass::Dynamic { .. }
        ));
        assert_eq!(
            layout.class(p.array_by_name("B").unwrap()),
            ArrayClass::Static
        );
    }

    #[test]
    fn memory_images_interleave_initials() {
        let p = program_with(MemHome::Static(0), MemHome::Static(0));
        let layout = DataLayout::build(&p, &MachineConfig::square(2));
        let images = initial_memory_images(&p, &layout);
        // x=7 on tile 0 at slot 0; y=1.5 on tile 1 at slot 1.
        assert!(images[0].contains(&(0, 7)));
        assert!(images[1].contains(&(1, 1.5f32.to_bits())));
        // A[3] = 3 lives on tile 1 (3 mod 2) at base 2 + 3/2 = 3.
        assert!(images[1].contains(&(3, 3)));
        // A[4] = 4 lives on tile 0 at base 2 + 2 = 4.
        assert!(images[0].contains(&(4, 4)));
    }

    #[test]
    fn faulty_mask_interleaves_over_live_tiles_only() {
        let p = program_with(MemHome::Static(0), MemHome::Static(0));
        let base = MachineConfig::grid(2, 4);
        let mask = base
            .mask_to_pow2(&[TileId::from_raw(2)])
            .expect("the mesh fits the mask");
        let config = base.with_faulty(mask);
        let layout = DataLayout::build(&p, &config);
        assert_eq!(layout.n_tiles, 4);
        assert_eq!(
            layout.live,
            vec![
                TileId::from_raw(0),
                TileId::from_raw(1),
                TileId::from_raw(3),
                TileId::from_raw(4)
            ]
        );
        assert!(!layout.identity_homes());
        // Slot 2 lives on physical tile 3.
        assert_eq!(layout.element_home(2), TileId::from_raw(3));
        assert_eq!(layout.element_home(6), TileId::from_raw(3));
        // No home lands on a masked tile.
        for k in 0..16 {
            assert!(!config.is_faulty(layout.element_home(k)));
        }
        // Memory images are sized by physical tile index, and masked tiles
        // receive no initial data.
        let images = initial_memory_images(&p, &layout);
        assert_eq!(images.len(), 5);
        assert!(images[2].is_empty());
    }

    #[test]
    fn single_tile_layout_degenerates_cleanly() {
        let p = program_with(MemHome::Static(0), MemHome::Static(0));
        let layout = DataLayout::build(&p, &MachineConfig::square(1));
        assert_eq!(layout.tile_shift(), 0);
        assert_eq!(layout.element_home(9), TileId::from_raw(0));
        let a = p.array_by_name("A").unwrap();
        assert_eq!(layout.element_local(a, 9), layout.array_base(a) + 9);
    }
}
