//! Random timing perturbation ("chaos") for static-ordering tests.
//!
//! The paper's Appendix A proves that a deadlock-free static schedule produces
//! the same results under *any* timing, because blocking port semantics preserve
//! the order of communication events. To test that property, the simulator can
//! randomly stall processors and switches — modelling cache misses, interrupts,
//! and other dynamic events — and the test suite asserts that final memory is
//! bit-identical to an unperturbed run.
//!
//! A stall decision is a pure function of `(seed, component, cycle)`: there is
//! no stream position to preserve, so any stepper may evaluate it lazily — an
//! active component asks when it is about to step, and a sleeper's stalled
//! cycles are counted over its whole sleep span when its stall debt settles.
//! Two steppers given the same seed perturb exactly the same cycles, which is
//! what keeps the differential oracle meaningful under chaos.

/// Configuration of random stall injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Hash seed (deterministic per seed; every bit matters).
    pub seed: u64,
    /// Per-component, per-cycle stall probability in percent (0–100).
    pub stall_percent: u32,
}

/// Counter-based source of stall decisions.
#[derive(Clone, Debug)]
pub struct Chaos {
    key: u64,
    stall_percent: u32,
}

/// The splitmix64 finaliser (Steele, Lea & Flood): a bijection on `u64` whose
/// output bits each depend on every input bit.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Chaos {
    /// Creates a chaos source from its configuration.
    pub fn new(config: ChaosConfig) -> Self {
        Chaos {
            key: mix(config.seed),
            stall_percent: config.stall_percent.min(100),
        }
    }

    /// Whether `component` is stalled on `cycle`. Components are numbered by
    /// the caller; the machine uses `2·tile` for a processor and `2·tile + 1`
    /// for a switch.
    pub fn stall(&self, component: u64, cycle: u64) -> bool {
        let h = mix(mix(self.key ^ component) ^ cycle);
        (h % 100) < self.stall_percent as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stall decisions over a small (component, cycle) grid.
    fn grid(seed: u64, stall_percent: u32) -> Vec<bool> {
        let c = Chaos::new(ChaosConfig {
            seed,
            stall_percent,
        });
        (0..16u64)
            .flat_map(|comp| (0..64u64).map(move |cycle| (comp, cycle)))
            .map(|(comp, cycle)| c.stall(comp, cycle))
            .collect()
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(grid(42, 30), grid(42, 30));
    }

    #[test]
    fn respects_extremes() {
        assert!(grid(7, 0).iter().all(|&s| !s));
        assert!(grid(7, 100).iter().all(|&s| s));
    }

    #[test]
    fn rate_roughly_matches() {
        let c = Chaos::new(ChaosConfig {
            seed: 99,
            stall_percent: 25,
        });
        let hits = (0..10_000u64).filter(|&i| c.stall(i % 50, i / 50)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn adjacent_seeds_give_different_patterns() {
        // Every bit of the seed reaches the hash, the lowest included: seeds
        // 2k and 2k+1 (and 0) are distinct perturbations, so a sweep over
        // `1..=5` exercises five of them.
        let patterns: Vec<Vec<bool>> = (0..8).map(|seed| grid(seed, 40)).collect();
        for (a, pa) in patterns.iter().enumerate() {
            for (b, pb) in patterns.iter().enumerate().skip(a + 1) {
                assert_ne!(pa, pb, "seeds {a} and {b} alias");
            }
        }
    }
}
