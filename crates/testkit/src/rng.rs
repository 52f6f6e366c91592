//! Deterministic pseudo-random number generation.
//!
//! The generator is xorshift64\* (Vigna) seeded through one round of
//! splitmix64 — the same family as the simulator's chaos source
//! (`raw_machine::chaos`). It is *not* cryptographic; it exists so seeded
//! workload generation and property tests are reproducible bit-for-bit on
//! every platform with no external crates.

use std::ops::Range;

/// Golden gamma: the splitmix64 increment, also used to derive per-case
/// seeds in the property harness.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One round of splitmix64: advances `state` and returns a mixed output.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xorshift64\* generator.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Any seed is valid (including 0: the
    /// state is mixed through splitmix64 and forced nonzero).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let state = splitmix64(&mut s);
        Rng {
            state: if state == 0 { GOLDEN_GAMMA } else { state },
        }
    }

    /// Creates a generator whose seed is derived from a name — used by the
    /// benchmark suite so each workload gets an independent stream.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let seed = name.bytes().fold(0xbead_cafe_u64, |acc, b| {
            acc.wrapping_mul(131).wrapping_add(b as u64)
        });
        Rng::new(seed)
    }

    /// Next raw 64-bit value (xorshift64\*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` (24 bits of precision).
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform value in `[range.start, range.end)`.
    ///
    /// Integer sampling uses a modulo draw — a bias below 2⁻³² for the spans
    /// used here, which deterministic tests can live with.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, &range)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }
}

/// The endless stream of [`Rng::next_u64`] values, so a seed list is
/// `Rng::new(stream).take(n)`.
impl Iterator for Rng {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.next_u64())
    }
}

/// Types that can be drawn uniformly from a half-open range.
pub trait SampleRange: Copy + PartialOrd {
    /// Draws one value in `[range.start, range.end)`.
    fn sample(rng: &mut Rng, range: &Range<Self>) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: &Range<Self>) -> Self {
                assert!(
                    range.start < range.end,
                    "empty range {}..{}", range.start, range.end
                );
                let span = (range.end as $wide).wrapping_sub(range.start as $wide) as u64;
                let off = rng.next_u64() % span;
                (range.start as $wide).wrapping_add(off as $wide) as $t
            }
        }
    )*};
}

impl_sample_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

macro_rules! impl_sample_float {
    ($($t:ty, $gen:ident);* $(;)?) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: &Range<Self>) -> Self {
                assert!(
                    range.start < range.end,
                    "empty range {}..{}", range.start, range.end
                );
                let v = range.start + rng.$gen() * (range.end - range.start);
                // Guard the open end against rounding.
                if v >= range.end { range.start } else { v }
            }
        }
    )*};
}

impl_sample_float!(f32, gen_f32; f64, gen_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(43);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut r = Rng::new(0);
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..2000 {
            let v = r.gen_range(-5i32..17);
            assert!((-5..17).contains(&v));
            let u = r.gen_range(0usize..3);
            assert!(u < 3);
            let f = r.gen_range(0.25f32..1.75);
            assert!((0.25..1.75).contains(&f));
            let d = r.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&d));
        }
    }

    #[test]
    fn ranges_cover_their_support() {
        let mut r = Rng::new(11);
        let mut seen = [false; 6];
        for _ in 0..600 {
            seen[r.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_rate_roughly_matches() {
        let mut r = Rng::new(99);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "got {hits}");
    }

    #[test]
    fn unit_floats_are_half_open() {
        let mut r = Rng::new(3);
        for _ in 0..5000 {
            let f = r.gen_f32();
            assert!((0.0..1.0).contains(&f));
            let d = r.gen_f64();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(5);
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, (0..32).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn from_name_streams_differ() {
        let a = Rng::from_name("life").next_u64();
        let b = Rng::from_name("jacobi").next_u64();
        assert_ne!(a, b);
    }
}
