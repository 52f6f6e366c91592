//! Hermetic test toolkit.
//!
//! The build environment has no access to crates.io, so the workspace cannot
//! depend on `rand` or `proptest`. This crate replaces both with small,
//! deterministic, dependency-free equivalents:
//!
//! * [`Rng`] — a splitmix64-seeded xorshift64\* generator (the same family as
//!   the simulator's chaos source) with `gen_range` / `gen_bool` / `shuffle`,
//!   used by the seeded workload generators in `raw-benchmarks`.
//! * [`prop`] — a miniature property-testing harness: composable strategies,
//!   fixed-seed case generation, greedy shrinking, and seed replay via the
//!   `TESTKIT_SEED` / `TESTKIT_CASES` environment variables.
//! * [`golden`] — the golden-snapshot comparator shared by every pinned-text
//!   test, with `UPDATE_GOLDEN=1` regeneration.
//!
//! Everything is deterministic by construction: the same seed always produces
//! the same stream, the same cases, and the same generated workloads. Golden
//! hashes ([`hash64`]) pin generator output across PRs.

pub mod golden;
pub mod prop;
pub mod rng;

pub use golden::check_golden;
pub use rng::Rng;

/// FNV-1a 64-bit hash, used to pin golden output (generated benchmark
/// sources, initial data) so accidental generator drift fails loudly.
#[must_use]
pub fn hash64(bytes: &[u8]) -> u64 {
    hash64_with(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a 64-bit hash continued from an arbitrary `basis` — chain calls to
/// hash multi-part inputs without concatenating, or pick an independent basis
/// for a second hash (the block cache builds its 128-bit keys this way).
#[must_use]
pub fn hash64_with(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`hash64`] over a string's UTF-8 bytes.
#[must_use]
pub fn hash_str(s: &str) -> u64 {
    hash64(s.as_bytes())
}

/// Prelude for property tests: the macro plus every strategy constructor.
pub mod prelude {
    pub use crate::prop::{any, oneof, vec, Config, Strategy};
    pub use crate::rng::Rng;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable() {
        // Pinned: if FNV-1a changes, every golden hash in the workspace is
        // invalid, so pin the hash function itself.
        assert_eq!(hash_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_str("raw"), 0x89f6_c119_60ff_5191);
        assert_ne!(hash_str("a"), hash_str("b"));
    }
}
