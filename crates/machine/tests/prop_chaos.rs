//! Property tests for the chaos source: stall patterns are deterministic per
//! seed and hit their configured stall rate, for random seeds drawn from the
//! testkit RNG.

use raw_machine::chaos::{Chaos, ChaosConfig};
use raw_testkit::prelude::*;

raw_testkit::proptest! {
    /// Any (seed, rate) pair yields a reproducible pattern over a
    /// (component, cycle) grid whose empirical stall rate lands near the
    /// configured probability.
    #[test]
    fn chaos_is_deterministic_and_rate_accurate(
        seed in any::<u64>(),
        pct_idx in 0usize..4,
    ) {
        let stall_percent = [5u32, 20, 50, 80][pct_idx];
        let cfg = ChaosConfig { seed, stall_percent };
        let draw = || -> Vec<bool> {
            let c = Chaos::new(cfg);
            (0..10_000u64).map(|i| c.stall(i % 100, i / 100)).collect()
        };
        let a = draw();
        prop_assert_eq!(&a, &draw());
        let hits = a.iter().filter(|&&s| s).count();
        let expected = 100 * stall_percent as usize; // out of 10_000
        let slack = 500; // 5 percentage points
        prop_assert!(
            hits + slack > expected && hits < expected + slack,
            "rate {}% produced {} stalls / 10000", stall_percent, hits
        );
    }
}
