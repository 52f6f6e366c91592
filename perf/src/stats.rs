//! Order statistics for the harness: the low-tail pass pick, medians, and the
//! "highest percentile with enough samples beyond it" rule.

/// Samples that must lie beyond a reported upper percentile
/// (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `pct`-th percentile by nearest rank over the sorted samples
/// (`pct` in 0..=100). Nearest rank returns a value that was measured, so a
/// percentile of times is itself a time some pass really took.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one pass.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The low-tail pick every gated time metric uses: the 10th percentile across
/// passes. On a shared box the machine slows in bursts, so medians wander
/// between runs of identical code while the fast tail repeats.
pub fn p10(values: &[f64]) -> f64 {
    percentile(values, 10.0)
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest whole percentile in `50..=99` that still has `beyond` samples
/// strictly above its rank, or `None` when even the median does not.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&p| {
        let rank = ((f64::from(p) / 100.0) * n as f64).ceil() as usize;
        n >= rank.max(1) + beyond
    })
}

/// Geometric mean of positive ratios; `None` for an empty set.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(p10(&v), 4.0);
        assert_eq!(median(&v), 20.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(p10(&[7.0]), 7.0);
        // Order of arrival does not matter.
        assert_eq!(p10(&[9.0, 1.0, 5.0, 3.0, 7.0]), 1.0);
    }

    #[test]
    fn upper_percentile_needs_samples_beyond_it() {
        // p95 of 800 leaves 40 beyond; of 100 it leaves only 5.
        assert_eq!(highest_supported_percentile(800, 40), Some(95));
        assert_eq!(highest_supported_percentile(800, MIN_BEYOND), Some(98));
        assert_eq!(highest_supported_percentile(100, MIN_BEYOND), Some(90));
        assert_eq!(highest_supported_percentile(20, MIN_BEYOND), Some(50));
        assert_eq!(highest_supported_percentile(19, MIN_BEYOND), None);
        assert_eq!(highest_supported_percentile(0, MIN_BEYOND), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert_eq!(geomean(&[]), None);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }
}
