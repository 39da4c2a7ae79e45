//! Sample statistics and metric-name validation for the benchmark report.

/// Samples that must lie strictly beyond a percentile's rank before it is
/// reported. With fewer, nearest-rank silently returns (close to) the
/// maximum, which would be a different statistic under the same name.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 1`) of `sorted`
/// (ascending), or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    // Rank ceil(p·n), 1-based; the epsilon keeps 0.9 · 100 from rounding
    // up to rank 91 through binary representation error.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample (lower-middle element for even `n`, the
/// nearest-rank convention); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[(v.len() - 1) / 2])
}

/// Mean of a sample, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Checks a reported metric name: starts with a letter or digit, at most
/// 64 characters of `[A-Za-z0-9_.-]`.
pub fn metric_name_ok(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        let v = ramp(1000);
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // Rank rounds up: p50 of 21 samples is the 11th.
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 99 samples has rank 90 and only 9 beyond it.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // p99 below 1000 samples would be the max or next to it.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(5000), 0.99), Some(4950.0));
        // A median needs 20 samples.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        // Never the max, whatever the size.
        for n in 1..300 {
            let v = ramp(n);
            for p in [0.5, 0.9, 0.99] {
                if let Some(x) = percentile(&v, p) {
                    assert!(x <= (n - MIN_BEYOND) as f64, "p{p} of {n} = {x}");
                }
            }
        }
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 1.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn metric_names() {
        for ok in [
            "epoch_ms_p50",
            "netsim.phase_a_max_ms",
            "alloc.replay_per_epoch",
            "9x",
            "a-b",
        ] {
            assert!(metric_name_ok(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "p99%",
            "ms/epoch",
            "é",
            long.as_str(),
        ] {
            assert!(!metric_name_ok(bad), "{bad:?}");
        }
        assert!(metric_name_ok(&"a".repeat(64)));
    }
}
