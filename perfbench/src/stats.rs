//! Order statistics over raw samples — never a histogram sketch.

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Exact order statistic (nearest rank: the `ceil(q·n)`-th smallest
/// sample). Refuses a percentile with fewer than [`MIN_BEYOND`] samples
/// above it, so a tail is never read off a handful of points.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&q), "percentile {q} outside [0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair for even `n`).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean over clients of each client's median. Two SPMD ranks see
/// different latency distributions (the one that arrives first waits for
/// its peer), and the median of the pooled samples falls in the gap
/// between them, where it swings from run to run. 0 when a client has
/// no samples.
pub fn mean_of_medians(per_client: &[Vec<f64>]) -> f64 {
    if per_client.is_empty() || per_client.iter().any(Vec::is_empty) {
        return 0.0;
    }
    per_client.iter().map(|s| median(s)).sum::<f64>() / per_client.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Ok(500.0));
        assert_eq!(percentile(&s, 0.99), Ok(990.0));
        assert_eq!(percentile(&s[..20], 0.5), Ok(990.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&s, 0.99).is_err(), "999 samples leave 9 beyond p99");
        assert!(percentile(&s[..19], 0.5).is_err(), "19 samples leave 9 beyond p50");
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&s, 0.95).is_ok());
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean_of_medians(&[vec![1.0, 2.0, 3.0], vec![10.0, 30.0, 20.0]]), 11.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
