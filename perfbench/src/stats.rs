//! Order statistics the benchmark reports: medians, and the tail
//! percentile rule (the highest percentile that still has at least ten
//! samples beyond it).

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail percentile with the sample counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// The percentile actually reported, in percent.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The `pct`-th percentile by nearest rank, lowered to the highest
/// percentile that leaves at least [`TAIL_MIN_BEYOND`] samples beyond
/// it. With fewer than `TAIL_MIN_BEYOND + 1` samples no percentile
/// qualifies and the maximum is returned with `beyond == 0`, so the
/// caller can say the tail is unresolved.
pub fn tail(samples: &[f64], pct: f64) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // Nearest rank (1-based) of the requested percentile.
    let wanted = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = if n > TAIL_MIN_BEYOND {
        wanted.min(n - TAIL_MIN_BEYOND)
    } else {
        n
    };
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_of_a_hundred_keeps_ten_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples, 90.0).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
    }

    #[test]
    fn tail_is_lowered_until_ten_samples_lie_beyond() {
        // 50 samples: p90 would leave 5 beyond, so the rule drops to
        // rank 40 (p80), which leaves exactly ten.
        let samples: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&samples, 90.0).unwrap();
        assert_eq!(t.value, 40.0);
        assert_eq!(t.beyond, TAIL_MIN_BEYOND);
        assert_eq!(t.samples, 50);
        assert_eq!(t.percentile, 80.0);
    }

    #[test]
    fn large_samples_keep_the_requested_percentile() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&samples, 90.0).unwrap();
        assert_eq!(t.value, 900.0);
        assert_eq!(t.beyond, 100);
    }

    #[test]
    fn too_few_samples_report_the_maximum_unresolved() {
        let t = tail(&[5.0, 1.0, 3.0], 90.0).unwrap();
        assert_eq!(t.value, 5.0);
        assert_eq!(t.beyond, 0);
        assert!(tail(&[], 90.0).is_none());
    }
}
