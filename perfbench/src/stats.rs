//! Order statistics over measured samples.

/// The smallest number of samples that must lie strictly beyond a
/// percentile for it to count as resolved.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set, with the counts that say whether it
/// can be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank percentile value (`+∞` when it lands on a
    /// failed request, which counts as missing every latency limit).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

impl Percentile {
    /// True when at least [`MIN_BEYOND`] samples lie beyond the value.
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `xs` (NaN-free; `+∞` is a
/// valid sample). An empty set yields NaN with zero samples.
pub fn percentile(xs: &[f64], q: f64) -> Percentile {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    Percentile {
        value,
        samples: n,
        beyond,
    }
}

/// The median of `xs` (mean of the two middle values for an even
/// count); NaN for an empty set.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_unresolved_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        let p = percentile(&xs, 0.99);
        assert_eq!(p.value, 495.0);
        assert_eq!(p.beyond, 5);
        assert!(!p.resolved());

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&xs, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert!(p.resolved());
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        // 50 calls of 128 requests that share their call's latency:
        // the top 1% sits inside the slowest call, so nothing is beyond.
        let xs: Vec<f64> = (0..50)
            .flat_map(|call| std::iter::repeat_n(f64::from(call), 128))
            .collect();
        let p = percentile(&xs, 0.99);
        assert_eq!(p.value, 49.0);
        assert_eq!(p.beyond, 0);
        assert!(!p.resolved());
    }

    #[test]
    fn failures_enter_as_misses() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.extend([f64::INFINITY; 20]);
        let p = percentile(&xs, 0.99);
        assert_eq!(p.value, f64::INFINITY);
        assert_eq!(p.samples, 1020);
        assert_eq!(percentile(&xs, 0.5).value, 510.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
