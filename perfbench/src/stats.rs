//! Order statistics over samples.

/// The sample at quantile `q` (0..=1) by the nearest-rank rule on a
/// sorted copy; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles tried for a tail, highest first, in hundredths of a
/// percent so ranks are exact.
const TAIL_CENTI_PCTS: [usize; 5] = [9999, 9990, 9900, 9000, 5000];

/// The tail of a latency distribution: the highest percentile from
/// [`TAIL_CENTI_PCTS`] with at least ten samples beyond it, as
/// `(value, percentile)`. `(0, 0)` when even the median has fewer than
/// ten samples above it.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    for p in TAIL_CENTI_PCTS {
        // Nearest rank: the smallest sample with p of them at or below.
        let rank = (p * n).div_ceil(10_000);
        if rank >= 1 && n - rank >= 10 {
            return (v[rank - 1], p as f64 / 100.0);
        }
    }
    (0.0, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99.0));
        assert_eq!(tail(&[1.0; 19]), (0.0, 0.0));
        assert_eq!(tail(&[1.0; 20]).1, 50.0);
    }
}
