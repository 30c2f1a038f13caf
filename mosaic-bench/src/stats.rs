//! Order statistics for timing samples: median, quartiles, and the
//! tail percentile a sample count can support.

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported: a
/// tail read from fewer points is one outlier, not a distribution.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Sorted copy of `xs` (total order, so NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the middle pair for an even count.
///
/// # Panics
///
/// Panics on an empty sample: a metric with no samples is a bug in the
/// workload that produced it.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(xs, n=4)`, so spreads computed here
/// match the ones an outside script computes from the same values. A
/// single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let scaled = (i + 1) * m;
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest percentile in [`TAIL_PERCENTILES`] with at least ten
/// samples beyond it (n=20 → p50, n=240 → p95, n=5000 → p99), and its
/// nearest-rank value. `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    let p = TAIL_PERCENTILES
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)?;
    let v = sorted(xs);
    // Nearest rank; the epsilon keeps 0.999 * 10000 from rounding up.
    let rank = ((p / 100.0) * n - 1e-9).ceil().max(1.0) as usize;
    Some((p, v[rank.min(v.len()) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from statistics.quantiles(data, n=4).
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let series = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
        assert_eq!(tail(&series(19)), None);
        assert_eq!(tail(&series(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&series(240)), Some((95.0, 228.0)));
        assert_eq!(tail(&series(5000)), Some((99.0, 4950.0)));
        assert_eq!(tail(&series(10_000)), Some((99.9, 9990.0)));
    }
}
