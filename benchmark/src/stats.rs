//! Order statistics used for every reported number.

/// Sorts a sample of finite values in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `q`-quantile (0..=1) of an already sorted sample, by linear
/// interpolation between closest ranks. Empty samples yield 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// The highest percentile a sample of `n` supports with at least ten
/// observations beyond it (choosing-metrics §1), as a fraction; `None`
/// below 20 observations, where not even the 50th qualifies.
pub fn top_supported_quantile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0)
}

/// Median with the extremes beside it, for "median [min … max]" lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Summarises per-trial values of one metric.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    sort(&mut v);
    Summary {
        median: quantile_sorted(&v, 0.5),
        min: v.first().copied().unwrap_or(0.0),
        max: v.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert!((quantile_sorted(&v, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_and_summary_ignore_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summarize(&[9.0, 2.0, 4.0]);
        assert_eq!((s.median, s.min, s.max), (4.0, 2.0, 9.0));
    }

    #[test]
    fn top_quantile_needs_ten_observations_beyond_it() {
        assert_eq!(top_supported_quantile(19), None);
        assert_eq!(top_supported_quantile(20), Some(0.5));
        assert_eq!(top_supported_quantile(999), Some(0.95));
        assert_eq!(top_supported_quantile(1_000), Some(0.99));
        assert_eq!(top_supported_quantile(10_000), Some(0.999));
    }
}
