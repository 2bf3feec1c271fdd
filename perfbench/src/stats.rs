//! Order statistics for run summaries.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics (the "type 7" rule of R and NumPy). `None`
/// for an empty slice; non-finite inputs are ignored.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median, or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// How many samples lie strictly above the `q`-quantile — the guide for
/// whether a tail percentile rests on enough samples.
pub fn beyond(values: &[f64], q: f64) -> usize {
    match quantile(values, q) {
        Some(cut) => values.iter().filter(|v| **v > cut).count(),
        None => 0,
    }
}

/// The total length of the union of `[start, end]` intervals.
pub fn union_length(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[f64::NAN, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn quantile_matches_python_statistics_inclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4, method="inclusive")
        // gives [3.25, 5.5, 7.75].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), Some(3.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.75), Some(7.75));
    }

    #[test]
    fn beyond_counts_the_strict_tail() {
        let v: Vec<f64> = (1..=110).map(f64::from).collect();
        assert!(beyond(&v, 0.9) >= 10);
        assert_eq!(beyond(&[1.0, 1.0, 1.0], 0.5), 0);
        assert_eq!(beyond(&[], 0.9), 0);
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        let mut v = vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.5, 3.6)];
        assert!((union_length(&mut v) - 3.0).abs() < 1e-12);
        assert_eq!(union_length(&mut []), 0.0);
    }
}
