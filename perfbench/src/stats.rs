//! Order statistics over timing samples.

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of ascending `sorted`, reported only when
/// at least ten samples lie beyond it — a tail read off fewer samples
/// than that is one unlucky run, not a percentile.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts samples ascending for [`tail`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.5), Some(50.0));
        assert_eq!(tail(&v, 0.9), Some(90.0));
        assert_eq!(tail(&v, 0.99), None, "only one sample lies beyond p99");
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&w, 0.99), Some(990.0));
    }
}
