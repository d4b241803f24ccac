//! Order statistics for timing samples.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it, so a p95 needs 200 samples.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The `pct`-th percentile by nearest rank, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], pct: usize) -> Option<f64> {
    let n = values.len();
    let rank = (n * pct).div_ceil(100);
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method):
/// the three quartile cut points. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread as the acceptance check takes it: the distance
/// between the first and third quartile as a share of the median. 0
/// with fewer than two samples.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some([q1, _, q3]), m) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn p95_is_omitted_below_200_samples() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&samples(199), 95), None);
        assert_eq!(percentile(&samples(200), 95), Some(190.0));
        assert_eq!(percentile(&samples(400), 95), Some(380.0));
        assert_eq!(percentile(&samples(19), 50), None);
        assert_eq!(percentile(&samples(20), 50), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
