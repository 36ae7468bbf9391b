//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// Sorts a copy of `samples` ascending.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (`0 < p < 100`) by linear interpolation between
/// closest ranks, as Python's `statistics.quantiles(method="inclusive")`.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let last = v.len().checked_sub(1)?;
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median; `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Rank, in ascending order, of the highest of `n` samples that still has
/// [`SAMPLES_BEYOND`] samples beyond it: the tail a run may report. `None`
/// (never a number) unless that rank lies above the median.
pub fn tail_rank(n: usize) -> Option<usize> {
    let rank = n.checked_sub(SAMPLES_BEYOND + 1)?;
    (rank > n / 2).then_some(rank)
}

/// Geometric mean of positive values; `None` for an empty slice.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// FNV-1a over `bytes`: the fingerprint of outputs that must repeat exactly.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them — the driver's own spread statistic.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| {
        // Exclusive method: position k(n+1)/4, clamped into the sample.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rank_leaves_ten_samples_beyond() {
        // 120 samples: the 110th in ascending order (p91.6) has ten above it.
        assert_eq!(tail_rank(120), Some(109));
        assert_eq!(tail_rank(200), Some(189));
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        let tail = samples[tail_rank(samples.len()).unwrap()];
        assert_eq!(
            samples.iter().filter(|&&x| x > tail).count(),
            SAMPLES_BEYOND
        );
        // Too few samples for the tail to lie above the median: no number.
        assert_eq!(tail_rank(22), None);
        assert_eq!(tail_rank(23), Some(12));
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
