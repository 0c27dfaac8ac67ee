//! Order statistics for timing samples.
//!
//! The gated statistic is the **minimum** over rounds: on this class of host
//! (2 vCPUs, 5-25 % steal) medians wander by 10-20 % between identical runs
//! while minima repeat within a few percent, because every disturbance only
//! ever adds time. Median, IQR and sample count are printed next to it.

/// Smallest sample; `NaN` for an empty slice.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Quantile `q` in `[0, 1]` by linear interpolation between closest ranks
/// (the "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile range `q75 - q25`.
pub fn iqr(samples: &[f64]) -> f64 {
    quantile(samples, 0.75) - quantile(samples, 0.25)
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `(max - min) / min`: how far apart repeated measurements of one quantity
/// lie, as a share of the best one.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let lo = min(samples);
    let hi = samples.iter().copied().fold(f64::NAN, f64::max);
    (hi - lo) / lo
}

/// Quartiles `[q1, q2, q3]` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), which is what the driver computes
/// over ten runs. Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// The driver's steadiness figure: `(q3 - q1) / median` over repeated runs.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles_exclusive(values);
    (q3 - q1) / q2
}

/// Calls `f` once untimed, then `reps` times timed; returns the minimum in
/// seconds. The probe statistic of the per-layer table.
pub fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_mean_of_known_samples() {
        let s = [3.0, 1.0, 2.0, 6.0];
        assert_eq!(min(&s), 1.0);
        assert_eq!(mean(&s), 3.0);
        assert!(min(&[]).is_nan());
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.75), 4.0);
        assert_eq!(iqr(&s), 2.0);
        // Even count: the median lies halfway between the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[10.0], 0.3), 10.0);
    }

    #[test]
    fn relative_spread_is_zero_for_identical_samples() {
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert!((relative_spread(&[2.0, 2.2, 2.1]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn exclusive_quartiles_match_pythons_statistics_module() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartile_spread(&v), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // Two values extrapolate: [0.75, 1.5, 2.25] for [1, 2].
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn time_min_runs_the_closure_reps_plus_one_times() {
        let mut calls = 0;
        let t = time_min(4, || calls += 1);
        assert_eq!(calls, 5);
        assert!(t >= 0.0 && t.is_finite());
    }
}
