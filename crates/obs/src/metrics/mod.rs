//! Measurement and summary statistics.
//!
//! Statistics utilities used throughout the reproduction: trimmed means (the
//! paper cuts the top and bottom 5 % of replication-delay samples as outliers,
//! §IV-B.1), medians, standard deviations, percentiles, online (Welford)
//! accumulation, streaming quantile sketches, and simple table / CSV
//! rendering for the experiment harnesses.
//!
//! All functions are deterministic and allocation-conscious: the sorting
//! helpers sort *copies* only when the caller cannot give up its data, and the
//! online accumulators never allocate after construction.

pub mod sketch;
pub mod summary;
pub mod table;

pub use sketch::QuantileSketch;
pub use summary::{OnlineStats, Summary};
pub use table::{write_csv, Table};

/// Arithmetic mean of a slice. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample standard deviation (n-1 denominator). Returns `None` when fewer
/// than two samples are present.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Some((ss / (xs.len() - 1) as f64).sqrt())
}

/// Coefficient of variation (stddev / mean); `None` when undefined.
///
/// Schad et al. report a CoV of 21 % for small-instance CPU performance; the
/// cloud substrate's calibration test uses this helper to verify it matches.
pub fn coefficient_of_variation(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    if m == 0.0 {
        return None;
    }
    Some(stddev(xs)? / m)
}

/// Median via sorting a copy. Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Linear-interpolation percentile (`p` in 0..=100) over a copy of the data.
///
/// Uses the common "exclusive rank, linear interpolation" definition: the
/// percentile of a single-element slice is that element for every `p`.
/// Returns `None` when the input contains NaN (a NaN sample means an
/// upstream bug, and a panic here would take down a whole experiment run).
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN screened above"));
    percentile_sorted(&v, p)
}

/// Percentile over data the caller has already sorted ascending. Returns
/// `None` for an empty slice or `p` outside `0..=100` (an earlier version
/// panicked on empty input in release builds via index underflow).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    })
}

/// Mean after discarding the lowest and highest `trim_fraction` of samples.
///
/// This is the paper's outlier treatment: *"Both average is sampled with the
/// top 5 % and the bottom 5 % data cut out as outliers, because of network
/// fluctuation"* (§IV-B.1). `trim_fraction` is per-tail, so the paper's
/// treatment is `trimmed_mean(xs, 0.05)`.
///
/// Returns `None` when trimming would discard everything, the input is
/// empty, or the input contains NaN (like [`percentile`], bad samples report
/// as an absent statistic rather than a panic). A `trim_fraction` of `0.0`
/// degenerates to the plain mean.
///
/// The per-tail cut is `floor(n × trim_fraction)` — the conventional
/// truncated-mean definition. Pinned consequence for the paper's 5 % trim:
/// **samples with `n < 20` are not trimmed at all** (the cut floors to
/// zero), `n in 20..40` drops exactly one sample per tail, and so on. Small
/// heartbeat windows therefore keep their outliers rather than discarding
/// half of a 3-sample window; do not "fix" this to `ceil` or rounding
/// without recalibrating every committed result.
pub fn trimmed_mean(xs: &[f64], trim_fraction: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..0.5).contains(&trim_fraction) || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN screened above"));
    let cut = (v.len() as f64 * trim_fraction).floor() as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return None;
    }
    mean(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn stddev_needs_two_samples() {
        assert_eq!(stddev(&[1.0]), None);
        assert!(stddev(&[1.0, 1.0]).unwrap().abs() < 1e-12);
    }

    #[test]
    fn stddev_known_value() {
        // Sample stddev of {2,4,4,4,5,5,7,9} is ~2.138 (population is 2.0).
        let s = stddev(&[2., 4., 4., 4., 5., 5., 7., 9.]).unwrap();
        assert!((s - 2.13809).abs() < 1e-4);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_bounds() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(percentile(&xs, 50.0), Some(25.0));
        assert_eq!(percentile(&xs, 101.0), None);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_nan_input_is_none_not_panic() {
        // Used to panic inside the sort comparator on NaN.
        assert_eq!(percentile(&[1.0, f64::NAN, 3.0], 50.0), None);
        assert_eq!(trimmed_mean(&[1.0, f64::NAN, 3.0], 0.05), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN, 3.0]), None);
    }

    #[test]
    fn percentile_sorted_empty_is_none() {
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn percentile_sorted_rejects_out_of_range_p() {
        assert_eq!(percentile_sorted(&[1.0, 2.0], -0.1), None);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 100.1), None);
    }

    #[test]
    fn percentile_sorted_single_element_any_p() {
        assert_eq!(percentile_sorted(&[3.5], 0.0), Some(3.5));
        assert_eq!(percentile_sorted(&[3.5], 100.0), Some(3.5));
    }

    #[test]
    fn trimmed_mean_single_sample() {
        // 5 % per-tail trim of one sample floors to zero cut: the sample
        // survives and the trimmed mean is the sample itself.
        assert_eq!(trimmed_mean(&[42.0], 0.05), Some(42.0));
    }

    #[test]
    fn trimmed_mean_cuts_tails() {
        // 20 samples: one huge outlier at each end; 5% per-tail trim drops both.
        let mut xs: Vec<f64> = (0..18).map(|i| 10.0 + i as f64 * 0.1).collect();
        xs.push(-1e9);
        xs.push(1e9);
        let tm = trimmed_mean(&xs, 0.05).unwrap();
        assert!((tm - 10.85).abs() < 1e-9, "got {tm}");
    }

    #[test]
    fn trimmed_mean_tiny_samples_are_untrimmed_at_5pct() {
        // Pinned: floor(n × 0.05) = 0 for every n < 20, so the 5 % trim is
        // the identity on tiny samples — outliers included.
        for n in 1..20usize {
            let mut xs: Vec<f64> = (0..n.saturating_sub(1)).map(|i| i as f64).collect();
            xs.push(1e9); // blatant outlier must survive
            assert_eq!(
                trimmed_mean(&xs, 0.05),
                mean(&xs),
                "n={n} must not be trimmed"
            );
        }
    }

    #[test]
    fn trimmed_mean_cut_count_boundaries() {
        // floor semantics: n=20..39 cuts exactly 1 per tail, n=40 cuts 2.
        let build = |n: usize| -> Vec<f64> {
            let mut xs: Vec<f64> = vec![10.0; n - 2];
            xs.push(-1e9);
            xs.push(1e9);
            xs
        };
        // n=20: both outliers (one per tail) are dropped.
        assert_eq!(trimmed_mean(&build(20), 0.05), Some(10.0));
        // n=39: still exactly one per tail.
        assert_eq!(trimmed_mean(&build(39), 0.05), Some(10.0));
        // n=40: two per tail — outliers and one honest sample per tail go.
        assert_eq!(trimmed_mean(&build(40), 0.05), Some(10.0));
        // n=19: nothing is cut — the mean is dragged off 10.0 by the
        // (slightly cancelling) outliers instead of recovering it.
        let tm = trimmed_mean(&build(19), 0.05).unwrap();
        assert_eq!(tm, mean(&build(19)).unwrap(), "n=19 is untrimmed");
        assert!((tm - 10.0).abs() > 0.5, "n=19 keeps outliers, got {tm}");
    }

    #[test]
    fn trimmed_mean_matches_mean_exactly_below_twenty() {
        // Bit-exact equivalence on a realistic small heartbeat window
        // (sorted input, so the summation order matches exactly).
        let xs = [11.9, 12.2, 12.5, 13.1, 14.0, 55.0];
        assert_eq!(
            trimmed_mean(&xs, 0.05).unwrap().to_bits(),
            mean(&xs).unwrap().to_bits()
        );
    }

    #[test]
    fn trimmed_mean_zero_trim_is_mean() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(trimmed_mean(&xs, 0.0), mean(&xs));
    }

    #[test]
    fn trimmed_mean_rejects_bad_fraction() {
        assert_eq!(trimmed_mean(&[1.0, 2.0], 0.5), None);
        assert_eq!(trimmed_mean(&[1.0, 2.0], -0.1), None);
    }

    #[test]
    fn cov_matches_hand_computation() {
        let xs = [8.0, 10.0, 12.0];
        let cov = coefficient_of_variation(&xs).unwrap();
        assert!((cov - 2.0 / 10.0).abs() < 1e-12);
    }
}
