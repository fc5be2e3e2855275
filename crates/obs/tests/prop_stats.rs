//! Property tests for the statistics helpers.

use amdb_obs::metrics::{mean, median, percentile, stddev, trimmed_mean, OnlineStats, Summary};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e9..1e9f64, 1..max_len)
}

proptest! {
    #[test]
    fn mean_within_min_max(xs in finite_vec(100)) {
        let m = mean(&xs).expect("non-empty");
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    #[test]
    fn trimmed_mean_within_min_max(xs in finite_vec(100), trim in 0.0..0.45f64) {
        if let Some(tm) = trimmed_mean(&xs, trim) {
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(tm >= lo - 1e-6 && tm <= hi + 1e-6);
        }
    }

    #[test]
    fn trimming_reduces_outlier_influence(core in finite_vec(50)) {
        // Adding a huge outlier moves the plain mean more than the trimmed
        // mean (with enough samples for the trim to cut at least one).
        let mut xs = core.clone();
        xs.extend(std::iter::repeat_n(0.0, 20));
        let tm_before = trimmed_mean(&xs, 0.05).expect("some");
        let m_before = mean(&xs).expect("some");
        xs.push(1e15);
        let tm_after = trimmed_mean(&xs, 0.05).expect("some");
        let m_after = mean(&xs).expect("some");
        prop_assert!((tm_after - tm_before).abs() <= (m_after - m_before).abs() + 1e-6);
    }

    #[test]
    fn percentile_monotone_in_p(xs in finite_vec(60), p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo).expect("some");
        let b = percentile(&xs, hi).expect("some");
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn median_is_50th_percentile(xs in finite_vec(60)) {
        prop_assert_eq!(median(&xs), percentile(&xs, 50.0));
    }

    #[test]
    fn online_matches_batch(xs in finite_vec(200)) {
        let mut o = OnlineStats::new();
        for &x in &xs { o.push(x); }
        prop_assert!((o.mean().expect("some") - mean(&xs).expect("some")).abs() < 1e-3);
        if xs.len() > 1 {
            let scale = stddev(&xs).expect("some").abs().max(1.0);
            prop_assert!((o.stddev().expect("some") - stddev(&xs).expect("some")).abs() / scale < 1e-6);
        }
    }

    #[test]
    fn online_merge_any_split(xs in finite_vec(100), split in any::<prop::sample::Index>()) {
        let k = split.index(xs.len());
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..k] { a.push(x); }
        for &x in &xs[k..] { b.push(x); }
        a.merge(&b);
        let mut whole = OnlineStats::new();
        for &x in &xs { whole.push(x); }
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean().expect("some") - whole.mean().expect("some")).abs() < 1e-3);
    }

    #[test]
    fn summary_orderings_hold(xs in finite_vec(100)) {
        let s = Summary::of(&xs).expect("non-empty");
        prop_assert!(s.min <= s.p5 + 1e-9);
        prop_assert!(s.p5 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert_eq!(s.count, xs.len());
    }
}
