//! Online (single-pass) statistics and batch summaries.

/// Welford online accumulator: mean / variance / min / max without storing
/// samples. Numerically stable; suitable for millions of simulated samples.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feed one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the samples, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance (n-1), `None` with fewer than 2 samples.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation, `None` with fewer than 2 samples.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest sample, `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A batch summary of a sample vector: count, mean, median, stddev,
/// p5/p95/p99, min, max, and the 5 %-per-tail trimmed mean used by the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub median: f64,
    pub stddev: f64,
    pub p5: f64,
    pub p95: f64,
    pub p99: f64,
    pub min: f64,
    pub max: f64,
    pub trimmed_mean_5pct: f64,
}

impl Summary {
    /// Summarize a sample set. Returns `None` for an empty input, or one
    /// that contains NaN: like [`super::percentile`], a bad sample reports
    /// as an absent statistic rather than a panic.
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
            return None;
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN screened above"));
        let mean = super::mean(&v).expect("non-empty");
        // `v` is non-empty here, so every percentile is defined.
        let pct = |p: f64| super::percentile_sorted(&v, p).expect("non-empty input");
        Some(Summary {
            count: v.len(),
            mean,
            median: pct(50.0),
            stddev: super::stddev(&v).unwrap_or(0.0),
            p5: pct(5.0),
            p95: pct(95.0),
            p99: pct(99.0),
            min: v[0],
            max: v[v.len() - 1],
            trimmed_mean_5pct: super::trimmed_mean_sorted(&v, 0.05).unwrap_or(mean),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        assert_eq!(o.count(), 8);
        assert!((o.mean().unwrap() - crate::metrics::mean(&xs).unwrap()).abs() < 1e-12);
        assert!((o.stddev().unwrap() - crate::metrics::stddev(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(o.min(), Some(1.0));
        assert_eq!(o.max(), Some(9.0));
    }

    #[test]
    fn online_empty() {
        let o = OnlineStats::new();
        assert_eq!(o.mean(), None);
        assert_eq!(o.stddev(), None);
        assert_eq!(o.min(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-10);
        assert!((a.variance().unwrap() - all.variance().unwrap()).abs() < 1e-8);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.push(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let empty = OnlineStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn summary_fields_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(s.p95 > s.median && s.p99 > s.p95);
        // trimmed mean of a symmetric set equals the mean
        assert!((s.trimmed_mean_5pct - 50.5).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn summary_single_sample_is_degenerate_but_defined() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p5, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.stddev, 0.0, "undefined stddev reported as 0");
        assert_eq!(s.trimmed_mean_5pct, 7.0);
    }
}
