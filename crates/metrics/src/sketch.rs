//! Streaming quantile sketch with logarithmic buckets.
//!
//! The full-sample percentile path in this crate ([`crate::percentile`])
//! keeps every observation in a `Vec<f64>` — exact, but memory grows with
//! the run. Hot observability probes (per-statement service demands, pool
//! waits, replication waterfall legs) want bounded state instead. This is
//! the classic HDR-histogram / DDSketch compromise: fixed log-spaced
//! buckets, so memory is bounded by the configured bucket count and the
//! estimate error by the width of one bucket.
//!
//! **Agreement contract.** [`QuantileSketch::quantile`] mirrors
//! [`crate::percentile_sorted`]'s interpolation rule — rank
//! `q × (n − 1)`, linear between the two adjacent order statistics — but
//! evaluated over bucket *representatives* (arithmetic midpoints). Each
//! order statistic is off by at most half its bucket's width, so the
//! estimate lands within one bucket width of the exact percentile. The
//! proptest suite (`tests/prop_sketch.rs`) pins this across constant,
//! bimodal and heavy-tailed inputs.
//!
//! Sketches with the same [`SketchConfig`] merge losslessly (bucket-wise
//! counter addition), so per-shard sketches can be combined after a
//! parallel sweep without re-observing anything.

/// Bucket layout of a [`QuantileSketch`].
///
/// Bucket `i` covers `[min·growth^i, min·growth^(i+1))`; one extra "low"
/// bucket covers `[0, min)` (and receives non-positive values). Values
/// beyond the last bucket clamp into it — size `max_buckets` to cover the
/// physical range, the defaults span `1 µs` to beyond `10^9 ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Upper edge of the low bucket: smallest value resolved logarithmically.
    pub min: f64,
    /// Ratio between consecutive bucket edges (must be `> 1`).
    pub growth: f64,
    /// Number of logarithmic buckets (excluding the low bucket).
    pub max_buckets: usize,
}

impl SketchConfig {
    /// Latency preset: resolves `1 µs` to `~10^12 ms` at ±2.5 % relative
    /// error (growth 1.05, 700 buckets ≈ 5.6 KiB of counters). Suits any
    /// millisecond- or microsecond-denominated series in this repo.
    pub const LATENCY: SketchConfig = SketchConfig {
        min: 1e-3,
        growth: 1.05,
        max_buckets: 700,
    };

    /// Index of the logarithmic bucket holding `v` (`None` → low bucket).
    fn index(&self, v: f64) -> Option<usize> {
        if v.is_nan() || v < self.min {
            // Non-positive, sub-min and NaN all land in the low bucket.
            return None;
        }
        let i = ((v / self.min).ln() / self.growth.ln()).floor();
        Some((i.max(0.0) as usize).min(self.max_buckets - 1))
    }

    /// Lower edge of logarithmic bucket `i`.
    fn edge(&self, i: usize) -> f64 {
        self.min * self.growth.powi(i as i32)
    }

    /// Width of the bucket that holds `v` — the agreement-contract unit.
    pub fn bucket_width(&self, v: f64) -> f64 {
        match self.index(v) {
            None => self.min,
            Some(i) => self.edge(i + 1) - self.edge(i),
        }
    }

    /// Representative (arithmetic midpoint) of the bucket holding rank `k`.
    fn representative(&self, bucket: Option<usize>) -> f64 {
        match bucket {
            None => self.min / 2.0,
            Some(i) => (self.edge(i) + self.edge(i + 1)) / 2.0,
        }
    }
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig::LATENCY
    }
}

/// Mergeable, bounded-memory quantile estimator over log-spaced buckets.
///
/// Only the window of buckets from the lowest to the highest one recorded
/// is stored (`counts[j]` counts bucket `offset + j`), so both ends of a
/// non-empty window are non-zero and a sketch of a few nearby values holds
/// a few counters, not every bucket below them. An empty sketch has
/// `offset` 0 and no counters, so equal contents compare equal.
#[derive(Clone, PartialEq)]
pub struct QuantileSketch {
    cfg: SketchConfig,
    /// Count of values below `cfg.min` (including zero and negatives).
    low: u64,
    /// Index of the logarithmic bucket `counts[0]` counts.
    offset: usize,
    /// Counters of buckets `offset..offset + counts.len()`, widened by
    /// [`Self::record`] and [`Self::merge`] up to `cfg.max_buckets`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min_seen: f64,
    max_seen: f64,
}

impl QuantileSketch {
    /// Empty sketch with the given layout.
    pub fn new(cfg: SketchConfig) -> Self {
        assert!(cfg.min > 0.0, "sketch min must be positive");
        assert!(cfg.growth > 1.0, "sketch growth must exceed 1");
        assert!(cfg.max_buckets > 0, "sketch needs at least one bucket");
        Self {
            cfg,
            low: 0,
            offset: 0,
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// Empty sketch with the [`SketchConfig::LATENCY`] layout.
    pub fn latency() -> Self {
        Self::new(SketchConfig::LATENCY)
    }

    /// The bucket layout.
    pub fn config(&self) -> &SketchConfig {
        &self.cfg
    }

    /// Record one observation. NaN is ignored (it has no rank).
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        match self.cfg.index(v) {
            None => self.low += 1,
            Some(i) => {
                self.widen(i, i + 1);
                self.counts[i - self.offset] += 1;
            }
        }
        self.count += 1;
        self.sum += v;
        self.min_seen = self.min_seen.min(v);
        self.max_seen = self.max_seen.max(v);
    }

    /// Widen the counter window to cover buckets `lo..hi`.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.offset = lo;
        } else if lo < self.offset {
            let grow = self.offset - lo;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.offset = lo;
        }
        if hi > self.offset + self.counts.len() {
            self.counts.resize(hi - self.offset, 0);
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (exact, not bucketed).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all observations, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observation, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min_seen)
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max_seen)
    }

    /// Bucket holding 0-based rank `k` (`None` → low bucket).
    fn bucket_of_rank(&self, k: u64) -> Option<usize> {
        if k < self.low {
            return None;
        }
        let mut cum = self.low;
        for (j, &c) in self.counts.iter().enumerate() {
            cum += c;
            if k < cum {
                return Some(self.offset + j);
            }
        }
        // Unreachable for k < count; defend with the last non-empty bucket.
        Some((self.offset + self.counts.len()).saturating_sub(1))
    }

    /// Estimated value of the 0-based `k`-th smallest observation, clamped
    /// to the exact observed range.
    fn order_statistic(&self, k: u64) -> f64 {
        self.cfg
            .representative(self.bucket_of_rank(k))
            .clamp(self.min_seen, self.max_seen)
    }

    /// Estimated `q`-quantile, `q ∈ [0, 1]`. Mirrors
    /// [`crate::percentile_sorted`]'s rank interpolation over bucket
    /// representatives; `None` when empty or `q` out of range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if self.count == 1 {
            return Some(self.order_statistic(0));
        }
        let rank = q * (self.count - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        Some(if lo == hi {
            self.order_statistic(lo)
        } else {
            let frac = rank - lo as f64;
            self.order_statistic(lo) * (1.0 - frac) + self.order_statistic(hi) * frac
        })
    }

    /// Estimated `p`-th percentile, `p ∈ [0, 100]` — the
    /// [`crate::percentile`]-flavoured spelling of [`Self::quantile`].
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if !(0.0..=100.0).contains(&p) {
            return None;
        }
        self.quantile(p / 100.0)
    }

    /// Fold another sketch into this one. Panics if the layouts differ —
    /// merging incompatible sketches is a probe-wiring bug, the same policy
    /// the metrics registry applies to kind mismatches.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.cfg, other.cfg,
            "cannot merge sketches with different layouts"
        );
        if !other.counts.is_empty() {
            self.widen(other.offset, other.offset + other.counts.len());
            let at = other.offset - self.offset;
            for (mine, &c) in self.counts[at..].iter_mut().zip(&other.counts) {
                *mine += c;
            }
        }
        self.low += other.low;
        self.count += other.count;
        self.sum += other.sum;
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Fold an iterator of sketches into one with the latency layout — the
    /// fleet-rollup shape: per-shard leg sketches in, one fleet-wide
    /// distribution out. Panics (via [`Self::merge`]) if any input uses a
    /// different layout.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a QuantileSketch>) -> QuantileSketch {
        let mut out = QuantileSketch::latency();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Bytes of counter state currently held (the window's counters,
    /// bounded by `max_buckets × 8`), for memory accounting in reports.
    pub fn state_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
    }
}

/// Prints the dense layout — every bucket from 0 up to the highest one
/// recorded — so a sketch's `{:?}` does not depend on how it is stored.
impl std::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Dense<'a>(&'a QuantileSketch);
        impl std::fmt::Debug for Dense<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list()
                    .entries(std::iter::repeat_n(&0u64, self.0.offset))
                    .entries(&self.0.counts)
                    .finish()
            }
        }
        f.debug_struct("QuantileSketch")
            .field("cfg", &self.cfg)
            .field("low", &self.low)
            .field("counts", &Dense(self))
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min_seen", &self.min_seen)
            .field("max_seen", &self.max_seen)
            .finish()
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile_sorted;

    #[test]
    fn merged_folds_many_sketches_like_one() {
        let mut whole = QuantileSketch::latency();
        let mut parts = vec![QuantileSketch::latency(); 3];
        for i in 0..300 {
            let v = (i % 97) as f64 + 0.5;
            whole.record(v);
            parts[i % 3].record(v);
        }
        let fleet = QuantileSketch::merged(parts.iter());
        assert_eq!(fleet.count(), whole.count());
        assert_eq!(fleet.sum(), whole.sum());
        assert_eq!(fleet.quantile(0.95), whole.quantile(0.95));
        assert_eq!(QuantileSketch::merged([].into_iter()).count(), 0);
    }

    fn assert_within_one_bucket(sketch: &QuantileSketch, sorted: &[f64], p: f64) {
        let exact = percentile_sorted(sorted, p).unwrap();
        let est = sketch.percentile(p).unwrap();
        let width = sketch
            .config()
            .bucket_width(exact)
            .max(sketch.config().bucket_width(est));
        assert!(
            (est - exact).abs() <= width,
            "p{p}: est {est} vs exact {exact} (width {width})"
        );
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::latency();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn single_value_is_recovered_within_bucket_width() {
        let mut s = QuantileSketch::latency();
        s.record(42.0);
        let est = s.quantile(0.5).unwrap();
        assert!((est - 42.0).abs() <= s.config().bucket_width(42.0));
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn quantiles_track_exact_percentiles() {
        let mut s = QuantileSketch::latency();
        let mut vals: Vec<f64> = (1..=1000).map(|i| (i as f64) * 0.37).collect();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            assert_within_one_bucket(&s, &vals, p);
        }
    }

    #[test]
    fn zero_and_subresolution_values_land_in_the_low_bucket() {
        let mut s = QuantileSketch::latency();
        for _ in 0..10 {
            s.record(0.0);
        }
        // Exact p50 is 0; the estimate may sit anywhere in the low bucket.
        let est = s.quantile(0.5).unwrap();
        assert!(est.abs() <= s.config().min);
        assert_eq!(s.count(), 10);
    }

    #[test]
    fn nan_is_ignored() {
        let mut s = QuantileSketch::latency();
        s.record(f64::NAN);
        s.record(1.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn out_of_range_values_clamp_into_the_last_bucket() {
        let mut s = QuantileSketch::new(SketchConfig {
            min: 1.0,
            growth: 2.0,
            max_buckets: 4,
        });
        s.record(1e12); // far beyond 1·2^4
        assert_eq!(s.count(), 1);
        // Clamped to the observed max, not the bucket midpoint.
        assert_eq!(s.quantile(1.0), Some(1e12));
    }

    #[test]
    fn merge_equals_recording_everything_in_one_sketch() {
        let mut a = QuantileSketch::latency();
        let mut b = QuantileSketch::latency();
        let mut all = QuantileSketch::latency();
        for i in 0..500 {
            let v = 0.5 + (i as f64) * 1.3;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn merging_mismatched_layouts_panics() {
        let mut a = QuantileSketch::latency();
        let b = QuantileSketch::new(SketchConfig {
            min: 1.0,
            growth: 2.0,
            max_buckets: 8,
        });
        a.merge(&b);
    }

    #[test]
    fn memory_is_bounded_by_max_buckets() {
        let mut s = QuantileSketch::latency();
        for i in 0..100_000 {
            s.record((i % 977) as f64 * 13.7 + 0.001);
        }
        assert!(s.state_bytes() <= SketchConfig::LATENCY.max_buckets * 8);
    }
}
