//! Property tests pinning the sketch↔exact agreement contract: the
//! streaming sketch's p50/p95/p99 land within one bucket width of the exact
//! `percentile_sorted` answer, across adversarial shapes — constant
//! (degenerate mass), bimodal (interpolation across a gap), and heavy-tail
//! (orders-of-magnitude spread). A second group pins the sketch's stored
//! bucket window against a dense reference: same quantiles to the bit,
//! same `{:?}` bytes, and merges that equal one sketch of everything.

use amdb_obs::metrics::{percentile_sorted, QuantileSketch};
use proptest::prelude::*;

/// The dense layout the sketch's bucket window replaces: one counter for
/// every logarithmic bucket from 0 up to the highest one recorded. Bucket
/// index, representative and rank interpolation follow the documented
/// layout of [`QuantileSketch`] and the agreement contract.
#[derive(Default)]
struct DenseSketch {
    low: u64,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min_seen: f64,
    max_seen: f64,
}

const MIN: f64 = QuantileSketch::MIN;
const GROWTH: f64 = QuantileSketch::GROWTH;

impl DenseSketch {
    fn of(vals: &[f64]) -> Self {
        let mut d = DenseSketch {
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
            ..Default::default()
        };
        for &v in vals.iter().filter(|v| !v.is_nan()) {
            if v < MIN {
                d.low += 1;
            } else {
                let i = ((v / MIN).ln() / GROWTH.ln()).floor();
                let i = (i.max(0.0) as usize).min(QuantileSketch::MAX_BUCKETS - 1);
                if d.counts.len() <= i {
                    d.counts.resize(i + 1, 0);
                }
                d.counts[i] += 1;
            }
            d.count += 1;
            d.sum += v;
            d.min_seen = d.min_seen.min(v);
            d.max_seen = d.max_seen.max(v);
        }
        d
    }

    fn order_statistic(&self, k: u64) -> f64 {
        let edge = |i: usize| MIN * GROWTH.powi(i as i32);
        let mut rep = MIN / 2.0;
        if k >= self.low {
            let mut cum = self.low;
            let i = self
                .counts
                .iter()
                .position(|&c| {
                    cum += c;
                    k < cum
                })
                .expect("rank below count");
            rep = (edge(i) + edge(i + 1)) / 2.0;
        }
        rep.clamp(self.min_seen, self.max_seen)
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q * (self.count - 1) as f64;
        let (lo, hi) = (rank.floor() as u64, rank.ceil() as u64);
        Some(if lo == hi {
            self.order_statistic(lo)
        } else {
            let frac = rank - lo as f64;
            self.order_statistic(lo) * (1.0 - frac) + self.order_statistic(hi) * frac
        })
    }

    /// The bytes the dense layout's derived `Debug` printed, when each
    /// sketch carried its layout as a `cfg` field.
    fn debug(&self) -> String {
        format!(
            "QuantileSketch {{ cfg: SketchConfig {{ min: 0.001, growth: 1.05, max_buckets: 700 }}, \
             low: {:?}, counts: {:?}, count: {:?}, sum: {:?}, min_seen: {:?}, max_seen: {:?} }}",
            self.low,
            self.counts,
            self.count,
            self.sum,
            self.min_seen,
            self.max_seen
        )
    }
}

/// Values on a 2⁻¹¹ grid — NaN, negatives, zero, sub-min, and 0.5 up to
/// 2¹⁷ across 18 octaves — plus up to three 1e12s (beyond the last
/// bucket). Every partial sum stays below 2⁴² and on the grid, so float
/// addition is exact in any order and merged sketches compare `==`.
fn windowed_values() -> impl Strategy<Value = Vec<(f64, usize)>> {
    let value = prop_oneof![
        1 => Just(f64::NAN),
        1 => Just(0.0),
        1 => (-4096i64..0).prop_map(|j| j as f64 / 2048.0),
        2 => (1i64..3).prop_map(|j| j as f64 / 2048.0),
        8 => (0i32..18, 1024i64..2048).prop_map(|(e, m)| m as f64 * 2f64.powi(e) / 2048.0),
        1 => Just(1e12),
    ];
    prop::collection::vec((value, 0..4usize), 0..200).prop_map(|mut vals| {
        let mut bigs = 0;
        for (v, _) in &mut vals {
            if *v == 1e12 {
                bigs += 1;
                if bigs > 3 {
                    *v = 1.0;
                }
            }
        }
        vals
    })
}

/// Record `vals` into a fresh latency sketch and check p50/p95/p99 (plus
/// the extremes) against the exact percentiles. "One bucket width" is
/// measured at whichever of (exact, estimate) sits in the wider bucket —
/// both order statistics bracketing the rank live at or below that bucket.
fn agrees_within_one_bucket(vals: &[f64]) -> Result<(), TestCaseError> {
    let mut sketch = QuantileSketch::latency();
    for &v in vals {
        sketch.record(v);
    }
    let mut sorted = vals.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
        let exact = percentile_sorted(&sorted, p).unwrap();
        let est = sketch.percentile(p).unwrap();
        let width = QuantileSketch::bucket_width(exact).max(QuantileSketch::bucket_width(est));
        prop_assert!(
            (est - exact).abs() <= width,
            "p{}: est {} vs exact {} exceeds bucket width {}",
            p,
            est,
            exact,
            width
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Constant streams: every quantile must collapse to (within a bucket
    /// of) the single value, for any magnitude across nine decades.
    #[test]
    fn constant_distribution_agrees(
        v in 1e-3..1e6f64,
        n in 1..400usize,
    ) {
        let vals = vec![v; n];
        agrees_within_one_bucket(&vals)?;
    }

    /// Bimodal streams: two modes separated by orders of magnitude, with
    /// arbitrary mixing. Quantile ranks that straddle the gap are where
    /// naive bucket-midpoint schemes lose the interpolation contract.
    #[test]
    fn bimodal_distribution_agrees(
        lo in 1e-2..5.0f64,
        hi in 50.0..5e4f64,
        picks in prop::collection::vec(0..2usize, 1..300),
    ) {
        let vals: Vec<f64> = picks
            .iter()
            .map(|&p| if p == 0 { lo } else { hi })
            .collect();
        agrees_within_one_bucket(&vals)?;
    }

    /// Heavy-tailed streams: Pareto-style `scale · u^(-1/α)` with a light
    /// α, spreading samples across many decades within one run.
    #[test]
    fn heavy_tail_distribution_agrees(
        us in prop::collection::vec(1e-6..1.0f64, 1..300),
        scale in 1e-2..10.0f64,
        inv_alpha in 0.5..3.0f64,
    ) {
        let vals: Vec<f64> = us.iter().map(|&u| scale * u.powf(-inv_alpha)).collect();
        agrees_within_one_bucket(&vals)?;
    }

    /// Mixed junk: zeros and sub-resolution values interleaved with normal
    /// magnitudes must keep the contract (the low bucket has width `min`).
    #[test]
    fn low_bucket_mixtures_agree(
        vals in prop::collection::vec(
            prop_oneof![
                Just(0.0),
                1e-6..1e-3f64,
                1e-3..1e3f64,
            ],
            1..200,
        ),
    ) {
        agrees_within_one_bucket(&vals)?;
    }

    /// Merging shard sketches is exactly equivalent to one big sketch, so
    /// the merged estimate inherits the same agreement bound.
    #[test]
    fn merged_shards_agree(
        vals in prop::collection::vec(1e-3..1e5f64, 2..300),
        shards in 2..5usize,
    ) {
        let mut parts: Vec<QuantileSketch> =
            (0..shards).map(|_| QuantileSketch::latency()).collect();
        for (i, &v) in vals.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        let mut whole = QuantileSketch::latency();
        for &v in &vals {
            whole.record(v);
        }
        // Bucket state matches exactly; `sum` may differ in the last ulp
        // because shard sums associate float additions differently.
        prop_assert_eq!(merged.count(), whole.count());
        for p in [0.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            prop_assert_eq!(merged.percentile(p), whole.percentile(p));
        }
        agrees_within_one_bucket(&vals)?;
    }

    /// The stored bucket window answers every quantile bit-for-bit like
    /// the dense layout and prints the dense layout's `{:?}` bytes, and
    /// sketches of any split of the values, merged in any order, equal
    /// one sketch that recorded them all.
    #[test]
    fn bucket_window_matches_the_dense_layout(
        vals in windowed_values(),
        order in prop::collection::vec(0..1000u32, 4),
    ) {
        let all: Vec<f64> = vals.iter().map(|&(v, _)| v).collect();
        let mut whole = QuantileSketch::latency();
        let mut parts = vec![QuantileSketch::latency(); 4];
        for &(v, part) in &vals {
            whole.record(v);
            parts[part].record(v);
        }
        let dense = DenseSketch::of(&all);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            prop_assert_eq!(
                whole.quantile(q).map(f64::to_bits),
                dense.quantile(q).map(f64::to_bits),
                "q{}",
                q
            );
        }
        prop_assert_eq!(format!("{whole:?}"), dense.debug());

        let mut by_order: Vec<usize> = (0..parts.len()).collect();
        by_order.sort_by_key(|&i| (order[i], i));
        let mut merged = QuantileSketch::latency();
        for &i in &by_order {
            merged.merge(&parts[i]);
        }
        prop_assert!(merged == whole, "{:?} != {:?}", merged, whole);
        let mut into_last = parts[by_order[3]].clone();
        for &i in by_order[..3].iter().rev() {
            into_last.merge(&parts[i]);
        }
        prop_assert!(into_last == whole, "{:?} != {:?}", into_last, whole);
        prop_assert_eq!(format!("{merged:?}"), dense.debug());
    }
}
