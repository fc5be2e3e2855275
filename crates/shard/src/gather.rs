//! The scatter-gather merge buffer: per-leg consistency filtering and a
//! deterministic ordered merge of partial results.

use amdb_consistency::ConsistencyPolicy;

/// One shard's partial result for a scattered read.
#[derive(Debug, Clone)]
struct Leg<T> {
    rows: Vec<T>,
    /// Simulated arrival time (µs) recorded by [`Gather::offer_at`];
    /// 0 for untimed offers.
    arrival_us: u64,
}

/// Collects the partial results of one scattered read, one leg per shard.
///
/// Legs arrive in any order (trees complete independently); each is judged
/// against the gather's [`ConsistencyPolicy`] — under
/// `BoundedStaleness { max_ms }`, a leg whose serving replica was more than
/// `max_ms` stale is *filtered*: its rows are dropped from the merge and it
/// counts toward [`Gather::filtered_legs`]. Filtering never blocks
/// completion — a scattered read finishes when every leg has reported,
/// fresh or not (the front has no per-leg retry protocol; see DESIGN.md,
/// "Sharding").
///
/// [`Gather::merge_by`] returns the surviving rows in deterministic order:
/// sorted by the caller's key, ties broken by (shard, arrival position
/// within the leg) — a stable k-way merge independent of leg arrival order.
#[derive(Debug)]
pub struct Gather<T> {
    policy: ConsistencyPolicy,
    legs: Vec<Option<Leg<T>>>,
    arrived: usize,
    filtered: u32,
}

impl<T> Gather<T> {
    /// A gather expecting one leg per shard in `[0, fanout)`.
    pub fn new(fanout: usize, policy: ConsistencyPolicy) -> Self {
        assert!(fanout > 0, "a gather needs at least one leg");
        Self {
            policy,
            legs: (0..fanout).map(|_| None).collect(),
            arrived: 0,
            filtered: 0,
        }
    }

    /// Record shard `shard`'s partial result, served at `staleness_ms`
    /// behind the master. Returns `true` when this was the last outstanding
    /// leg. Panics on a duplicate or out-of-range leg — each shard reports
    /// exactly once.
    pub fn offer(&mut self, shard: usize, staleness_ms: f64, rows: Vec<T>) -> bool {
        self.offer_at(shard, staleness_ms, rows, 0)
    }

    /// [`Self::offer`] with the leg's simulated arrival time (µs), so the
    /// completed gather can name its slowest and fastest legs — the
    /// scatter-gather tax decomposition.
    pub fn offer_at(&mut self, shard: usize, staleness_ms: f64, rows: Vec<T>, at_us: u64) -> bool {
        let slot = &mut self.legs[shard];
        assert!(slot.is_none(), "shard {shard} reported twice");
        let keep = match self.policy {
            ConsistencyPolicy::BoundedStaleness { max_ms } => staleness_ms <= max_ms,
            _ => true,
        };
        *slot = Some(Leg {
            rows: if keep { rows } else { Vec::new() },
            arrival_us: at_us,
        });
        if !keep {
            self.filtered += 1;
        }
        self.arrived += 1;
        self.arrived == self.legs.len()
    }

    /// Whether every leg has reported.
    pub fn is_complete(&self) -> bool {
        self.arrived == self.legs.len()
    }

    /// Legs dropped by the consistency filter so far.
    pub fn filtered_legs(&self) -> u32 {
        self.filtered
    }

    /// Fan-out of this gather (legs expected).
    pub fn fanout(&self) -> usize {
        self.legs.len()
    }

    /// True when the gather is complete and the consistency filter dropped
    /// *every* leg — the read has no rows to merge, and completing it would
    /// silently violate the caller's staleness bound with an empty result.
    /// The front must treat this as a routing miss and deterministically
    /// fall back to a master-served read (see `ShardedWorld::op_done`);
    /// merging is still allowed (it yields the empty set) so existing
    /// callers without a fallback path keep their behaviour.
    pub fn all_legs_filtered(&self) -> bool {
        self.is_complete() && self.filtered as usize == self.legs.len()
    }

    /// `(shard, arrival µs)` of the last-arriving leg so far — the leg the
    /// whole scattered read waited on. Ties break to the lowest shard
    /// index. `None` before any leg arrives (or when offers were untimed
    /// it degenerates to shard order).
    pub fn slowest_leg(&self) -> Option<(usize, u64)> {
        self.legs
            .iter()
            .enumerate()
            .filter_map(|(s, l)| l.as_ref().map(|l| (s, l.arrival_us)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// `(shard, arrival µs)` of the first-arriving leg so far; ties break
    /// to the lowest shard index.
    fn fastest_leg(&self) -> Option<(usize, u64)> {
        self.legs
            .iter()
            .enumerate()
            .filter_map(|(s, l)| l.as_ref().map(|l| (s, l.arrival_us)))
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Slowest-minus-fastest arrival (µs) — what scattering cost over a
    /// single-shard read that would have finished with the fastest leg.
    pub fn leg_spread_us(&self) -> u64 {
        match (self.slowest_leg(), self.fastest_leg()) {
            (Some((_, hi)), Some((_, lo))) => hi - lo,
            _ => 0,
        }
    }

    /// Consume the gather and return the surviving rows ordered by `key`,
    /// ties broken by (shard index, position within the leg). Requires
    /// completion — merging a partial gather is a protocol bug.
    pub fn merge_by<K: Ord>(self, key: impl Fn(&T) -> K) -> Vec<T> {
        assert!(self.is_complete(), "merge before all legs arrived");
        let mut tagged: Vec<(K, usize, usize, T)> = Vec::new();
        for (shard, leg) in self.legs.into_iter().enumerate() {
            let leg = leg.expect("complete gather has every leg");
            for (pos, row) in leg.rows.into_iter().enumerate() {
                tagged.push((key(&row), shard, pos, row));
            }
        }
        tagged.sort_by(|a, b| (&a.0, a.1, a.2).cmp(&(&b.0, b.1, b.2)));
        tagged.into_iter().map(|(_, _, _, row)| row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_key_with_shard_tiebreak() {
        let mut g = Gather::new(3, ConsistencyPolicy::Eventual);
        // Legs arrive out of shard order; equal keys must still merge in
        // shard order, preserving within-leg positions.
        assert!(!g.offer(2, 0.0, vec![(5, "c0"), (9, "c1")]));
        assert!(!g.offer(0, 0.0, vec![(5, "a0"), (7, "a1")]));
        assert!(g.offer(1, 0.0, vec![(5, "b0")]));
        let merged = g.merge_by(|r| r.0);
        let tags: Vec<&str> = merged.iter().map(|r| r.1).collect();
        assert_eq!(tags, ["a0", "b0", "c0", "a1", "c1"]);
    }

    #[test]
    fn bounded_staleness_filters_stale_legs() {
        let mut g = Gather::new(2, ConsistencyPolicy::BoundedStaleness { max_ms: 100.0 });
        g.offer(0, 50.0, vec![1, 2]);
        assert!(g.offer(1, 250.0, vec![3, 4]));
        assert_eq!(g.filtered_legs(), 1);
        assert_eq!(g.merge_by(|&v| v), vec![1, 2]);
    }

    #[test]
    fn eventual_keeps_every_leg() {
        let mut g = Gather::new(2, ConsistencyPolicy::Eventual);
        g.offer(1, 1e6, vec![9]);
        g.offer(0, 0.0, vec![1]);
        assert_eq!(g.filtered_legs(), 0);
        assert_eq!(g.merge_by(|&v| v), vec![1, 9]);
    }

    #[test]
    fn timed_offers_name_slowest_and_fastest_legs() {
        let mut g = Gather::new(3, ConsistencyPolicy::Eventual);
        assert_eq!(g.slowest_leg(), None);
        g.offer_at(1, 0.0, vec![1], 500);
        g.offer_at(0, 0.0, vec![2], 2_000);
        assert!(g.offer_at(2, 0.0, vec![3], 500));
        assert_eq!(g.slowest_leg(), Some((0, 2_000)));
        assert_eq!(g.fastest_leg(), Some((1, 500)), "tie breaks low shard");
        assert_eq!(g.leg_spread_us(), 1_500);
    }

    #[test]
    fn all_legs_filtered_flags_the_empty_gather() {
        let mut g = Gather::new(2, ConsistencyPolicy::BoundedStaleness { max_ms: 10.0 });
        assert!(!g.all_legs_filtered(), "incomplete gather never flags");
        g.offer(0, 50.0, vec![1]);
        assert!(!g.all_legs_filtered(), "still one leg outstanding");
        assert!(g.offer(1, 99.0, vec![2]));
        assert!(g.all_legs_filtered());
        assert_eq!(g.filtered_legs(), 2);
        assert_eq!(g.fanout(), 2);
        assert_eq!(g.merge_by(|&v| v), Vec::<i32>::new(), "merge still legal");
    }

    #[test]
    fn one_fresh_leg_defuses_the_fallback() {
        let mut g = Gather::new(3, ConsistencyPolicy::BoundedStaleness { max_ms: 10.0 });
        g.offer(0, 50.0, vec![1]);
        g.offer(1, 5.0, vec![2]);
        assert!(g.offer(2, 60.0, vec![3]));
        assert!(!g.all_legs_filtered(), "one surviving leg is an answer");
        assert_eq!(g.filtered_legs(), 2);
        assert_eq!(g.merge_by(|&v| v), vec![2]);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_leg_panics() {
        let mut g: Gather<u8> = Gather::new(2, ConsistencyPolicy::Eventual);
        g.offer(0, 0.0, vec![]);
        g.offer(0, 0.0, vec![]);
    }
}
