//! Property tests for the consistency primitives: watermark invariants and
//! the strict-bound degeneracy of the routing filter.

use amdb_consistency::{
    ConsistencyConfig, ConsistencyPolicy, ReadDecision, Route, SessionToken, WatermarkTable,
};
use amdb_proxy::{Proxy, RoundRobin};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying any interleaving of master commits and slave applies —
    /// forward ones and stale (backward) ones — keeps the table's core
    /// invariants: applied ≤ master, lag consistent, staleness zero exactly
    /// when caught up, and every applied sequence monotone.
    #[test]
    fn watermark_invariants_hold_under_any_interleaving(
        steps in prop::collection::vec((0..5usize, 1..5u64), 1..60)
    ) {
        let mut wm = WatermarkTable::new(2, 0);
        let mut now_ms = 0.0;
        for (kind, amount) in steps {
            now_ms += amount as f64;
            let before = [wm.applied_seq(0), wm.applied_seq(1)];
            match kind {
                0 => wm.note_master_seq(wm.master_seq() + amount, now_ms),
                // Forward apply on slave 0 or 1.
                1 | 2 => {
                    let s = kind - 1;
                    let target = (wm.applied_seq(s) + amount).min(wm.master_seq());
                    wm.note_applied(s, target, now_ms, true);
                }
                // Stale apply on slave 0 or 1: a report behind what it
                // already applied.
                _ => {
                    let s = kind - 3;
                    let target = wm.applied_seq(s).saturating_sub(amount);
                    wm.note_applied(s, target, now_ms, false);
                }
            }
            for (s, &was) in before.iter().enumerate() {
                prop_assert!(wm.applied_seq(s) >= was, "applied_seq decreased");
                prop_assert!(wm.applied_seq(s) <= wm.master_seq());
                prop_assert_eq!(wm.lag(s), wm.master_seq() - wm.applied_seq(s));
                let st = wm.est_staleness_ms(s, now_ms);
                if wm.lag(s) == 0 {
                    prop_assert_eq!(st, 0.0, "caught up must read fresh");
                } else {
                    prop_assert!(st >= 0.0);
                    // Staleness grows with the clock while nothing applies.
                    prop_assert!(wm.est_staleness_ms(s, now_ms + 10.0) >= st);
                }
            }
        }
    }

    /// A zero bound never yields a slave route, whatever the watermark
    /// state: strict inequality makes `BoundedStaleness{0}` master-only.
    #[test]
    fn zero_bound_never_picks_a_slave(
        master in 0..200u64,
        applied in 0..200u64,
        now_ms in 0.0..1e5f64,
    ) {
        let mut wm = WatermarkTable::new(1, 0);
        wm.note_master_seq(master, 0.0);
        wm.note_applied(0, applied.min(master), 1.0, false);
        let mut proxy = Proxy::new(1, Box::new(RoundRobin::default()));
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::BoundedStaleness { max_ms: 0.0 });
        let d = cfg.decide_read(&mut proxy, &wm, &SessionToken::new(), now_ms, 0.0);
        prop_assert_eq!(d, ReadDecision::RedirectMaster);
        prop_assert_eq!(proxy.reads_per_slave(), &[0]);
    }

    /// Loosening the bound only ever adds eligible slaves: if a read routes
    /// to a slave under `max_ms`, it still does under any larger bound.
    #[test]
    fn loosening_the_bound_preserves_slave_routes(
        master in 1..100u64,
        applied in 0..100u64,
        bound in 1.0..1e4f64,
        extra in 0.0..1e4f64,
    ) {
        let mut wm = WatermarkTable::new(1, 0);
        wm.note_master_seq(master, 0.0);
        wm.note_applied(0, applied.min(master), 1.0, false);
        let decide = |max_ms: f64| {
            let mut proxy = Proxy::new(1, Box::new(RoundRobin::default()));
            ConsistencyConfig::new(ConsistencyPolicy::BoundedStaleness { max_ms })
                .decide_read(&mut proxy, &wm, &SessionToken::new(), 50.0, 0.0)
        };
        if decide(bound) == ReadDecision::Route(Route::Slave(0)) {
            prop_assert_eq!(decide(bound + extra), ReadDecision::Route(Route::Slave(0)));
        }
    }
}
