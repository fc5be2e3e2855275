//! Freshness-bounded routing: the policy filter over the proxy's balancer.

use crate::session::SessionToken;
use crate::watermark::WatermarkTable;
use amdb_proxy::{OpClass, Proxy, Route};

/// What a read is allowed to see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConsistencyPolicy {
    /// Any live slave (today's behavior, byte-identical to no policy).
    Eventual,
    /// Only slaves whose estimated staleness is strictly below `max_ms`.
    /// `max_ms: 0.0` therefore admits no slave — master-only reads.
    BoundedStaleness { max_ms: f64 },
    /// Only slaves that have applied the session's last write.
    ReadYourWrites,
    /// Only slaves at or past the watermark of the session's last read.
    Monotonic,
}

impl ConsistencyPolicy {
    /// Display name for reports.
    pub fn label(&self) -> String {
        match self {
            ConsistencyPolicy::Eventual => "eventual".into(),
            ConsistencyPolicy::BoundedStaleness { max_ms } => format!("bounded({max_ms:.0}ms)"),
            ConsistencyPolicy::ReadYourWrites => "read-your-writes".into(),
            ConsistencyPolicy::Monotonic => "monotonic".into(),
        }
    }
}

/// The policy layer's verdict for one read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadDecision {
    /// Routed through the proxy (slave pick among the eligible set, or the
    /// proxy's own master fallback when no slave is even alive). Proxy
    /// counters are already updated.
    Route(Route),
    /// Live slaves exist but none qualifies: serve from the master (fresh
    /// by definition). Counted by the *policy* layer, distinct from the
    /// proxy's no-slave-alive fallback.
    RedirectMaster,
}

/// The complete policy configuration for a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsistencyConfig {
    pub policy: ConsistencyPolicy,
}

impl ConsistencyConfig {
    /// Policy with the master-redirect fallback.
    pub fn new(policy: ConsistencyPolicy) -> Self {
        Self { policy }
    }

    /// Decide one read. `_waited_ms` is unused: it keeps the arity the
    /// repo benchmark's layer drive calls this with.
    ///
    /// Pure bookkeeping: no scheduling, no randomness beyond the single
    /// balancer pick. `Eventual` takes the exact unfiltered
    /// [`Proxy::route`] path, so it stays byte-identical to a proxy with no
    /// policy layer at all.
    pub fn decide_read(
        &self,
        proxy: &mut Proxy,
        wm: &WatermarkTable,
        session: &SessionToken,
        now_ms: f64,
        _waited_ms: f64,
    ) -> ReadDecision {
        if self.policy == ConsistencyPolicy::Eventual {
            return ReadDecision::Route(proxy.route(OpClass::Read));
        }
        let n = proxy.n_slaves();
        let mut eligible = vec![false; n];
        let mut any_alive = false;
        let mut any_eligible = false;
        for (s, e) in eligible.iter_mut().enumerate() {
            if !proxy.slave_status(s).alive {
                continue;
            }
            any_alive = true;
            *e = match self.policy {
                ConsistencyPolicy::Eventual => true,
                ConsistencyPolicy::BoundedStaleness { max_ms } => {
                    wm.est_staleness_ms(s, now_ms) < max_ms
                }
                ConsistencyPolicy::ReadYourWrites => wm.applied_seq(s) >= session.last_write_seq(),
                ConsistencyPolicy::Monotonic => wm.applied_seq(s) >= session.last_read_seq(),
            };
            any_eligible |= *e;
        }
        if any_eligible {
            return ReadDecision::Route(proxy.route_read_among(&eligible));
        }
        if !any_alive {
            // No live slave at all: the proxy's own dead-slave fallback path
            // (which counts `reads_fallback_master`) is authoritative here.
            return ReadDecision::Route(proxy.route(OpClass::Read));
        }
        ReadDecision::RedirectMaster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_proxy::RoundRobin;

    fn proxy(n: usize) -> Proxy {
        Proxy::new(n, Box::new(RoundRobin::default()))
    }

    #[test]
    fn eventual_is_plain_route() {
        let mut p = proxy(2);
        let wm = WatermarkTable::new(2, 0);
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::Eventual);
        let d = cfg.decide_read(&mut p, &wm, &SessionToken::new(), 0.0, 0.0);
        assert_eq!(d, ReadDecision::Route(Route::Slave(0)));
        assert_eq!(p.reads_per_slave(), &[1, 0]);
    }

    #[test]
    fn zero_bound_never_routes_to_a_slave() {
        let mut p = proxy(3);
        let mut wm = WatermarkTable::new(3, 0);
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::BoundedStaleness { max_ms: 0.0 });
        // Even fully caught-up slaves (staleness exactly 0.0) are excluded:
        // the bound is strict.
        let d = cfg.decide_read(&mut p, &wm, &SessionToken::new(), 50.0, 0.0);
        assert_eq!(d, ReadDecision::RedirectMaster);
        // And lagging ones obviously too.
        wm.note_master_seq(10, 0.0);
        let d = cfg.decide_read(&mut p, &wm, &SessionToken::new(), 50.0, 0.0);
        assert_eq!(d, ReadDecision::RedirectMaster);
        assert_eq!(p.reads_per_slave(), &[0, 0, 0]);
    }

    #[test]
    fn bounded_staleness_filters_to_fresh_slaves() {
        let mut p = proxy(2);
        let mut wm = WatermarkTable::new(2, 0);
        wm.note_master_seq(4, 100.0);
        wm.note_applied(0, 4, 110.0, false); // slave 0 caught up
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::BoundedStaleness { max_ms: 50.0 });
        // Slave 1 is 400 ms stale; only slave 0 qualifies — repeatedly.
        for _ in 0..3 {
            let d = cfg.decide_read(&mut p, &wm, &SessionToken::new(), 500.0, 0.0);
            assert_eq!(d, ReadDecision::Route(Route::Slave(0)));
        }
        assert_eq!(p.reads_per_slave(), &[3, 0]);
    }

    #[test]
    fn read_your_writes_requires_the_users_write() {
        let mut p = proxy(2);
        let mut wm = WatermarkTable::new(2, 0);
        wm.note_master_seq(5, 0.0);
        wm.note_applied(0, 3, 1.0, true);
        wm.note_applied(1, 5, 1.0, false);
        let mut sess = SessionToken::new();
        sess.observe_write(4);
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::ReadYourWrites);
        let d = cfg.decide_read(&mut p, &wm, &sess, 2.0, 0.0);
        assert_eq!(
            d,
            ReadDecision::Route(Route::Slave(1)),
            "only slave 1 has seq 4"
        );
        // A session with no writes accepts any slave.
        let d = cfg.decide_read(&mut p, &wm, &SessionToken::new(), 2.0, 0.0);
        assert!(matches!(d, ReadDecision::Route(Route::Slave(_))));
    }

    #[test]
    fn monotonic_never_travels_backwards() {
        let mut p = proxy(2);
        let mut wm = WatermarkTable::new(2, 0);
        wm.note_master_seq(6, 0.0);
        wm.note_applied(0, 6, 1.0, false);
        wm.note_applied(1, 2, 1.0, true);
        let mut sess = SessionToken::new();
        sess.observe_read(6); // read served by slave 0
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::Monotonic);
        let d = cfg.decide_read(&mut p, &wm, &sess, 2.0, 0.0);
        assert_eq!(
            d,
            ReadDecision::Route(Route::Slave(0)),
            "slave 1 would rewind"
        );
    }

    #[test]
    fn no_live_slaves_uses_proxy_fallback_counter() {
        let mut p = proxy(2);
        p.set_alive(0, false);
        p.set_alive(1, false);
        let wm = WatermarkTable::new(2, 0);
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::ReadYourWrites);
        let d = cfg.decide_read(&mut p, &wm, &SessionToken::new(), 0.0, 0.0);
        assert_eq!(d, ReadDecision::Route(Route::Master));
        assert_eq!(p.reads_fallback_master(), 1);
    }

    #[test]
    fn dead_slaves_are_never_eligible() {
        let mut p = proxy(2);
        p.set_alive(0, false);
        let mut wm = WatermarkTable::new(2, 0);
        wm.note_master_seq(1, 0.0);
        wm.note_applied(0, 1, 1.0, false); // dead slave is "fresh" but dead
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::BoundedStaleness { max_ms: 1e9 });
        for _ in 0..4 {
            let d = cfg.decide_read(&mut p, &wm, &SessionToken::new(), 2.0, 0.0);
            assert_eq!(d, ReadDecision::Route(Route::Slave(1)));
        }
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(ConsistencyPolicy::Eventual.label(), "eventual");
        assert_eq!(
            ConsistencyPolicy::BoundedStaleness { max_ms: 250.0 }.label(),
            "bounded(250ms)"
        );
    }
}
