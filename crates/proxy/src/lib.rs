//! # amdb-proxy — read/write splitting and slave load balancing
//!
//! The paper's customized Cloudstone interposes a proxy (MySQL Connector/J's
//! replication driver) that "works as a load balancer among the available
//! database replicas where all write operations are sent to the master while
//! all read operations are distributed among slaves" (§III-A).
//!
//! This crate implements that router with pluggable balancing policies. The
//! paper's conclusion suggests geographic replication is viable "as long as
//! workload characteristics can be well managed (e.g. having a smart load
//! balancer which is able of balancing the operations based on estimated
//! processing time)" — the [`LatencyAware`] policy implements exactly that
//! suggestion and is compared against the baselines in ablation A2.

use amdb_sim::Rng;

/// Statement class for routing purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Read,
    Write,
}

/// Routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Master,
    /// Index into the slave list.
    Slave(usize),
}

/// Live per-slave state the balancer can consult.
#[derive(Debug, Clone)]
pub struct SlaveStatus {
    /// Reads currently in flight to this slave.
    pub outstanding: u32,
    /// Exponentially-weighted moving average of observed read latency (ms).
    /// Meaningless until `ewma_samples > 0`.
    pub ewma_latency_ms: f64,
    /// How many latency samples have fed the EWMA. Tracked explicitly so a
    /// genuine 0.0 ms sample is smoothed like any other instead of being
    /// mistaken for "uninitialized".
    pub ewma_samples: u64,
    /// False when the slave is marked down.
    pub alive: bool,
}

impl Default for SlaveStatus {
    fn default() -> Self {
        Self {
            outstanding: 0,
            ewma_latency_ms: 0.0,
            ewma_samples: 0,
            alive: true,
        }
    }
}

/// A slave-selection policy.
pub trait Balancer {
    /// Pick a slave index among `slaves`; `None` when none is eligible
    /// (caller then falls back to the master, as Connector/J does).
    fn pick(&mut self, slaves: &[SlaveStatus]) -> Option<usize>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Round-robin over live slaves (Connector/J's default).
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Round-robin whose first pick starts at `cursor` (modulo the slave
    /// count at pick time). A sharded front instantiates one proxy per
    /// replication tree; identical cursors would make every tree's first
    /// pick — and every scatter-gather fan-out's legs — herd onto the same
    /// slave index across shards, so each tree staggers its cursor.
    pub fn starting_at(cursor: usize) -> Self {
        Self { next: cursor }
    }
}

impl Balancer for RoundRobin {
    fn pick(&mut self, slaves: &[SlaveStatus]) -> Option<usize> {
        if slaves.is_empty() {
            return None;
        }
        for off in 0..slaves.len() {
            let i = (self.next + off) % slaves.len();
            if slaves[i].alive {
                self.next = i + 1;
                return Some(i);
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Uniform random over live slaves.
#[derive(Debug)]
pub struct RandomPick {
    rng: Rng,
}

impl RandomPick {
    /// Policy with its own RNG stream.
    pub fn new(rng: Rng) -> Self {
        Self { rng }
    }
}

impl Balancer for RandomPick {
    fn pick(&mut self, slaves: &[SlaveStatus]) -> Option<usize> {
        let live: Vec<usize> = (0..slaves.len()).filter(|&i| slaves[i].alive).collect();
        if live.is_empty() {
            return None;
        }
        Some(live[self.rng.below(live.len() as u64) as usize])
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Scan live slaves in cyclic order starting at `*cursor` and return the
/// index with the minimal key, advancing the cursor past the pick.
///
/// Because the scan starts at the cursor and only a *strictly* smaller key
/// replaces the incumbent, exact ties resolve to the first candidate at or
/// after the cursor — a rotating tie-break. `min_by(_key)` alone always
/// settles ties on the lowest index, which herds every read onto slave 0 at
/// cold start and whenever queue lengths synchronize.
fn pick_min_rotating<K: PartialOrd + Copy>(
    slaves: &[SlaveStatus],
    cursor: &mut usize,
    key: impl Fn(&SlaveStatus) -> K,
) -> Option<usize> {
    let n = slaves.len();
    if n == 0 {
        return None;
    }
    let mut best: Option<(usize, K)> = None;
    for off in 0..n {
        let i = (*cursor + off) % n;
        if !slaves[i].alive {
            continue;
        }
        let k = key(&slaves[i]);
        // Only a *strictly* smaller key (Ordering::Less) unseats the
        // incumbent; ties and incomparable keys (NaN) keep it.
        let replaces = match &best {
            Some((_, bk)) => matches!(k.partial_cmp(bk), Some(std::cmp::Ordering::Less)),
            None => true,
        };
        if replaces {
            best = Some((i, k));
        }
    }
    let picked = best.map(|(i, _)| i)?;
    *cursor = (picked + 1) % n;
    Some(picked)
}

/// Fewest outstanding reads wins (join-the-shortest-queue); exact ties
/// rotate round-robin instead of collapsing onto the lowest index.
#[derive(Debug, Default)]
pub struct LeastOutstanding {
    next: usize,
}

impl LeastOutstanding {
    /// Policy whose rotating tie-break cursor starts at `cursor` (see
    /// [`RoundRobin::starting_at`]): at cold start all slaves are an exact
    /// tie, so the cursor alone decides the first pick.
    pub fn starting_at(cursor: usize) -> Self {
        Self { next: cursor }
    }
}

impl Balancer for LeastOutstanding {
    fn pick(&mut self, slaves: &[SlaveStatus]) -> Option<usize> {
        pick_min_rotating(slaves, &mut self.next, |s| s.outstanding)
    }

    fn name(&self) -> &'static str {
        "least-outstanding"
    }
}

/// The paper's "smart load balancer ... based on estimated processing time":
/// picks the slave minimizing `ewma_latency × (outstanding + 1)` — an
/// estimate of the completion time of the next read if sent there. Slower or
/// farther slaves naturally receive proportionally less traffic; exact ties
/// (idle equal slaves, cold start) rotate round-robin.
#[derive(Debug, Default)]
pub struct LatencyAware {
    next: usize,
}

impl LatencyAware {
    /// Policy whose rotating tie-break cursor starts at `cursor` (see
    /// [`RoundRobin::starting_at`]).
    pub fn starting_at(cursor: usize) -> Self {
        Self { next: cursor }
    }
}

impl Balancer for LatencyAware {
    fn pick(&mut self, slaves: &[SlaveStatus]) -> Option<usize> {
        pick_min_rotating(slaves, &mut self.next, |s| {
            s.ewma_latency_ms.max(0.1) * (s.outstanding + 1) as f64
        })
    }

    fn name(&self) -> &'static str {
        "latency-aware"
    }
}

/// EWMA smoothing factor for latency feedback.
const EWMA_ALPHA: f64 = 0.2;

/// The read/write splitting proxy.
pub struct Proxy {
    balancer: Box<dyn Balancer>,
    slaves: Vec<SlaveStatus>,
    reads_routed: Vec<u64>,
    writes_routed: u64,
    reads_fallback_master: u64,
}

impl Proxy {
    /// Proxy over `n_slaves` replicas with the given policy.
    pub fn new(n_slaves: usize, balancer: Box<dyn Balancer>) -> Self {
        Self {
            balancer,
            slaves: vec![SlaveStatus::default(); n_slaves],
            reads_routed: vec![0; n_slaves],
            writes_routed: 0,
            reads_fallback_master: 0,
        }
    }

    /// Number of slaves behind the proxy.
    pub fn n_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// Route one operation. Reads go to a slave chosen by the policy (master
    /// as a last resort); writes always go to the master.
    pub fn route(&mut self, class: OpClass) -> Route {
        match class {
            OpClass::Write => {
                self.writes_routed += 1;
                Route::Master
            }
            OpClass::Read => match self.balancer.pick(&self.slaves) {
                Some(i) => {
                    self.reads_routed[i] += 1;
                    self.slaves[i].outstanding += 1;
                    Route::Slave(i)
                }
                None => {
                    self.reads_fallback_master += 1;
                    Route::Master
                }
            },
        }
    }

    /// Route one read restricted to the `eligible` slaves (a mask indexed
    /// like the slave list; shorter masks treat the missing tail as
    /// ineligible). The policy layer (amdb-consistency) computes the mask
    /// from freshness watermarks; the balancer then picks among the
    /// survivors exactly as it would have, seeing ineligible slaves as down.
    /// Falls back to the master (counting `reads_fallback_master`) when the
    /// mask admits no live slave.
    pub fn route_read_among(&mut self, eligible: &[bool]) -> Route {
        let saved: Vec<bool> = self.slaves.iter().map(|s| s.alive).collect();
        for (i, s) in self.slaves.iter_mut().enumerate() {
            s.alive &= eligible.get(i).copied().unwrap_or(false);
        }
        let pick = self.balancer.pick(&self.slaves);
        for (s, alive) in self.slaves.iter_mut().zip(saved) {
            s.alive = alive;
        }
        match pick {
            Some(i) => {
                self.reads_routed[i] += 1;
                self.slaves[i].outstanding += 1;
                Route::Slave(i)
            }
            None => {
                self.reads_fallback_master += 1;
                Route::Master
            }
        }
    }

    /// Report a read completion so outstanding counts and EWMA latencies stay
    /// current.
    pub fn read_done(&mut self, slave: usize, latency_ms: f64) {
        let s = &mut self.slaves[slave];
        debug_assert!(s.outstanding > 0, "read_done without route");
        s.outstanding = s.outstanding.saturating_sub(1);
        // First contact adopts the sample; afterwards every sample — a
        // genuine 0.0 ms included — is smoothed. (The old `== 0.0` sentinel
        // made each 0.0 ms sample look like first contact and reset the
        // average.)
        s.ewma_latency_ms = if s.ewma_samples == 0 {
            latency_ms
        } else {
            EWMA_ALPHA * latency_ms + (1.0 - EWMA_ALPHA) * s.ewma_latency_ms
        };
        s.ewma_samples += 1;
    }

    /// Mark a slave up/down.
    pub fn set_alive(&mut self, slave: usize, alive: bool) {
        self.slaves[slave].alive = alive;
    }

    /// Attach a new slave (application-managed elasticity: a freshly
    /// launched replica joins the rotation). It starts *down*; call
    /// [`Self::set_alive`] once its initial sync completes. Returns its
    /// index.
    pub fn add_slave(&mut self) -> usize {
        self.slaves.push(SlaveStatus {
            alive: false,
            ..SlaveStatus::default()
        });
        self.reads_routed.push(0);
        self.slaves.len() - 1
    }

    /// Current status snapshot of a slave.
    pub fn slave_status(&self, slave: usize) -> &SlaveStatus {
        &self.slaves[slave]
    }

    /// Reads routed per slave.
    pub fn reads_per_slave(&self) -> &[u64] {
        &self.reads_routed
    }

    /// Total writes routed (all to the master).
    pub fn writes_routed(&self) -> u64 {
        self.writes_routed
    }

    /// Reads that fell back to the master because no slave was eligible.
    pub fn reads_fallback_master(&self) -> u64 {
        self.reads_fallback_master
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_always_master() {
        let mut p = Proxy::new(3, Box::new(RoundRobin::default()));
        for _ in 0..10 {
            assert_eq!(p.route(OpClass::Write), Route::Master);
        }
        assert_eq!(p.writes_routed(), 10);
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = Proxy::new(3, Box::new(RoundRobin::default()));
        let picks: Vec<Route> = (0..6).map(|_| p.route(OpClass::Read)).collect();
        assert_eq!(
            picks,
            vec![
                Route::Slave(0),
                Route::Slave(1),
                Route::Slave(2),
                Route::Slave(0),
                Route::Slave(1),
                Route::Slave(2)
            ]
        );
        assert_eq!(p.reads_per_slave(), &[2, 2, 2]);
    }

    #[test]
    fn round_robin_skips_dead() {
        let mut p = Proxy::new(3, Box::new(RoundRobin::default()));
        p.set_alive(1, false);
        let picks: Vec<Route> = (0..4).map(|_| p.route(OpClass::Read)).collect();
        assert!(picks.iter().all(|r| *r != Route::Slave(1)));
    }

    #[test]
    fn no_slaves_falls_back_to_master() {
        let mut p = Proxy::new(0, Box::new(RoundRobin::default()));
        assert_eq!(p.route(OpClass::Read), Route::Master);
        assert_eq!(p.reads_fallback_master(), 1);
        let mut p = Proxy::new(2, Box::new(LeastOutstanding::default()));
        p.set_alive(0, false);
        p.set_alive(1, false);
        assert_eq!(p.route(OpClass::Read), Route::Master);
    }

    #[test]
    fn all_slaves_dead_counts_master_fallback() {
        // Regression: a proxy with slaves that are all *down* (not merely
        // absent) must both route to the master and account for it.
        for balancer in [
            Box::new(RoundRobin::default()) as Box<dyn Balancer>,
            Box::new(LeastOutstanding::default()),
            Box::new(LatencyAware::default()),
        ] {
            let mut p = Proxy::new(3, balancer);
            for s in 0..3 {
                p.set_alive(s, false);
            }
            for k in 1..=5u64 {
                assert_eq!(p.route(OpClass::Read), Route::Master);
                assert_eq!(p.reads_fallback_master(), k);
            }
            assert_eq!(p.reads_per_slave(), &[0, 0, 0], "no slave was charged");
            // Revival restores normal routing and stops the counter.
            p.set_alive(1, true);
            assert_eq!(p.route(OpClass::Read), Route::Slave(1));
            assert_eq!(p.reads_fallback_master(), 5);
        }
    }

    #[test]
    fn route_among_restricts_the_balancer() {
        let mut p = Proxy::new(3, Box::new(RoundRobin::default()));
        // Only slave 2 eligible: round-robin must keep landing there.
        for _ in 0..3 {
            assert_eq!(p.route_read_among(&[false, false, true]), Route::Slave(2));
        }
        assert_eq!(p.reads_per_slave(), &[0, 0, 3]);
        // Full mask behaves like a plain read route.
        assert_eq!(p.route_read_among(&[true, true, true]), Route::Slave(0));
        // Empty eligibility falls back to the master and counts it.
        assert_eq!(p.route_read_among(&[false, false, false]), Route::Master);
        assert_eq!(p.reads_fallback_master(), 1);
        // A short mask treats the missing tail as ineligible.
        assert_eq!(p.route_read_among(&[true]), Route::Slave(0));
    }

    #[test]
    fn route_among_preserves_liveness_flags() {
        let mut p = Proxy::new(2, Box::new(RoundRobin::default()));
        p.set_alive(1, false);
        // Mask says slave 1 is eligible, but it is down: master fallback.
        assert_eq!(p.route_read_among(&[false, true]), Route::Master);
        // The temporary masking must not have resurrected or killed anyone.
        assert!(p.slave_status(0).alive);
        assert!(!p.slave_status(1).alive);
        assert_eq!(p.route(OpClass::Read), Route::Slave(0));
    }

    #[test]
    fn least_outstanding_balances_inflight() {
        let mut p = Proxy::new(2, Box::new(LeastOutstanding::default()));
        let r1 = p.route(OpClass::Read);
        let r2 = p.route(OpClass::Read);
        assert_ne!(r1, r2, "second read avoids the busy slave");
        // Complete slave 0's read: next read goes there.
        if let Route::Slave(i) = r1 {
            p.read_done(i, 10.0);
            assert_eq!(p.route(OpClass::Read), Route::Slave(i));
        }
    }

    #[test]
    fn latency_aware_prefers_fast_slave() {
        let mut p = Proxy::new(2, Box::new(LatencyAware::default()));
        // Warm EWMAs: slave 0 fast (20ms), slave 1 slow (350ms, "different
        // region").
        let Route::Slave(a) = p.route(OpClass::Read) else {
            panic!()
        };
        p.read_done(a, if a == 0 { 20.0 } else { 350.0 });
        let Route::Slave(b) = p.route(OpClass::Read) else {
            panic!()
        };
        p.read_done(b, if b == 0 { 20.0 } else { 350.0 });
        // Now both have data; the fast one must win repeatedly when idle.
        let mut wins = [0u32; 2];
        for _ in 0..10 {
            let Route::Slave(i) = p.route(OpClass::Read) else {
                panic!()
            };
            wins[i] += 1;
            p.read_done(i, if i == 0 { 20.0 } else { 350.0 });
        }
        assert!(wins[0] > wins[1], "fast slave preferred: {wins:?}");
    }

    #[test]
    fn latency_aware_sheds_to_idle_slow_slave_under_pressure() {
        let mut p = Proxy::new(2, Box::new(LatencyAware::default()));
        // Prime EWMAs.
        for i in 0..2 {
            p.slaves_mut_for_test(i, if i == 0 { 20.0 } else { 60.0 });
        }
        // Pile outstanding reads onto the fast slave without completion;
        // eventually 20 * (k+1) > 60 * 1 and the slow slave is chosen.
        let mut saw_slow = false;
        for _ in 0..8 {
            if let Route::Slave(1) = p.route(OpClass::Read) {
                saw_slow = true;
                break;
            }
        }
        assert!(saw_slow, "queue pressure shifts load to the slower slave");
    }

    #[test]
    fn random_covers_all_slaves() {
        let mut p = Proxy::new(4, Box::new(RandomPick::new(Rng::new(5))));
        let mut seen = [false; 4];
        for _ in 0..200 {
            if let Route::Slave(i) = p.route(OpClass::Read) {
                seen[i] = true;
                p.read_done(i, 1.0);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn add_slave_joins_after_going_alive() {
        let mut p = Proxy::new(1, Box::new(RoundRobin::default()));
        let s = p.add_slave();
        assert_eq!(s, 1);
        // Still syncing: no reads reach it.
        for _ in 0..4 {
            assert_eq!(p.route(OpClass::Read), Route::Slave(0));
        }
        p.set_alive(s, true);
        let picks: Vec<Route> = (0..4).map(|_| p.route(OpClass::Read)).collect();
        assert!(picks.contains(&Route::Slave(1)), "new slave takes reads");
    }

    /// Regression: `min_by(_key)` tie-breaking always picked slave 0, so at
    /// cold start (and whenever outstanding counts synchronize) every read
    /// herded onto the lowest index. With the rotating tie-break, N reads
    /// over idle, equal slaves must spread evenly.
    #[test]
    fn least_outstanding_ties_spread_evenly() {
        let mut p = Proxy::new(4, Box::new(LeastOutstanding::default()));
        for _ in 0..20 {
            let Route::Slave(i) = p.route(OpClass::Read) else {
                panic!("a slave must serve the read")
            };
            // Complete immediately: every pick sees all-idle, all-tied state.
            p.read_done(i, 5.0);
        }
        assert_eq!(p.reads_per_slave(), &[5, 5, 5, 5]);
    }

    /// Same regression for the latency-aware policy: identical EWMAs and
    /// identical queues are an exact tie and must rotate, not herd.
    #[test]
    fn latency_aware_ties_spread_evenly() {
        let mut p = Proxy::new(4, Box::new(LatencyAware::default()));
        for _ in 0..20 {
            let Route::Slave(i) = p.route(OpClass::Read) else {
                panic!("a slave must serve the read")
            };
            // Same latency everywhere keeps the EWMAs exactly equal.
            p.read_done(i, 12.0);
        }
        assert_eq!(p.reads_per_slave(), &[5, 5, 5, 5]);
    }

    #[test]
    fn rotating_tie_break_skips_dead_slaves() {
        let mut p = Proxy::new(3, Box::new(LeastOutstanding::default()));
        p.set_alive(1, false);
        for _ in 0..10 {
            let Route::Slave(i) = p.route(OpClass::Read) else {
                panic!("live slaves exist")
            };
            assert_ne!(i, 1, "dead slave must not serve");
            p.read_done(i, 5.0);
        }
        assert_eq!(p.reads_per_slave()[0], 5);
        assert_eq!(p.reads_per_slave()[2], 5);
    }

    /// Regression: a genuine 0.0 ms sample used to match the "uninitialized"
    /// sentinel and *reset* the EWMA to the next sample instead of smoothing.
    #[test]
    fn ewma_zero_sample_is_smoothed_not_first_contact() {
        let mut p = Proxy::new(1, Box::new(RoundRobin::default()));
        // Warm the EWMA to 10.0 ms.
        p.route(OpClass::Read);
        p.read_done(0, 10.0);
        assert_eq!(p.slave_status(0).ewma_latency_ms, 10.0);
        // A 0.0 ms sample must be blended (0.2·0 + 0.8·10 = 8), not adopted.
        p.route(OpClass::Read);
        p.read_done(0, 0.0);
        let e = p.slave_status(0).ewma_latency_ms;
        assert!((e - 8.0).abs() < 1e-12, "0.0 smoothed into EWMA, got {e}");
        // And the *next* sample must smooth against 8, not re-initialize.
        p.route(OpClass::Read);
        p.read_done(0, 10.0);
        let e = p.slave_status(0).ewma_latency_ms;
        assert!((e - 8.4).abs() < 1e-12, "EWMA continued, got {e}");
        assert_eq!(p.slave_status(0).ewma_samples, 3);
    }

    #[test]
    fn ewma_first_sample_can_be_zero() {
        let mut p = Proxy::new(1, Box::new(RoundRobin::default()));
        p.route(OpClass::Read);
        p.read_done(0, 0.0);
        assert_eq!(p.slave_status(0).ewma_latency_ms, 0.0);
        assert_eq!(p.slave_status(0).ewma_samples, 1);
        p.route(OpClass::Read);
        p.read_done(0, 10.0);
        let e = p.slave_status(0).ewma_latency_ms;
        assert!((e - 2.0).abs() < 1e-12, "smoothed from 0.0, got {e}");
    }

    /// Regression (shard fan-out herding): N proxies with default-cursor
    /// balancers all make the *same* first pick, so a scatter-gather read
    /// fanned out across N shard trees lands every leg on slave index 0 of
    /// its tree — the same class of bug as the old `min_by` slave-0 bias,
    /// one level up. Staggered cursors must spread the cold-start picks.
    #[test]
    fn staggered_cursors_decorrelate_first_picks_across_proxies() {
        fn make(kind: usize, cursor: usize) -> Box<dyn Balancer> {
            match kind {
                0 => Box::new(RoundRobin::starting_at(cursor)),
                1 => Box::new(LeastOutstanding::starting_at(cursor)),
                _ => Box::new(LatencyAware::starting_at(cursor)),
            }
        }
        for kind in 0..3 {
            let n_shards = 4;
            let n_slaves = 4;
            let mut first_picks = Vec::new();
            for shard in 0..n_shards {
                let mut p = Proxy::new(n_slaves, make(kind, shard));
                let Route::Slave(i) = p.route(OpClass::Read) else {
                    panic!("live slaves exist")
                };
                first_picks.push(i);
            }
            // Each tree's first (cold-start, all-tied) pick differs.
            let distinct: std::collections::BTreeSet<usize> = first_picks.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                n_shards,
                "cold-start picks herd: {first_picks:?}"
            );
        }
    }

    /// The cursor is taken modulo the slave count, so shard counts larger
    /// than the slave count wrap instead of panicking or pinning.
    #[test]
    fn starting_cursor_wraps_past_slave_count() {
        let mut p = Proxy::new(2, Box::new(RoundRobin::starting_at(7)));
        assert_eq!(p.route(OpClass::Read), Route::Slave(1));
        assert_eq!(p.route(OpClass::Read), Route::Slave(0));
        let mut p = Proxy::new(2, Box::new(LeastOutstanding::starting_at(5)));
        let Route::Slave(i) = p.route(OpClass::Read) else {
            panic!()
        };
        assert_eq!(i, 1, "cursor 5 over 2 slaves starts at 1");
    }

    #[test]
    fn ewma_converges_toward_latency() {
        let mut p = Proxy::new(1, Box::new(RoundRobin::default()));
        for _ in 0..60 {
            p.route(OpClass::Read);
            p.read_done(0, 100.0);
        }
        let e = p.slave_status(0).ewma_latency_ms;
        assert!((e - 100.0).abs() < 1.0, "ewma {e}");
    }

    impl Proxy {
        /// Test helper: set a slave's EWMA directly (as if one sample seen).
        fn slaves_mut_for_test(&mut self, i: usize, ewma: f64) {
            self.slaves[i].ewma_latency_ms = ewma;
            self.slaves[i].ewma_samples = 1;
        }
    }
}
