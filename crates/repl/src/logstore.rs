//! The shared log service: a simulated 3-way-replicated, quorum-acked log.
//!
//! Taurus-style disaggregation (PAPERS.md, arXiv 2412.02792) replaces
//! master→slave writeset shipping with "the log is the database": the master
//! appends LSN-stamped records to a small replicated log service, a record is
//! *durable* once a write quorum of log replicas has acknowledged it, and
//! read replicas tail the durable prefix. Failover becomes a *reattach* —
//! the new master resumes from the last durable quorum LSN instead of
//! rebuilding peers from a snapshot.
//!
//! [`LogStore`] is the protocol state machine: appends assign positions,
//! per-replica acks advance contiguous persisted prefixes, and
//! `durable_upto` is the quorum-th highest prefix. The *timed* behaviour
//! (when each ack lands on the simulated clock, and when the quorum forms)
//! is computed analytically by [`LogStore::append_at`] from each replica's
//! [`FaultTimeline`] and the [`RetryPolicy`] — no retained event state, so
//! the hot path of a statement-backend run never touches any of this.

use amdb_sql::Lsn;

/// Shape of the replicated log service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogStoreConfig {
    /// Log replicas (the paper-typical 3).
    pub replicas: usize,
    /// Acks required for durability (2 of 3).
    pub quorum: usize,
    /// Base per-replica append service time, µs (network + fsync).
    pub append_service_us: u64,
    /// Retry discipline for replica appends that time out.
    pub retry: RetryPolicy,
}

impl Default for LogStoreConfig {
    fn default() -> Self {
        Self {
            replicas: 3,
            quorum: 2,
            append_service_us: 400,
            retry: RetryPolicy::default(),
        }
    }
}

impl LogStoreConfig {
    /// Whether `1 <= quorum <= replicas` (which also rules out an empty
    /// replica set) — the only shape a [`LogStore`] can be built from.
    pub fn quorum_in_range(&self) -> bool {
        (1..=self.replicas).contains(&self.quorum)
    }
}

/// Per-attempt timeout plus exponential backoff with a hard ceiling — the
/// "no unbounded retry" discipline: the *delay* between attempts saturates at
/// `backoff_max_us`, and a single append gives up on a replica after
/// `max_attempts` (the replica re-syncs when it heals; durability comes from
/// the quorum, not from every replica).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Per-attempt timeout, µs.
    pub timeout_us: u64,
    /// First retry delay, µs; doubles each attempt.
    pub backoff_base_us: u64,
    /// Backoff ceiling, µs.
    pub backoff_max_us: u64,
    /// Attempts before this append abandons the replica.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            timeout_us: 2_000,
            backoff_base_us: 1_000,
            backoff_max_us: 64_000,
            max_attempts: 12,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based: the delay after the
    /// first failed attempt is `backoff_us(1)`). Exponential, saturating at
    /// `backoff_max_us`.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        self.backoff_base_us
            .saturating_mul(1u64 << shift)
            .min(self.backoff_max_us)
    }

    /// Hard bound on one full attempt sequence: the offset (µs) past the
    /// send instant at which an append gives up on a replica. Every inter-attempt
    /// delay is `timeout + backoff` with the backoff capped, so the sum is
    /// finite — the no-unbounded-retry guarantee, in closed form.
    pub fn give_up_after_us(&self) -> u64 {
        (1..=self.max_attempts)
            .map(|k| self.timeout_us.saturating_add(self.backoff_us(k)))
            .fold(0u64, u64::saturating_add)
    }
}

/// Precomputed fault schedule of one log replica: sorted, disjoint down
/// windows (crash or network partition — indistinguishable to the appender)
/// plus slow-disk windows that stretch append service time. Computed once
/// per run from seeded RNG draws, so fault injection costs nothing when the
/// shared-log backend is off and stays deterministic when it is on.
#[derive(Debug, Clone, Default)]
pub struct FaultTimeline {
    /// `(start_us, end_us)` half-open windows in which the replica is
    /// unreachable. Sorted, disjoint.
    down: Vec<(u64, u64)>,
    /// `(start_us, end_us, factor)` windows in which append service time is
    /// multiplied by `factor` (slow disk). Sorted, disjoint.
    slow: Vec<(u64, u64, f64)>,
}

impl FaultTimeline {
    /// A replica that never fails.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Build from explicit windows (tests, hand-crafted scenarios). Windows
    /// must be sorted and disjoint; debug-asserted.
    pub fn from_windows(down: Vec<(u64, u64)>, slow: Vec<(u64, u64, f64)>) -> Self {
        debug_assert!(down.windows(2).all(|w| w[0].1 <= w[1].0), "down sorted");
        debug_assert!(slow.windows(2).all(|w| w[0].1 <= w[1].0), "slow sorted");
        Self { down, slow }
    }

    /// Whether the replica is unreachable at `t_us`.
    pub fn is_down(&self, t_us: u64) -> bool {
        self.down.iter().any(|&(s, e)| (s..e).contains(&t_us))
    }

    /// Earliest instant `>= t_us` at which the replica is reachable, or
    /// `None` when it stays down forever (an unbounded final window).
    pub fn next_up(&self, t_us: u64) -> Option<u64> {
        for &(s, e) in &self.down {
            if (s..e).contains(&t_us) {
                return if e == u64::MAX { None } else { Some(e) };
            }
        }
        Some(t_us)
    }

    /// Slow-disk service-time multiplier in effect at `t_us` (1.0 = healthy).
    pub fn disk_factor(&self, t_us: u64) -> f64 {
        self.slow
            .iter()
            .find(|&&(s, e, _)| (s..e).contains(&t_us))
            .map(|&(_, _, f)| f)
            .unwrap_or(1.0)
    }

    /// Total down time within `[0, horizon_us)` — reporting aid.
    pub fn downtime_us(&self, horizon_us: u64) -> u64 {
        self.down
            .iter()
            .map(|&(s, e)| e.min(horizon_us).saturating_sub(s.min(horizon_us)))
            .sum()
    }
}

/// Outcome of one append attempt sequence against one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReplicaAck {
    /// Instant the ack lands at the master, µs. `None`: the append abandoned
    /// this replica (attempt cap under sustained partition).
    acked_at_us: Option<u64>,
    /// Attempts spent (1 = first try succeeded).
    attempts: u32,
}

/// Analytically compute when replica `timeline`'s ack for an append issued
/// at `sent_us` lands, under `policy`. An attempt issued while the replica
/// is down (or that starts while up but we model the window check at issue
/// time) burns the full `timeout_us`, then waits the capped backoff; an
/// attempt issued while up completes in `service_us` stretched by the
/// slow-disk factor. Pure function of its inputs — determinism for free.
fn ack_time_us(
    timeline: &FaultTimeline,
    policy: &RetryPolicy,
    sent_us: u64,
    service_us: u64,
) -> ReplicaAck {
    let mut t = sent_us;
    for attempt in 1..=policy.max_attempts {
        if !timeline.is_down(t) {
            let service = (service_us as f64 * timeline.disk_factor(t)).round() as u64;
            let done = t + service.max(1);
            // The reply must also make it back: if the replica partitions
            // mid-service the attempt still times out.
            if !timeline.is_down(done.saturating_sub(1)) {
                return ReplicaAck {
                    acked_at_us: Some(done),
                    attempts: attempt,
                };
            }
        }
        t = t + policy.timeout_us + policy.backoff_us(attempt);
    }
    ReplicaAck {
        acked_at_us: None,
        attempts: policy.max_attempts,
    }
}

/// Result of [`LogStore::ack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckResult {
    /// This ack advanced the durable prefix to the carried LSN.
    Durable(Lsn),
    /// Accepted, but the quorum for some appended records is still pending.
    Pending,
    /// The replica had already acknowledged at or past this position —
    /// a retransmitted ack, dropped.
    DuplicateIgnored,
    /// Accepted, but everything up to this position was already durable
    /// (the quorum formed without this replica; its late ack only catches
    /// the replica itself up).
    LateAfterQuorum,
    /// The replica is crashed; the ack was lost in flight.
    ReplicaDown,
}

/// Per-replica persistence state: a contiguous prefix. Replica logs are
/// append-only and gap-free, so one cursor is the whole story.
#[derive(Debug, Clone)]
struct LogReplicaState {
    /// Persisted (fsynced + acked) up to this LSN, exclusive.
    persisted_upto: u64,
    alive: bool,
    /// Fault schedule the timed appends run against.
    timeline: FaultTimeline,
    /// FIFO ack clearance, µs: a log replica persists appends in order, so
    /// a later batch's ack can never land before an earlier one's.
    ack_clear_us: u64,
}

/// When the acks of one [`LogStore::append_at`] land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendTiming {
    /// Per replica, in replica order: the instant (µs) its ack reaches the
    /// master; `None` for a replica that stays down forever.
    pub acks_us: Vec<Option<u64>>,
    /// The batch's durability instant (µs) — the client-ack gate.
    pub quorum_at_us: u64,
}

/// Cumulative cost of the fault windows the timed appends rode through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckStats {
    /// Transport-level retry attempts beyond each first try.
    pub retries: u64,
    /// Application-level re-sends after a full attempt sequence gave up
    /// (sustained partition outlasting the bounded retry budget).
    pub resends: u64,
    /// Appends whose quorum never formed within the retry budget
    /// (availability loss; needs `replicas - quorum + 1` replicas down).
    pub quorum_failures: u64,
}

/// The quorum state machine: who has what, and what is durable.
///
/// The timed cluster appends through [`Self::append_at`] and feeds each ack
/// back through [`Self::ack`] at the instant that call computed; unit and
/// property tests drive [`Self::append`] / [`Self::ack`] directly to pin the
/// protocol edges (duplicate/late acks, death between append and ack,
/// truncated-replica reattach).
#[derive(Debug, Clone)]
pub struct LogStore {
    cfg: LogStoreConfig,
    /// Append head: positions `[0, appended_upto)` have been assigned.
    appended_upto: u64,
    /// Durable prefix: quorum-acked up to here, exclusive. Monotone.
    durable_upto: u64,
    replicas: Vec<LogReplicaState>,
    /// Monotone quorum completion across timed appends (appends are FIFO).
    last_quorum_us: u64,
    ack_stats: AckStats,
}

impl LogStore {
    /// Fresh log service, all replicas alive, empty and never faulting.
    ///
    /// # Panics
    /// Panics unless `1 <= quorum <= replicas`.
    pub fn new(cfg: LogStoreConfig) -> Self {
        Self::with_timelines(cfg, vec![FaultTimeline::healthy(); cfg.replicas])
    }

    /// Fresh log service whose replica `r` follows `timelines[r]`.
    ///
    /// # Panics
    /// Panics unless `1 <= quorum <= replicas == timelines.len()`.
    pub fn with_timelines(cfg: LogStoreConfig, timelines: Vec<FaultTimeline>) -> Self {
        assert!(
            cfg.quorum_in_range(),
            "quorum {} out of range for {} replicas",
            cfg.quorum,
            cfg.replicas
        );
        assert_eq!(timelines.len(), cfg.replicas, "one timeline per replica");
        Self {
            replicas: timelines
                .into_iter()
                .map(|timeline| LogReplicaState {
                    persisted_upto: 0,
                    alive: true,
                    timeline,
                    ack_clear_us: 0,
                })
                .collect(),
            cfg,
            appended_upto: 0,
            durable_upto: 0,
            last_quorum_us: 0,
            ack_stats: AckStats::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &LogStoreConfig {
        &self.cfg
    }

    /// Assign positions for `count` new records; returns the first LSN of
    /// the batch. Delivery to replicas is in flight until they ack.
    pub fn append(&mut self, count: u64) -> Lsn {
        let first = self.appended_upto;
        self.appended_upto += count;
        Lsn(first)
    }

    /// Timed append: assign positions for `count` records sent at `now_us`
    /// and compute, from each replica's fault timeline, when its ack lands.
    ///
    /// A replica whose bounded transport retry sequence gives up (sustained
    /// partition) is not abandoned: the master buffers the append and
    /// re-sends once the replica heals. Acks are FIFO per replica. The
    /// quorum instant is the quorum-th smallest ack, clamped monotone across
    /// appends; when fewer than a quorum of replicas ever ack, the append
    /// cannot become durable now — the client is acked at the end of the
    /// retry budget and the failure counted (an availability event;
    /// durability is at risk only if the master also dies before the
    /// partitions heal).
    pub fn append_at(&mut self, count: u64, now_us: u64) -> AppendTiming {
        self.append(count);
        let (policy, service_us) = (self.cfg.retry, self.cfg.append_service_us);
        let stats = &mut self.ack_stats;
        let acks_us: Vec<Option<u64>> = self
            .replicas
            .iter_mut()
            .map(|rep| {
                let mut sent_us = now_us;
                let acked_us = loop {
                    let ack = ack_time_us(&rep.timeline, &policy, sent_us, service_us);
                    stats.retries += u64::from(ack.attempts.saturating_sub(1));
                    if let Some(t) = ack.acked_at_us {
                        break t;
                    }
                    let give_up = sent_us.saturating_add(policy.give_up_after_us());
                    sent_us = rep.timeline.next_up(give_up)?; // down forever
                    stats.resends += 1;
                };
                rep.ack_clear_us = rep.ack_clear_us.max(acked_us);
                Some(rep.ack_clear_us)
            })
            .collect();
        let mut landed: Vec<u64> = acks_us.iter().flatten().copied().collect();
        landed.sort_unstable();
        let quorum_at_us = match landed.get(self.cfg.quorum - 1) {
            Some(&at) => at,
            None => {
                stats.quorum_failures += 1;
                now_us + policy.give_up_after_us()
            }
        };
        self.last_quorum_us = self.last_quorum_us.max(quorum_at_us);
        AppendTiming {
            acks_us,
            quorum_at_us: self.last_quorum_us,
        }
    }

    /// Retries, re-sends and quorum failures of every timed append so far.
    pub fn ack_stats(&self) -> AckStats {
        self.ack_stats
    }

    /// Replica `r`'s fault schedule.
    pub fn timeline(&self, r: usize) -> &FaultTimeline {
        &self.replicas[r].timeline
    }

    /// Append head (next LSN to be assigned).
    pub fn appended_upto(&self) -> Lsn {
        Lsn(self.appended_upto)
    }

    /// Durable prefix: every LSN below this has a write quorum.
    pub fn durable_upto(&self) -> Lsn {
        Lsn(self.durable_upto)
    }

    /// Replica `r`'s persisted prefix (exclusive).
    pub fn replica_upto(&self, r: usize) -> Lsn {
        Lsn(self.replicas[r].persisted_upto)
    }

    /// Is replica `r` alive?
    pub fn replica_alive(&self, r: usize) -> bool {
        self.replicas[r].alive
    }

    /// Count of live replicas.
    pub fn alive_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.alive).count()
    }

    /// Replica `r` acknowledges persistence up to `upto` (exclusive).
    pub fn ack(&mut self, r: usize, upto: Lsn) -> AckResult {
        let upto = upto.0.min(self.appended_upto);
        let rep = &mut self.replicas[r];
        if !rep.alive {
            return AckResult::ReplicaDown;
        }
        if upto <= rep.persisted_upto {
            return AckResult::DuplicateIgnored;
        }
        rep.persisted_upto = upto;
        let durable = self.quorum_prefix();
        if durable > self.durable_upto {
            self.durable_upto = durable;
            AckResult::Durable(Lsn(durable))
        } else if upto <= self.durable_upto {
            AckResult::LateAfterQuorum
        } else {
            AckResult::Pending
        }
    }

    /// The quorum-th highest persisted prefix over *all* replicas (dead
    /// replicas keep their durably persisted prefix on disk — a crash does
    /// not un-fsync; truncation is modelled separately).
    fn quorum_prefix(&self) -> u64 {
        let mut tails: Vec<u64> = self.replicas.iter().map(|r| r.persisted_upto).collect();
        tails.sort_unstable_by(|a, b| b.cmp(a));
        tails[self.cfg.quorum - 1]
    }

    /// Crash replica `r`: in-flight acks are lost ([`AckResult::ReplicaDown`])
    /// until [`Self::heal_replica`]. Its persisted prefix survives on disk.
    pub fn crash_replica(&mut self, r: usize) {
        self.replicas[r].alive = false;
    }

    /// Replica `r` comes back; it still has its persisted prefix and will
    /// re-sync the rest from its peers (instantaneous in the untimed model).
    pub fn heal_replica(&mut self, r: usize) {
        let rep = &mut self.replicas[r];
        rep.alive = true;
        rep.persisted_upto = rep.persisted_upto.max(self.durable_upto);
    }

    /// Truncate replica `r`'s log to `to` (exclusive) — a disk that lied
    /// about fsync, losing a suffix. At most the quorum guarantee tolerates
    /// `replicas - quorum` such faults before durable data is at risk.
    pub fn truncate_replica(&mut self, r: usize, to: Lsn) {
        let rep = &mut self.replicas[r];
        rep.persisted_upto = rep.persisted_upto.min(to.0);
    }

    /// The LSN a recovering master reattaches from: the highest persisted
    /// prefix among *live* replicas. As long as faults stay within the
    /// quorum tolerance (`replicas - quorum` truncations/crashes), this is
    /// `>= durable_upto` — no acked write is lost. Pinned by the
    /// `prop_logstore` property test.
    pub fn reattach_lsn(&self) -> Lsn {
        Lsn(self
            .replicas
            .iter()
            .filter(|r| r.alive)
            .map(|r| r.persisted_upto)
            .max()
            .unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> LogStore {
        LogStore::new(LogStoreConfig::default())
    }

    #[test]
    fn quorum_of_two_makes_durable() {
        let mut s = store();
        assert_eq!(s.append(3), Lsn(0));
        assert_eq!(s.appended_upto(), Lsn(3));
        assert_eq!(s.durable_upto(), Lsn(0), "no acks yet");
        assert_eq!(s.ack(0, Lsn(3)), AckResult::Pending, "1/2 acks");
        assert_eq!(s.ack(1, Lsn(3)), AckResult::Durable(Lsn(3)));
        assert_eq!(s.durable_upto(), Lsn(3));
    }

    #[test]
    fn duplicate_and_late_acks_after_quorum() {
        let mut s = store();
        s.append(2);
        s.ack(0, Lsn(2));
        assert_eq!(s.ack(1, Lsn(2)), AckResult::Durable(Lsn(2)));
        // Retransmission of an already-counted ack: dropped.
        assert_eq!(s.ack(0, Lsn(2)), AckResult::DuplicateIgnored);
        assert_eq!(s.ack(1, Lsn(1)), AckResult::DuplicateIgnored);
        // The third replica's first ack lands after the quorum formed: it
        // catches the replica up but moves nothing.
        assert_eq!(s.ack(2, Lsn(2)), AckResult::LateAfterQuorum);
        assert_eq!(s.durable_upto(), Lsn(2), "unchanged by late ack");
    }

    #[test]
    fn replica_death_between_append_and_ack_loses_the_ack() {
        let mut s = store();
        s.append(1);
        s.crash_replica(2);
        assert_eq!(s.ack(2, Lsn(1)), AckResult::ReplicaDown);
        assert_eq!(s.replica_upto(2), Lsn(0), "lost ack advanced nothing");
        // The surviving pair still reaches quorum.
        s.ack(0, Lsn(1));
        assert_eq!(s.ack(1, Lsn(1)), AckResult::Durable(Lsn(1)));
        // Healing re-syncs the corpse to at least the durable prefix.
        s.heal_replica(2);
        assert_eq!(s.replica_upto(2), Lsn(1));
    }

    #[test]
    fn reattach_from_truncated_replica_keeps_durable_prefix() {
        let mut s = store();
        s.append(10);
        s.ack(0, Lsn(10));
        s.ack(1, Lsn(10));
        s.ack(2, Lsn(4));
        assert_eq!(s.durable_upto(), Lsn(10));
        // Replica 1's disk lied: its suffix beyond 6 evaporates. Replica 0
        // still holds the full durable prefix, so reattach loses nothing.
        s.truncate_replica(1, Lsn(6));
        assert_eq!(s.replica_upto(1), Lsn(6));
        assert!(s.reattach_lsn() >= s.durable_upto());
        // Even with the truncated replica also crashed, the quorum guarantee
        // (one fault of each kind tolerated at quorum 2/3) holds via 0.
        s.crash_replica(1);
        assert!(s.reattach_lsn() >= s.durable_upto());
    }

    #[test]
    fn truncation_never_advances_a_replica() {
        let mut s = store();
        s.append(5);
        s.ack(0, Lsn(3));
        s.truncate_replica(0, Lsn(9));
        assert_eq!(s.replica_upto(0), Lsn(3), "truncate only shrinks");
    }

    #[test]
    fn ack_past_append_head_is_clamped() {
        let mut s = store();
        s.append(2);
        assert_eq!(s.ack(0, Lsn(99)), AckResult::Pending);
        assert_eq!(s.replica_upto(0), Lsn(2));
    }

    #[test]
    fn backoff_saturates_at_ceiling() {
        let p = RetryPolicy {
            timeout_us: 1_000,
            backoff_base_us: 500,
            backoff_max_us: 4_000,
            max_attempts: 40,
        };
        assert_eq!(p.backoff_us(1), 500);
        assert_eq!(p.backoff_us(2), 1_000);
        assert_eq!(p.backoff_us(4), 4_000, "hits ceiling");
        assert_eq!(p.backoff_us(39), 4_000, "stays at ceiling, no overflow");
    }

    #[test]
    fn ack_time_healthy_is_one_service() {
        let a = ack_time_us(
            &FaultTimeline::healthy(),
            &RetryPolicy::default(),
            1_000,
            400,
        );
        assert_eq!(
            a,
            ReplicaAck {
                acked_at_us: Some(1_400),
                attempts: 1
            }
        );
    }

    #[test]
    fn ack_time_retries_through_a_partition() {
        let tl = FaultTimeline::from_windows(vec![(0, 10_000)], vec![]);
        let p = RetryPolicy {
            timeout_us: 2_000,
            backoff_base_us: 1_000,
            backoff_max_us: 64_000,
            max_attempts: 12,
        };
        let a = ack_time_us(&tl, &p, 0, 400);
        // Attempts at 0 (down), 3_000 (down), 7_000 (down), 13_000 (up):
        // each retry waits timeout + doubling backoff.
        assert_eq!(a.attempts, 4);
        assert_eq!(a.acked_at_us, Some(13_400));
    }

    #[test]
    fn sustained_partition_hits_attempt_cap_with_bounded_delay() {
        let tl = FaultTimeline::from_windows(vec![(0, u64::MAX)], vec![]);
        let p = RetryPolicy {
            timeout_us: 1_000,
            backoff_base_us: 1_000,
            backoff_max_us: 8_000,
            max_attempts: 6,
        };
        let a = ack_time_us(&tl, &p, 0, 400);
        assert_eq!(a.acked_at_us, None, "abandoned after the cap");
        assert_eq!(a.attempts, 6);
        // The total wait is bounded: every inter-attempt delay saturates at
        // timeout + ceiling, so a sustained partition cannot park an append
        // for an unbounded stretch.
        let worst: u64 = (1..=6).map(|k| p.timeout_us + p.backoff_us(k)).sum();
        assert_eq!(p.give_up_after_us(), worst);
        assert!(worst <= 6 * (p.timeout_us + p.backoff_max_us));
    }

    #[test]
    fn slow_disk_stretches_service() {
        let tl = FaultTimeline::from_windows(vec![], vec![(0, 10_000, 5.0)]);
        let a = ack_time_us(&tl, &RetryPolicy::default(), 100, 400);
        assert_eq!(a.acked_at_us, Some(100 + 2_000));
        assert_eq!(a.attempts, 1);
    }

    #[test]
    fn partition_landing_mid_service_times_out_the_attempt() {
        // Up at issue time, but down before the reply returns.
        let tl = FaultTimeline::from_windows(vec![(200, 5_000)], vec![]);
        let p = RetryPolicy {
            timeout_us: 1_000,
            backoff_base_us: 500,
            backoff_max_us: 8_000,
            max_attempts: 5,
        };
        let a = ack_time_us(&tl, &p, 0, 400);
        // t=0 attempt: service would finish at 400, inside the window →
        // timeout. Retry at 1_500 (down) → timeout. Retry at 3_500 (down)
        // → timeout. Retry at 6_500: up, acks at 6_900.
        assert_eq!(a.attempts, 4);
        assert_eq!(a.acked_at_us, Some(6_900));
    }

    #[test]
    fn downtime_accounting() {
        let tl = FaultTimeline::from_windows(vec![(100, 200), (300, 1_000)], vec![]);
        assert!(tl.is_down(150));
        assert!(!tl.is_down(250));
        assert_eq!(tl.next_up(150), Some(200));
        assert_eq!(tl.next_up(250), Some(250));
        assert_eq!(tl.downtime_us(500), 100 + 200);
        assert_eq!(tl.downtime_us(2_000), 100 + 700);
    }

    /// Three replicas whose first append (sent at 0) acks at 400, 2 000 and
    /// 800 µs: one healthy, two on slow disks.
    fn uneven_store() -> LogStore {
        let slow = |factor| FaultTimeline::from_windows(vec![], vec![(0, 1_000, factor)]);
        LogStore::with_timelines(
            LogStoreConfig::default(),
            vec![FaultTimeline::healthy(), slow(5.0), slow(2.0)],
        )
    }

    #[test]
    fn quorum_instant_is_the_quorum_th_smallest_ack() {
        let mut s = uneven_store();
        let t = s.append_at(2, 0);
        assert_eq!(s.appended_upto(), Lsn(2), "a timed append is an append");
        assert_eq!(t.acks_us, vec![Some(400), Some(2_000), Some(800)]);
        assert_eq!(t.quorum_at_us, 800, "2 of 3: the second-smallest ack");
        assert_eq!(s.ack_stats(), AckStats::default());
        // Feeding the acks back in instant order makes the batch durable
        // exactly at the quorum-th one.
        assert_eq!(s.ack(0, Lsn(2)), AckResult::Pending);
        assert_eq!(s.ack(2, Lsn(2)), AckResult::Durable(Lsn(2)));
        assert_eq!(s.ack(1, Lsn(2)), AckResult::LateAfterQuorum);
    }

    #[test]
    fn acks_and_quorum_instants_are_fifo_across_batches() {
        let mut s = uneven_store();
        let first = s.append_at(1, 0);
        // Sent after the slow windows closed: every replica would ack at
        // 1 600, but replica 1 is still persisting the first batch.
        let second = s.append_at(1, 1_200);
        assert_eq!(second.acks_us, vec![Some(1_600), Some(2_000), Some(1_600)]);
        for (a, b) in first.acks_us.iter().zip(&second.acks_us) {
            assert!(a <= b, "per-replica acks never reorder: {a:?} then {b:?}");
        }
        assert_eq!(second.quorum_at_us, 1_600);
        assert!(first.quorum_at_us <= second.quorum_at_us);
    }

    #[test]
    fn one_replica_down_past_the_retry_budget_is_resent_not_failed() {
        let cfg = LogStoreConfig::default();
        let give_up = cfg.retry.give_up_after_us();
        let heal = give_up + 50_000;
        let mut s = LogStore::with_timelines(
            cfg,
            vec![
                FaultTimeline::healthy(),
                FaultTimeline::healthy(),
                FaultTimeline::from_windows(vec![(0, heal)], vec![]),
            ],
        );
        let t = s.append_at(1, 0);
        assert_eq!(t.quorum_at_us, 400, "the healthy pair forms the quorum");
        assert_eq!(
            t.acks_us[2],
            Some(heal + 400),
            "re-sent the instant the replica heals"
        );
        let stats = s.ack_stats();
        assert_eq!(stats.resends, 1);
        assert_eq!(stats.quorum_failures, 0);
        assert_eq!(
            stats.retries,
            u64::from(cfg.retry.max_attempts - 1),
            "one exhausted attempt sequence, then a first-try success"
        );
    }

    #[test]
    fn too_many_replicas_down_forever_fails_the_quorum_at_the_budget() {
        let cfg = LogStoreConfig::default();
        let dead = || FaultTimeline::from_windows(vec![(0, u64::MAX)], vec![]);
        // replicas - quorum + 1 = 2 replicas never ack.
        let mut s = LogStore::with_timelines(cfg, vec![FaultTimeline::healthy(), dead(), dead()]);
        let t = s.append_at(1, 1_000);
        assert_eq!(t.acks_us, vec![Some(1_400), None, None]);
        assert_eq!(t.quorum_at_us, 1_000 + cfg.retry.give_up_after_us());
        let stats = s.ack_stats();
        assert_eq!(stats.quorum_failures, 1);
        assert_eq!(stats.resends, 0, "nothing to re-send to: never up again");
    }

    #[test]
    fn log_store_refuses_an_unreachable_quorum() {
        let shape = |replicas, quorum| LogStoreConfig {
            replicas,
            quorum,
            ..LogStoreConfig::default()
        };
        assert!(shape(3, 2).quorum_in_range());
        assert!(shape(1, 1).quorum_in_range());
        for bad in [shape(0, 0), shape(0, 1), shape(3, 0), shape(3, 4)] {
            assert!(!bad.quorum_in_range(), "{bad:?}");
        }
    }
}
