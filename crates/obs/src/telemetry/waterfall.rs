//! The staleness waterfall: causal per-write tracing through the
//! replication pipeline.
//!
//! Every traced write gets a trace id at dispatch and is then followed
//! through the stages the paper's §II pipeline implies:
//!
//! ```text
//! client issue → proxy route → master commit (binlog ship)
//!                                   └─ per slave: deliver → apply start →
//!                                      applied → first stale read served
//! ```
//!
//! The link between the client half and the per-slave half is the binlog
//! sequence: a committed write owns the LSNs its statements appended, and
//! every downstream hop (I/O-thread delivery, relay-queue pop, SQL-thread
//! apply, first read that observes the row) is keyed by LSN. From the stage
//! timestamps the waterfall decomposes each slave's end-to-end delay into
//! **network** (commit→deliver), **queueing** (deliver→apply start), and
//! **apply** (apply start→applied) legs, folding each leg into a bounded
//! [`QuantileSketch`] instead of keeping per-write samples.
//!
//! State is bounded: completed writes are pruned, and a FIFO cap evicts
//! stragglers (e.g. a slave that stops reading) so memory cannot grow with
//! run length.

use crate::metrics::{QuantileSketch, Table};
use amdb_sim::SimTime;
use std::collections::BTreeMap;

/// Default cap on in-flight write traces; oldest evict first beyond this.
/// Sized for one replication tree — a sharded front multiplies outstanding
/// traces by the fan-out, so `Telemetry::new` scales the per-instance cap
/// with the shard count via [`StalenessWaterfall::with_inflight_cap`].
pub const DEFAULT_MAX_INFLIGHT: usize = 8192;

/// A write that has been dispatched but not yet committed.
#[derive(Debug, Clone)]
struct PendingWrite {
    issued: SimTime,
    routed: SimTime,
    service_start: Option<SimTime>,
    /// Binlog LSNs appended by this write: `(from_exclusive, to_inclusive]`.
    lsns: (u64, u64),
}

/// Per-slave stage timestamps for one committed write.
#[derive(Debug, Clone, Copy, Default)]
struct SlaveStage {
    delivered: Option<SimTime>,
    apply_start: Option<SimTime>,
    applied: Option<SimTime>,
    first_read: Option<SimTime>,
}

impl SlaveStage {
    fn done(&self) -> bool {
        self.applied.is_some() && self.first_read.is_some()
    }

    /// The stage of a slave that does not owe the write (it joined, or was
    /// re-seeded, after the commit): complete at commit, feeding no sketch.
    fn waived(committed: SimTime) -> Self {
        Self {
            applied: Some(committed),
            first_read: Some(committed),
            ..Self::default()
        }
    }
}

/// One committed write in flight through the pipeline, keyed by LSN.
#[derive(Debug, Clone)]
struct WriteTrace {
    trace: u64,
    committed: SimTime,
    stages: Vec<SlaveStage>,
}

impl WriteTrace {
    fn done(&self) -> bool {
        self.stages.iter().all(SlaveStage::done)
    }
}

/// Leg sketches for one slave.
#[derive(Debug, Clone)]
pub struct SlaveLeg {
    /// Commit → relay delivery (the shipping network leg).
    pub network_ms: QuantileSketch,
    /// Relay delivery → SQL-thread pickup (relay-queue wait).
    pub queue_ms: QuantileSketch,
    /// SQL-thread pickup → applied (apply service time + CPU queueing).
    pub apply_ms: QuantileSketch,
    /// Commit → applied (the end-to-end replication delay for this write).
    pub e2e_ms: QuantileSketch,
    /// Commit → first read on this slave that observes the write.
    pub first_read_ms: QuantileSketch,
    /// Writes fully applied on this slave.
    pub applied: u64,
}

impl SlaveLeg {
    fn new() -> Self {
        Self {
            network_ms: QuantileSketch::latency(),
            queue_ms: QuantileSketch::latency(),
            apply_ms: QuantileSketch::latency(),
            e2e_ms: QuantileSketch::latency(),
            first_read_ms: QuantileSketch::latency(),
            applied: 0,
        }
    }
}

/// Client-half sketches (shared across slaves).
#[derive(Debug, Clone)]
pub struct ClientLeg {
    /// Issue → proxy route decision (dispatch wait).
    pub route_ms: QuantileSketch,
    /// Route → master commit (master CPU queue + write service).
    pub commit_ms: QuantileSketch,
}

/// The waterfall store: pending and in-flight writes plus leg sketches.
#[derive(Debug, Clone)]
pub struct StalenessWaterfall {
    next_trace: u64,
    pending: BTreeMap<u64, PendingWrite>,
    inflight: BTreeMap<u64, WriteTrace>,
    /// Per slave: LSNs `<= cursor` have had their first read assigned.
    read_cursor: Vec<u64>,
    /// Per slave: the slot holds no replica that will ever apply a write
    /// (a failed master took it), so every stage it is given is waived.
    /// Grown on the first such slot; a slot past its end is up.
    down: Vec<bool>,
    legs: Vec<SlaveLeg>,
    client: ClientLeg,
    /// Writes that reached commit (traced end of the client half).
    pub committed: u64,
    /// Writes evicted by the FIFO cap before completing all stages.
    pub evicted: u64,
    /// FIFO cap applied to both the pending and in-flight maps.
    max_inflight: usize,
}

impl StalenessWaterfall {
    /// Empty waterfall for `n_slaves` slaves with the default cap.
    pub fn new(n_slaves: usize) -> Self {
        Self::with_inflight_cap(n_slaves, DEFAULT_MAX_INFLIGHT)
    }

    /// Empty waterfall with an explicit FIFO eviction cap (≥ 1).
    pub fn with_inflight_cap(n_slaves: usize, cap: usize) -> Self {
        Self {
            next_trace: 0,
            pending: BTreeMap::new(),
            inflight: BTreeMap::new(),
            read_cursor: vec![0; n_slaves],
            down: Vec::new(),
            legs: (0..n_slaves).map(|_| SlaveLeg::new()).collect(),
            client: ClientLeg {
                route_ms: QuantileSketch::latency(),
                commit_ms: QuantileSketch::latency(),
            },
            committed: 0,
            evicted: 0,
            max_inflight: cap.max(1),
        }
    }

    /// The FIFO eviction cap in force.
    pub fn inflight_cap(&self) -> usize {
        self.max_inflight
    }

    /// Number of slaves currently tracked.
    pub fn n_slaves(&self) -> usize {
        self.legs.len()
    }

    /// Per-slave leg sketches.
    pub fn legs(&self) -> &[SlaveLeg] {
        &self.legs
    }

    /// Client-half sketches.
    pub fn client(&self) -> &ClientLeg {
        &self.client
    }

    /// Writes currently tracked between commit and completion.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Commit instant of the oldest write still tracked: a write some slave
    /// will never apply or read shows up here as an ever-older instant.
    pub fn oldest_inflight(&self) -> Option<SimTime> {
        self.inflight.first_key_value().map(|(_, w)| w.committed)
    }

    /// Grow to `n` slaves (elastic scale-out). Existing in-flight writes
    /// gain an untracked stage row for the new slave — its legs only count
    /// writes committed after the join.
    pub fn ensure_slaves(&mut self, n: usize) {
        while self.legs.len() < n {
            self.legs.push(SlaveLeg::new());
            self.read_cursor.push(0);
        }
        // Pre-join writes are not the new slave's debt: mark their stage
        // rows complete so they neither feed its sketches nor block pruning.
        for w in self.inflight.values_mut() {
            while w.stages.len() < n {
                w.stages.push(SlaveStage::waived(w.committed));
            }
        }
    }

    /// Slave `slave` was re-seeded from a snapshot of the master's head (a
    /// failed slave's replacement): the snapshot holds every write in
    /// flight, so the slave will never deliver, apply or read them. Waive
    /// its stage of each, as for a scale-out slave, and prune.
    pub fn on_reseed(&mut self, slave: usize) {
        if let Some(down) = self.down.get_mut(slave) {
            *down = false;
        }
        self.waive(slave);
    }

    /// Slot `slave` lost its replica for good (a failed master was swapped
    /// into it): waive its stage of every write in flight, and of every
    /// write committed until a re-seed ([`Self::on_reseed`]) fills the slot.
    pub fn on_slot_down(&mut self, slave: usize) {
        if slave < self.legs.len() {
            self.down.resize(self.down.len().max(slave + 1), false);
            self.down[slave] = true;
        }
        self.waive(slave);
    }

    fn waive(&mut self, slave: usize) {
        for w in self.inflight.values_mut() {
            if let Some(st) = w.stages.get_mut(slave) {
                *st = SlaveStage::waived(w.committed);
            }
        }
        self.prune();
    }

    /// Topology change that voids the LSN space (master failover): drop all
    /// in-flight state and restart cursors. Leg sketches and down slots
    /// survive — they describe the run, not the epoch.
    pub fn on_epoch_reset(&mut self, n_slaves: usize) {
        self.pending.clear();
        self.inflight.clear();
        self.read_cursor = vec![0; n_slaves];
        self.down.truncate(n_slaves);
        while self.legs.len() < n_slaves {
            self.legs.push(SlaveLeg::new());
        }
        self.legs.truncate(n_slaves);
    }

    /// Assign a trace id to a dispatched write. `issued` is the client
    /// issue time, `routed` the proxy route decision (now).
    pub fn begin_write(&mut self, issued: SimTime, routed: SimTime) -> u64 {
        self.next_trace += 1;
        let trace = self.next_trace;
        self.pending.insert(
            trace,
            PendingWrite {
                issued,
                routed,
                service_start: None,
                lsns: (0, 0),
            },
        );
        // Writes orphaned before commit (failover drains) never call
        // `on_commit`; cap the map so they cannot accumulate.
        while self.pending.len() > self.max_inflight {
            self.pending.pop_first();
            self.evicted += 1;
        }
        trace
    }

    /// The write started service on the master; `(before, after]` is the
    /// binlog head range its statements appended.
    pub fn on_service_start(&mut self, trace: u64, now: SimTime, lsn_before: u64, lsn_after: u64) {
        if let Some(p) = self.pending.get_mut(&trace) {
            p.service_start = Some(now);
            p.lsns = (lsn_before, lsn_after);
        }
    }

    /// The master committed the write. Registers one in-flight entry per
    /// appended LSN and returns the LSN range for flow emission (`None` if
    /// the trace is unknown or appended nothing).
    pub fn on_commit(&mut self, trace: u64, now: SimTime) -> Option<(u64, u64)> {
        let p = self.pending.remove(&trace)?;
        self.committed += 1;
        self.client.route_ms.record(ms_between(p.issued, p.routed));
        self.client.commit_ms.record(ms_between(p.routed, now));
        let (from, to) = p.lsns;
        if to <= from {
            return None;
        }
        for lsn in (from + 1)..=to {
            let stages = (0..self.legs.len())
                .map(|s| match self.down.get(s) {
                    Some(true) => SlaveStage::waived(now),
                    _ => SlaveStage::default(),
                })
                .collect();
            let w = WriteTrace {
                trace,
                committed: now,
                stages,
            };
            if !w.done() {
                self.inflight.insert(lsn, w);
            }
        }
        while self.inflight.len() > self.max_inflight {
            self.inflight.pop_first();
            self.evicted += 1;
        }
        Some((from, to))
    }

    /// Slave `slave`'s I/O thread received `lsn`. Returns the trace id on
    /// the first delivery (for flow-step emission).
    pub fn on_deliver(&mut self, slave: usize, lsn: u64, now: SimTime) -> Option<u64> {
        let w = self.inflight.get_mut(&lsn)?;
        let st = w.stages.get_mut(slave)?;
        if st.delivered.is_some() {
            return None;
        }
        st.delivered = Some(now);
        self.legs[slave]
            .network_ms
            .record(ms_between(w.committed, now));
        Some(w.trace)
    }

    /// Slave `slave`'s SQL thread popped `lsn` from the relay queue.
    pub fn on_apply_start(&mut self, slave: usize, lsn: u64, now: SimTime) {
        let Some(w) = self.inflight.get_mut(&lsn) else {
            return;
        };
        let Some(st) = w.stages.get_mut(slave) else {
            return;
        };
        if st.apply_start.is_none() {
            st.apply_start = Some(now);
            if let Some(d) = st.delivered {
                self.legs[slave].queue_ms.record(ms_between(d, now));
            }
        }
    }

    /// Slave `slave` finished applying `lsn`. Returns the trace id on first
    /// completion (for flow-end emission).
    pub fn on_applied(&mut self, slave: usize, lsn: u64, now: SimTime) -> Option<u64> {
        let w = self.inflight.get_mut(&lsn)?;
        let st = w.stages.get_mut(slave)?;
        if st.applied.is_some() {
            return None;
        }
        st.applied = Some(now);
        let leg = &mut self.legs[slave];
        leg.applied += 1;
        if let Some(s) = st.apply_start {
            leg.apply_ms.record(ms_between(s, now));
        }
        let trace = w.trace;
        leg.e2e_ms.record(ms_between(w.committed, now));
        self.prune();
        Some(trace)
    }

    /// Slave `slave` served a read at `now` with its SQL thread applied up
    /// to `applied_upto`: that read is the first to observe every write in
    /// `(cursor, applied_upto]`.
    pub fn on_slave_read(&mut self, slave: usize, applied_upto: u64, now: SimTime) {
        let Some(cursor) = self.read_cursor.get_mut(slave) else {
            return;
        };
        if applied_upto <= *cursor {
            return;
        }
        let from = *cursor;
        *cursor = applied_upto;
        // Only LSNs with live entries matter; range over the map, not the
        // (potentially huge) numeric interval.
        let mut touched = false;
        for (key, w) in self.inflight.range_mut((from + 1)..=applied_upto) {
            let Some(st) = w.stages.get_mut(slave) else {
                continue;
            };
            if st.first_read.is_none() {
                debug_assert!(
                    st.applied.is_some(),
                    "slave {slave} read the write at key {key} before applying it"
                );
                st.first_read = Some(now);
                self.legs[slave]
                    .first_read_ms
                    .record(ms_between(w.committed, now));
                touched = true;
            }
        }
        if touched {
            self.prune();
        }
    }

    /// Drop fully-completed writes (every slave applied + first read).
    fn prune(&mut self) {
        self.inflight.retain(|_, w| !w.done());
    }

    /// Render the per-leg decomposition: one row per slave plus the client
    /// half, p50/p95 per leg.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "staleness waterfall (per-slave delay decomposition, ms)",
            vec![
                "leg".into(),
                "writes".into(),
                "network p50/p95".into(),
                "queue p50/p95".into(),
                "apply p50/p95".into(),
                "e2e p50/p95".into(),
                "first-read p50".into(),
            ],
        );
        let pair = |s: &QuantileSketch| match (s.quantile(0.5), s.quantile(0.95)) {
            (Some(a), Some(b)) => format!("{a:.2}/{b:.2}"),
            _ => "-".into(),
        };
        let one = |s: &QuantileSketch| match s.quantile(0.5) {
            Some(a) => format!("{a:.2}"),
            None => "-".into(),
        };
        t.push_row(vec![
            "client (route/commit)".into(),
            self.committed.to_string(),
            pair(&self.client.route_ms),
            "-".into(),
            pair(&self.client.commit_ms),
            "-".into(),
            "-".into(),
        ]);
        for (i, leg) in self.legs.iter().enumerate() {
            t.push_row(vec![
                format!("slave{i}"),
                leg.applied.to_string(),
                pair(&leg.network_ms),
                pair(&leg.queue_ms),
                pair(&leg.apply_ms),
                pair(&leg.e2e_ms),
                one(&leg.first_read_ms),
            ]);
        }
        t
    }
}

fn ms_between(from: SimTime, to: SimTime) -> f64 {
    if to > from {
        (to - from).as_micros() as f64 / 1e3
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drive one write through every stage on two slaves and check the leg
    /// decomposition lands in the right sketches.
    #[test]
    fn decomposes_delay_into_legs() {
        let mut w = StalenessWaterfall::new(2);
        let tr = w.begin_write(t(0), t(1));
        w.on_service_start(tr, t(2), 10, 11);
        assert_eq!(w.on_commit(tr, t(4)), Some((10, 11)));
        assert_eq!(w.committed, 1);

        assert_eq!(w.on_deliver(0, 11, t(20)), Some(tr));
        w.on_apply_start(0, 11, t(29));
        assert_eq!(w.on_applied(0, 11, t(37)), Some(tr));
        w.on_slave_read(0, 11, t(50));

        let leg = &w.legs()[0];
        let within = |s: &QuantileSketch, v: f64| {
            (s.quantile(0.5).unwrap() - v).abs() <= QuantileSketch::bucket_width(v)
        };
        assert!(within(&leg.network_ms, 16.0), "commit(4) → deliver(20)");
        assert!(within(&leg.queue_ms, 9.0), "deliver(20) → start(29)");
        assert!(within(&leg.apply_ms, 8.0), "start(29) → applied(37)");
        assert!(within(&leg.e2e_ms, 33.0), "commit(4) → applied(37)");
        assert!(within(&leg.first_read_ms, 46.0), "commit(4) → read(50)");
        assert!(within(&w.client().route_ms, 1.0));
        assert!(within(&w.client().commit_ms, 3.0));

        // Slave 1 has not applied: the write is still in flight.
        assert_eq!(w.inflight(), 1);
        w.on_deliver(1, 11, t(21));
        w.on_apply_start(1, 11, t(22));
        w.on_applied(1, 11, t(23));
        w.on_slave_read(1, 11, t(30));
        assert_eq!(w.inflight(), 0, "fully observed writes are pruned");
    }

    #[test]
    fn duplicate_stage_events_count_once() {
        let mut w = StalenessWaterfall::new(1);
        let tr = w.begin_write(t(0), t(0));
        w.on_service_start(tr, t(1), 0, 1);
        w.on_commit(tr, t(2));
        assert_eq!(w.on_deliver(0, 1, t(5)), Some(tr));
        assert_eq!(w.on_deliver(0, 1, t(9)), None, "second delivery ignored");
        assert_eq!(w.legs()[0].network_ms.count(), 1);
    }

    #[test]
    fn unknown_lsns_are_ignored() {
        // Heartbeat LSNs (and pre-template LSNs) never enter the map.
        let mut w = StalenessWaterfall::new(1);
        assert_eq!(w.on_deliver(0, 999, t(5)), None);
        w.on_apply_start(0, 999, t(6));
        assert_eq!(w.on_applied(0, 999, t(7)), None);
        w.on_slave_read(0, 999, t(8));
        assert_eq!(w.legs()[0].e2e_ms.count(), 0);
    }

    #[test]
    fn read_cursor_assigns_first_read_only_once() {
        let mut w = StalenessWaterfall::new(1);
        for i in 0..3u64 {
            let tr = w.begin_write(t(i), t(i));
            w.on_service_start(tr, t(i), i, i + 1);
            w.on_commit(tr, t(i));
            w.on_deliver(0, i + 1, t(10 + i));
            w.on_apply_start(0, i + 1, t(10 + i));
            w.on_applied(0, i + 1, t(10 + i));
        }
        // One read observes all three; a later read observes nothing new.
        w.on_slave_read(0, 3, t(40));
        assert_eq!(w.legs()[0].first_read_ms.count(), 3);
        w.on_slave_read(0, 3, t(90));
        assert_eq!(w.legs()[0].first_read_ms.count(), 3);
    }

    #[test]
    fn writes_with_no_binlog_events_produce_no_inflight_entries() {
        let mut w = StalenessWaterfall::new(1);
        let tr = w.begin_write(t(0), t(0));
        w.on_service_start(tr, t(1), 7, 7); // appended nothing
        assert_eq!(w.on_commit(tr, t(2)), None);
        assert_eq!(w.inflight(), 0);
        assert_eq!(w.committed, 1, "still counts as a committed write");
    }

    #[test]
    fn fifo_cap_bounds_inflight_memory() {
        let mut w = StalenessWaterfall::new(1);
        for i in 0..(DEFAULT_MAX_INFLIGHT as u64 + 100) {
            let tr = w.begin_write(t(0), t(0));
            w.on_service_start(tr, t(0), i, i + 1);
            w.on_commit(tr, t(0));
        }
        assert_eq!(w.inflight(), DEFAULT_MAX_INFLIGHT);
        assert_eq!(w.evicted, 100);
    }

    #[test]
    fn inflight_cap_scales_with_constructor() {
        let mut w = StalenessWaterfall::with_inflight_cap(1, 16);
        assert_eq!(w.inflight_cap(), 16);
        for i in 0..40u64 {
            let tr = w.begin_write(t(0), t(0));
            w.on_service_start(tr, t(0), i, i + 1);
            w.on_commit(tr, t(0));
        }
        assert_eq!(w.inflight(), 16);
        assert_eq!(w.evicted, 24);
        assert_eq!(
            StalenessWaterfall::with_inflight_cap(1, 0).inflight_cap(),
            1
        );
    }

    #[test]
    fn epoch_reset_clears_inflight_but_keeps_sketches() {
        let mut w = StalenessWaterfall::new(1);
        let tr = w.begin_write(t(0), t(0));
        w.on_service_start(tr, t(0), 0, 1);
        w.on_commit(tr, t(1));
        w.on_deliver(0, 1, t(2));
        w.on_apply_start(0, 1, t(2));
        w.on_applied(0, 1, t(3));
        w.on_epoch_reset(1);
        assert_eq!(w.inflight(), 0);
        assert_eq!(w.legs()[0].e2e_ms.count(), 1, "history survives");
        // Old-epoch LSNs re-used by the new epoch start clean.
        assert_eq!(w.on_deliver(0, 1, t(9)), None);
    }

    #[test]
    fn scale_out_adds_a_leg_without_blocking_pruning() {
        let mut w = StalenessWaterfall::new(1);
        let tr = w.begin_write(t(0), t(0));
        w.on_service_start(tr, t(0), 0, 1);
        w.on_commit(tr, t(1));
        w.ensure_slaves(2);
        assert_eq!(w.n_slaves(), 2);
        w.on_deliver(0, 1, t(2));
        w.on_apply_start(0, 1, t(2));
        w.on_applied(0, 1, t(3));
        w.on_slave_read(0, 1, t(4));
        assert_eq!(w.inflight(), 0, "new slave owes nothing for old writes");
        assert_eq!(w.legs()[1].e2e_ms.count(), 0);
    }

    #[test]
    fn reseeded_slave_releases_the_writes_it_missed() {
        let mut w = StalenessWaterfall::new(2);
        for lsn in 1..=3 {
            let tr = w.begin_write(t(lsn), t(lsn));
            w.on_service_start(tr, t(lsn), lsn - 1, lsn);
            w.on_commit(tr, t(lsn + 1));
            w.on_deliver(1, lsn, t(10));
            w.on_apply_start(1, lsn, t(10));
            w.on_applied(1, lsn, t(11));
        }
        w.on_slave_read(1, 3, t(12));
        // Slave 0 failed before any of it arrived.
        assert_eq!(w.inflight(), 3, "slave 0 still owes every write");
        assert_eq!(w.oldest_inflight(), Some(t(2)));
        w.on_reseed(0);
        assert_eq!(w.inflight(), 0, "the snapshot covered them");
        assert_eq!(w.oldest_inflight(), None);
        let leg = &w.legs()[0];
        assert_eq!((leg.applied, leg.e2e_ms.count()), (0, 0), "no sketch fed");
        assert_eq!(leg.first_read_ms.count(), 0);
        // Writes after the re-seed are the replacement's to apply.
        let tr = w.begin_write(t(20), t(20));
        w.on_service_start(tr, t(20), 3, 4);
        w.on_commit(tr, t(21));
        assert_eq!(w.on_deliver(0, 4, t(22)), Some(tr));
        assert_eq!(w.on_applied(0, 4, t(23)), Some(tr));
        assert_eq!(w.legs()[0].applied, 1);
    }

    /// A write slave `slave` applies and reads through every stage.
    fn apply_and_read(w: &mut StalenessWaterfall, slave: usize, lsn: u64, at: u64) {
        w.on_deliver(slave, lsn, t(at));
        w.on_apply_start(slave, lsn, t(at));
        w.on_applied(slave, lsn, t(at + 1));
        w.on_slave_read(slave, lsn, t(at + 2));
    }

    #[test]
    fn a_down_slot_owes_no_stage_until_reseeded() {
        let mut w = StalenessWaterfall::new(2);
        let commit = |w: &mut StalenessWaterfall, lsn: u64| {
            let tr = w.begin_write(t(lsn), t(lsn));
            w.on_service_start(tr, t(lsn), lsn - 1, lsn);
            w.on_commit(tr, t(lsn));
        };
        commit(&mut w, 1);
        apply_and_read(&mut w, 1, 1, 5);
        assert_eq!(w.inflight(), 1, "slave 0 owes write 1");
        // A failed master takes slot 0: the write in flight is waived …
        w.on_slot_down(0);
        assert_eq!(w.inflight(), 0);
        // … and so is every write committed while the slot is down.
        commit(&mut w, 2);
        apply_and_read(&mut w, 1, 2, 10);
        assert_eq!(w.inflight(), 0, "write 2 waits on no down slot");
        // A master failover's epoch reset keeps the slot down.
        w.on_epoch_reset(2);
        commit(&mut w, 1);
        apply_and_read(&mut w, 1, 1, 20);
        assert_eq!(w.inflight(), 0);
        assert_eq!(w.legs()[0].applied, 0, "a down slot feeds no sketch");
        // A replacement fills the slot: later writes are its to apply.
        w.on_reseed(0);
        commit(&mut w, 2);
        apply_and_read(&mut w, 1, 2, 30);
        assert_eq!(w.inflight(), 1, "the replacement owes write 2");
        apply_and_read(&mut w, 0, 2, 31);
        assert_eq!(w.inflight(), 0);
        assert_eq!(w.legs()[0].applied, 1);
        // With every slot down a commit leaves nothing in flight.
        let mut solo = StalenessWaterfall::new(1);
        solo.on_slot_down(0);
        commit(&mut solo, 1);
        assert_eq!(solo.inflight(), 0);
    }

    /// The first read of a write on a slave comes after that slave applied
    /// it; a read that gets there first means a stage was keyed to the
    /// wrong event.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before applying it")]
    fn a_read_before_the_apply_is_a_keying_bug() {
        let mut w = StalenessWaterfall::new(1);
        let tr = w.begin_write(t(0), t(0));
        w.on_service_start(tr, t(0), 0, 1);
        w.on_commit(tr, t(1));
        w.on_deliver(0, 1, t(2));
        w.on_slave_read(0, 1, t(3));
    }

    #[test]
    fn table_renders_one_row_per_leg() {
        let w = StalenessWaterfall::new(3);
        let r = w.table().render();
        assert!(r.contains("client"));
        assert!(r.contains("slave0") && r.contains("slave2"));
    }
}
