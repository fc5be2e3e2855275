//! # amdb-repl — master-slave replication middleware
//!
//! The paper's database tier is MySQL master-slave replication: "read
//! transactions are served by slaves while all the write transactions are
//! only served by the master. The replication middleware is in charge of
//! passing writesets from the master to slaves in order to keep the database
//! replicas up-to-date" (§II).
//!
//! This crate provides:
//!
//! * [`ReplMode`] — asynchronous (the paper's configuration), semi-
//!   synchronous and synchronous commit disciplines (§II discusses the
//!   trade-off; ablation A1 measures it);
//! * [`RelayQueue`] — the slave-side relay log fed by the I/O thread and
//!   drained in order by the single SQL apply thread;
//! * [`heartbeat`] — the paper's replication-delay instrumentation: a
//!   heartbeat table written on the master once per second with a global id
//!   and a microsecond local timestamp; statement-based replication
//!   re-executes the insert on each slave with the slave's own clock, and
//!   the delay is the difference of the two timestamps (§III-A);
//! * [`BackendKind`] — binlog fan-out (statement or row) vs. the
//!   Taurus-style shared log, so the experiments can compare the designs;
//! * [`logstore`] — the quorum-replicated shared log service with
//!   per-replica fault timelines, retry/timeout/backoff and the timed
//!   quorum arithmetic ([`LogStore::append_at`]);
//! * [`ReplicatedDb`] — an untimed master+slaves bundle for direct library
//!   use (ship/apply immediately); the *timed* cluster lives in `amdb-core`.

pub mod backend;
pub mod heartbeat;
pub mod logstore;
pub mod relay;

pub use backend::BackendKind;
pub use heartbeat::{
    collect_samples, HeartbeatPlugin, HeartbeatSample, HEARTBEAT_SCHEMA, HEARTBEAT_TABLE,
};
pub use logstore::{
    AckResult, AckStats, AppendTiming, FaultTimeline, LogStore, LogStoreConfig, RetryPolicy,
};
pub use relay::RelayQueue;

use amdb_sql::{BinlogFormat, Engine, QueryResult, Session, SqlError, Value};

/// Commit discipline for replicated writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplMode {
    /// Return to the client as soon as the master commits; writesets
    /// propagate later (the paper's setup — "avoids high write latency over
    /// networks in exchange of stale data", §II).
    Async,
    /// Return once at least one slave has *received* the writeset.
    SemiSync,
    /// Return once every slave has *applied* the writeset ("makes sure that
    /// all replicas are consistent ... however traversing all replicas
    /// potentially incurs high latency on write transactions", §II).
    Sync,
}

impl ReplMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ReplMode::Async => "async",
            ReplMode::SemiSync => "semi-sync",
            ReplMode::Sync => "sync",
        }
    }
}

/// An untimed replicated database: one master, N slaves, manual pump.
///
/// Useful as a plain library ("give me MySQL-style replication in memory"):
/// writes go to the master, reads to a slave of the caller's choice, and
/// [`ReplicatedDb::pump`] ships and applies all outstanding writesets. The
/// cloud-timed version (network delays, CPU queueing, clock skew) is
/// `amdb_core::Cluster`.
pub struct ReplicatedDb {
    master: Engine,
    master_session: Session,
    slaves: Vec<(Engine, RelayQueue)>,
    /// The shared log's quorum state; `None` under binlog fan-out. Either
    /// way the master's binlog is the one copy of the events.
    log: Option<LogStore>,
    /// Logical clock fed to `NOW_MICROS()`; bump via [`Self::set_now_micros`].
    now_micros: i64,
    /// Simulated apply workers per slave (1 = the classic serial SQL
    /// thread). See [`Self::set_apply_workers`].
    apply_workers: usize,
}

impl ReplicatedDb {
    /// Build a replicated database with `n_slaves` empty slaves, on the
    /// binlog fan-out backend matching `format`.
    pub fn new(format: BinlogFormat, n_slaves: usize) -> Self {
        let kind = match format {
            BinlogFormat::Statement => BackendKind::Statement,
            BinlogFormat::Row => BackendKind::Row,
        };
        Self::with_backend(kind, n_slaves)
    }

    /// Build a replicated database on an explicit backend kind (the binlog
    /// format follows the backend: shared log ships row images).
    pub fn with_backend(kind: BackendKind, n_slaves: usize) -> Self {
        Self {
            master: Engine::new_master(kind.format()),
            master_session: Session::new(),
            slaves: (0..n_slaves)
                .map(|_| (Engine::new_slave(), RelayQueue::new()))
                .collect(),
            log: (kind == BackendKind::SharedLog).then(|| LogStore::new(LogStoreConfig::default())),
            now_micros: 0,
            apply_workers: 1,
        }
    }

    /// The shared log's quorum state machine, `None` under binlog fan-out
    /// (tests crash, truncate and heal log replicas here between pumps).
    pub fn log_mut(&mut self) -> Option<&mut LogStore> {
        self.log.as_mut()
    }

    /// Number of slaves.
    pub fn n_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// Set the simulated apply-worker count per slave. With `n > 1`,
    /// [`Self::apply_all`] drains each relay in writeset-dependency batches
    /// planned by `amdb-apply` (still committing in LSN order); with 1 it
    /// uses the plain serial loop. Final contents are identical either way —
    /// the regression tests pin that.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn set_apply_workers(&mut self, n: usize) {
        assert!(n >= 1, "apply requires at least one worker");
        self.apply_workers = n;
    }

    /// Configured apply workers per slave.
    pub fn apply_workers(&self) -> usize {
        self.apply_workers
    }

    /// Set the logical wall clock used for `NOW_MICROS()` and commit stamps.
    pub fn set_now_micros(&mut self, micros: i64) {
        self.now_micros = micros;
    }

    /// Execute a write (or any statement) on the master.
    pub fn execute_master(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult, SqlError> {
        self.master_session.now_micros = self.now_micros;
        self.master.execute(&mut self.master_session, sql, params)
    }

    /// Execute a read on slave `i` (sees only applied writesets — reads are
    /// stale until [`Self::pump`] runs, exactly like async replication).
    pub fn execute_slave(
        &mut self,
        i: usize,
        sql: &str,
        params: &[Value],
    ) -> Result<QueryResult, SqlError> {
        let (engine, _) = &mut self.slaves[i];
        let mut session = Session::new();
        session.now_micros = self.now_micros;
        engine.execute(&mut session, sql, params)
    }

    /// Ship all new binlog events into every slave's relay queue (the I/O
    /// threads catching up), without applying. Each relay tails the master's
    /// binlog — all of it under binlog fan-out; under the shared log only
    /// the *durable* prefix, so a relay never sees a record the quorum has
    /// not acked (a replica must never apply a write that a failover could
    /// retract).
    pub fn ship(&mut self) {
        let head = self.master.binlog().head();
        let mut durable = head;
        if let Some(log) = &mut self.log {
            let new = head.0 - log.appended_upto().0;
            if new > 0 {
                // Untimed model: every live replica persists and acks in
                // the same pump. The timed cluster spreads these acks over
                // simulated time.
                log.append(new);
                for r in 0..log.config().replicas {
                    if log.replica_alive(r) {
                        log.ack(r, head);
                    }
                }
            }
            durable = log.durable_upto();
        }
        for (_, relay) in &mut self.slaves {
            let from = relay.received_upto();
            let durable_len = durable.0.saturating_sub(from.0) as usize;
            let tail = &self.master.binlog_from(from)[..durable_len];
            relay.receive(tail.iter().cloned());
        }
    }

    /// Apply everything queued on every slave. Returns events applied.
    pub fn apply_all(&mut self) -> Result<usize, SqlError> {
        let mut applied = 0;
        for (engine, relay) in &mut self.slaves {
            if self.apply_workers <= 1 {
                // Classic single SQL thread.
                while let Some(ev) = relay.pop_next() {
                    engine.apply_event(&ev, self.now_micros)?;
                    relay.mark_applied(ev.lsn);
                    applied += 1;
                }
            } else {
                let mut sched = amdb_apply::ApplyScheduler::new(self.apply_workers);
                loop {
                    let plan = sched.plan_batch(relay.iter(), |t| engine.pk_index_of(t));
                    if plan.len == 0 {
                        break;
                    }
                    // The batch commits in LSN order: pop order *is* LSN
                    // order, and no later event is touched before every
                    // earlier one in the batch has applied.
                    for _ in 0..plan.len {
                        let ev = relay.pop_next().expect("planned events are queued");
                        engine.apply_event(&ev, self.now_micros)?;
                        relay.mark_applied(ev.lsn);
                        applied += 1;
                    }
                }
            }
        }
        Ok(applied)
    }

    /// Ship then apply: brings every slave fully up to date.
    pub fn pump(&mut self) -> Result<usize, SqlError> {
        self.ship();
        self.apply_all()
    }

    /// Direct access to the master engine (e.g. for schema checks).
    pub fn master(&self) -> &Engine {
        &self.master
    }

    /// Direct access to a slave engine.
    pub fn slave(&self, i: usize) -> &Engine {
        &self.slaves[i].0
    }

    /// The relay queue of slave `i` (for staleness inspection).
    pub fn relay(&self, i: usize) -> &RelayQueue {
        &self.slaves[i].1
    }

    /// The master's GTID-style watermark: writesets committed (and therefore
    /// stamped with a monotone sequence) so far. The binlog LSN *is* the
    /// sequence — `master_seq() == n` means sequences `1..=n` exist.
    pub fn master_seq(&self) -> u64 {
        self.master.binlog().head().0
    }

    /// Sequence slave `i`'s SQL thread has applied up to.
    pub fn applied_seq(&self, i: usize) -> u64 {
        self.slaves[i].1.applied_upto().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> ReplicatedDb {
        let mut db = ReplicatedDb::new(BinlogFormat::Statement, n);
        db.execute_master(
            "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(32) NOT NULL)",
            &[],
        )
        .unwrap();
        db.pump().unwrap();
        db
    }

    #[test]
    fn writes_replicate_to_all_slaves() {
        let mut db = setup(3);
        db.execute_master("INSERT INTO users VALUES (1, 'a'), (2, 'b')", &[])
            .unwrap();
        db.pump().unwrap();
        for i in 0..3 {
            let r = db
                .execute_slave(i, "SELECT COUNT(*) FROM users", &[])
                .unwrap();
            assert_eq!(r.rows[0][0], Value::Int(2), "slave {i}");
        }
    }

    #[test]
    fn watermarks_track_ship_and_apply() {
        let mut db = setup(2);
        let base = db.master_seq();
        assert_eq!(db.applied_seq(0), base, "setup pumped everything");
        db.execute_master("INSERT INTO users VALUES (1, 'a')", &[])
            .unwrap();
        db.execute_master("INSERT INTO users VALUES (2, 'b')", &[])
            .unwrap();
        assert_eq!(db.master_seq(), base + 2);
        // Not shipped yet: slaves unchanged on both threads.
        assert_eq!(db.relay(0).received_upto().0, base);
        assert_eq!(db.applied_seq(1), base);
        db.ship();
        assert_eq!(
            db.relay(0).received_upto().0,
            base + 2,
            "I/O thread caught up"
        );
        assert_eq!(db.applied_seq(0), base, "SQL thread has not");
        db.apply_all().unwrap();
        for i in 0..2 {
            assert_eq!(db.applied_seq(i), base + 2, "slave {i}");
        }
    }

    #[test]
    fn reads_are_stale_until_pumped() {
        let mut db = setup(1);
        db.execute_master("INSERT INTO users VALUES (1, 'a')", &[])
            .unwrap();
        let r = db
            .execute_slave(0, "SELECT COUNT(*) FROM users", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0), "asynchronous: not yet applied");
        db.pump().unwrap();
        let r = db
            .execute_slave(0, "SELECT COUNT(*) FROM users", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1), "eventually consistent");
    }

    #[test]
    fn ship_without_apply_fills_relay_only() {
        let mut db = setup(1);
        db.execute_master("INSERT INTO users VALUES (1, 'a')", &[])
            .unwrap();
        db.ship();
        assert_eq!(db.relay(0).queued(), 1);
        let r = db
            .execute_slave(0, "SELECT COUNT(*) FROM users", &[])
            .unwrap();
        assert_eq!(
            r.rows[0][0],
            Value::Int(0),
            "relay received but not applied"
        );
        db.apply_all().unwrap();
        assert_eq!(db.relay(0).queued(), 0);
    }

    #[test]
    fn incremental_shipping_is_idempotent() {
        let mut db = setup(2);
        db.execute_master("INSERT INTO users VALUES (1, 'a')", &[])
            .unwrap();
        db.ship();
        db.ship(); // second ship must not duplicate events
        assert_eq!(db.relay(0).queued(), 1);
        db.apply_all().unwrap();
        db.execute_master("INSERT INTO users VALUES (2, 'b')", &[])
            .unwrap();
        db.pump().unwrap();
        let r = db
            .execute_slave(1, "SELECT COUNT(*) FROM users", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn updates_and_deletes_replicate() {
        let mut db = setup(1);
        db.execute_master("INSERT INTO users VALUES (1, 'a'), (2, 'b')", &[])
            .unwrap();
        db.execute_master("UPDATE users SET name = 'z' WHERE id = 1", &[])
            .unwrap();
        db.execute_master("DELETE FROM users WHERE id = 2", &[])
            .unwrap();
        db.pump().unwrap();
        let r = db
            .execute_slave(0, "SELECT name FROM users ORDER BY id", &[])
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("z")]]);
    }

    #[test]
    fn row_format_replicates_identically() {
        let mut db = ReplicatedDb::new(BinlogFormat::Row, 2);
        db.execute_master("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)", &[])
            .unwrap();
        db.execute_master("INSERT INTO t VALUES (1, 0.5)", &[])
            .unwrap();
        db.execute_master("UPDATE t SET v = v * 4 WHERE id = 1", &[])
            .unwrap();
        db.pump().unwrap();
        for i in 0..2 {
            let r = db.execute_slave(i, "SELECT v FROM t", &[]).unwrap();
            assert_eq!(r.rows[0][0], Value::Double(2.0));
        }
    }

    #[test]
    fn batched_apply_matches_serial_contents() {
        let run = |workers: usize| {
            let mut db = ReplicatedDb::new(BinlogFormat::Row, 2);
            db.set_apply_workers(workers);
            db.execute_master("CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[])
                .unwrap();
            for i in 0..20 {
                db.execute_master(
                    "INSERT INTO t VALUES (?, ?)",
                    &[Value::Int(i), Value::Int(0)],
                )
                .unwrap();
            }
            // Repeated conflicting updates on a small key range plus a DDL
            // barrier mid-stream.
            for i in 0..40 {
                db.execute_master("UPDATE t SET v = v + 1 WHERE id = ?", &[Value::Int(i % 5)])
                    .unwrap();
                if i == 17 {
                    db.execute_master("CREATE INDEX iv ON t (v)", &[]).unwrap();
                }
            }
            db.pump().unwrap();
            assert_eq!(
                db.applied_seq(0),
                db.master_seq(),
                "workers={workers}: fully drained"
            );
            (
                db.master().fingerprint(),
                db.slave(0).fingerprint(),
                db.slave(1).fingerprint(),
            )
        };
        let serial = run(1);
        assert_eq!(serial.0, serial.1, "slave converged to master contents");
        for workers in [2, 4, 8] {
            assert_eq!(
                run(workers),
                serial,
                "workers={workers} diverged from serial apply"
            );
        }
    }

    #[test]
    fn shared_log_backend_gates_delivery_on_quorum() {
        assert!(ReplicatedDb::with_backend(BackendKind::Row, 1)
            .log_mut()
            .is_none());
        let mut db = ReplicatedDb::with_backend(BackendKind::SharedLog, 1);
        db.execute_master("CREATE TABLE t (id INT PRIMARY KEY)", &[])
            .unwrap();
        db.pump().unwrap();
        // Two of three log replicas down: quorum unreachable.
        {
            let log = db.log_mut().expect("shared-log backend");
            log.crash_replica(1);
            log.crash_replica(2);
        }
        db.execute_master("INSERT INTO t VALUES (1)", &[]).unwrap();
        db.pump().unwrap();
        let r = db.execute_slave(0, "SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(
            r.rows[0][0],
            Value::Int(0),
            "non-durable writes must not reach replicas"
        );
        // Quorum restored: the suffix becomes durable and ships.
        {
            let log = db.log_mut().expect("shared-log backend");
            log.heal_replica(1);
            let upto = log.appended_upto();
            log.ack(1, upto);
        }
        db.pump().unwrap();
        let r = db.execute_slave(0, "SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1), "durable suffix delivered");
    }

    #[test]
    fn mode_names() {
        assert_eq!(ReplMode::Async.name(), "async");
        assert_eq!(ReplMode::SemiSync.name(), "semi-sync");
        assert_eq!(ReplMode::Sync.name(), "sync");
    }
}
