//! The paper's replication-delay instrumentation (§III-A).
//!
//! A `heartbeat` table is created on every replica. A plug-in inserts a row
//! `(global id, NOW_MICROS())` on the **master** once per second. Under
//! *statement* replication each slave re-executes the insert and commits the
//! same global id with **its own** local microsecond timestamp; under *row*
//! replication the shipped row image carries the master's timestamp
//! verbatim, so the slave-side instant is read from the engine's
//! out-of-band apply stamp instead ([`amdb_sql::Engine::apply_time_of`] —
//! without it every row-format heartbeat measured a delay of exactly zero).
//! The replication delay of heartbeat `i` on a slave is then
//! `slave_time(i) − master_ts(i)` — polluted by the clock offset between
//! the two VMs, which the paper cancels by reporting *relative* delay
//! (loaded minus idle, both 5 %-per-tail trimmed; see
//! `amdb_obs::metrics::trimmed_mean`).

use amdb_sql::{Engine, Session, SqlError, Value};

/// Name of the heartbeat table.
pub const HEARTBEAT_TABLE: &str = "heartbeat";

/// DDL for the heartbeat table (mirrors the paper's Heartbeats database: "a
/// 'heartbeat' table which records an id and a timestamp in each row").
pub const HEARTBEAT_SCHEMA: &str =
    "CREATE TABLE heartbeat (id INT PRIMARY KEY, ts TIMESTAMP NOT NULL)";

/// Generates heartbeat inserts with monotonically increasing global ids.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatPlugin {
    next_id: i64,
}

impl HeartbeatPlugin {
    /// New plugin starting at id 1.
    pub fn new() -> Self {
        Self { next_id: 1 }
    }

    /// Ids issued so far.
    pub fn issued(&self) -> i64 {
        self.next_id - 1
    }

    /// Produce the next heartbeat statement `(sql, params)`. The SQL leaves
    /// `NOW_MICROS()` unexpanded so statement-based replication re-evaluates
    /// it per replica.
    pub fn next_insert(&mut self) -> (String, Vec<Value>) {
        let id = self.next_id;
        self.next_id += 1;
        (
            "INSERT INTO heartbeat (id, ts) VALUES (?, NOW_MICROS())".to_string(),
            vec![Value::Int(id)],
        )
    }
}

/// One matched heartbeat: master and slave commit timestamps (local clocks,
/// µs) and the resulting measured delay.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatSample {
    pub id: i64,
    pub master_ts_micros: i64,
    pub slave_ts_micros: i64,
}

impl HeartbeatSample {
    /// Measured delay in milliseconds (includes clock offset; may be
    /// negative when the slave clock runs behind).
    pub fn delay_ms(&self) -> f64 {
        (self.slave_ts_micros - self.master_ts_micros) as f64 / 1e3
    }
}

/// Join the heartbeat tables of a master and a slave and return all matched
/// samples ordered by id. Heartbeats not yet applied on the slave are absent
/// (their delay is still open-ended).
pub fn collect_samples(
    master: &mut Engine,
    slave: &mut Engine,
) -> Result<Vec<HeartbeatSample>, SqlError> {
    let mut ms = Session::new();
    let mut ss = Session::new();
    let m = master.execute(&mut ms, "SELECT id, ts FROM heartbeat ORDER BY id", &[])?;
    let s = slave.execute(&mut ss, "SELECT id, ts FROM heartbeat ORDER BY id", &[])?;

    // Schema affinity guarantees id reads as Int and ts as Timestamp (the
    // engine normalizes stored values in `Table::validate`); anything else
    // is a corrupt heartbeat table and reports as a typed error, not a
    // panic in the middle of an experiment run.
    let to_pair = |row: &Vec<Value>| -> Result<(i64, i64), SqlError> {
        let id = match row[0] {
            Value::Int(i) => i,
            ref v => {
                return Err(SqlError::TypeMismatch(format!(
                    "heartbeat id must be INT, got {v}"
                )))
            }
        };
        let ts = match row[1] {
            Value::Timestamp(t) => t,
            ref v => {
                return Err(SqlError::TypeMismatch(format!(
                    "heartbeat ts must be TIMESTAMP, got {v}"
                )))
            }
        };
        Ok((id, ts))
    };

    let slave_map: std::collections::BTreeMap<i64, i64> = s
        .rows
        .iter()
        .map(&to_pair)
        .collect::<Result<_, SqlError>>()?;
    let mut out = Vec::with_capacity(slave_map.len());
    for row in &m.rows {
        let (id, master_ts) = to_pair(row)?;
        if let Some(&stored_ts) = slave_map.get(&id) {
            // Row-applied heartbeats stored the master's timestamp verbatim;
            // their true local commit instant lives in the apply stamp.
            // Statement-applied heartbeats re-evaluated NOW_MICROS() against
            // the slave clock, so the stored value already is that instant.
            let slave_ts = slave
                .apply_time_of(HEARTBEAT_TABLE, &Value::Int(id))
                .map(|at| at as i64)
                .unwrap_or(stored_ts);
            out.push(HeartbeatSample {
                id,
                master_ts_micros: master_ts,
                slave_ts_micros: slave_ts,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_sql::{BinlogFormat, Lsn};

    #[test]
    fn plugin_issues_sequential_ids() {
        let mut hb = HeartbeatPlugin::new();
        let (sql, p1) = hb.next_insert();
        let (_, p2) = hb.next_insert();
        assert!(sql.contains("NOW_MICROS()"));
        assert_eq!(p1, vec![Value::Int(1)]);
        assert_eq!(p2, vec![Value::Int(2)]);
        assert_eq!(hb.issued(), 2);
    }

    #[test]
    fn end_to_end_delay_measurement() {
        let mut master = Engine::new_master(BinlogFormat::Statement);
        let mut slave = Engine::new_slave();
        let mut ms = Session::new();
        master.execute_batch(&mut ms, HEARTBEAT_SCHEMA).unwrap();

        let mut hb = HeartbeatPlugin::new();
        // Three heartbeats at master-local times 1s, 2s, 3s.
        for t in 1..=3i64 {
            ms.now_micros = t * 1_000_000;
            let (sql, params) = hb.next_insert();
            master.execute(&mut ms, &sql, &params).unwrap();
        }
        // Slave applies them 250 ms (of slave-local clock) later each. The
        // first binlog event is the CREATE TABLE DDL; heartbeats follow.
        let events: Vec<_> = master.binlog_from(Lsn(0)).to_vec();
        slave.apply_event(&events[0], 0).unwrap();
        for (i, ev) in events[1..].iter().enumerate() {
            let slave_now = (i as i64 + 1) * 1_000_000 + 250_000;
            slave.apply_event(ev, slave_now).unwrap();
        }

        let samples = collect_samples(&mut master, &mut slave).unwrap();
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(
                (s.delay_ms() - 250.0).abs() < 1e-9,
                "delay {}",
                s.delay_ms()
            );
        }
    }

    #[test]
    fn row_format_delay_reads_apply_stamp_not_shipped_timestamp() {
        // Regression: under ROW binlog format the shipped heartbeat row
        // carries the master's timestamp verbatim, so reading delay from
        // stored data alone reported exactly 0 ms for every heartbeat no
        // matter how far the slave lagged.
        let mut master = Engine::new_master(BinlogFormat::Row);
        let mut slave = Engine::new_slave();
        let mut ms = Session::new();
        master.execute_batch(&mut ms, HEARTBEAT_SCHEMA).unwrap();

        let mut hb = HeartbeatPlugin::new();
        for t in 1..=3i64 {
            ms.now_micros = t * 1_000_000;
            let (sql, params) = hb.next_insert();
            master.execute(&mut ms, &sql, &params).unwrap();
        }
        // Slave applies each heartbeat 250 ms of slave-local clock later.
        let events: Vec<_> = master.binlog_from(Lsn(0)).to_vec();
        slave.apply_event(&events[0], 0).unwrap();
        for (i, ev) in events[1..].iter().enumerate() {
            let slave_now = (i as i64 + 1) * 1_000_000 + 250_000;
            slave.apply_event(ev, slave_now).unwrap();
        }

        let samples = collect_samples(&mut master, &mut slave).unwrap();
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(
                (s.delay_ms() - 250.0).abs() < 1e-9,
                "row-format heartbeat {} must show the real 250 ms lag, got {} ms",
                s.id,
                s.delay_ms()
            );
        }
    }

    #[test]
    fn unapplied_heartbeats_are_absent() {
        let mut master = Engine::new_master(BinlogFormat::Statement);
        let mut slave = Engine::new_slave();
        let mut ms = Session::new();
        master.execute_batch(&mut ms, HEARTBEAT_SCHEMA).unwrap();
        let mut hb = HeartbeatPlugin::new();
        for _ in 0..3 {
            let (sql, params) = hb.next_insert();
            master.execute(&mut ms, &sql, &params).unwrap();
        }
        // Apply only the schema + first heartbeat.
        let events: Vec<_> = master.binlog_from(Lsn(0)).to_vec();
        for ev in &events[..2] {
            slave.apply_event(ev, 0).unwrap();
        }
        let samples = collect_samples(&mut master, &mut slave).unwrap();
        assert_eq!(samples.len(), 1, "two heartbeats still in flight");
        assert_eq!(samples[0].id, 1);
    }

    #[test]
    fn corrupt_heartbeat_table_reports_typed_error() {
        // A heartbeat table with the wrong ts affinity (INT instead of
        // TIMESTAMP) used to hit an `unreachable!`; it must surface as a
        // typed SqlError so experiment drivers can fail cleanly.
        let mut master = Engine::new_master(BinlogFormat::Statement);
        let mut slave = Engine::new_slave();
        let mut ms = Session::new();
        master
            .execute_batch(
                &mut ms,
                "CREATE TABLE heartbeat (id INT PRIMARY KEY, ts INT NOT NULL)",
            )
            .unwrap();
        master
            .execute(
                &mut ms,
                "INSERT INTO heartbeat (id, ts) VALUES (1, 42)",
                &[],
            )
            .unwrap();
        for ev in master.binlog_from(Lsn(0)).to_vec() {
            slave.apply_event(&ev, 0).unwrap();
        }
        let err = collect_samples(&mut master, &mut slave).unwrap_err();
        assert!(matches!(err, SqlError::TypeMismatch(_)), "got {err}");
        assert!(err.to_string().contains("heartbeat ts"), "got {err}");
    }

    #[test]
    fn negative_delay_possible_with_clock_skew() {
        let s = HeartbeatSample {
            id: 1,
            master_ts_micros: 1_000_000,
            slave_ts_micros: 998_500,
        };
        assert!((s.delay_ms() + 1.5).abs() < 1e-9);
    }
}
