//! Cross-crate integration: Cloudstone workload → SQL engine → binlog →
//! relay → replica apply, end to end (untimed path).

use amdb::cloudstone::{build_template, DataSize, MixConfig, OpClass, OpGenerator};
use amdb::repl::{collect_samples, HeartbeatPlugin, ReplicatedDb};
use amdb::sim::Rng;
use amdb::sql::{BinlogFormat, ForkRole, Lsn, Session, Value};

/// Every generated Cloudstone operation, executed through the replication
/// pipeline, leaves all replicas identical after a pump.
#[test]
fn cloudstone_workload_replicates_exactly() {
    let mut rng = Rng::new(77);
    let (template, counters) = build_template(DataSize { scale: 15 }, &mut rng);
    let mut master = template.fork(ForkRole::Master(BinlogFormat::Statement));
    let mut slave = template.fork(ForkRole::Slave);
    let mut gen = OpGenerator::new(counters, rng.derive("ops"));
    let mut session = Session::new();

    let mut shipped = Lsn(0);
    for step in 0..400 {
        session.now_micros = step * 50_000;
        let op = gen.generate(MixConfig::RW_50_50);
        if op.class == OpClass::Write {
            for (sql, params) in &op.statements {
                master.execute(&mut session, sql, params).expect("write");
            }
        }
        // Ship and apply incrementally every few steps.
        if step % 7 == 0 {
            for ev in master.binlog_from(shipped).to_vec() {
                slave.apply_event(&ev, session.now_micros).expect("apply");
                shipped = Lsn(ev.lsn.0 + 1);
            }
        }
    }
    for ev in master.binlog_from(shipped).to_vec() {
        slave.apply_event(&ev, 0).expect("final apply");
    }

    for table in ["users", "events", "event_tags", "attendees", "comments"] {
        assert_eq!(
            master.table_rows(table),
            slave.table_rows(table),
            "table {table} diverged"
        );
    }
}

/// The heartbeat instrumentation measures exactly the injected delay, end to
/// end through SQL, binlog encoding, and re-execution.
#[test]
fn heartbeat_measures_injected_delay() {
    let mut db = ReplicatedDb::new(BinlogFormat::Statement, 1);
    db.execute_master(amdb::repl::HEARTBEAT_SCHEMA, &[])
        .expect("schema");
    db.pump().expect("pump schema");

    let mut hb = HeartbeatPlugin::new();
    // Master commits at t, slave applies at t + 400ms (slave clock).
    for t in 1..=20i64 {
        db.set_now_micros(t * 1_000_000);
        let (sql, params) = hb.next_insert();
        db.execute_master(&sql, &params).expect("hb insert");
        db.set_now_micros(t * 1_000_000 + 400_000);
        db.pump().expect("pump");
    }

    // Pull both tables through SQL and verify the measured delays.
    let samples = {
        // Use the crate-level collector on raw engines.
        let mut m = db.master().fork(ForkRole::Master(BinlogFormat::Statement));
        let mut s = db.slave(0).fork(ForkRole::Slave);
        collect_samples(&mut m, &mut s).expect("samples")
    };
    assert_eq!(samples.len(), 20);
    for s in &samples {
        assert!(
            (s.delay_ms() - 400.0).abs() < 1e-6,
            "heartbeat {} measured {} ms",
            s.id,
            s.delay_ms()
        );
    }
}

/// Statement-based replication transmits parameters as literals but
/// re-evaluates non-deterministic functions; row-based transmits values.
/// Both must agree on deterministic content.
#[test]
fn binlog_formats_agree_on_deterministic_content() {
    for format in [BinlogFormat::Statement, BinlogFormat::Row] {
        let mut db = ReplicatedDb::new(format, 1);
        db.execute_master(
            "CREATE TABLE t (id INT PRIMARY KEY, txt TEXT, num DOUBLE)",
            &[],
        )
        .expect("schema");
        db.execute_master(
            "INSERT INTO t VALUES (?, ?, ?)",
            &[
                Value::Int(1),
                Value::Text("quote ' and unicode é".into()),
                Value::Double(2.5),
            ],
        )
        .expect("insert");
        db.execute_master("UPDATE t SET num = num * 2 WHERE id = 1", &[])
            .expect("update");
        db.pump().expect("pump");
        let r = db
            .execute_slave(0, "SELECT txt, num FROM t WHERE id = 1", &[])
            .expect("read");
        assert_eq!(
            r.rows[0],
            vec![
                Value::Text("quote ' and unicode é".into()),
                Value::Double(5.0)
            ],
            "under {format:?}"
        );
    }
}

/// The umbrella crate re-exports every subsystem.
#[test]
fn umbrella_reexports_compile() {
    let _ = amdb::sim::SimTime::ZERO;
    let _ = amdb::net::Region::UsEast1;
    let _ = amdb::clock::DriftingClock::perfect();
    let _ = amdb::metrics::OnlineStats::new();
    let _ = amdb::cloudstone::DataSize::SMALL;
    let _ = amdb::core::ClusterConfig::builder();
}
