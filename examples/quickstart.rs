//! Quickstart: an in-memory master-slave replicated SQL database.
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example quickstart -- --binlog-format row --apply-workers 4
//! ```
//!
//! Shows the untimed replication API (`amdb::repl::ReplicatedDb`): writes go
//! to the master, reads to slaves, writesets ship via the binlog, and slaves
//! are stale until the replication middleware pumps — exactly the
//! asynchronous master-slave architecture the paper studies. Then runs a
//! small *timed* cluster with observability on: the online
//! SLO engine prints a deterministic alert timeline (delay surges come
//! attributed to the saturated resource), the staleness waterfall shows
//! where each slave's replication delay accrued, and the trace lands in
//! `quickstart_trace.json` — open it in `chrome://tracing` or Perfetto to
//! watch the simulated reads, writes, replication applies, and the flow
//! arrows tying each traced write to its applies on every slave.

use amdb::cloudstone::{DataSize, MixConfig, WorkloadConfig};
use amdb::core::{run_cell, BackendKind, CellRun, ClusterConfig, ObsConfig};
use amdb::repl::ReplicatedDb;
use amdb::sql::Value;
use amdb::telemetry::AlertKind;

/// `--binlog-format {statement|row}` and `--apply-workers N`. The defaults
/// (statement, 1) reproduce MySQL's classic serial-apply setup; N > 1 needs
/// row format and turns on the writeset-dependency parallel apply scheduler.
fn parse_args() -> (BackendKind, usize) {
    let (mut format, mut workers) = (BackendKind::Statement, 1usize);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--binlog-format" => {
                format = match args.next().as_deref() {
                    Some("row") => BackendKind::Row,
                    Some("statement") => BackendKind::Statement,
                    other => panic!("--binlog-format expects statement|row, got {other:?}"),
                }
            }
            "--apply-workers" => {
                workers = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--apply-workers expects a positive integer")
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        workers == 1 || format == BackendKind::Row,
        "--apply-workers {workers} needs --binlog-format row: statement events carry no writesets"
    );
    (format, workers)
}

fn main() {
    let (format, workers) = parse_args();
    // One master, two slaves, MySQL-style replication (statement-based by
    // default; `--binlog-format row` ships row images instead).
    let mut db = ReplicatedDb::with_backend(format, 2);
    db.set_apply_workers(workers);

    db.execute_master(
        "CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, \
         author VARCHAR(64) NOT NULL, body TEXT, created_at TIMESTAMP NOT NULL)",
        &[],
    )
    .expect("schema");
    db.pump().expect("replicate DDL");

    // Writes are routed to the master only.
    db.set_now_micros(1_000_000);
    db.execute_master(
        "INSERT INTO posts (author, body, created_at) VALUES (?, ?, NOW_MICROS())",
        &[Value::from("alice"), Value::from("hello, replicated world")],
    )
    .expect("insert");

    // Asynchronous replication: the slaves have not applied the write yet.
    let stale = db
        .execute_slave(0, "SELECT COUNT(*) FROM posts", &[])
        .expect("read");
    println!(
        "slave 0 before pump: {} posts (stale read!)",
        stale.rows[0][0]
    );

    // The middleware ships the binlog and the slaves apply it.
    let applied = db.pump().expect("pump");
    println!("pumped {applied} binlog event(s) to 2 slaves");

    for s in 0..db.n_slaves() {
        let fresh = db
            .execute_slave(s, "SELECT author, body FROM posts ORDER BY id", &[])
            .expect("read");
        println!(
            "slave {s} after pump: {} — \"{}\"",
            fresh.rows[0][0], fresh.rows[0][1]
        );
    }

    // Reads can use the full SQL subset: joins, aggregates, ordering.
    db.execute_master(
        "INSERT INTO posts (author, body, created_at) VALUES \
         ('bob', 'second post', NOW_MICROS()), ('alice', 'third', NOW_MICROS())",
        &[],
    )
    .expect("more inserts");
    db.pump().expect("pump");
    let agg = db
        .execute_slave(
            1,
            "SELECT author, COUNT(*) AS n FROM posts GROUP BY author ORDER BY n DESC",
            &[],
        )
        .expect("aggregate");
    println!("posts per author (read from slave 1):");
    for row in &agg.rows {
        println!("  {:>6}: {}", row[0], row[1]);
    }

    // Part two: the timed simulation, with observability (and so
    // telemetry) on. Same architecture, but users/pool/proxy/CPUs/replication all run
    // under the discrete-event clock, every layer traces what it does, and
    // the online SLO engine watches the replication delay as it runs.
    let CellRun {
        report,
        obs,
        bottleneck,
        telemetry,
    } = run_cell(
        ClusterConfig::builder()
            .slaves(2)
            .mix(MixConfig::RW_50_50)
            .data_size(DataSize { scale: 100 })
            .workload(WorkloadConfig::quick(120))
            .backend(format)
            .apply_workers(workers)
            .observability(ObsConfig {
                enabled: true,
                sample_interval_ms: 1_000,
                tsdb: true,
            })
            .seed(42)
            .build(),
        None,
    )
    .expect("the config validates");
    let telemetry = telemetry.expect("observability was enabled");
    println!();
    println!(
        "timed run: {:.1} ops/s steady, staleness {:?} ms",
        report.throughput_ops_s,
        report.avg_relative_delay_ms().map(|d| d.round())
    );
    println!("{}", bottleneck.render());

    // The telemetry bundle: where each slave's replication delay accrued
    // (network / queueing / apply legs) and the deterministic alert
    // timeline the SLO engine produced while the run was still going.
    println!("{}", telemetry.waterfall.table().render());
    println!("alert timeline:");
    if telemetry.slo.alerts().is_empty() {
        println!("  (no alerts — the run stayed within SLO)");
    }
    for a in telemetry.slo.alerts() {
        let kind = match a.kind {
            AlertKind::Fire => "FIRE ",
            AlertKind::Clear => "clear",
        };
        let why = match &a.attribution {
            Some(res) => format!(" — attributed to {res}"),
            None => String::new(),
        };
        println!(
            "  [{:>6.1}s] {kind} {} inst={} value={:.1}{why}",
            a.at.as_secs_f64(),
            a.rule,
            a.inst,
            a.value
        );
    }
    println!();
    let json = obs.chrome_trace().expect("observability was enabled");
    match std::fs::write("quickstart_trace.json", &json) {
        Ok(()) => println!(
            "wrote quickstart_trace.json ({} bytes) — open in chrome://tracing",
            json.len()
        ),
        Err(e) => eprintln!("quickstart_trace.json: {e}"),
    }
}
