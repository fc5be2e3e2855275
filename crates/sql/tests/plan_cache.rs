//! Integration tests for the statement→plan cache: DDL staleness and
//! behaviour transparency (a cached engine must be indistinguishable from an
//! uncached one, result-for-result and error-for-error).

use amdb_sql::{BinlogFormat, Engine, Session, SqlError, Value};
use proptest::prelude::*;

fn master() -> (Engine, Session) {
    (Engine::new_master(BinlogFormat::Statement), Session::new())
}

fn seed_users(e: &mut Engine, s: &mut Session) {
    e.execute_batch(
        s,
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT NOT NULL, score DOUBLE);
         INSERT INTO users VALUES
           (1, 'alice', 10.0),
           (2, 'bob',   20.0),
           (3, 'alice', 30.0),
           (4, 'carol', 40.0);
         CREATE TABLE badges (id INT PRIMARY KEY, user_id INT NOT NULL, label TEXT);
         CREATE INDEX idx_badge_user ON badges (user_id);
         INSERT INTO badges VALUES (1, 1, 'gold'), (2, 1, 'tin'), (3, 3, 'gold'), (4, 4, NULL), (5, 9, 'lost')",
    )
    .expect("seed");
}

#[test]
fn create_index_after_cached_select_replans() {
    let (mut e, mut s) = master();
    seed_users(&mut e, &mut s);
    let q = "SELECT id FROM users WHERE name = 'alice' ORDER BY id";

    let scan = e.execute(&mut s, q, &[]).unwrap();
    // Re-run: the cached plan (full scan) is reused while still valid.
    let cached = e.execute(&mut s, q, &[]).unwrap();
    assert_eq!(scan, cached);
    assert!(e.plan_cache_stats().hits >= 1, "second run must hit");

    e.execute(&mut s, "CREATE INDEX idx_name ON users (name)", &[])
        .unwrap();
    let indexed = e.execute(&mut s, q, &[]).unwrap();
    // Same rows, but the stale full-scan plan must NOT be reused: the
    // replanned query goes through the index and examines fewer rows.
    assert_eq!(scan.rows, indexed.rows);
    assert!(
        indexed.rows_examined < scan.rows_examined,
        "index plan examines {} rows, full scan examined {}",
        indexed.rows_examined,
        scan.rows_examined
    );
}

#[test]
fn drop_table_after_cached_select_errors_cleanly() {
    let (mut e, mut s) = master();
    seed_users(&mut e, &mut s);
    let q = "SELECT id FROM users ORDER BY id";
    e.execute(&mut s, q, &[]).unwrap();
    e.execute(&mut s, "DROP TABLE users", &[]).unwrap();
    // The cached plan must not serve rows from a dropped table.
    let err = e.execute(&mut s, q, &[]).unwrap_err();
    assert!(matches!(err, SqlError::UnknownTable(_)), "got {err}");
}

#[test]
fn recreate_with_new_layout_after_cached_statements() {
    let (mut e, mut s) = master();
    e.execute_batch(
        &mut s,
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);
         INSERT INTO t VALUES (1, 10, 20)",
    )
    .unwrap();
    let sel = "SELECT a FROM t WHERE id = ?";
    let ins = "INSERT INTO t (id, a, b) VALUES (?, ?, ?)";
    assert_eq!(
        e.execute(&mut s, sel, &[Value::Int(1)]).unwrap().rows,
        vec![vec![Value::Int(10)]]
    );
    e.execute(
        &mut s,
        ins,
        &[Value::Int(2), Value::Int(11), Value::Int(21)],
    )
    .unwrap();

    // DROP + re-CREATE with b and a swapped: both cached plans are stale.
    e.execute_batch(
        &mut s,
        "DROP TABLE t;
         CREATE TABLE t (id INT PRIMARY KEY, b INT, a INT);
         INSERT INTO t VALUES (1, 20, 10)",
    )
    .unwrap();
    // The cached SELECT plan resolved column `a` at position 1 of the old
    // layout; reusing it would read the new table's `b`.
    assert_eq!(
        e.execute(&mut s, sel, &[Value::Int(1)]).unwrap().rows,
        vec![vec![Value::Int(10)]]
    );
    // The cached INSERT re-resolves its column list against the new layout.
    e.execute(
        &mut s,
        ins,
        &[Value::Int(3), Value::Int(12), Value::Int(22)],
    )
    .unwrap();
    assert_eq!(
        e.execute(&mut s, "SELECT a, b FROM t WHERE id = 3", &[])
            .unwrap()
            .rows,
        vec![vec![Value::Int(12), Value::Int(22)]]
    );
}

#[test]
fn slave_applying_statement_events_populates_cache() {
    let mut m = Engine::new_master(BinlogFormat::Statement);
    let mut slave = Engine::new_slave();
    let mut s = Session::new();
    m.execute_batch(&mut s, "CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..20 {
        m.execute(
            &mut s,
            "INSERT INTO kv (k, v) VALUES (?, ?)",
            &[Value::Int(i), Value::Text(format!("v{i}"))],
        )
        .unwrap();
    }
    for ev in m.binlog_from(amdb_sql::Lsn(0)).to_vec() {
        slave.apply_event(&ev, 0).unwrap();
    }
    assert_eq!(slave.table_rows("kv"), Some(20));
    let stats = slave.plan_cache_stats();
    // 20 identical INSERT texts: first parse is a miss, the rest hit.
    assert!(
        stats.hits >= 19,
        "slave re-apply must hit the cache: {stats:?}"
    );
}

/// A pool of statement templates the transparency proptest draws from.
/// Mixes reads, writes, errors (unknown table), and DDL churn.
const TEMPLATES: &[&str] = &[
    "SELECT id, name, score FROM users WHERE id = ?",
    "SELECT name, COUNT(*), SUM(score) FROM users GROUP BY name ORDER BY name",
    "SELECT id FROM users WHERE score > ? ORDER BY id DESC LIMIT 2",
    "SELECT u.id AS k, b.label FROM users u INNER JOIN badges b ON b.user_id = u.id \
     WHERE u.score > ? ORDER BY k DESC LIMIT 3",
    "INSERT INTO users (id, name, score) VALUES (?, 'dave', ?)",
    "UPDATE users SET score = ? WHERE id = ?",
    "DELETE FROM users WHERE id = ?",
    "SELECT * FROM missing_table",
    "CREATE INDEX idx_score ON users (score)",
    "DROP TABLE users",
    "CREATE TABLE users (id INT PRIMARY KEY, name TEXT NOT NULL, score DOUBLE)",
];

fn arb_param() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..50).prop_map(Value::Int),
        (-5i64..50).prop_map(|i| Value::Double(i as f64)),
    ]
}

proptest! {
    /// parse→cache→execute ≡ parse→execute: the same statement sequence run
    /// on a cached and an uncached engine produces identical results and
    /// identical errors, statement by statement, including across DDL that
    /// invalidates cached plans.
    #[test]
    fn cached_and_uncached_engines_agree(
        ops in prop::collection::vec((0..TEMPLATES.len(), prop::collection::vec(arb_param(), 2)), 1..40)
    ) {
        let mut cached = Engine::new_master(BinlogFormat::Statement);
        let mut uncached = Engine::new_master(BinlogFormat::Statement);
        uncached.set_plan_cache_capacity(0);
        let mut cs = Session::new();
        let mut us = Session::new();
        for e in [&mut cached, &mut uncached] {
            let s = &mut Session::new();
            seed_users(e, s);
        }

        for (ti, params) in &ops {
            let sql = TEMPLATES[*ti];
            let need = sql.matches('?').count();
            let params = &params[..need.min(params.len())];
            let a = cached.execute(&mut cs, sql, params);
            let b = uncached.execute(&mut us, sql, params);
            match (a, b) {
                (Ok(ra), Ok(rb)) => prop_assert_eq!(ra, rb),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
                (a, b) => prop_assert!(false, "divergence on {}: {:?} vs {:?}", sql, a, b),
            }
        }
        prop_assert_eq!(cached.plan_cache_stats().entries > 0, true,
            "cache must actually be exercised");
        prop_assert_eq!(uncached.plan_cache_stats().entries, 0);
    }
}
