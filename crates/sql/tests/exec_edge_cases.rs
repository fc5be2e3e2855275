//! Executor edge cases: ordering, projection, joins, aggregates, coercion.

use amdb_sql::{BinlogFormat, Engine, Lsn, QueryResult, Session, SqlError, Value};

fn engine() -> (Engine, Session) {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    e.execute_batch(
        &mut s,
        "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score DOUBLE, flag BOOLEAN);
         INSERT INTO t VALUES
           (1, 'delta', 4.0, TRUE),
           (2, 'alpha', 2.0, FALSE),
           (3, 'charlie', 1.0, TRUE),
           (4, 'bravo', 3.0, FALSE),
           (5, NULL, NULL, TRUE)",
    )
    .expect("setup");
    (e, s)
}

#[test]
fn order_by_output_alias() {
    let (mut e, mut s) = engine();
    let r = e
        .execute(
            &mut s,
            "SELECT id, score * 2 AS doubled FROM t WHERE score IS NOT NULL ORDER BY doubled DESC",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1), "highest doubled score first");
    assert_eq!(r.rows[0][1], Value::Double(8.0));
}

#[test]
fn order_by_multiple_keys_and_nulls_first() {
    let (mut e, mut s) = engine();
    let r = e
        .execute(
            &mut s,
            "SELECT id FROM t ORDER BY flag DESC, score ASC",
            &[],
        )
        .unwrap();
    // flag=true group first (ids 1,3,5); within it score ASC with NULL first.
    let ids: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match row[0] {
            Value::Int(i) => i,
            _ => panic!(),
        })
        .collect();
    assert_eq!(ids, vec![5, 3, 1, 2, 4]);
}

#[test]
fn limit_offset_beyond_bounds() {
    let (mut e, mut s) = engine();
    let r = e
        .execute(
            &mut s,
            "SELECT id FROM t ORDER BY id LIMIT 10 OFFSET 3",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = e.execute(&mut s, "SELECT id FROM t LIMIT 0", &[]).unwrap();
    assert!(r.rows.is_empty());
    let r = e
        .execute(&mut s, "SELECT id FROM t LIMIT 3 OFFSET 99", &[])
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn mysql_style_limit_comma() {
    let (mut e, mut s) = engine();
    let r = e
        .execute(&mut s, "SELECT id FROM t ORDER BY id LIMIT 1, 2", &[])
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(2)], vec![Value::Int(3)]],
        "LIMIT offset, count"
    );
}

#[test]
fn ambiguous_unqualified_column_is_an_error() {
    let (mut e, mut s) = engine();
    // Both tables have an `id` column, so the bare name binds to neither.
    // The binder rejects the statement at prepare, before any row is read.
    e.execute_batch(
        &mut s,
        "CREATE TABLE u (id INT PRIMARY KEY, other TEXT);
         INSERT INTO u VALUES (1, 'x')",
    )
    .unwrap();
    let err = e
        .execute(&mut s, "SELECT id FROM t INNER JOIN u ON t.id = u.id", &[])
        .unwrap_err();
    assert!(
        matches!(err, SqlError::UnknownColumn(ref m) if m.contains("ambiguous")),
        "got {err}"
    );
}

#[test]
fn aggregates_over_empty_and_null_inputs() {
    let (mut e, mut s) = engine();
    let r = e
        .execute(
            &mut s,
            "SELECT COUNT(*), COUNT(score), SUM(score), AVG(score), MIN(score), MAX(score) \
             FROM t WHERE id > 100",
            &[],
        )
        .unwrap();
    // Global aggregate over zero rows: one row, COUNTs 0, the rest NULL.
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[0][1], Value::Int(0));
    assert_eq!(r.rows[0][2], Value::Null);
    assert_eq!(r.rows[0][3], Value::Null);

    // COUNT(col) skips NULLs; SUM/AVG ignore them.
    let r = e
        .execute(
            &mut s,
            "SELECT COUNT(*), COUNT(score), SUM(score), AVG(score) FROM t",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5));
    assert_eq!(r.rows[0][1], Value::Int(4));
    assert_eq!(r.rows[0][2], Value::Double(10.0));
    assert_eq!(r.rows[0][3], Value::Double(2.5));
}

#[test]
fn min_max_over_text() {
    let (mut e, mut s) = engine();
    let r = e
        .execute(&mut s, "SELECT MIN(name), MAX(name) FROM t", &[])
        .unwrap();
    assert_eq!(r.rows[0][0], Value::from("alpha"));
    assert_eq!(r.rows[0][1], Value::from("delta"));
}

#[test]
fn update_with_self_referencing_expression() {
    let (mut e, mut s) = engine();
    e.execute(
        &mut s,
        "UPDATE t SET score = score * 10 + id WHERE score IS NOT NULL",
        &[],
    )
    .unwrap();
    let r = e
        .execute(&mut s, "SELECT score FROM t WHERE id = 2", &[])
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Double(22.0));
}

#[test]
fn update_affecting_zero_rows_logs_nothing() {
    let (mut e, mut s) = engine();
    let before = e.binlog().len();
    let r = e
        .execute(&mut s, "UPDATE t SET score = 0 WHERE id = 999", &[])
        .unwrap();
    assert_eq!(r.rows_affected, 0);
    assert_eq!(e.binlog().len(), before, "no-op write not binlogged");
}

#[test]
fn three_way_join_with_filters() {
    let (mut e, mut s) = engine();
    e.execute_batch(
        &mut s,
        "CREATE TABLE a (id INT PRIMARY KEY, t_id INT);
         CREATE INDEX idx_a ON a (t_id);
         CREATE TABLE b (id INT PRIMARY KEY, a_id INT);
         CREATE INDEX idx_b ON b (a_id);
         INSERT INTO a VALUES (10, 1), (11, 2), (12, 1);
         INSERT INTO b VALUES (100, 10), (101, 10), (102, 11)",
    )
    .unwrap();
    let r = e
        .execute(
            &mut s,
            "SELECT b.id FROM t INNER JOIN a ON a.t_id = t.id \
             INNER JOIN b ON b.a_id = a.id \
             WHERE t.id = 1 ORDER BY b.id",
            &[],
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(100)], vec![Value::Int(101)]],
        "only rows reachable from t.id = 1 via a.id = 10/12"
    );
}

#[test]
fn select_without_from() {
    let (mut e, mut s) = engine();
    let r = e
        .execute(&mut s, "SELECT 1 + 1 AS two, UPPER('x')", &[])
        .unwrap();
    assert_eq!(r.columns.as_ref(), ["two", "upper"]);
    assert_eq!(r.rows, vec![vec![Value::Int(2), Value::from("X")]]);
}

#[test]
fn comparison_with_null_filters_row_out() {
    let (mut e, mut s) = engine();
    // score = NULL is unknown, never true: row 5 excluded both ways.
    let r = e
        .execute(
            &mut s,
            "SELECT COUNT(*) FROM t WHERE score > 0 OR score <= 0",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(4));
}

#[test]
fn rows_examined_reflects_access_path() {
    let (mut e, mut s) = engine();
    let pk = e
        .execute(&mut s, "SELECT name FROM t WHERE id = 3", &[])
        .unwrap();
    assert_eq!(pk.rows_examined, 1, "pk lookup touches one row");
    let scan = e.execute(&mut s, "SELECT name FROM t", &[]).unwrap();
    assert_eq!(scan.rows_examined, 5, "full scan touches all rows");
}

#[test]
fn in_list_with_params() {
    let (mut e, mut s) = engine();
    let r = e
        .execute(
            &mut s,
            "SELECT id FROM t WHERE id IN (?, ?, ?) ORDER BY id",
            &[Value::Int(1), Value::Int(3), Value::Int(99)],
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
}

#[test]
fn left_join_where_on_inner_column_filters_null_rows() {
    let (mut e, mut s) = engine();
    e.execute_batch(
        &mut s,
        "CREATE TABLE x (id INT PRIMARY KEY, t_id INT);
         INSERT INTO x VALUES (1, 1)",
    )
    .unwrap();
    // WHERE on the right table's column removes NULL-extended rows
    // (standard SQL semantics: WHERE after join).
    let r = e
        .execute(
            &mut s,
            "SELECT t.id FROM t LEFT JOIN x ON x.t_id = t.id WHERE x.id IS NOT NULL",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    // Without the filter all 5 t-rows survive.
    let r = e
        .execute(
            &mut s,
            "SELECT COUNT(*) FROM t LEFT JOIN x ON x.t_id = t.id",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5));
}

// ---------------------------------------------------------------------------
// Plan-time pipeline: exact probes, residual predicates, the sort window
// ---------------------------------------------------------------------------

/// Every kind of index the exactness rule tells apart — INT primary key,
/// index on a TIMESTAMP column, unique index on a TEXT column, plain INT
/// index — and a child table to join. Titles sort opposite to ids.
fn indexed_engine() -> (Engine, Session) {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    e.execute_batch(
        &mut s,
        "CREATE TABLE events (id INT PRIMARY KEY, title TEXT NOT NULL, ts TIMESTAMP NOT NULL, zip INT NOT NULL);
         CREATE INDEX ix_ts ON events (ts);
         CREATE UNIQUE INDEX uq_title ON events (title);
         CREATE INDEX ix_zip ON events (zip);
         INSERT INTO events VALUES
           (1, 'e5', 30, 7), (2, 'e4', 10, 7), (3, 'e3', 20, 7), (4, 'e2', 10, 8), (5, 'e1', 20, 7);
         CREATE TABLE notes (id INT PRIMARY KEY, event_id INT NOT NULL, stars INT NOT NULL);
         CREATE INDEX ix_note_event ON notes (event_id);
         INSERT INTO notes VALUES (1, 1, 5), (2, 1, 2), (3, 2, 4), (4, 9, 1)",
    )
    .expect("setup");
    (e, s)
}

fn rows_of(e: &mut Engine, s: &mut Session, sql: &str, params: &[Value]) -> Vec<Vec<Value>> {
    e.execute(s, sql, params)
        .unwrap_or_else(|err| panic!("{sql}: {err}"))
        .rows
}

/// `indexed` probes an index; `scanned` is the same query with the column
/// wrapped so that no index applies and every row meets the full predicate.
/// Both must return `want`.
fn assert_probe_agrees(indexed: &str, scanned: &str, params: &[Value], want: &[i64]) {
    let (mut e, mut s) = indexed_engine();
    let want: Vec<Vec<Value>> = want.iter().map(|&i| vec![Value::Int(i)]).collect();
    assert_eq!(
        rows_of(&mut e, &mut s, indexed, params),
        want,
        "{indexed} {params:?}"
    );
    assert_eq!(
        rows_of(&mut e, &mut s, scanned, params),
        want,
        "{scanned} {params:?}"
    );
}

#[test]
fn pk_probe_agrees_with_the_predicate_for_every_key_type() {
    for (key, want) in [
        (Value::Int(2), &[2][..]),
        (Value::Double(2.0), &[2]), // the integer index rounds; sql_cmp agrees
        (Value::Double(2.5), &[]),
        (Value::from("2"), &[]), // incomparable: unknown, not an error
        (Value::Null, &[]),
    ] {
        assert_probe_agrees(
            "SELECT id FROM events WHERE id = ?",
            "SELECT id FROM events WHERE id + 0 = ?",
            &[key],
            want,
        );
    }
}

#[test]
fn timestamp_index_probe_keeps_the_recheck_for_inexact_keys() {
    // COALESCE(ts, ts) defeats the index and keeps the TIMESTAMP type.
    let indexed = "SELECT id FROM events WHERE ts = ? ORDER BY id";
    let scanned = "SELECT id FROM events WHERE COALESCE(ts, ts) = ? ORDER BY id";
    assert_probe_agrees(indexed, scanned, &[Value::Int(10)], &[2, 4]);
    assert_probe_agrees(indexed, scanned, &[Value::Timestamp(20)], &[3, 5]);
    // The index orders a DOUBLE key equal to a TIMESTAMP it cannot be
    // compared with, so the probe returns rows the predicate must reject.
    assert_probe_agrees(indexed, scanned, &[Value::Double(10.0)], &[]);
    let (mut e, mut s) = indexed_engine();
    let r = e.execute(&mut s, indexed, &[Value::Double(10.0)]).unwrap();
    assert!(r.rows_examined > 0, "the probe did return candidates");
}

#[test]
fn text_unique_index_probe() {
    let indexed = "SELECT id FROM events WHERE title = ?";
    let scanned = "SELECT id FROM events WHERE LOWER(title) = ?";
    assert_probe_agrees(indexed, scanned, &[Value::from("e3")], &[3]);
    assert_probe_agrees(indexed, scanned, &[Value::from("nope")], &[]);
    assert_probe_agrees(indexed, scanned, &[Value::Null], &[]);
    // An INT key is incomparable with TEXT.
    assert_probe_agrees(
        indexed,
        "SELECT id FROM events WHERE COALESCE(title, title) = ?",
        &[Value::Int(3)],
        &[],
    );
}

#[test]
fn join_probe_leaves_the_rest_of_on_to_evaluate() {
    let scanned = "SELECT n.id FROM events e INNER JOIN notes n \
                   ON n.event_id + 0 = e.id AND n.stars > 2 WHERE e.zip = 7 ORDER BY n.id";
    for on in [
        "n.event_id = e.id AND n.stars > 2",
        "n.stars > 2 AND e.id = n.event_id", // path conjunct second, written key = col
    ] {
        let indexed = format!(
            "SELECT n.id FROM events e INNER JOIN notes n ON {on} WHERE e.zip = 7 ORDER BY n.id"
        );
        assert_probe_agrees(&indexed, scanned, &[], &[1, 3]);
    }
}

#[test]
fn left_join_probe_miss_still_emits_the_null_extended_row() {
    let (mut e, mut s) = indexed_engine();
    let q = |on: &str, filter: &str| {
        format!("SELECT e.id, n.id FROM events e LEFT JOIN notes n ON {on} {filter} ORDER BY e.id, n.id")
    };
    for filter in ["", "WHERE n.stars > 0", "WHERE n.stars IS NULL"] {
        let indexed = rows_of(&mut e, &mut s, &q("n.event_id = e.id", filter), &[]);
        let scanned = rows_of(&mut e, &mut s, &q("n.event_id + 0 = e.id", filter), &[]);
        assert_eq!(indexed, scanned, "{filter}");
        let unmatched = indexed.iter().filter(|r| r[1] == Value::Null).count();
        // Events 3, 4 and 5 have no notes; a WHERE on the inner column that
        // NULL cannot satisfy removes them again.
        assert_eq!(unmatched, if filter == "WHERE n.stars > 0" { 0 } else { 3 });
    }
}

#[test]
fn order_by_alias_that_shadows_a_table_column() {
    let (mut e, mut s) = indexed_engine();
    // `title` is the output column (= id), not events.title, which sorts
    // the other way round.
    let r = rows_of(
        &mut e,
        &mut s,
        "SELECT id AS title FROM events ORDER BY title LIMIT 3",
        &[],
    );
    assert_eq!(r, [[Value::Int(1)], [Value::Int(2)], [Value::Int(3)]]);
    let r = rows_of(
        &mut e,
        &mut s,
        "SELECT id FROM events ORDER BY events.title LIMIT 3",
        &[],
    );
    assert_eq!(r, [[Value::Int(5)], [Value::Int(4)], [Value::Int(3)]]);
}

#[test]
fn every_window_is_a_slice_of_the_full_stable_sort() {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    e.execute_batch(
        &mut s,
        "CREATE TABLE w (id INT PRIMARY KEY, k INT NOT NULL)",
    )
    .unwrap();
    // Emission order is id order; k has four values, so ties abound.
    for id in 0..23 {
        e.execute(
            &mut s,
            "INSERT INTO w VALUES (?, ?)",
            &[Value::Int(id), Value::Int(id * 7 % 4)],
        )
        .unwrap();
    }
    // ORDER BY a plain column, a non-column expression, and both directions.
    for (order, key, desc) in [
        ("k", 1i64, false),
        ("k DESC", 1, true),
        ("0 - k", -1, false),
        ("k * 2 DESC", 2, true),
    ] {
        let mut want: Vec<i64> = (0..23).collect();
        want.sort_by_key(|id| {
            let k = key * (id * 7 % 4);
            if desc {
                -k
            } else {
                k
            }
        }); // stable: ties keep emission order
        let full = rows_of(
            &mut e,
            &mut s,
            &format!("SELECT id FROM w ORDER BY {order}"),
            &[],
        );
        let full: Vec<i64> = full
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(full, want, "ORDER BY {order}");
        for offset in [0usize, 1, 5, 22, 23, 40] {
            for limit in [0usize, 1, 4, 23, 100] {
                let got = rows_of(
                    &mut e,
                    &mut s,
                    &format!("SELECT id FROM w ORDER BY {order} LIMIT {limit} OFFSET {offset}"),
                    &[],
                );
                let window: Vec<Vec<Value>> = want
                    .iter()
                    .skip(offset)
                    .take(limit)
                    .map(|&i| vec![Value::Int(i)])
                    .collect();
                assert_eq!(
                    got, window,
                    "ORDER BY {order} LIMIT {limit} OFFSET {offset}"
                );
            }
        }
    }
}

#[test]
fn sarg_key_over_a_later_table_does_not_drive_the_lookup() {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    e.execute_batch(
        &mut s,
        "CREATE TABLE a (id INT PRIMARY KEY, x INT NOT NULL);
         CREATE INDEX ix ON a (x);
         CREATE TABLE b (id INT PRIMARY KEY, a_id INT NOT NULL, y INT NOT NULL);
         INSERT INTO a VALUES (1, 10), (2, 20);
         INSERT INTO b VALUES (1, 1, 10), (2, 2, 99)",
    )
    .unwrap();
    // `b` is bound after `a`: while `a` is scanned `b.y` / `b.a_id` have no
    // value, so neither conjunct may become a's index key (it used to, with
    // a NULL key, and the query returned nothing).
    let join = "SELECT a.id, b.id FROM a INNER JOIN b ON b.a_id = a.id";
    for filter in ["a.x = b.y", "a.x + 0 = b.y", "a.id = b.a_id AND b.y = 10"] {
        let r = rows_of(&mut e, &mut s, &format!("{join} WHERE {filter}"), &[]);
        assert_eq!(r, [[Value::Int(1), Value::Int(1)]], "WHERE {filter}");
    }
}

/// An empty table `t (id INT PRIMARY KEY, v INT)`.
fn empty_engine() -> (Engine, Session) {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    e.execute_batch(&mut s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .expect("setup");
    (e, s)
}

#[test]
fn unknown_columns_fail_at_bind_time_even_when_no_row_is_touched() {
    let (mut e, mut s) = empty_engine();
    for (sql, params) in [
        ("SELECT nosuch FROM t", vec![]),
        ("DELETE FROM t WHERE nosuch = 1", vec![]),
        ("UPDATE t SET v = nosuch WHERE id = ?", vec![Value::Int(1)]),
    ] {
        let err = e.execute(&mut s, sql, &params).unwrap_err();
        assert_eq!(err, SqlError::UnknownColumn("nosuch".into()), "{sql}");
    }
    assert_eq!(e.binlog().len(), 1, "only the CREATE TABLE was logged");
}

#[test]
fn insert_naming_a_column_twice_is_rejected() {
    let (mut e, mut s) = empty_engine();
    let err = e
        .execute(&mut s, "INSERT INTO t (id, id) VALUES (1, 2)", &[])
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Constraint(ref m) if m.contains("'id' specified twice")),
        "got {err}"
    );
    assert_eq!(e.table_rows("t"), Some(0));
}

#[test]
fn insert_with_a_short_row_inserts_nothing() {
    let (mut e, mut s) = empty_engine();
    let err = e
        .execute(&mut s, "INSERT INTO t VALUES (1, 2), (3)", &[])
        .unwrap_err();
    assert!(matches!(err, SqlError::Constraint(_)), "got {err}");
    assert_eq!(e.table_rows("t"), Some(0), "the full first row is not kept");
}

#[test]
fn create_index_replans_a_cached_update() {
    let (mut e, mut s) = empty_engine();
    e.execute_batch(
        &mut s,
        "CREATE TABLE items (id INT PRIMARY KEY, c INT, v INT);
         INSERT INTO items VALUES (1, 10, 0), (2, 10, 0), (3, 20, 0)",
    )
    .unwrap();
    let sql = "UPDATE items SET v = v + 1 WHERE c = ?";
    for _ in 0..2 {
        let r = e.execute(&mut s, sql, &[Value::Int(10)]).unwrap();
        assert_eq!((r.rows_affected, r.rows_examined), (2, 3), "full scan");
    }
    let hits = e.plan_cache_stats().hits;
    let r = e.execute(&mut s, sql, &[Value::Int(10)]).unwrap();
    assert_eq!(e.plan_cache_stats().hits, hits + 1, "the plan is cached");
    assert_eq!(r.rows_examined, 3);
    e.execute(&mut s, "CREATE INDEX idx_c ON items (c)", &[])
        .unwrap();
    let r = e.execute(&mut s, sql, &[Value::Int(10)]).unwrap();
    assert_eq!(
        (r.rows_affected, r.rows_examined),
        (2, 2),
        "the DDL serial replanned the cached UPDATE to an index probe"
    );
    let r = e
        .execute(&mut s, "SELECT v FROM items ORDER BY id", &[])
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(4)],
            vec![Value::Int(4)],
            vec![Value::Int(0)]
        ]
    );
}

#[test]
fn aggregates_outside_an_aggregate_context_fail_at_bind_time() {
    let (mut e, mut s) = empty_engine();
    for sql in [
        "SELECT id FROM t WHERE COUNT(*) > 1",
        "SELECT id FROM t ORDER BY COUNT(*)",
        "SELECT id FROM t GROUP BY COUNT(*)",
        "SELECT COUNT(SUM(v)) FROM t",
        "DELETE FROM t WHERE COUNT(*) > 1",
        "UPDATE t SET v = SUM(v)",
    ] {
        let err = e.execute(&mut s, sql, &[]).unwrap_err();
        assert!(
            matches!(err, SqlError::Unsupported(ref m) if m.contains("non-aggregate context")),
            "{sql}: {err}"
        );
    }
    assert_eq!(e.binlog().len(), 1, "only the CREATE TABLE was logged");
}

#[test]
fn aggregate_arguments_are_checked_at_bind_time() {
    let (mut e, mut s) = empty_engine();
    let err = e.execute(&mut s, "SELECT SUM(*) FROM t", &[]).unwrap_err();
    assert_eq!(err, SqlError::Parse("SUM(*) is not a function".into()));
    for sql in ["SELECT COUNT() FROM t", "SELECT MAX(id, v) FROM t"] {
        let err = e.execute(&mut s, sql, &[]).unwrap_err();
        assert!(matches!(err, SqlError::BadParameter(_)), "{sql}: {err}");
    }
}

/// The one value of a one-row, one-column result.
fn scalar(e: &mut Engine, s: &mut Session, sql: &str) -> Result<Value, SqlError> {
    e.execute(s, sql, &[]).map(|r| r.rows[0][0].clone())
}

fn out_of_range(r: Result<Value, SqlError>) -> bool {
    matches!(r, Err(SqlError::TypeMismatch(ref m)) if m.starts_with("BIGINT value is out of range"))
}

#[test]
fn integer_arithmetic_is_exact() {
    let (mut e, mut s) = empty_engine();
    assert_eq!(
        scalar(&mut e, &mut s, "SELECT 9007199254740993 + 0"),
        Ok(Value::Int(9_007_199_254_740_993))
    );
    assert_eq!(
        scalar(&mut e, &mut s, "SELECT -9223372036854775807 - 1"),
        Ok(Value::Int(i64::MIN))
    );
    assert_eq!(
        scalar(&mut e, &mut s, "SELECT (-9223372036854775807 - 1) % -1"),
        Ok(Value::Int(0))
    );
    assert_eq!(scalar(&mut e, &mut s, "SELECT 7 % 0"), Ok(Value::Null));
}

#[test]
fn integer_overflow_is_an_error() {
    let (mut e, mut s) = empty_engine();
    for sql in [
        "SELECT 9223372036854775807 + 1",
        "SELECT -9223372036854775807 - 2",
        "SELECT 4611686018427387904 * 2",
    ] {
        let r = scalar(&mut e, &mut s, sql);
        assert!(out_of_range(r.clone()), "{sql}: {r:?}");
    }
}

#[test]
fn integer_sum_is_exact_and_checked() {
    let (mut e, mut s) = empty_engine();
    e.execute(&mut s, "INSERT INTO t VALUES (1, 9007199254740993)", &[])
        .unwrap();
    assert_eq!(
        scalar(&mut e, &mut s, "SELECT SUM(v) FROM t"),
        Ok(Value::Int(9_007_199_254_740_993))
    );
    e.execute(&mut s, "INSERT INTO t VALUES (2, 9223372036854775807)", &[])
        .unwrap();
    let r = scalar(&mut e, &mut s, "SELECT SUM(v) FROM t");
    assert!(out_of_range(r.clone()), "{r:?}");
}

/// `t (id INT PRIMARY KEY, v BIGINT)` holding id 5 on a master of `format`.
fn master_with_five(format: BinlogFormat) -> (Engine, Session) {
    let mut e = Engine::new_master(format);
    let mut s = Session::new();
    e.execute_batch(
        &mut s,
        "CREATE TABLE t (id INT PRIMARY KEY, v BIGINT);
         INSERT INTO t VALUES (5, 50)",
    )
    .expect("setup");
    (e, s)
}

/// What a failed statement must leave as it found: the master's table, its
/// binlog length, and a slave that replays that binlog.
#[derive(Debug, PartialEq)]
struct Trace {
    rows: Vec<Vec<Value>>,
    binlog_len: usize,
    replayed: u64,
}

fn trace(e: &mut Engine, s: &mut Session) -> Trace {
    let rows = rows_of(e, s, "SELECT id, v FROM t ORDER BY id", &[]);
    let mut slave = Engine::new_slave();
    for ev in e.binlog_from(Lsn(0)) {
        slave.apply_event(ev, 0).expect("replay");
    }
    Trace {
        rows,
        binlog_len: e.binlog().len(),
        replayed: slave.fingerprint(),
    }
}

const FORMATS: [BinlogFormat; 2] = [BinlogFormat::Statement, BinlogFormat::Row];

#[test]
fn a_failed_autocommit_insert_leaves_no_trace() {
    for format in FORMATS {
        let (mut e, mut s) = master_with_five(format);
        let before = trace(&mut e, &mut s);
        assert_eq!(before.replayed, e.fingerprint(), "{format:?}");
        let err = e
            .execute(&mut s, "INSERT INTO t (id, v) VALUES (1, 1), (5, 2)", &[])
            .unwrap_err();
        assert!(
            matches!(err, SqlError::DuplicateKey(_)),
            "{format:?}: {err}"
        );
        assert_eq!(trace(&mut e, &mut s), before, "{format:?}: row 1 is gone");
        assert_eq!(e.fingerprint(), before.replayed, "{format:?}");
    }
}

#[test]
fn a_failed_statement_inside_a_transaction_undoes_only_itself() {
    for format in FORMATS {
        for end in ["COMMIT", "ROLLBACK"] {
            let (mut e, mut s) = master_with_five(format);
            e.execute(&mut s, "BEGIN", &[]).unwrap();
            e.execute(&mut s, "INSERT INTO t VALUES (3, 30)", &[])
                .unwrap();
            let before = trace(&mut e, &mut s);
            let err = e
                .execute(&mut s, "INSERT INTO t (id, v) VALUES (2, 1), (5, 2)", &[])
                .unwrap_err();
            assert!(
                matches!(err, SqlError::DuplicateKey(_)),
                "{format:?}: {err}"
            );
            assert!(s.in_transaction(), "{format:?}: the transaction stays open");
            assert_eq!(trace(&mut e, &mut s), before, "{format:?}: row 2 is gone");

            e.execute(&mut s, end, &[]).unwrap();
            let after = trace(&mut e, &mut s);
            let ids: Vec<&Value> = after.rows.iter().map(|r| &r[0]).collect();
            let want = if end == "COMMIT" {
                vec![&Value::Int(3), &Value::Int(5)]
            } else {
                vec![&Value::Int(5)]
            };
            assert_eq!(ids, want, "{format:?} {end}");
            assert_eq!(after.replayed, e.fingerprint(), "{format:?} {end}");
        }
    }
}

#[test]
fn a_failed_update_leaves_no_trace() {
    for format in FORMATS {
        let (mut e, mut s) = master_with_five(format);
        e.execute(&mut s, "INSERT INTO t VALUES (7, 9223372036854775807)", &[])
            .unwrap();
        let before = trace(&mut e, &mut s);
        let r = e
            .execute(&mut s, "UPDATE t SET v = v + 1 WHERE id >= 5", &[])
            .map(|r| r.rows_affected);
        assert!(
            matches!(r, Err(SqlError::TypeMismatch(ref m)) if m.starts_with("BIGINT value is out of range")),
            "{format:?}: {r:?}"
        );
        assert_eq!(trace(&mut e, &mut s), before, "{format:?}: id 5 keeps v");
        assert_eq!(e.fingerprint(), before.replayed, "{format:?}");
    }
}

// ---------------------------------------------------------------------------
// Empty and inverted ranges
// ---------------------------------------------------------------------------

/// `(rows, rows_examined, rows_affected)` of the SELECT `sql` under
/// `execute`, after checking that `examine` costs it alike.
fn costed(e: &mut Engine, s: &mut Session, sql: &str) -> (Vec<Vec<Value>>, u64, u64) {
    examine_agrees(e, s, sql, &[]).unwrap_or_else(|err| panic!("{sql}: {err}"));
    let r = e.execute(s, sql, &[]).unwrap();
    (r.rows, r.rows_examined, r.rows_affected)
}

#[test]
fn an_empty_or_inverted_index_range_has_no_candidates() {
    let (mut e, mut s) = indexed_engine();
    for sql in [
        "SELECT id FROM events WHERE zip > 5 AND zip < 5",
        "SELECT id FROM events WHERE zip > 7 AND zip < 7",
        "SELECT id FROM events WHERE zip >= 7 AND zip < 7",
        "SELECT id FROM events WHERE zip > 9 AND zip < 2",
        "SELECT id FROM events WHERE zip BETWEEN 9 AND 2",
        "SELECT id FROM events WHERE title > 'e4' AND title < 'e2'",
        "SELECT id FROM events WHERE id > 4 AND id < 2",
        "SELECT id FROM events WHERE id BETWEEN 4 AND 2",
    ] {
        assert_eq!(costed(&mut e, &mut s, sql), (vec![], 0, 0), "{sql}");
    }
    // A range that is one key wide still finds that key's rows.
    let (rows, examined, _) = costed(
        &mut e,
        &mut s,
        "SELECT id FROM events WHERE zip >= 8 AND zip <= 8",
    );
    assert_eq!((rows, examined), (vec![vec![Value::Int(4)]], 1));
}

#[test]
fn an_inverted_text_primary_key_range_has_no_candidates() {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    e.execute_batch(
        &mut s,
        "CREATE TABLE kv (k TEXT PRIMARY KEY, v INT);
         INSERT INTO kv VALUES ('a', 1), ('b', 2), ('c', 3)",
    )
    .expect("setup");
    for sql in [
        "SELECT v FROM kv WHERE k > 'b' AND k < 'a'",
        "SELECT v FROM kv WHERE k > 'b' AND k < 'b'",
        "SELECT v FROM kv WHERE k BETWEEN 'c' AND 'a'",
    ] {
        assert_eq!(costed(&mut e, &mut s, sql), (vec![], 0, 0), "{sql}");
    }
    let (rows, examined, _) = costed(&mut e, &mut s, "SELECT v FROM kv WHERE k > 'a' AND k < 'c'");
    assert_eq!((rows, examined), (vec![vec![Value::Int(2)]], 1));
}

#[test]
fn a_delete_over_an_inverted_range_deletes_nothing() {
    let (mut e, mut s) = indexed_engine();
    let (before, head) = (e.fingerprint(), e.binlog().head());
    let r = e
        .execute(&mut s, "DELETE FROM events WHERE zip > 9 AND zip < 2", &[])
        .unwrap();
    assert_eq!((r.rows_examined, r.rows_affected), (0, 0));
    let r = e
        .examine(
            &mut s,
            "UPDATE events SET zip = 1 WHERE zip BETWEEN 9 AND 2",
            &[],
        )
        .unwrap();
    assert_eq!((r.rows_examined, r.rows_affected), (0, 0));
    assert_eq!(e.fingerprint(), before);
    assert_eq!(e.binlog().head(), head, "nothing changed, nothing logged");
}

// ---------------------------------------------------------------------------
// Cost-only reads: `examine` costs every statement as `execute` does
// ---------------------------------------------------------------------------

/// `examine` and `execute` give the SELECT `sql` the same `(rows_examined,
/// rows_affected)`, or the same error; returns `examine`'s result.
fn examine_agrees(
    e: &mut Engine,
    s: &mut Session,
    sql: &str,
    params: &[Value],
) -> Result<QueryResult, SqlError> {
    let cost = |r: &QueryResult| (r.rows_examined, r.rows_affected);
    let executed = e.execute(s, sql, params);
    let examined = e.examine(s, sql, params);
    assert_eq!(
        examined.as_ref().map(cost),
        executed.as_ref().map(cost),
        "{sql} {params:?}"
    );
    examined
}

#[test]
fn examine_counts_a_plain_select_without_building_its_rows() {
    let (mut e, mut s) = indexed_engine();
    for sql in [
        "SELECT id, title FROM events WHERE zip = 7 ORDER BY ts DESC LIMIT 2",
        "SELECT e.id, n.stars FROM events e LEFT JOIN notes n ON n.event_id = e.id ORDER BY n.stars",
        "SELECT id, 'x', NULL FROM events ORDER BY 2",
        "SELECT * FROM events LIMIT 3 OFFSET 99",
    ] {
        let r = examine_agrees(&mut e, &mut s, sql, &[]).unwrap();
        assert!(r.rows.is_empty(), "{sql}: no row is built");
        assert!(r.rows_examined > 0, "{sql}");
        let executed = e.execute(&mut s, sql, &[]).unwrap();
        assert_eq!(r.columns, executed.columns, "{sql}: the header is kept");
    }
    // The LEFT JOIN's null-extended rows fetch nothing of `notes`: one
    // candidate per event, plus each of the three notes that match one.
    let r = examine_agrees(
        &mut e,
        &mut s,
        "SELECT e.id, n.stars FROM events e LEFT JOIN notes n ON n.event_id = e.id",
        &[],
    )
    .unwrap();
    assert_eq!(r.rows_examined, 5 + 3);
}

#[test]
fn examine_runs_every_other_select_in_full_with_its_errors() {
    let (mut e, mut s) = engine();
    let overflow = |r: &Result<QueryResult, SqlError>| matches!(r, Err(SqlError::TypeMismatch(m)) if m.starts_with("BIGINT value is out of range"));
    for sql in [
        "SELECT id * 9223372036854775807 FROM t",
        "SELECT id FROM t ORDER BY id * 9223372036854775807",
        "SELECT id FROM t WHERE id * 9223372036854775807 > 0",
        "SELECT flag FROM t GROUP BY flag HAVING SUM(id) * 9223372036854775807 > 0",
    ] {
        let r = examine_agrees(&mut e, &mut s, sql, &[]);
        assert!(overflow(&r), "{sql}: {r:?}");
    }
    // Aggregates and DISTINCT are answered in full.
    for (sql, want) in [
        (
            "SELECT COUNT(*) FROM t WHERE flag = TRUE",
            vec![vec![Value::Int(3)]],
        ),
        (
            "SELECT flag, COUNT(*) FROM t GROUP BY flag HAVING COUNT(*) > 2",
            vec![vec![Value::Bool(true), Value::Int(3)]],
        ),
        (
            "SELECT DISTINCT flag FROM t ORDER BY flag",
            vec![vec![Value::Bool(false)], vec![Value::Bool(true)]],
        ),
    ] {
        let r = examine_agrees(&mut e, &mut s, sql, &[]).unwrap();
        assert_eq!((r.rows, r.rows_examined), (want, 5), "{sql}");
    }
    // An unbound parameter fails wherever it is evaluated.
    for sql in ["SELECT id, ? FROM t", "SELECT id FROM t WHERE id = ?"] {
        let r = examine_agrees(&mut e, &mut s, sql, &[]);
        assert_eq!(
            r,
            Err(SqlError::BadParameter("parameter ?1 not bound".into())),
            "{sql}"
        );
    }
    let r = examine_agrees(&mut e, &mut s, "SELECT id FROM nosuch", &[]);
    assert_eq!(r, Err(SqlError::UnknownTable("nosuch".into())));
}

#[test]
fn examine_writes_as_execute_does() {
    let (mut a, mut sa) = engine();
    let (mut b, mut sb) = engine();
    for sql in [
        "INSERT INTO t VALUES (6, 'echo', 5.0, FALSE)",
        "BEGIN",
        "UPDATE t SET score = score + 1 WHERE id >= 4",
        "DELETE FROM t WHERE flag = TRUE AND id > 2",
        "ROLLBACK",
        "UPDATE t SET name = 'zulu' WHERE id = 2",
        "CREATE INDEX ix_name ON t (name)",
        "INSERT INTO t VALUES (6, 'dup', 0.0, TRUE)",
    ] {
        let executed = a.execute(&mut sa, sql, &[]);
        let examined = b.examine(&mut sb, sql, &[]);
        assert_eq!(examined, executed, "{sql}");
        assert_eq!(b.fingerprint(), a.fingerprint(), "{sql}");
    }
    assert_eq!(b.binlog().head(), a.binlog().head());
}

// ---------------------------------------------------------------------------
// Joins whose stages fan out past a batch of scope rows
// ---------------------------------------------------------------------------

/// `a` (100 rows) → `b` (six rows for each `a.id` in 1..=10, one for each
/// other id but 32, 33, 46, 47, 64 and 65) → `c` (120 rows over 60 `b`
/// ids). The join hands scope rows from stage to stage in batches of 32, so
/// every join below fans out past at least one batch boundary, and a full
/// scan of `a` LEFT JOINed to `b` emits its null-extended rows for ids 32
/// and 33 at stage positions 81–82 and for 46 and 47 at 95–96, the last row
/// of one batch and the first of the next.
fn fan_out_engine() -> (Engine, Session) {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    let mut sql = String::from(
        "CREATE TABLE a (id INT PRIMARY KEY, grp INT, v INT, e INT);
         CREATE INDEX idx_a_grp ON a (grp);
         CREATE TABLE b (id INT PRIMARY KEY, a_id INT, w INT, f INT);
         CREATE INDEX idx_b_a ON b (a_id);
         CREATE TABLE c (id INT PRIMARY KEY, b_id INT, x INT);
         CREATE INDEX idx_c_b ON c (b_id);",
    );
    let rows = |rows: Vec<String>| rows.join(", ");
    let a = (1..=100).map(|id| format!("({id}, {}, {}, 0)", id % 3, id % 7));
    sql += &format!("INSERT INTO a VALUES {};", rows(a.collect()));
    let b_parents = (1..=100i64)
        .filter(|id| ![32, 33, 46, 47, 64, 65].contains(id))
        .flat_map(|id| std::iter::repeat_n(id, if id <= 10 { 6 } else { 1 }));
    let b = b_parents
        .enumerate()
        .map(|(i, a_id)| format!("({}, {a_id}, {}, 0)", i + 1, i % 4));
    sql += &format!("INSERT INTO b VALUES {};", rows(b.collect()));
    let c = (1..=120).map(|id| format!("({id}, {}, {})", id % 60 + 1, id % 9));
    sql += &format!("INSERT INTO c VALUES {}", rows(c.collect()));
    e.execute_batch(&mut s, &sql).expect("setup");
    (e, s)
}

/// Joins over every kind of stage, each with the access path of each
/// source, as EXPLAIN names them.
const FAN_OUT_JOINS: &[(&str, &[&str])] = &[
    (
        "SELECT a.id, b.id, c.id FROM a INNER JOIN b ON b.a_id = a.id \
         INNER JOIN c ON c.id = b.id",
        &["full scan", "index eq col1", "pk eq"],
    ),
    (
        "SELECT a.id, b.w, c.x FROM a INNER JOIN b ON b.id = a.id \
         INNER JOIN c ON c.b_id = b.id WHERE a.grp = 1",
        &["index eq col1", "pk eq", "index eq col1"],
    ),
    (
        "SELECT a.id, b.id FROM a INNER JOIN b ON b.a_id = a.id \
         INNER JOIN c ON c.id = b.id + 3 WHERE a.id > 5 AND a.id <= 90",
        &["pk range", "index eq col1", "pk eq"],
    ),
    (
        "SELECT a.id, c.id, b.w FROM a INNER JOIN c ON c.b_id = a.id \
         INNER JOIN b ON b.id = c.id WHERE a.grp >= 1 AND a.grp < 3",
        &["index range col1", "index eq col1", "pk eq"],
    ),
    (
        "SELECT a.id, b.id, c.x FROM a INNER JOIN b ON b.id >= a.id AND b.id < a.id + 40 \
         INNER JOIN c ON c.id = b.id WHERE a.id <= 3",
        &["pk range", "pk range", "pk eq"],
    ),
    (
        "SELECT a.id, b.id, c.id FROM a INNER JOIN b ON b.a_id > a.id AND b.a_id <= a.id + 20 \
         INNER JOIN c ON c.id = b.id WHERE a.id < 4",
        &["pk range", "index range col1", "pk eq"],
    ),
    (
        "SELECT a.id, c.id, b.a_id FROM a INNER JOIN c ON c.x = a.v \
         INNER JOIN b ON b.id = c.id WHERE a.id <= 10",
        &["pk range", "full scan", "pk eq"],
    ),
    (
        "SELECT a.id, b.id, c.id FROM a LEFT JOIN b ON b.a_id = a.id \
         LEFT JOIN c ON c.id = b.id",
        &["full scan", "index eq col1", "pk eq"],
    ),
    (
        "SELECT a.id, b.id, c.id FROM a LEFT JOIN b ON b.a_id = a.id AND b.w <> 1 \
         LEFT JOIN c ON c.b_id = b.id WHERE c.x IS NULL OR c.x > 2",
        &["full scan", "index eq col1", "index eq col1"],
    ),
    (
        "SELECT a.id, b.id, b.w FROM a INNER JOIN b ON b.a_id = a.id \
         ORDER BY b.w DESC, a.id LIMIT 7 OFFSET 3",
        &["full scan", "index eq col1"],
    ),
    (
        "SELECT a.grp, COUNT(*), SUM(b.w), MIN(c.x), COUNT(c.id) FROM a \
         INNER JOIN b ON b.a_id = a.id LEFT JOIN c ON c.b_id = b.id GROUP BY a.grp",
        &["full scan", "index eq col1", "index eq col1"],
    ),
    (
        "SELECT COUNT(*), MAX(c.id) FROM a INNER JOIN b ON b.a_id = a.id \
         INNER JOIN c ON c.id = b.id",
        &["full scan", "index eq col1", "pk eq"],
    ),
];

/// FNV-1a over `Debug` of `(rows, rows_examined)` under `execute`, then
/// under `examine`, of every join in [`FAN_OUT_JOINS`].
const FAN_OUT_PINNED: u64 = 15_539_527_007_607_592_312;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn joins_that_fan_out_past_a_batch_keep_their_rows_order_and_cost() {
    let (mut e, mut s) = fan_out_engine();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut seen = String::new();
    for (sql, paths) in FAN_OUT_JOINS {
        let plan = e.execute(&mut s, &format!("EXPLAIN {sql}"), &[]).unwrap();
        let got: Vec<&Value> = plan.rows.iter().map(|row| &row[2]).collect();
        let want: Vec<Value> = paths.iter().map(|p| Value::Text(p.to_string())).collect();
        assert_eq!(got, want.iter().collect::<Vec<_>>(), "{sql}");
        let executed = e.execute(&mut s, sql, &[]).unwrap();
        let examined = examine_agrees(&mut e, &mut s, sql, &[]).unwrap();
        assert!(executed.rows_examined > 40, "{sql}: crosses a batch");
        let line = format!(
            "{:?}",
            (
                &executed.rows,
                executed.rows_examined,
                &examined.rows,
                examined.rows_examined
            )
        );
        fnv1a(&mut hash, line.as_bytes());
        seen.push_str(&format!("{sql}\n  {line}\n"));
    }
    assert_eq!(hash, FAN_OUT_PINNED, "results moved:\n{seen}");
}

/// Two scope rows fail at different stages: the one a depth-first join
/// reaches first decides the statement's error, whichever stage fails
/// first in time. `a.e = 3` overflows stage 1's ON conjunct; `b.f = 9`
/// overflows stage 2's probe key.
#[test]
fn the_first_failure_in_row_order_is_the_statements_error() {
    let (mut e, mut s) = fan_out_engine();
    let sql = "SELECT a.id, b.id, c.id FROM a \
               INNER JOIN b ON b.a_id = a.id AND a.e * 4611686018427387904 >= 0 \
               INNER JOIN c ON c.id = b.f + 9223372036854775800";
    let mut errors = Vec::new();
    // (a.id whose ON overflows, a_id of the b rows whose probe key overflows)
    for (on_fails, probe_fails) in [(9, 7), (7, 9), (40, 12), (12, 40)] {
        e.execute_batch(
            &mut s,
            &format!(
                "UPDATE a SET e = 0; UPDATE a SET e = 3 WHERE id = {on_fails};
                 UPDATE b SET f = 0; UPDATE b SET f = 9 WHERE a_id = {probe_fails}"
            ),
        )
        .unwrap();
        let err = examine_agrees(&mut e, &mut s, sql, &[]).unwrap_err();
        errors.push(err.to_string());
    }
    let on = "type mismatch: BIGINT value is out of range in '(3 * 4611686018427387904)'";
    let probe = "type mismatch: BIGINT value is out of range in '(9 + 9223372036854775800)'";
    assert_eq!(errors, [probe, on, probe, on]);
}
