//! The binlog a master writes is exactly the bytes it wrote when this hash
//! was recorded, under both formats: autocommit multi-row writes, committed
//! and rolled-back transactions, DDL inside an open transaction and writes
//! to a keyless table. A refactor of how writes are recorded must keep the
//! constant.

use amdb_sql::{BinlogFormat, Engine, Lsn, Session, Value};

/// FNV-1a over, for the Row master and then the Statement master,
/// `encode()` of every event it logged and its replayed slave's
/// `fingerprint()`.
const PINNED: u64 = 15_954_263_962_459_375_629;

const SCRIPT: &[(&str, &[Value])] = &[
    (
        "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score DOUBLE, note TEXT)",
        &[],
    ),
    ("CREATE TABLE k (a INT, b TEXT)", &[]),
    // Autocommit multi-row writes over TEXT, DOUBLE and NULL values.
    (
        "INSERT INTO t VALUES (1, 'one', 1.5, NULL), (2, 'two', NULL, 'x'), (3, 'three', -0.25, 'y')",
        &[],
    ),
    (
        "INSERT INTO t (id, name, score) VALUES (?, ?, ?), (?, ?, ?)",
        &[
            Value::Int(4),
            Value::Null,
            Value::Double(2.75),
            Value::Int(5),
            Value::Text(String::new()),
            Value::Double(1e300),
        ],
    ),
    (
        "UPDATE t SET score = score * 2, note = NULL WHERE id >= 2",
        &[],
    ),
    ("DELETE FROM t WHERE id < 2 OR id = 3", &[]),
    // Three writes, then COMMIT.
    ("BEGIN", &[]),
    ("INSERT INTO t VALUES (6, 'six', 6.0, 'z'), (7, 'seven', NULL, NULL)", &[]),
    ("UPDATE t SET name = 'renamed' WHERE id = 4", &[]),
    ("DELETE FROM t WHERE id = 5", &[]),
    ("COMMIT", &[]),
    // Two writes, then ROLLBACK.
    ("BEGIN", &[]),
    ("INSERT INTO t VALUES (8, 'eight', 8.0, NULL)", &[]),
    ("UPDATE t SET score = 0.5 WHERE id = 6 OR id = 8", &[]),
    ("ROLLBACK", &[]),
    // CREATE INDEX inside an open transaction commits it, then logs itself.
    ("BEGIN", &[]),
    ("INSERT INTO t VALUES (9, 'nine', NULL, 'w')", &[]),
    ("UPDATE t SET note = 'v' WHERE id = 2", &[]),
    ("CREATE INDEX idx_t_name ON t (name)", &[]),
    // Writes to a keyless table, duplicate rows included.
    ("INSERT INTO k VALUES (1, 'p'), (1, 'p'), (2, NULL)", &[]),
    ("UPDATE k SET b = 'q' WHERE a = 1", &[]),
    ("DELETE FROM k WHERE a = 2", &[]),
    ("DELETE FROM k WHERE b = 'q'", &[]),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn binlog_bytes_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for format in [BinlogFormat::Row, BinlogFormat::Statement] {
        let mut master = Engine::new_master(format);
        let mut s = Session::new();
        for (i, (sql, params)) in SCRIPT.iter().enumerate() {
            s.now_micros = 1_000 * (i as i64 + 1);
            master
                .execute(&mut s, sql, params)
                .unwrap_or_else(|err| panic!("{format:?} {sql}: {err}"));
        }
        let events = master.binlog_from(Lsn(0));
        let mut slave = Engine::new_slave();
        for ev in events {
            fnv1a(&mut hash, &ev.encode());
            slave
                .apply_event(ev, ev.commit_ts_micros)
                .unwrap_or_else(|err| panic!("{format:?} apply {ev:?}: {err}"));
        }
        assert_eq!(
            slave.fingerprint(),
            master.fingerprint(),
            "{format:?}: the replayed slave matches its master"
        );
        fnv1a(&mut hash, &slave.fingerprint().to_le_bytes());
    }
    assert_eq!(hash, PINNED, "binlog bytes moved");
}
