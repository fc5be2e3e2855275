//! Deterministic database pre-loading.
//!
//! The paper requires every run to "start with a pre-loaded,
//! fully-synchronized database" (§III-B). [`build_template`] loads one
//! template engine for a given [`DataSize`]; the experiment harness then
//! forks it (`Engine::fork`) into the master and each slave of every run —
//! loaded once, forked many times.

use crate::schema::{DataSize, SCHEMA_SQL};
use amdb_sim::Rng;
use amdb_sql::{Engine, Session, Value};

/// Client-side id counters for every entity the generator can create.
/// Seed data occupies `1..=n`; operation-generated rows continue above.
#[derive(Debug, Clone)]
pub struct DataCounters {
    pub next_user: i64,
    pub next_event: i64,
    pub next_tag: i64,
    pub next_event_tag: i64,
    pub next_attendee: i64,
    pub next_comment: i64,
    pub zips: u32,
}

impl DataCounters {
    /// Counters immediately after seeding `size`.
    pub fn after_load(size: DataSize) -> Self {
        let e = size.events() as i64;
        let u = size.users() as i64;
        Self {
            next_user: u + 1,
            next_event: e + 1,
            next_tag: size.tags() as i64 + 1,
            next_event_tag: e * size.tags_per_event() as i64 + 1,
            next_attendee: u * size.attendances_per_user() as i64 + 1,
            next_comment: e * size.comments_per_event() as i64 + 1,
            zips: size.zips(),
        }
    }
}

// One single-row INSERT per seeded table: every seed row binds its values
// to the same statement, so loading parses each table's INSERT once and
// builds no SQL text per row.
const INSERT_USER: &str = "INSERT INTO users (id, username, email, created_at) VALUES (?, ?, ?, ?)";
const INSERT_TAG: &str = "INSERT INTO tags (id, name) VALUES (?, ?)";
const INSERT_EVENT: &str = "INSERT INTO events \
    (id, title, description, created_by, event_ts, zip, created_at) VALUES (?, ?, ?, ?, ?, ?, ?)";
const INSERT_EVENT_TAG: &str = "INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)";
const INSERT_ATTENDEE: &str =
    "INSERT INTO attendees (id, event_id, user_id, created_at) VALUES (?, ?, ?, ?)";
const INSERT_COMMENT: &str = "INSERT INTO comments \
    (id, event_id, user_id, rating, body, created_at) VALUES (?, ?, ?, ?, ?, ?)";

/// Build a fully-loaded, frozen (`Engine::freeze`) template engine for
/// `size`: its forks share the loaded tables. Deterministic in the RNG seed.
/// Returns the engine and the post-load id counters.
///
/// The template is a non-logging engine: forks start with an empty binlog
/// and an empty plan cache, so it keeps nothing of its load but the
/// tables and the plans of the schema and the six seed INSERTs.
pub fn build_template(size: DataSize, rng: &mut Rng) -> (Engine, DataCounters) {
    let mut engine = Engine::new_slave();
    load(&mut engine, size, rng);
    engine.freeze();
    (engine, DataCounters::after_load(size))
}

/// Create the schema in `engine` and insert the seed rows of `size`.
fn load(engine: &mut Engine, size: DataSize, rng: &mut Rng) {
    use Value::{Int, Text};
    let mut session = Session::new();
    engine
        .execute_batch(&mut session, SCHEMA_SQL)
        .expect("schema loads");
    let mut insert = |sql: &str, row: &[Value]| {
        engine.execute(&mut session, sql, row).expect("seed insert");
    };
    let now_us: i64 = 0; // seed rows predate the run; exact value irrelevant

    for uid in 1..=size.users() as i64 {
        let (name, email) = (format!("user{uid}"), format!("user{uid}@example.com"));
        insert(
            INSERT_USER,
            &[Int(uid), Text(name), Text(email), Int(now_us)],
        );
    }
    for tid in 1..=size.tags() as i64 {
        insert(INSERT_TAG, &[Int(tid), Text(format!("tag{tid}"))]);
    }
    for eid in 1..=size.events() as i64 {
        let creator = rng.int_range(1, size.users() as i64);
        let zip = rng.int_range(0, size.zips() as i64 - 1);
        let ts = rng.int_range(0, 30 * 86_400) * 1_000_000;
        let title = Text(format!("event {eid}"));
        let about = Text("a social event".into());
        let row = [
            Int(eid),
            title,
            about,
            Int(creator),
            Int(ts),
            Int(zip),
            Int(now_us),
        ];
        insert(INSERT_EVENT, &row);
    }
    // event_tags: tags_per_event random tags per event
    let mut etid: i64 = 1;
    for eid in 1..=size.events() as i64 {
        for _ in 0..size.tags_per_event() {
            let tid = rng.int_range(1, size.tags() as i64);
            insert(INSERT_EVENT_TAG, &[Int(etid), Int(eid), Int(tid)]);
            etid += 1;
        }
    }
    // attendees: attendances_per_user per user
    let mut aid: i64 = 1;
    for uid in 1..=size.users() as i64 {
        for _ in 0..size.attendances_per_user() {
            let eid = rng.int_range(1, size.events() as i64);
            insert(
                INSERT_ATTENDEE,
                &[Int(aid), Int(eid), Int(uid), Int(now_us)],
            );
            aid += 1;
        }
    }
    let mut cid: i64 = 1;
    for eid in 1..=size.events() as i64 {
        for _ in 0..size.comments_per_event() {
            let uid = rng.int_range(1, size.users() as i64);
            let rating = rng.int_range(1, 5);
            let body = Text("nice event".into());
            let row = [Int(cid), Int(eid), Int(uid), Int(rating), body, Int(now_us)];
            insert(INSERT_COMMENT, &row);
            cid += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_sql::engine::split_statements;
    use amdb_sql::{BinlogFormat, ForkRole};

    fn tiny() -> DataSize {
        DataSize { scale: 10 }
    }

    #[test]
    fn loads_expected_row_counts() {
        let mut rng = Rng::new(1);
        let (engine, counters) = build_template(tiny(), &mut rng);
        let s = tiny();
        assert_eq!(engine.table_rows("users"), Some(s.users() as usize));
        assert_eq!(engine.table_rows("events"), Some(s.events() as usize));
        assert_eq!(engine.table_rows("tags"), Some(s.tags() as usize));
        assert_eq!(
            engine.table_rows("event_tags"),
            Some((s.events() * s.tags_per_event()) as usize)
        );
        assert_eq!(
            engine.table_rows("attendees"),
            Some((s.users() * s.attendances_per_user()) as usize)
        );
        assert_eq!(
            engine.table_rows("comments"),
            Some((s.events() * s.comments_per_event()) as usize)
        );
        assert_eq!(engine.table_rows("heartbeat"), Some(0));
        assert_eq!(counters.next_user, s.users() as i64 + 1);
        assert_eq!(counters.next_event, s.events() as i64 + 1);
    }

    #[test]
    fn the_template_holds_its_tables_and_not_its_loads_sql() {
        // Scale 30 seeds up to 1 200 rows per table.
        let (template, _) = build_template(DataSize { scale: 30 }, &mut Rng::new(5));
        assert_eq!(template.binlog().len(), 0, "the load logs nothing");
        let schema_statements = split_statements(SCHEMA_SQL)
            .iter()
            .filter(|s| !s.trim().is_empty())
            .count();
        let tables = SCHEMA_SQL.matches("CREATE TABLE").count();
        let plans = template.plan_cache_stats().entries;
        assert!(
            plans <= schema_statements + tables,
            "{plans} plans: the schema's {schema_statements} and one INSERT per table at most"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (e1, _) = build_template(tiny(), &mut Rng::new(9));
        let (e2, _) = build_template(tiny(), &mut Rng::new(9));
        let mut s1 = Session::new();
        let mut s2 = Session::new();
        let mut e1 = e1;
        let mut e2 = e2;
        let q = "SELECT created_by, zip FROM events ORDER BY id LIMIT 20";
        let r1 = e1.execute(&mut s1, q, &[]).unwrap();
        let r2 = e2.execute(&mut s2, q, &[]).unwrap();
        assert_eq!(r1.rows, r2.rows);
    }

    #[test]
    fn fork_shares_data_but_not_future_writes() {
        let (template, _) = build_template(tiny(), &mut Rng::new(2));
        let mut master = template.fork(ForkRole::Master(BinlogFormat::Statement));
        let mut slave = template.fork(ForkRole::Slave);
        assert_eq!(master.table_rows("users"), slave.table_rows("users"));
        assert_eq!(master.binlog().len(), 0, "fork starts a fresh binlog");

        let mut ms = Session::new();
        master
            .execute(
                &mut ms,
                "INSERT INTO users (id, username, created_at) VALUES (900001, 'late', 0)",
                &[],
            )
            .unwrap();
        assert_eq!(master.binlog().len(), 1);
        assert_ne!(master.table_rows("users"), slave.table_rows("users"));
        let _ = &mut slave;
    }

    #[test]
    fn base_row_writes_on_a_fork_stay_private_and_read_like_an_unfrozen_copy() {
        let (template, _) = build_template(tiny(), &mut Rng::new(4));
        // The same load into an engine that is never frozen.
        let mut unfrozen = Engine::new_slave();
        load(&mut unfrozen, tiny(), &mut Rng::new(4));
        let pristine = template.fingerprint();
        assert_eq!(unfrozen.fingerprint(), pristine);
        let mut fork = template.fork(ForkRole::Master(BinlogFormat::Statement));
        let sibling = template.fork(ForkRole::Slave);

        // Updates (pk and indexed columns), deletes, one insert, and one
        // unique violation — all against rows of the frozen base.
        let writes = [
            "UPDATE users SET username = 'renamed', email = NULL WHERE id = 3",
            "UPDATE events SET zip = 7, created_by = 1 WHERE created_by = 2",
            "DELETE FROM comments WHERE event_id = 2",
            "DELETE FROM attendees WHERE user_id = 5",
            "UPDATE event_tags SET id = 900001 WHERE id = 1",
            "INSERT INTO users (id, username, created_at) VALUES (900002, 'late', 0)",
            "UPDATE users SET username = 'user1' WHERE id = 2",
        ];
        let reads = [
            "SELECT id, username, email FROM users WHERE username = 'renamed'",
            "SELECT id, username FROM users WHERE id = 3",
            "SELECT id, zip FROM events WHERE created_by = 1",
            "SELECT id, created_by FROM events WHERE zip = 7",
            "SELECT COUNT(*) FROM comments WHERE event_id = 2",
            "SELECT id, event_id FROM attendees WHERE user_id = 5",
            "SELECT id, tag_id FROM event_tags WHERE event_id = 1",
            "SELECT id FROM event_tags WHERE id >= 1 AND id < 5",
            "SELECT * FROM events",
            "SELECT u.username, COUNT(*) FROM attendees a INNER JOIN users u ON u.id = a.user_id \
             WHERE a.event_id = 3 GROUP BY u.username",
        ];
        let (mut fs, mut us) = (Session::new(), Session::new());
        for end in ["ROLLBACK", "COMMIT"] {
            for sql in std::iter::once("BEGIN").chain(writes).chain([end]) {
                let got = fork.execute(&mut fs, sql, &[]).map(|r| r.rows_affected);
                let want = unfrozen.execute(&mut us, sql, &[]).map(|r| r.rows_affected);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{sql}");
            }
            for sql in reads {
                let got = fork.execute(&mut fs, sql, &[]).expect(sql);
                let want = unfrozen.execute(&mut us, sql, &[]).expect(sql);
                assert_eq!(got.rows, want.rows, "{sql} after {end}");
                assert_eq!(got.rows_examined, want.rows_examined, "{sql} after {end}");
            }
            assert_eq!(template.fingerprint(), pristine, "template after {end}");
            assert_eq!(sibling.fingerprint(), pristine, "sibling after {end}");
        }
        assert_eq!(fork.fingerprint(), unfrozen.fingerprint());
        assert_ne!(fork.fingerprint(), pristine, "the committed writes landed");
    }

    #[test]
    fn seed_referential_integrity() {
        let (mut engine, _) = build_template(tiny(), &mut Rng::new(3));
        let mut s = Session::new();
        // No event_tags row may reference a missing event or tag.
        let r = engine
            .execute(
                &mut s,
                "SELECT COUNT(*) FROM event_tags et \
                 LEFT JOIN events e ON et.event_id = e.id \
                 LEFT JOIN tags t ON et.tag_id = t.id \
                 WHERE e.id IS NULL OR t.id IS NULL",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
    }
}
