//! The operation mix: the Web 2.0 interactions Cloudstone models, expressed
//! directly as SQL (the paper removed the web tier, §III-A).

use crate::load::DataCounters;
use amdb_sim::Rng;
use amdb_sql::Value;

/// Read or write, for proxy routing and ratio accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Read,
    Write,
}

/// One user operation: a named, classed, short sequence of SQL statements
/// executed on one connection. Write operations are wrapped in a transaction
/// by the driver (one commit per operation).
#[derive(Debug, Clone)]
pub struct Operation {
    pub name: &'static str,
    pub class: OpClass,
    pub statements: Vec<(String, Vec<Value>)>,
}

/// Read/write mix configuration. The paper studies 50/50 and 80/20.
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    /// Fraction of operations that are reads (0.5 or 0.8 in the paper).
    pub read_fraction: f64,
}

impl MixConfig {
    /// The paper's 50/50 configuration.
    pub const RW_50_50: MixConfig = MixConfig { read_fraction: 0.5 };
    /// The paper's 80/20 configuration.
    pub const RW_80_20: MixConfig = MixConfig { read_fraction: 0.8 };

    /// Display label ("50/50").
    pub fn label(&self) -> String {
        format!(
            "{:.0}/{:.0}",
            self.read_fraction * 100.0,
            (1.0 - self.read_fraction) * 100.0
        )
    }
}

/// Generates operations against the current (growing) dataset. One generator
/// is shared by all emulated users of a run so id counters stay consistent.
#[derive(Debug, Clone)]
pub struct OpGenerator {
    counters: DataCounters,
    rng: Rng,
}

impl OpGenerator {
    /// Create a generator over post-load counters with its own RNG stream.
    pub fn new(counters: DataCounters, rng: Rng) -> Self {
        Self { counters, rng }
    }

    /// Current entity counters (tests / monitoring).
    pub fn counters(&self) -> &DataCounters {
        &self.counters
    }

    /// Draw one operation according to the mix.
    pub fn generate(&mut self, mix: MixConfig) -> Operation {
        if self.rng.chance(mix.read_fraction) {
            self.generate_read()
        } else {
            self.generate_write()
        }
    }

    /// Draw a read operation (browse/search interactions).
    pub fn generate_read(&mut self) -> Operation {
        // Weights sum to 1; tuned so the mean rows-examined matches the
        // calibration in EXPERIMENTS.md.
        match self.rng.pick_weighted(&[0.30, 0.30, 0.25, 0.15]) {
            0 => self.op_upcoming_by_zip(),
            1 => self.op_tag_search(),
            2 => self.op_event_detail(),
            _ => self.op_person_detail(),
        }
    }

    /// Draw a write operation (user-contribution interactions).
    pub fn generate_write(&mut self) -> Operation {
        match self.rng.pick_weighted(&[0.30, 0.30, 0.30, 0.10]) {
            0 => self.op_add_event(),
            1 => self.op_join_event(),
            2 => self.op_add_comment(),
            _ => self.op_add_person(),
        }
    }

    fn rand_user(&mut self) -> i64 {
        self.rng.int_range(1, self.counters.next_user - 1)
    }

    fn rand_event(&mut self) -> i64 {
        self.rng.int_range(1, self.counters.next_event - 1)
    }

    fn rand_tag(&mut self) -> i64 {
        self.rng.int_range(1, self.counters.next_tag - 1)
    }

    fn rand_zip(&mut self) -> i64 {
        self.rng.int_range(0, self.counters.zips as i64 - 1)
    }

    // ---------------- reads ----------------

    /// Home-page style browse: upcoming events in the visitor's zip code.
    fn op_upcoming_by_zip(&mut self) -> Operation {
        let zip = self.rand_zip();
        Operation {
            name: "upcoming_by_zip",
            class: OpClass::Read,
            statements: vec![(
                "SELECT id, title, event_ts FROM events WHERE zip = ? \
                 ORDER BY event_ts DESC LIMIT 10"
                    .into(),
                vec![Value::Int(zip)],
            )],
        }
    }

    /// Tag search: all events carrying a tag, with creator names.
    fn op_tag_search(&mut self) -> Operation {
        let tag = self.rand_tag();
        Operation {
            name: "tag_search",
            class: OpClass::Read,
            statements: vec![(
                "SELECT e.id, e.title, u.username FROM event_tags et \
                 INNER JOIN events e ON et.event_id = e.id \
                 INNER JOIN users u ON e.created_by = u.id \
                 WHERE et.tag_id = ? LIMIT 20"
                    .into(),
                vec![Value::Int(tag)],
            )],
        }
    }

    /// Event detail page: the event, its comments, attendee count and tags.
    fn op_event_detail(&mut self) -> Operation {
        let eid = self.rand_event();
        Operation {
            name: "event_detail",
            class: OpClass::Read,
            statements: vec![
                (
                    "SELECT id, title, description, created_by, event_ts FROM events \
                     WHERE id = ?"
                        .into(),
                    vec![Value::Int(eid)],
                ),
                (
                    "SELECT c.body, c.rating, u.username FROM comments c \
                     INNER JOIN users u ON c.user_id = u.id \
                     WHERE c.event_id = ? ORDER BY c.id DESC LIMIT 10"
                        .into(),
                    vec![Value::Int(eid)],
                ),
                (
                    "SELECT COUNT(*) FROM attendees WHERE event_id = ?".into(),
                    vec![Value::Int(eid)],
                ),
                (
                    "SELECT t.name FROM event_tags et INNER JOIN tags t ON et.tag_id = t.id \
                     WHERE et.event_id = ?"
                        .into(),
                    vec![Value::Int(eid)],
                ),
            ],
        }
    }

    /// Person detail: profile, created events, attendance history.
    fn op_person_detail(&mut self) -> Operation {
        let uid = self.rand_user();
        Operation {
            name: "person_detail",
            class: OpClass::Read,
            statements: vec![
                (
                    "SELECT id, username, email FROM users WHERE id = ?".into(),
                    vec![Value::Int(uid)],
                ),
                (
                    "SELECT id, title FROM events WHERE created_by = ? LIMIT 10".into(),
                    vec![Value::Int(uid)],
                ),
                (
                    "SELECT e.title FROM attendees a INNER JOIN events e ON a.event_id = e.id \
                     WHERE a.user_id = ? LIMIT 10"
                        .into(),
                    vec![Value::Int(uid)],
                ),
            ],
        }
    }

    // ---------------- writes ----------------

    /// Create an event with two tags.
    fn op_add_event(&mut self) -> Operation {
        let eid = self.counters.next_event;
        self.counters.next_event += 1;
        let creator = self.rand_user();
        let zip = self.rand_zip();
        let ts = self.rng.int_range(0, 30 * 86_400) * 1_000_000;
        let mut statements = vec![(
            "INSERT INTO events (id, title, description, created_by, event_ts, zip, created_at) \
             VALUES (?, ?, 'user created event', ?, ?, ?, NOW_MICROS())"
                .into(),
            vec![
                Value::Int(eid),
                Value::Text(format!("event {eid}")),
                Value::Int(creator),
                Value::Int(ts),
                Value::Int(zip),
            ],
        )];
        for _ in 0..2 {
            let etid = self.counters.next_event_tag;
            self.counters.next_event_tag += 1;
            let tag = self.rand_tag();
            statements.push((
                "INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)".into(),
                vec![Value::Int(etid), Value::Int(eid), Value::Int(tag)],
            ));
        }
        Operation {
            name: "add_event",
            class: OpClass::Write,
            statements,
        }
    }

    /// Join (attend) an event: validate it exists, then insert attendance.
    fn op_join_event(&mut self) -> Operation {
        let aid = self.counters.next_attendee;
        self.counters.next_attendee += 1;
        let eid = self.rand_event();
        let uid = self.rand_user();
        Operation {
            name: "join_event",
            class: OpClass::Write,
            statements: vec![
                (
                    "SELECT id FROM events WHERE id = ?".into(),
                    vec![Value::Int(eid)],
                ),
                (
                    "INSERT INTO attendees (id, event_id, user_id, created_at) \
                     VALUES (?, ?, ?, NOW_MICROS())"
                        .into(),
                    vec![Value::Int(aid), Value::Int(eid), Value::Int(uid)],
                ),
            ],
        }
    }

    /// Comment on / rate an event.
    fn op_add_comment(&mut self) -> Operation {
        let cid = self.counters.next_comment;
        self.counters.next_comment += 1;
        let eid = self.rand_event();
        let uid = self.rand_user();
        let rating = self.rng.int_range(1, 5);
        Operation {
            name: "add_comment",
            class: OpClass::Write,
            statements: vec![(
                "INSERT INTO comments (id, event_id, user_id, rating, body, created_at) \
                 VALUES (?, ?, ?, ?, 'great event!', NOW_MICROS())"
                    .into(),
                vec![
                    Value::Int(cid),
                    Value::Int(eid),
                    Value::Int(uid),
                    Value::Int(rating),
                ],
            )],
        }
    }

    /// Register a new user.
    fn op_add_person(&mut self) -> Operation {
        let uid = self.counters.next_user;
        self.counters.next_user += 1;
        Operation {
            name: "add_person",
            class: OpClass::Write,
            statements: vec![(
                "INSERT INTO users (id, username, email, created_at) \
                 VALUES (?, ?, ?, NOW_MICROS())"
                    .into(),
                vec![
                    Value::Int(uid),
                    Value::Text(format!("user{uid}")),
                    Value::Text(format!("user{uid}@example.com")),
                ],
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::build_template;
    use crate::schema::DataSize;
    use amdb_sql::{ForkRole, Session};

    fn generator() -> (OpGenerator, amdb_sql::Engine) {
        generator_at(DataSize { scale: 10 }, 11)
    }

    fn generator_at(size: DataSize, seed: u64) -> (OpGenerator, amdb_sql::Engine) {
        let mut rng = Rng::new(seed);
        let (template, counters) = build_template(size, &mut rng);
        let engine = template.fork(ForkRole::Master(amdb_sql::BinlogFormat::Statement));
        (OpGenerator::new(counters, rng.derive("ops")), engine)
    }

    #[test]
    fn mix_ratio_is_respected() {
        let (mut g, _) = generator();
        let mut reads = 0;
        let n = 10_000;
        for _ in 0..n {
            if g.generate(MixConfig::RW_80_20).class == OpClass::Read {
                reads += 1;
            }
        }
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn every_generated_op_executes() {
        let (mut g, mut engine) = generator();
        let mut session = Session::new();
        for i in 0..500 {
            let op = g.generate(MixConfig::RW_50_50);
            for (sql, params) in &op.statements {
                engine
                    .execute(&mut session, sql, params)
                    .unwrap_or_else(|e| panic!("op {i} ({}) failed: {e}\n{sql}", op.name));
            }
        }
    }

    #[test]
    fn writes_grow_counters_and_tables() {
        let (mut g, mut engine) = generator();
        let mut session = Session::new();
        let before_events = engine.table_rows("events").unwrap();
        let mut added_events = 0;
        for _ in 0..200 {
            let op = g.generate_write();
            if op.name == "add_event" {
                added_events += 1;
            }
            for (sql, params) in &op.statements {
                engine.execute(&mut session, sql, params).unwrap();
            }
        }
        assert!(added_events > 0);
        assert_eq!(
            engine.table_rows("events").unwrap(),
            before_events + added_events
        );
    }

    #[test]
    fn reads_do_not_mutate() {
        let (mut g, mut engine) = generator();
        let mut session = Session::new();
        let snapshot: Vec<Option<usize>> = ["users", "events", "comments", "attendees"]
            .iter()
            .map(|t| engine.table_rows(t))
            .collect();
        for _ in 0..100 {
            let op = g.generate_read();
            assert_eq!(op.class, OpClass::Read);
            for (sql, params) in &op.statements {
                engine.execute(&mut session, sql, params).unwrap();
            }
        }
        let after: Vec<Option<usize>> = ["users", "events", "comments", "attendees"]
            .iter()
            .map(|t| engine.table_rows(t))
            .collect();
        assert_eq!(snapshot, after);
    }

    /// Σ `rows_examined` and Σ returned rows per read statement shape
    /// (`op#statement`) over 2 000 `generate_read()` ops. Every statement
    /// also runs through `Engine::examine`, which must examine and affect
    /// exactly as many rows as `execute`.
    fn read_shape_totals(size: DataSize, seed: u64) -> Vec<(String, u64, u64)> {
        let (mut g, mut engine) = generator_at(size, seed);
        let mut session = Session::new();
        let mut totals = std::collections::BTreeMap::<String, (u64, u64)>::new();
        for _ in 0..2_000 {
            let op = g.generate_read();
            for (i, (sql, params)) in op.statements.iter().enumerate() {
                let res = engine.execute(&mut session, sql, params).unwrap();
                let costed = engine.examine(&mut session, sql, params).unwrap();
                assert_eq!(
                    (costed.rows_examined, costed.rows_affected),
                    (res.rows_examined, res.rows_affected),
                    "{}#{i}: examine costs it as execute does",
                    op.name
                );
                let t = totals.entry(format!("{}#{i}", op.name)).or_default();
                t.0 += res.rows_examined;
                t.1 += res.rows.len() as u64;
            }
        }
        totals.into_iter().map(|(k, (e, r))| (k, e, r)).collect()
    }

    /// `rows_examined` is the cost model's input, so the simulated results
    /// depend on it: the executor may get cheaper per row but must fetch and
    /// count every candidate it did before (no early termination under
    /// LIMIT). The constants were recorded before PR 14's executor rewrite.
    #[test]
    fn rows_examined_per_read_shape_is_pinned() {
        const TINY_TOTALS: [(&str, u64, u64); 9] = [
            ("event_detail#0", 540, 540),
            ("event_detail#1", 2160, 1080),
            ("event_detail#2", 818, 540),
            ("event_detail#3", 2160, 1080),
            ("person_detail#0", 300, 300),
            ("person_detail#1", 516, 516),
            ("person_detail#2", 1800, 900),
            ("tag_search#0", 6726, 2242),
            ("upcoming_by_zip#0", 1167, 1167),
        ];
        const SMALL_TOTALS: [(&str, u64, u64); 9] = [
            ("event_detail#0", 483, 483),
            ("event_detail#1", 1932, 966),
            ("event_detail#2", 715, 483),
            ("event_detail#3", 1932, 966),
            ("person_detail#0", 312, 312),
            ("person_detail#1", 598, 598),
            ("person_detail#2", 1872, 936),
            ("tag_search#0", 86115, 11920),
            ("upcoming_by_zip#0", 36338, 6090),
        ];
        let tiny = read_shape_totals(DataSize { scale: 10 }, 11);
        let small = read_shape_totals(DataSize::SMALL, 42);
        for (got, want) in [(tiny, &TINY_TOTALS[..]), (small, &SMALL_TOTALS[..])] {
            assert_eq!(got.len(), want.len(), "nine read statement shapes");
            for ((shape, examined, rows), (w_shape, w_examined, w_rows)) in got.iter().zip(want) {
                assert_eq!(shape, w_shape);
                assert_eq!(
                    (examined, rows),
                    (w_examined, w_rows),
                    "{shape}: (rows_examined, rows returned)"
                );
            }
        }
    }

    /// Two forks run one 50/50 op stream, one through `execute` and one
    /// through `examine`, writes in a transaction as the cluster's master
    /// runs them: every statement costs the same, and the forks end equal.
    #[test]
    fn examine_and_execute_cost_the_write_mix_alike() {
        let (mut g, mut executed) = generator();
        let (_, mut examined) = generator();
        let (mut s1, mut s2) = (Session::new(), Session::new());
        let cost = amdb_sql::cost::CostModel::default();
        let demand =
            |r: &amdb_sql::QueryResult| cost.statement_demand_us(r, r.rows_affected > 0).to_bits();
        for i in 0..1_000 {
            let op = g.generate(MixConfig::RW_50_50);
            let txn = op.class == OpClass::Write;
            let begin = txn.then(|| ("BEGIN".to_string(), vec![]));
            let commit = txn.then(|| ("COMMIT".to_string(), vec![]));
            for (sql, params) in begin.iter().chain(&op.statements).chain(&commit) {
                let a = executed.execute(&mut s1, sql, params).unwrap();
                let b = examined.examine(&mut s2, sql, params).unwrap();
                assert_eq!(demand(&b), demand(&a), "op {i} ({}): {sql}", op.name);
            }
        }
        assert_eq!(examined.fingerprint(), executed.fingerprint());
        assert_eq!(examined.binlog().head(), executed.binlog().head());
    }

    #[test]
    fn generated_ids_never_collide() {
        let (mut g, mut engine) = generator();
        let mut session = Session::new();
        // Hammer writes; any id collision would surface as DuplicateKey.
        for _ in 0..500 {
            let op = g.generate_write();
            for (sql, params) in &op.statements {
                engine.execute(&mut session, sql, params).unwrap();
            }
        }
    }

    #[test]
    fn mix_labels() {
        assert_eq!(MixConfig::RW_50_50.label(), "50/50");
        assert_eq!(MixConfig::RW_80_20.label(), "80/20");
    }
}
