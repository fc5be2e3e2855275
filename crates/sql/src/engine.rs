//! The engine facade: sessions, transactions, autocommit, binlogging, and
//! replica apply.

use crate::ast::Statement;
use crate::binlog::{Binlog, BinlogEvent, BinlogFormat, EventPayload, Lsn};
use crate::cache::{CacheStats, CachedPlan, PlanCache};
use crate::error::SqlError;
use crate::exec::{
    bind, column_index, examine_select_planned, exec_delete, exec_insert, exec_select_planned,
    exec_update, table_key, Catalog, Plan, QueryResult, RowChange, RowChangeKind, WriteLog,
};
use crate::expr::EvalCtx;
use crate::parser::parse;
use crate::storage::Table;
use crate::value::Value;
use std::sync::Arc;

/// A client session: clock context, transaction state and the open write
/// record. The *caller* supplies `now_micros` (ultimately from the owning
/// VM's drifting clock) before each statement — the engine never reads host
/// time.
#[derive(Debug, Default)]
pub struct Session {
    /// Local wall-clock microseconds used by `NOW_MICROS()` and as the
    /// commit timestamp of binlog events.
    pub now_micros: i64,
    in_txn: bool,
    /// Every row the open transaction changed (outside one: the running
    /// statement), in order. It is the one record of a write: undone in
    /// reverse when a statement fails or on ROLLBACK, shipped as one `Rows`
    /// event at commit by a row-logging master.
    log: WriteLog,
    /// Statement events a statement-logging master holds back until COMMIT.
    pending: Vec<EventPayload>,
    last_insert_id: Option<i64>,
}

impl Session {
    /// Fresh autocommit session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is an explicit transaction open?
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// The auto-increment id assigned by the most recent INSERT.
    pub fn last_insert_id(&self) -> Option<i64> {
        self.last_insert_id
    }
}

/// Role for [`Engine::fork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkRole {
    /// Fork into a master logging with the given format.
    Master(BinlogFormat),
    /// Fork into a slave (no binlogging).
    Slave,
}

/// The database engine: catalog + binary log.
///
/// One engine instance models one MySQL server (master or slave). Masters
/// are constructed with [`Engine::new_master`] and log writes; slaves use
/// [`Engine::new_slave`] and apply shipped events without re-logging
/// (MySQL's default `log_slave_updates = OFF`).
#[derive(Debug)]
pub struct Engine {
    catalog: Catalog,
    binlog: Binlog,
    format: BinlogFormat,
    log_writes: bool,
    plan_cache: PlanCache,
    /// Monotone counter bumped by every schema-affecting DDL. Tables are
    /// stamped with it on CREATE TABLE / CREATE INDEX; cached plans record
    /// the stamps they were planned against (see [`crate::cache`]).
    ddl_serial: u64,
    /// The session shipped statement events run in, like a replica's one
    /// SQL thread: its write log keeps its capacity from event to event.
    applier: Session,
}

/// Default plan-cache capacity per engine. The workloads in this repo use a
/// few dozen distinct statement shapes, so a few hundred entries means the
/// steady state never evicts.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

impl Engine {
    /// A master engine with the given binlog format.
    pub fn new_master(format: BinlogFormat) -> Self {
        Self {
            catalog: Catalog::new(),
            binlog: Binlog::new(),
            format,
            log_writes: true,
            plan_cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            ddl_serial: 0,
            applier: Session::new(),
        }
    }

    /// A slave engine (does not produce binlog events).
    pub fn new_slave() -> Self {
        Self {
            catalog: Catalog::new(),
            binlog: Binlog::new(),
            format: BinlogFormat::Statement,
            log_writes: false,
            plan_cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            ddl_serial: 0,
            applier: Session::new(),
        }
    }

    /// The binlog (master side).
    pub fn binlog(&self) -> &Binlog {
        &self.binlog
    }

    /// Move every table's rows and indexes into its shared frozen base
    /// ([`crate::storage`]); forks taken afterwards share that base and
    /// own only a delta. Freezing moves, it copies nothing; a table frozen
    /// before keeps its base.
    pub fn freeze(&mut self) {
        for table in self.catalog.values_mut() {
            table.freeze();
        }
    }

    /// Fork a copy of this engine's *data* (catalog incl. indexes and
    /// auto-increment state) with a fresh, empty binlog.
    ///
    /// This is how the experiments realize the paper's requirement that
    /// "both the master and slaves should start with a pre-loaded,
    /// fully-synchronized database" (§III-B): one template engine is loaded
    /// once, [frozen](Engine::freeze), then forked into the master and every
    /// slave of each run. Each table of a fork is the template's frozen base
    /// — shared, never copied — plus an empty delta of its own: a fork costs
    /// one `Arc` bump per table, its writes land in its delta, and dropping
    /// it frees only the delta. Scan and index posting order are those of an
    /// unfrozen copy, so a fork answers every query as a deep copy would. A
    /// fork of a fork (a slave re-seeded from the master mid-run) shares the
    /// same base and copies the source's delta.
    pub fn fork(&self, role: ForkRole) -> Engine {
        let (format, log_writes) = match role {
            ForkRole::Master(format) => (format, true),
            ForkRole::Slave => (BinlogFormat::Statement, false),
        };
        Engine {
            catalog: self.catalog.clone(),
            binlog: Binlog::new(),
            format,
            log_writes,
            // Same capacity, fresh (empty) cache: plans are cheap to rebuild
            // and per-fork caches keep the fork cost proportional to data.
            plan_cache: PlanCache::new(self.plan_cache.capacity()),
            ddl_serial: self.ddl_serial,
            applier: Session::new(),
        }
    }

    /// Promote a slave engine to master in place (failover): it keeps its
    /// data, starts logging writes, and opens a fresh binlog. Writes on the
    /// failed old master that this replica never applied are *lost* — the
    /// asynchronous-replication data-loss window of §II ("once the updated
    /// replica goes offline before duplicating data, data loss may occur").
    pub fn promote_to_master(&mut self, format: BinlogFormat) {
        self.promote_to_master_at(format, Lsn(0));
    }

    /// [`Self::promote_to_master`], continuing an existing LSN space: the
    /// fresh binlog's first append is assigned `at`. The shared-log backend
    /// promotes with `at = ` the log service's published head, so the
    /// cluster-wide LSN space survives failover and tailing replicas keep
    /// their positions.
    pub fn promote_to_master_at(&mut self, format: BinlogFormat, at: Lsn) {
        self.format = format;
        self.log_writes = true;
        self.binlog = Binlog::starting_at(at);
    }

    /// Whether this engine logs writes (true for masters).
    pub fn is_master(&self) -> bool {
        self.log_writes
    }

    /// Row count of a table (testing/monitoring aid).
    pub fn table_rows(&self, name: &str) -> Option<usize> {
        self.catalog
            .get(table_key(name).as_ref())
            .map(Table::row_count)
    }

    /// Primary-key column index of a table (`None` if the table has no
    /// primary key, or does not exist). The parallel-apply scheduler uses
    /// this to turn row images into conflict keys.
    pub fn pk_index_of(&self, name: &str) -> Option<usize> {
        self.catalog
            .get(table_key(name).as_ref())?
            .schema()
            .pk_index()
    }

    /// Local apply instant (µs on this replica's clock) of the row with
    /// primary key `key`, if it was written through the row-apply path.
    /// `None` for locally-executed rows: under the *statement* binlog format
    /// the re-executed INSERT materializes the slave's own clock into the
    /// stored timestamp, so no out-of-band stamp is needed — but under the
    /// *row* format the shipped image carries the master's timestamp
    /// verbatim, and reading delay from stored data alone would make every
    /// heartbeat look like it arrived instantly.
    pub fn apply_time_of(&self, table: &str, key: &Value) -> Option<u64> {
        let t = self.catalog.get(table_key(table).as_ref())?;
        let rid = t.pk_lookup(key)?;
        t.applied_at_of(rid)
    }

    /// Deterministic 64-bit fingerprint of all table *contents*.
    ///
    /// FNV-1a over table names (catalog order — a `BTreeMap`, so sorted),
    /// row counts, and every row's values in row-id order. Hand-rolled
    /// because `std`'s `DefaultHasher` is randomized per process and the
    /// format-equivalence tests need a value comparable across runs.
    /// Deliberately excludes binlogs, plan caches, auto-increment cursors,
    /// and row-version stamps: two replicas fingerprint equal iff a client
    /// reading any table sees identical data.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for (name, table) in &self.catalog {
            eat(name.as_bytes());
            eat(&(table.row_count() as u64).to_le_bytes());
            for (_, row) in table.scan() {
                for v in row {
                    match v {
                        Value::Null => eat(&[0]),
                        Value::Int(i) => {
                            eat(&[1]);
                            eat(&i.to_le_bytes());
                        }
                        Value::Double(d) => {
                            eat(&[2]);
                            eat(&d.to_bits().to_le_bytes());
                        }
                        Value::Text(s) => {
                            eat(&[3]);
                            eat(&(s.len() as u64).to_le_bytes());
                            eat(s.as_bytes());
                        }
                        Value::Bool(b) => eat(&[4, *b as u8]),
                        Value::Timestamp(t) => {
                            eat(&[5]);
                            eat(&t.to_le_bytes());
                        }
                    }
                }
            }
        }
        h
    }

    /// Execute one statement with positional parameters. Parsing and
    /// planning go through the plan cache: repeated statement texts (every
    /// hot-path query, and every statement-format binlog event a slave
    /// re-applies) cost a hash lookup instead of a parse.
    pub fn execute(
        &mut self,
        session: &mut Session,
        sql: &str,
        params: &[Value],
    ) -> Result<QueryResult, SqlError> {
        let plan = self.prepare(sql)?;
        self.execute_plan(session, &plan, sql, params)
    }

    /// Execute one statement for what it costs: what the cost model reads
    /// of the result (`rows_examined`, `rows_affected`) is exactly what
    /// [`Self::execute`] returns, and so is every error and every change to
    /// the engine. Writes, DDL and transaction control run as `execute`
    /// runs them. A SELECT whose outputs are plain columns or literals runs
    /// its join only and returns no rows: nothing is sorted, windowed or
    /// projected (see [`examine_select_planned`]); any other SELECT runs in
    /// full. The simulator costs every statement it times through this
    /// entry.
    pub fn examine(
        &mut self,
        session: &mut Session,
        sql: &str,
        params: &[Value],
    ) -> Result<QueryResult, SqlError> {
        let plan = self.prepare(sql)?;
        match &plan.plan {
            Plan::Select(select) => {
                let ctx = EvalCtx {
                    params,
                    now_micros: session.now_micros,
                };
                examine_select_planned(&self.catalog, select, &ctx)
            }
            _ => self.execute_plan(session, &plan, sql, params),
        }
    }

    /// Parse and bind `sql`, consulting the plan cache. Binding resolves
    /// every table and column a row statement names, so an unknown one fails
    /// here, before any row is read. Cache entries are revalidated against
    /// the engine's DDL serial; plans whose table dependencies moved are
    /// rebuilt. Statements that fail to parse or bind are never cached.
    pub fn prepare(&mut self, sql: &str) -> Result<Arc<CachedPlan>, SqlError> {
        if self.plan_cache.capacity() != 0 {
            let catalog = &self.catalog;
            if let Some(plan) = self.plan_cache.get_validated(sql, self.ddl_serial, |p| {
                p.deps.iter().all(|(key, serial)| {
                    catalog.get(key).map(Table::schema_serial) == Some(*serial)
                })
            }) {
                return Ok(plan);
            }
        }
        let stmt = parse(sql)?;
        let param_count = stmt.param_count();
        let (plan, deps) = bind(&self.catalog, stmt)?;
        let plan = Arc::new(CachedPlan {
            plan,
            deps,
            param_count,
        });
        self.plan_cache
            .insert(sql.to_string(), Arc::clone(&plan), self.ddl_serial);
        Ok(plan)
    }

    /// Plan-cache hit/miss counters (tests, benches, monitoring).
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Resize the plan cache; a capacity of zero disables caching (used by
    /// the transparency cross-checks to force the uncached path).
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.plan_cache.set_capacity(capacity);
    }

    /// Execute a semicolon-separated batch (DDL scripts, loaders). Returns
    /// the last statement's result. Parameters are not allowed in batches.
    pub fn execute_batch(
        &mut self,
        session: &mut Session,
        sql: &str,
    ) -> Result<QueryResult, SqlError> {
        let mut last = QueryResult::default();
        for piece in split_statements(sql) {
            let trimmed = piece.trim();
            if trimmed.is_empty() {
                continue;
            }
            last = self.execute(session, trimmed, &[])?;
        }
        Ok(last)
    }

    fn execute_plan(
        &mut self,
        session: &mut Session,
        plan: &CachedPlan,
        sql: &str,
        params: &[Value],
    ) -> Result<QueryResult, SqlError> {
        let ctx = EvalCtx {
            params,
            now_micros: session.now_micros,
        };
        match &plan.plan {
            Plan::Select(select) => exec_select_planned(&self.catalog, select, &ctx),
            Plan::Explain(res) => Ok(res.clone()),
            Plan::Insert(insert) => self.write(session, plan, sql, params, |catalog, log| {
                exec_insert(catalog, insert, &ctx, log)
            }),
            Plan::Update(update) => self.write(session, plan, sql, params, |catalog, log| {
                exec_update(catalog, update, &ctx, log)
            }),
            Plan::Delete(scan) => self.write(session, plan, sql, params, |catalog, log| {
                exec_delete(catalog, scan, &ctx, log)
            }),
            Plan::Unbound(Statement::Begin) => {
                if session.in_txn {
                    return Err(SqlError::Transaction("transaction already open".into()));
                }
                session.in_txn = true;
                Ok(QueryResult::default())
            }
            Plan::Unbound(Statement::Commit) => {
                if !session.in_txn {
                    return Err(SqlError::Transaction("COMMIT without BEGIN".into()));
                }
                session.in_txn = false;
                self.commit(session);
                Ok(QueryResult::default())
            }
            Plan::Unbound(Statement::Rollback) => {
                if !session.in_txn {
                    return Err(SqlError::Transaction("ROLLBACK without BEGIN".into()));
                }
                session.in_txn = false;
                session.pending.clear();
                self.undo(&mut session.log, 0);
                Ok(QueryResult::default())
            }
            Plan::Unbound(Statement::CreateTable {
                schema,
                if_not_exists,
            }) => {
                let key = schema.name.to_ascii_lowercase();
                if self.catalog.contains_key(&key) {
                    if *if_not_exists {
                        return Ok(QueryResult::default());
                    }
                    return Err(SqlError::DuplicateTable(schema.name.clone()));
                }
                self.ddl_serial += 1;
                let mut table = Table::new(schema.clone());
                table.set_schema_serial(self.ddl_serial);
                self.catalog.insert(key, table);
                self.log_ddl(session, sql, plan.param_count, params)?;
                Ok(QueryResult::default())
            }
            Plan::Unbound(Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            }) => {
                let t = crate::exec::get_table_mut(&mut self.catalog, table)?;
                let col = column_index(t, column)?;
                t.create_index(name.clone(), col, *unique)?;
                self.ddl_serial += 1;
                t.set_schema_serial(self.ddl_serial);
                self.log_ddl(session, sql, plan.param_count, params)?;
                Ok(QueryResult::default())
            }
            Plan::Unbound(Statement::DropTable { name, if_exists }) => {
                let key = name.to_ascii_lowercase();
                if self.catalog.remove(&key).is_none() && !*if_exists {
                    return Err(SqlError::UnknownTable(name.clone()));
                }
                // A later CREATE TABLE of the same name gets a fresh serial,
                // so plans against the dropped table can never alias it.
                self.ddl_serial += 1;
                self.log_ddl(session, sql, plan.param_count, params)?;
                Ok(QueryResult::default())
            }
            Plan::Unbound(_) => unreachable!("prepare binds every row statement"),
        }
    }

    /// Run one write statement, atomically: `exec` records every row it
    /// changes in the session's log. If it fails, or its statement event
    /// cannot be logged, its own entries are undone and the error returned;
    /// outside a transaction a success commits at once.
    fn write(
        &mut self,
        session: &mut Session,
        plan: &CachedPlan,
        sql: &str,
        params: &[Value],
        exec: impl FnOnce(&mut Catalog, &mut WriteLog) -> Result<QueryResult, SqlError>,
    ) -> Result<QueryResult, SqlError> {
        let mark = session.log.len();
        let logged = exec(&mut self.catalog, &mut session.log).and_then(|result| {
            if self.log_writes && self.format == BinlogFormat::Statement && result.rows_affected > 0
            {
                session.pending.push(EventPayload::Statement {
                    sql: sql.to_string(),
                    params: log_params(plan.param_count, params)?,
                });
            }
            Ok(result)
        });
        let result = match logged {
            Ok(result) => result,
            Err(err) => {
                self.undo(&mut session.log, mark);
                return Err(err);
            }
        };
        if result.last_insert_id.is_some() {
            session.last_insert_id = result.last_insert_id;
        }
        if !session.in_txn {
            self.commit(session);
        }
        Ok(result)
    }

    /// DDL is always statement-logged and implicitly commits (as in MySQL):
    /// the open transaction commits first, then the DDL logs itself.
    fn log_ddl(
        &mut self,
        session: &mut Session,
        sql: &str,
        param_count: usize,
        params: &[Value],
    ) -> Result<(), SqlError> {
        let logged = self
            .log_writes
            .then(|| log_params(param_count, params))
            .transpose()?;
        session.in_txn = false;
        self.commit(session);
        if let Some(params) = logged {
            let sql = sql.to_string();
            self.binlog
                .append(session.now_micros, EventPayload::Statement { sql, params });
        }
        Ok(())
    }

    /// Commit the session's write record: a statement-logging master
    /// appends the statements it held back, a row-logging master one `Rows`
    /// event of the whole log, so a slave applies (and the parallel-apply
    /// scheduler batches) whole transactions, never a prefix of one.
    fn commit(&mut self, session: &mut Session) {
        for payload in session.pending.drain(..) {
            self.binlog.append(session.now_micros, payload);
        }
        if self.log_writes && self.format == BinlogFormat::Row && !session.log.is_empty() {
            let changes = session.log.drain(..).map(|(_, change)| change).collect();
            self.binlog
                .append(session.now_micros, EventPayload::Rows { changes });
        }
        session.log.clear();
    }

    /// Undo `log[from..]` in reverse through the tables' own delete, update
    /// and restore, so row ids and scan order are what they were before.
    /// Auto-increment counters are not rewound, as in InnoDB.
    fn undo(&mut self, log: &mut WriteLog, from: usize) {
        for (rid, change) in log.drain(from..).rev() {
            let table = self
                .catalog
                .get_mut(&*change.table)
                .expect("DDL commits the log, so every table it names exists");
            match change.kind {
                RowChangeKind::Insert { .. } => {
                    table.delete(rid);
                }
                RowChangeKind::Update { before, .. } => {
                    let _ = table.update(rid, before.to_vec());
                }
                RowChangeKind::Delete { row } => table.restore(rid, row),
            }
        }
    }

    // ------------------------------------------------------------------
    // Replica apply
    // ------------------------------------------------------------------

    /// Apply one shipped binlog event on a replica. `now_micros` is the
    /// *replica's* local clock — for statement events this re-evaluates
    /// `NOW_MICROS()` against the slave clock, producing the paper's
    /// measurable heartbeat skew.
    pub fn apply_event(
        &mut self,
        event: &BinlogEvent,
        now_micros: i64,
    ) -> Result<QueryResult, SqlError> {
        match &event.payload {
            EventPayload::Statement { sql, params } => {
                // Fast path: the statement text is the cache key, so a slave
                // re-applying the workload's repeated statement shapes hits
                // its plan cache and skips the parse entirely.
                let mut applier = std::mem::take(&mut self.applier);
                applier.now_micros = now_micros;
                let res = self.execute(&mut applier, sql, params);
                self.applier = applier;
                res
            }
            EventPayload::Rows { changes } => {
                let mut res = QueryResult::default();
                for change in changes {
                    self.apply_row_change(change, now_micros)?;
                    res.rows_affected += 1;
                    res.rows_examined += 1;
                }
                Ok(res)
            }
        }
    }

    fn apply_row_change(&mut self, change: &RowChange, now_micros: i64) -> Result<(), SqlError> {
        let table = crate::exec::get_table_mut(&mut self.catalog, &change.table)?;
        let pk = table.schema().pk_index();
        let find = |table: &Table, image: &[Value]| -> Option<crate::storage::RowId> {
            match pk {
                Some(pk_idx) => table.pk_lookup(&image[pk_idx]),
                None => table
                    .scan()
                    .find(|(_, row)| *row == image)
                    .map(|(rid, _)| rid),
            }
        };
        match &change.kind {
            RowChangeKind::Insert { row } => {
                let rid = table.insert(row.to_vec())?;
                table.stamp_applied_at(rid, now_micros.max(0) as u64);
            }
            RowChangeKind::Update { before, after } => {
                let rid = find(table, before).ok_or_else(|| {
                    SqlError::Constraint(format!(
                        "row-apply update: no matching row in '{}'",
                        change.table
                    ))
                })?;
                table.update(rid, after.to_vec())?;
                table.stamp_applied_at(rid, now_micros.max(0) as u64);
            }
            RowChangeKind::Delete { row } => {
                let rid = find(table, row).ok_or_else(|| {
                    SqlError::Constraint(format!(
                        "row-apply delete: no matching row in '{}'",
                        change.table
                    ))
                })?;
                table.delete(rid);
            }
        }
        Ok(())
    }

    /// Read binlog events at or after `from` (the slave I/O thread's fetch).
    pub fn binlog_from(&self, from: Lsn) -> &[BinlogEvent] {
        self.binlog.read_from(from)
    }
}

/// Validate binding arity and normalize parameter values for statement
/// binlogging. The arity errors reproduce the literal-substitution path
/// this replaces, byte for byte. `Timestamp` normalizes to `Int` because
/// that is what the old path's literal round-trip produced: a timestamp
/// renders as a bare integer literal, which re-parses as INT and only
/// regains its affinity through column coercion on the slave.
fn log_params(param_count: usize, params: &[Value]) -> Result<Vec<Value>, SqlError> {
    if params.len() < param_count {
        return Err(SqlError::BadParameter(format!(
            "placeholder {} not bound",
            params.len() + 1
        )));
    }
    if params.len() > param_count {
        return Err(SqlError::BadParameter(format!(
            "{} parameters bound, {} placeholders found",
            params.len(),
            param_count
        )));
    }
    Ok(params
        .iter()
        .map(|v| match v {
            Value::Timestamp(t) => Value::Int(*t),
            other => other.clone(),
        })
        .collect())
}

/// Split a batch on top-level semicolons (string literals respected).
pub fn split_statements(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                cur.push(c);
                while let Some(sc) = chars.next() {
                    cur.push(sc);
                    if sc == '\'' {
                        if chars.peek() == Some(&'\'') {
                            cur.push(chars.next().expect("peeked"));
                        } else {
                            break;
                        }
                    }
                }
            }
            ';' => {
                out.push(std::mem::take(&mut cur));
            }
            other => cur.push(other),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master() -> (Engine, Session) {
        let mut e = Engine::new_master(BinlogFormat::Statement);
        let mut s = Session::new();
        e.execute_batch(
            &mut s,
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(64) NOT NULL, score DOUBLE);
             CREATE INDEX idx_name ON users (name);",
        )
        .unwrap();
        (e, s)
    }

    #[test]
    fn end_to_end_crud() {
        let (mut e, mut s) = master();
        let r = e
            .execute(
                &mut s,
                "INSERT INTO users (name, score) VALUES (?, ?)",
                &[Value::from("alice"), Value::from(1.5)],
            )
            .unwrap();
        assert_eq!(r.rows_affected, 1);
        assert_eq!(r.last_insert_id, Some(1));

        e.execute(
            &mut s,
            "INSERT INTO users (name, score) VALUES ('bob', 2.0), ('carol', 3.0)",
            &[],
        )
        .unwrap();

        let r = e
            .execute(
                &mut s,
                "SELECT name FROM users WHERE score >= 2 ORDER BY name",
                &[],
            )
            .unwrap();
        assert_eq!(r.columns.as_ref(), ["name"]);
        assert_eq!(
            r.rows,
            vec![vec![Value::from("bob")], vec![Value::from("carol")]]
        );

        let r = e
            .execute(
                &mut s,
                "UPDATE users SET score = score + 1 WHERE name = 'bob'",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows_affected, 1);

        let r = e
            .execute(&mut s, "DELETE FROM users WHERE id = 1", &[])
            .unwrap();
        assert_eq!(r.rows_affected, 1);
        assert_eq!(e.table_rows("users"), Some(2));
    }

    #[test]
    fn select_with_join_and_aggregate() {
        let (mut e, mut s) = master();
        e.execute_batch(
            &mut s,
            "CREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total DOUBLE);
             CREATE INDEX idx_user ON orders (user_id);
             INSERT INTO users (name, score) VALUES ('a', 0.0), ('b', 0.0);
             INSERT INTO orders VALUES (1, 1, 10.0), (2, 1, 20.0), (3, 2, 5.0)",
        )
        .unwrap();
        let r = e
            .execute(
                &mut s,
                "SELECT u.name, COUNT(*) AS n, SUM(o.total) AS total \
                 FROM users u INNER JOIN orders o ON o.user_id = u.id \
                 GROUP BY u.id ORDER BY total DESC",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::from("a"));
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Double(30.0));
    }

    #[test]
    fn left_join_pads_nulls() {
        let (mut e, mut s) = master();
        e.execute_batch(
            &mut s,
            "CREATE TABLE orders (id INT PRIMARY KEY, user_id INT);
             INSERT INTO users (name) VALUES ('a'), ('b');
             INSERT INTO orders VALUES (1, 1)",
        )
        .unwrap();
        let r = e
            .execute(
                &mut s,
                "SELECT u.name, o.id FROM users u LEFT JOIN orders o ON o.user_id = u.id ORDER BY u.name",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1], vec![Value::from("b"), Value::Null]);
    }

    #[test]
    fn transaction_rollback_restores_state() {
        let (mut e, mut s) = master();
        e.execute(&mut s, "INSERT INTO users (name) VALUES ('keep')", &[])
            .unwrap();
        e.execute(&mut s, "BEGIN", &[]).unwrap();
        e.execute(&mut s, "INSERT INTO users (name) VALUES ('gone')", &[])
            .unwrap();
        e.execute(
            &mut s,
            "UPDATE users SET name = 'kept?' WHERE name = 'keep'",
            &[],
        )
        .unwrap();
        e.execute(&mut s, "DELETE FROM users WHERE name = 'kept?'", &[])
            .unwrap_or_else(|_| panic!());
        e.execute(&mut s, "ROLLBACK", &[]).unwrap();
        let r = e
            .execute(&mut s, "SELECT name FROM users ORDER BY name", &[])
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("keep")]]);
        // Rolled-back work must not reach the binlog.
        let binlogged: Vec<_> = e
            .binlog()
            .read_from(Lsn(0))
            .iter()
            .filter(|ev| match &ev.payload {
                EventPayload::Statement { sql, .. } => sql.contains("gone"),
                _ => false,
            })
            .collect();
        assert!(binlogged.is_empty());
    }

    #[test]
    fn transaction_commit_logs_all_statements() {
        let (mut e, mut s) = master();
        let before = e.binlog().len();
        e.execute(&mut s, "BEGIN", &[]).unwrap();
        e.execute(&mut s, "INSERT INTO users (name) VALUES ('x')", &[])
            .unwrap();
        e.execute(&mut s, "INSERT INTO users (name) VALUES ('y')", &[])
            .unwrap();
        assert_eq!(e.binlog().len(), before, "nothing logged before commit");
        e.execute(&mut s, "COMMIT", &[]).unwrap();
        assert_eq!(e.binlog().len(), before + 2);
    }

    #[test]
    fn txn_state_errors() {
        let (mut e, mut s) = master();
        assert!(e.execute(&mut s, "COMMIT", &[]).is_err());
        assert!(e.execute(&mut s, "ROLLBACK", &[]).is_err());
        e.execute(&mut s, "BEGIN", &[]).unwrap();
        assert!(e.execute(&mut s, "BEGIN", &[]).is_err());
    }

    #[test]
    fn statement_replication_reexecutes_now_micros() {
        let mut master = Engine::new_master(BinlogFormat::Statement);
        let mut ms = Session::new();
        ms.now_micros = 1_000;
        master
            .execute_batch(
                &mut ms,
                "CREATE TABLE heartbeat (id INT PRIMARY KEY, ts TIMESTAMP)",
            )
            .unwrap();
        master
            .execute(
                &mut ms,
                "INSERT INTO heartbeat (id, ts) VALUES (?, NOW_MICROS())",
                &[Value::Int(1)],
            )
            .unwrap();

        let mut slave = Engine::new_slave();
        // Slave clock is 5000 µs ahead.
        for ev in master.binlog_from(Lsn(0)).to_vec() {
            slave.apply_event(&ev, 6_000).unwrap();
        }
        let mut ss = Session::new();
        let m = master
            .execute(&mut ms, "SELECT ts FROM heartbeat WHERE id = 1", &[])
            .unwrap();
        let sl = slave
            .execute(&mut ss, "SELECT ts FROM heartbeat WHERE id = 1", &[])
            .unwrap();
        assert_eq!(m.rows[0][0], Value::Timestamp(1_000));
        assert_eq!(
            sl.rows[0][0],
            Value::Timestamp(6_000),
            "slave re-evaluated NOW_MICROS with its own clock"
        );
    }

    #[test]
    fn row_replication_copies_exact_images() {
        let mut master = Engine::new_master(BinlogFormat::Row);
        let mut ms = Session::new();
        ms.now_micros = 1_000;
        master
            .execute_batch(&mut ms, "CREATE TABLE t (id INT PRIMARY KEY, ts TIMESTAMP)")
            .unwrap();
        master
            .execute(&mut ms, "INSERT INTO t VALUES (1, NOW_MICROS())", &[])
            .unwrap();
        master
            .execute(&mut ms, "UPDATE t SET ts = 42 WHERE id = 1", &[])
            .unwrap();

        let mut slave = Engine::new_slave();
        for ev in master.binlog_from(Lsn(0)).to_vec() {
            slave.apply_event(&ev, 999_999).unwrap();
        }
        let mut ss = Session::new();
        let r = slave.execute(&mut ss, "SELECT ts FROM t", &[]).unwrap();
        assert_eq!(
            r.rows[0][0],
            Value::Timestamp(42),
            "row format ships master values verbatim"
        );
    }

    #[test]
    fn row_transaction_flushes_one_commit_atomic_event() {
        let mut master = Engine::new_master(BinlogFormat::Row);
        let mut ms = Session::new();
        master
            .execute_batch(&mut ms, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let head = master.binlog().head();
        master.execute(&mut ms, "BEGIN", &[]).unwrap();
        master
            .execute(&mut ms, "INSERT INTO t VALUES (1, 10)", &[])
            .unwrap();
        master
            .execute(&mut ms, "INSERT INTO t VALUES (2, 20)", &[])
            .unwrap();
        master
            .execute(&mut ms, "UPDATE t SET v = 11 WHERE id = 1", &[])
            .unwrap();
        master.execute(&mut ms, "COMMIT", &[]).unwrap();
        let events = master.binlog_from(head);
        assert_eq!(
            events.len(),
            1,
            "multi-statement txn commits as one row event"
        );
        let EventPayload::Rows { changes } = &events[0].payload else {
            panic!("expected a Rows payload");
        };
        assert_eq!(
            changes.len(),
            3,
            "all three statements' changes ride together"
        );

        // Statement format keeps one event per statement for the same txn.
        let mut stmt_master = Engine::new_master(BinlogFormat::Statement);
        let mut ss = Session::new();
        stmt_master
            .execute_batch(&mut ss, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let head = stmt_master.binlog().head();
        stmt_master.execute(&mut ss, "BEGIN", &[]).unwrap();
        stmt_master
            .execute(&mut ss, "INSERT INTO t VALUES (1, 10)", &[])
            .unwrap();
        stmt_master
            .execute(&mut ss, "INSERT INTO t VALUES (2, 20)", &[])
            .unwrap();
        stmt_master.execute(&mut ss, "COMMIT", &[]).unwrap();
        assert_eq!(stmt_master.binlog_from(head).len(), 2);
    }

    #[test]
    fn fingerprint_tracks_content_not_provenance() {
        let mut master = Engine::new_master(BinlogFormat::Row);
        let mut ms = Session::new();
        master
            .execute_batch(&mut ms, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        master
            .execute(&mut ms, "INSERT INTO t VALUES (1, 10)", &[])
            .unwrap();

        let mut slave = Engine::new_slave();
        for ev in master.binlog_from(Lsn(0)).to_vec() {
            slave.apply_event(&ev, 0).unwrap();
        }
        assert_eq!(
            master.fingerprint(),
            slave.fingerprint(),
            "identical contents fingerprint equal despite version-stamp differences"
        );
        let before = slave.fingerprint();
        let mut ss = Session::new();
        slave
            .execute(&mut ss, "UPDATE t SET v = 99 WHERE id = 1", &[])
            .unwrap();
        assert_ne!(
            slave.fingerprint(),
            before,
            "content change moves the fingerprint"
        );
    }

    #[test]
    fn pk_index_of_reads_live_catalog() {
        let (e, _) = master();
        assert_eq!(e.pk_index_of("users"), Some(0));
        assert_eq!(
            e.pk_index_of("USERS"),
            Some(0),
            "name lookup is case-insensitive"
        );
        assert_eq!(e.pk_index_of("nope"), None);
    }

    #[test]
    fn split_statements_respects_strings() {
        let parts = split_statements("INSERT INTO t VALUES ('a;b'); SELECT 1");
        assert_eq!(parts.len(), 2);
        assert!(parts[0].contains("a;b"));
    }

    #[test]
    fn ddl_implicitly_commits() {
        let (mut e, mut s) = master();
        e.execute(&mut s, "BEGIN", &[]).unwrap();
        e.execute(&mut s, "INSERT INTO users (name) VALUES ('x')", &[])
            .unwrap();
        e.execute(&mut s, "CREATE TABLE other (id INT PRIMARY KEY)", &[])
            .unwrap();
        assert!(!s.in_transaction(), "DDL closed the transaction");
        // The pending insert was committed (logged), not rolled back.
        assert!(e.binlog().read_from(Lsn(0)).iter().any(
            |ev| matches!(&ev.payload, EventPayload::Statement { sql, .. } if sql.contains("'x'"))
        ));
    }

    #[test]
    fn plan_cache_hits_on_repeated_statements() {
        let (mut e, mut s) = master();
        e.set_plan_cache_capacity(64);
        let sql = "SELECT name FROM users WHERE id = ?";
        for id in 0..5 {
            e.execute(&mut s, sql, &[Value::Int(id)]).unwrap();
        }
        let stats = e.plan_cache_stats();
        assert!(stats.hits >= 4, "expected repeat hits, got {stats:?}");
        assert!(stats.entries >= 1);
    }

    #[test]
    fn plan_cache_capacity_zero_disables() {
        let (mut e, mut s) = master();
        e.set_plan_cache_capacity(0);
        let sql = "SELECT name FROM users";
        e.execute(&mut s, sql, &[]).unwrap();
        e.execute(&mut s, sql, &[]).unwrap();
        let stats = e.plan_cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn binlog_ships_raw_text_with_params() {
        let (mut e, mut s) = master();
        e.execute(
            &mut s,
            "INSERT INTO users (name, score) VALUES (?, ?)",
            &[Value::from("amy"), Value::from(0.5)],
        )
        .unwrap();
        let ev = e.binlog().read_from(Lsn(0)).last().unwrap();
        match &ev.payload {
            EventPayload::Statement { sql, params } => {
                assert!(sql.contains('?'), "text ships unsubstituted: {sql}");
                assert_eq!(params, &[Value::from("amy"), Value::from(0.5)]);
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn binlog_normalizes_timestamp_params_to_int() {
        let (mut e, mut s) = master();
        e.execute_batch(&mut s, "CREATE TABLE hb (id INT PRIMARY KEY, ts TIMESTAMP)")
            .unwrap();
        e.execute(
            &mut s,
            "INSERT INTO hb VALUES (?, ?)",
            &[Value::Int(1), Value::Timestamp(777)],
        )
        .unwrap();
        let ev = e.binlog().read_from(Lsn(0)).last().unwrap();
        match &ev.payload {
            EventPayload::Statement { params, .. } => {
                assert_eq!(
                    params,
                    &[Value::Int(1), Value::Int(777)],
                    "timestamp ships as the bare integer the substituted literal produced"
                );
            }
            other => panic!("unexpected payload {other:?}"),
        }
        // And a slave applying it regains the TIMESTAMP affinity via coercion.
        let mut slave = Engine::new_slave();
        for ev in e.binlog_from(Lsn(0)).to_vec() {
            slave.apply_event(&ev, 0).unwrap();
        }
        let mut ss = Session::new();
        let r = slave
            .execute(&mut ss, "SELECT ts FROM hb WHERE id = 1", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Timestamp(777));
    }

    #[test]
    fn log_arity_errors_match_substitution_errors() {
        let (mut e, mut s) = master();
        e.execute(&mut s, "INSERT INTO users (name) VALUES ('z')", &[])
            .unwrap();
        // Too few parameters, with the placeholder dodging evaluation via OR
        // short-circuit: only the logging-time arity check can catch it.
        let sql = "UPDATE users SET score = 1 WHERE id = 1 OR name = ?";
        let err = e.execute(&mut s, sql, &[]).unwrap_err();
        assert_eq!(err.to_string(), "bad parameter: placeholder 1 not bound");
        // Too many parameters: evaluation ignores the extras, the logging
        // arity check must not.
        let sql = "UPDATE users SET score = ? WHERE id = 1";
        let params = [Value::from(2.0), Value::from(3.0)];
        let err = e.execute(&mut s, sql, &params).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad parameter: 2 parameters bound, 1 placeholders found"
        );
    }

    #[test]
    fn create_index_invalidates_cached_select_plan() {
        let (mut e, mut s) = master();
        e.execute_batch(
            &mut s,
            "CREATE TABLE items (id INT PRIMARY KEY, cat INT);
             INSERT INTO items VALUES (1, 10), (2, 10), (3, 20)",
        )
        .unwrap();
        let sql = "SELECT id FROM items WHERE cat = ? ORDER BY id";
        let r1 = e.execute(&mut s, sql, &[Value::Int(10)]).unwrap();
        assert_eq!(r1.rows.len(), 2);
        // The cached plan full-scans; after CREATE INDEX the statement must
        // re-plan to an index lookup (observable via rows_examined).
        assert_eq!(r1.rows_examined, 3);
        e.execute(&mut s, "CREATE INDEX idx_cat ON items (cat)", &[])
            .unwrap();
        let r2 = e.execute(&mut s, sql, &[Value::Int(10)]).unwrap();
        assert_eq!(r2.rows, r1.rows, "same answer either way");
        assert_eq!(r2.rows_examined, 2, "stale full-scan plan was not reused");
    }

    #[test]
    fn drop_and_recreate_invalidates_cached_plan() {
        let (mut e, mut s) = master();
        e.execute_batch(
            &mut s,
            "CREATE TABLE tmp (id INT PRIMARY KEY, a INT);
             INSERT INTO tmp VALUES (1, 5)",
        )
        .unwrap();
        let sql = "SELECT a FROM tmp WHERE id = 1";
        assert_eq!(
            e.execute(&mut s, sql, &[]).unwrap().rows,
            vec![vec![Value::Int(5)]]
        );
        // Re-create with a different column layout under the same name.
        e.execute_batch(
            &mut s,
            "DROP TABLE tmp;
             CREATE TABLE tmp (id INT PRIMARY KEY, b INT, a INT);
             INSERT INTO tmp VALUES (1, 6, 7)",
        )
        .unwrap();
        assert_eq!(
            e.execute(&mut s, sql, &[]).unwrap().rows,
            vec![vec![Value::Int(7)]],
            "plan re-bound against the new schema"
        );
    }

    #[test]
    fn errors_are_clean() {
        let (mut e, mut s) = master();
        assert!(matches!(
            e.execute(&mut s, "SELECT * FROM missing", &[]),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            e.execute(&mut s, "INSERT INTO users (nope) VALUES (1)", &[]),
            Err(SqlError::UnknownColumn(_))
        ));
        assert!(matches!(
            e.execute(&mut s, "THIS IS NOT SQL", &[]),
            Err(SqlError::Parse(_))
        ));
    }
}
