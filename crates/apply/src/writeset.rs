//! Conflict-footprint extraction for binlog events.
//!
//! Two transactions can apply concurrently on a slave exactly when their
//! writesets are disjoint — the rule MySQL's `WRITESET` dependency tracking
//! and Taurus's page-keyed log dispatch both implement. The footprint of a
//! row-format event is the set of `(table, primary key)` pairs it touches;
//! an update that moves a row's primary key contributes *both* the before
//! and after keys (another worker touching either would race). Statement
//! events — including all DDL, which amdb-sql always logs as statements —
//! have no computable footprint and degrade to a full barrier: they must
//! run alone, after every prior event committed and before any later one
//! starts. A row change on a table with no primary key is likewise a
//! barrier (no key to conflict-check on).

use std::collections::BTreeMap;
use std::fmt;

use amdb_sql::exec::RowChangeKind;
use amdb_sql::{BinlogEvent, EventPayload, Value};

/// Dense id for a table name, assigned by a [`TableInterner`].
///
/// Conflict keys are compared millions of times per sweep; interning turns
/// the table component into a `u32` compare instead of a string compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

/// Assigns stable dense [`TableId`]s to table names.
///
/// Ids are allocated in first-seen order, which is deterministic because the
/// binlog is consumed in LSN order.
#[derive(Debug, Default, Clone)]
pub struct TableInterner {
    by_name: BTreeMap<String, TableId>,
    names: Vec<String>,
}

impl TableInterner {
    /// New empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id for `name`, allocating one on first sight.
    pub fn intern(&mut self, name: &str) -> TableId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = TableId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Name for a previously interned id.
    pub fn name(&self, id: TableId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct tables seen.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no table has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Canonical byte encoding of a primary-key value.
///
/// A plain `Vec<u8>` gives `Ord + Hash` without pulling `Value`'s float
/// semantics into key comparison: `Double` keys encode via `to_bits`, so two
/// keys conflict iff their bit patterns match — exactly the identity the
/// storage layer's B-tree uses for primary-key lookups.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowKey(Vec<u8>);

impl RowKey {
    /// Encode a primary-key value.
    pub fn encode(v: &Value) -> RowKey {
        let mut buf = Vec::with_capacity(9);
        match v {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Double(d) => {
                buf.push(2);
                buf.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                buf.push(3);
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                buf.push(4);
                buf.push(*b as u8);
            }
            Value::Timestamp(t) => {
                // Timestamps and ints unify: statement-format logging already
                // normalizes Timestamp params to Int, so a key must hash the
                // same whichever representation reached the binlog.
                buf.push(1);
                buf.extend_from_slice(&t.to_le_bytes());
            }
        }
        RowKey(buf)
    }

    /// Raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Conflict footprint of one binlog event.
#[derive(Debug, Clone, PartialEq)]
pub enum Writeset {
    /// Row-format event touching exactly these `(table, key)` pairs; two
    /// `Keys` writesets conflict iff the pair sets intersect.
    Keys(Vec<(TableId, RowKey)>),
    /// Statement/DDL event or a keyless-table change: conflicts with
    /// everything and must apply alone.
    Barrier,
}

impl Writeset {
    /// True when this footprint forces serial application.
    pub fn is_barrier(&self) -> bool {
        matches!(self, Writeset::Barrier)
    }

    /// True when the two footprints cannot apply concurrently.
    pub fn conflicts_with(&self, other: &Writeset) -> bool {
        match (self, other) {
            (Writeset::Barrier, _) | (_, Writeset::Barrier) => true,
            (Writeset::Keys(a), Writeset::Keys(b)) => {
                // Writesets are tiny (autocommit transactions touch a few
                // rows); the quadratic scan beats building hash sets.
                a.iter().any(|ka| b.iter().any(|kb| ka == kb))
            }
        }
    }
}

/// Compute the conflict footprint of a binlog event.
///
/// `pk_of` maps a table name to the primary-key column index in the slave's
/// current catalog (`None` = no primary key). Statement payloads — and thus
/// every DDL event, which amdb-sql only logs in statement form — return
/// [`Writeset::Barrier`].
pub fn writeset_of(
    event: &BinlogEvent,
    interner: &mut TableInterner,
    pk_of: impl Fn(&str) -> Option<usize>,
) -> Writeset {
    match &event.payload {
        EventPayload::Statement { .. } => Writeset::Barrier,
        EventPayload::Rows { changes } => {
            let mut keys: Vec<(TableId, RowKey)> = Vec::with_capacity(changes.len());
            for change in changes {
                let table = interner.intern(&change.table);
                let Some(pk) = pk_of(&change.table) else {
                    return Writeset::Barrier;
                };
                let key_of = |row: &[Value]| row.get(pk).map(RowKey::encode);
                let (before, after) = match &change.kind {
                    RowChangeKind::Insert { row } => (None, key_of(row)),
                    RowChangeKind::Update { before, after } => (key_of(before), key_of(after)),
                    RowChangeKind::Delete { row } => (key_of(row), None),
                };
                // An update that keeps its key contributes it once.
                let after = after.filter(|a| Some(a) != before.as_ref());
                for key in before.into_iter().chain(after) {
                    let pair = (table, key);
                    if !keys.contains(&pair) {
                        keys.push(pair);
                    }
                }
            }
            Writeset::Keys(keys)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_sql::exec::RowChange;
    use amdb_sql::Lsn;

    fn ins(table: &str, pk: i64) -> RowChange {
        RowChange {
            table: table.into(),
            kind: RowChangeKind::Insert {
                row: vec![Value::Int(pk), Value::Text("x".into())].into(),
            },
        }
    }

    fn rows_event(lsn: u64, changes: Vec<RowChange>) -> BinlogEvent {
        BinlogEvent {
            lsn: Lsn(lsn),
            commit_ts_micros: 0,
            payload: EventPayload::Rows { changes },
        }
    }

    fn stmt_event(lsn: u64, sql: &str) -> BinlogEvent {
        BinlogEvent {
            lsn: Lsn(lsn),
            commit_ts_micros: 0,
            payload: EventPayload::Statement {
                sql: sql.to_string(),
                params: vec![],
            },
        }
    }

    #[test]
    fn interner_assigns_stable_dense_ids() {
        let mut it = TableInterner::new();
        let a = it.intern("users");
        let b = it.intern("posts");
        assert_eq!(it.intern("users"), a);
        assert_eq!((a, b), (TableId(0), TableId(1)));
        assert_eq!(it.name(b), "posts");
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn row_key_distinguishes_types_and_unifies_int_timestamp() {
        assert_ne!(
            RowKey::encode(&Value::Int(1)),
            RowKey::encode(&Value::Bool(true))
        );
        assert_ne!(RowKey::encode(&Value::Int(0)), RowKey::encode(&Value::Null));
        assert_eq!(
            RowKey::encode(&Value::Int(7)),
            RowKey::encode(&Value::Timestamp(7))
        );
        assert_eq!(
            RowKey::encode(&Value::Double(1.5)),
            RowKey::encode(&Value::Double(1.5))
        );
        assert_ne!(
            RowKey::encode(&Value::Double(0.0)),
            RowKey::encode(&Value::Double(-0.0)),
            "bit-pattern identity, matching index_cmp's total order"
        );
    }

    #[test]
    fn statement_events_are_barriers() {
        let ev = stmt_event(1, "DROP TABLE users");
        let mut it = TableInterner::new();
        assert!(writeset_of(&ev, &mut it, |_| Some(0)).is_barrier());
    }

    #[test]
    fn keyless_table_changes_are_barriers() {
        let ev = rows_event(1, vec![ins("heap", 1)]);
        let mut it = TableInterner::new();
        assert!(writeset_of(&ev, &mut it, |_| None).is_barrier());
    }

    #[test]
    fn disjoint_keys_do_not_conflict() {
        let mut it = TableInterner::new();
        let a = writeset_of(&rows_event(1, vec![ins("users", 1)]), &mut it, |_| Some(0));
        let b = writeset_of(&rows_event(2, vec![ins("users", 2)]), &mut it, |_| Some(0));
        let c = writeset_of(&rows_event(3, vec![ins("posts", 1)]), &mut it, |_| Some(0));
        assert!(!a.conflicts_with(&b));
        assert!(!a.conflicts_with(&c), "same pk value, different table");
        assert!(a.conflicts_with(&a.clone()));
    }

    #[test]
    fn pk_moving_update_contributes_both_keys() {
        let change = RowChange {
            table: "users".into(),
            kind: RowChangeKind::Update {
                before: vec![Value::Int(1), Value::Text("a".into())].into(),
                after: vec![Value::Int(9), Value::Text("a".into())].into(),
            },
        };
        let mut it = TableInterner::new();
        let ws = writeset_of(&rows_event(1, vec![change]), &mut it, |_| Some(0));
        let Writeset::Keys(keys) = &ws else {
            panic!("expected keys")
        };
        assert_eq!(keys.len(), 2);
        let touch_old = writeset_of(&rows_event(2, vec![ins("users", 1)]), &mut it, |_| Some(0));
        let touch_new = writeset_of(&rows_event(3, vec![ins("users", 9)]), &mut it, |_| Some(0));
        assert!(ws.conflicts_with(&touch_old));
        assert!(ws.conflicts_with(&touch_new));
    }

    #[test]
    fn in_place_update_contributes_one_key() {
        let change = RowChange {
            table: "users".into(),
            kind: RowChangeKind::Update {
                before: vec![Value::Int(1), Value::Text("a".into())].into(),
                after: vec![Value::Int(1), Value::Text("b".into())].into(),
            },
        };
        let mut it = TableInterner::new();
        let ws = writeset_of(&rows_event(1, vec![change]), &mut it, |_| Some(0));
        let Writeset::Keys(keys) = ws else {
            panic!("expected keys")
        };
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn multi_change_event_dedups_keys() {
        let ev = rows_event(1, vec![ins("users", 5), ins("users", 5), ins("users", 6)]);
        let mut it = TableInterner::new();
        let Writeset::Keys(keys) = writeset_of(&ev, &mut it, |_| Some(0)) else {
            panic!("expected keys")
        };
        assert_eq!(keys.len(), 2);
    }
}
