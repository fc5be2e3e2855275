//! Property tests over table storage: after any sequence of inserts,
//! updates and deletes, secondary indexes stay exactly consistent with a
//! full scan, and primary-key lookups agree with the heap; a clone of a
//! frozen table answers every read exactly as a table never frozen does;
//! a fork's base-first primary-key probes agree with a scan; and the
//! postings of indexes over INT and TIMESTAMP columns agree with an
//! ordered model, unfrozen and on a fork.

use amdb_sql::schema::{Column, TableSchema};
use amdb_sql::storage::{Key, RowId, Table};
use amdb_sql::value::{DataType, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, group: i64 },
    UpdateGroup { victim: usize, group: i64 },
    Delete { victim: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..200i64, 0..10i64).prop_map(|(id, group)| Op::Insert { id, group }),
        (any::<usize>(), 0..10i64).prop_map(|(victim, group)| Op::UpdateGroup { victim, group }),
        any::<usize>().prop_map(|victim| Op::Delete { victim }),
    ]
}

fn table() -> Table {
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("grp", DataType::Int),
        ],
    )
    .expect("valid schema");
    let mut t = Table::new(schema);
    t.create_index("idx_grp", 1, false).expect("index");
    t
}

/// One step against the frozen-fork reference: victims are picked among the
/// live rows, `Restore` re-inserts the most recently deleted row (as a
/// rollback would), and `CreateIndex` adds a non-unique index on the pk
/// column — before the freeze it lands in the base, after it only in the
/// delta.
#[derive(Debug, Clone)]
enum RefOp {
    Insert {
        id: i64,
        group: i64,
        code: i64,
    },
    UpdateGroup {
        victim: usize,
        group: i64,
        code: i64,
    },
    UpdatePk {
        victim: usize,
        id: i64,
    },
    Delete {
        victim: usize,
    },
    Restore,
    CreateIndex,
}

fn arb_ref_op() -> impl Strategy<Value = RefOp> {
    prop_oneof![
        4 => (0..40i64, 0..6i64, 0..12i64)
            .prop_map(|(id, group, code)| RefOp::Insert { id, group, code }),
        3 => (any::<usize>(), 0..6i64, 0..12i64)
            .prop_map(|(victim, group, code)| RefOp::UpdateGroup { victim, group, code }),
        2 => (any::<usize>(), 0..40i64).prop_map(|(victim, id)| RefOp::UpdatePk { victim, id }),
        2 => any::<usize>().prop_map(|victim| RefOp::Delete { victim }),
        2 => Just(RefOp::Restore),
        1 => Just(RefOp::CreateIndex),
    ]
}

/// `id` (pk), `grp` (non-unique index), `code` (unique index; 0 is NULL, so
/// NULLs must be exempt from uniqueness on both sides).
fn ref_table() -> Table {
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("grp", DataType::Int),
            Column::new("code", DataType::Int),
        ],
    )
    .expect("valid schema");
    let mut t = Table::new(schema);
    t.create_index("idx_grp", 1, false).expect("index");
    t.create_index("uq_code", 2, true).expect("index");
    t
}

fn code(c: i64) -> Value {
    if c == 0 {
        Value::Null
    } else {
        Value::Int(c)
    }
}

type Undo = Vec<(RowId, Arc<[Value]>)>;

/// Apply `op` to `t` and describe the outcome (errors included), so two
/// tables can be compared step by step.
fn apply(t: &mut Table, op: &RefOp, undo: &mut Undo) -> String {
    let live: Vec<RowId> = t.scan().map(|(rid, _)| rid).collect();
    let mut update = |victim: usize, edit: &dyn Fn(&mut Vec<Value>)| {
        let rid = live[victim % live.len()];
        let mut row = t.get(rid).expect("live").to_vec();
        edit(&mut row);
        format!("{:?}", t.update(rid, row).map_err(|e| e.to_string()))
    };
    match *op {
        RefOp::Insert { id, group, code: c } => {
            let row = vec![Value::Int(id), Value::Int(group), code(c)];
            format!("{:?}", t.insert(row).map_err(|e| e.to_string()))
        }
        _ if live.is_empty() && !matches!(op, RefOp::Restore | RefOp::CreateIndex) => {
            "no rows".into()
        }
        RefOp::UpdateGroup {
            victim,
            group,
            code: c,
        } => update(victim, &|row| {
            row[1] = Value::Int(group);
            row[2] = code(c);
        }),
        RefOp::UpdatePk { victim, id } => update(victim, &|row| row[0] = Value::Int(id)),
        RefOp::Delete { victim } => {
            let rid = live[victim % live.len()];
            let old = t.delete(rid).expect("live");
            undo.push((rid, Arc::clone(&old)));
            format!("{old:?}")
        }
        RefOp::Restore => match undo.pop() {
            // A rollback only ever restores keys nobody has taken since.
            Some((rid, row))
                if t.pk_lookup(&row[0]).is_none()
                    && (row[2].is_null()
                        || t.index_on(2)
                            .expect("uq")
                            .lookup_eq(&row[2])
                            .next()
                            .is_none()) =>
            {
                t.restore(rid, row);
                format!("restored {rid:?}")
            }
            other => format!("skipped {other:?}"),
        },
        RefOp::CreateIndex => format!(
            "{:?}",
            t.create_index("idx_id", 0, false)
                .map_err(|e| e.to_string())
        ),
    }
}

/// Everything a reader can see: scan, count, every pk probe, every posting
/// list in order, and range reads over each index.
fn observe(t: &Table) -> Vec<String> {
    let mut seen = vec![
        format!("{:?}", t.scan().collect::<Vec<_>>()),
        format!("count {}", t.row_count()),
        format!(
            "{:?}",
            (0..40)
                .map(|k| t.pk_lookup(&Value::Int(k)))
                .collect::<Vec<_>>()
        ),
    ];
    let (two, nine) = (Value::Int(2), Value::Int(9));
    let ranges = [
        (Bound::Unbounded, Bound::Unbounded),
        (Bound::Included(&two), Bound::Excluded(&nine)),
        (Bound::Excluded(&two), Bound::Included(&nine)),
    ];
    for (lo, hi) in ranges {
        seen.push(format!(
            "pk {:?}",
            t.pk_range(lo, hi).map(Iterator::collect::<Vec<_>>)
        ));
    }
    for column in 0..3 {
        let Some(ix) = t.index_on(column) else {
            continue;
        };
        for k in 0..40 {
            seen.push(format!(
                "{column}={k} {:?}",
                ix.lookup_eq(&Value::Int(k)).collect::<Vec<_>>()
            ));
        }
        for (lo, hi) in ranges {
            seen.push(format!(
                "{column} range {:?}",
                ix.lookup_range(lo, hi).collect::<Vec<_>>()
            ));
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexes_stay_consistent(ops in prop::collection::vec(arb_op(), 0..120)) {
        let mut t = table();
        // Shadow model: id -> (rid, group).
        let mut model: BTreeMap<i64, (RowId, i64)> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert { id, group } => {
                    let res = t.insert(vec![Value::Int(id), Value::Int(group)]);
                    match model.entry(id) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(res.is_err(), "duplicate pk must be rejected");
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            let rid = res.expect("insert succeeds");
                            e.insert((rid, group));
                        }
                    }
                }
                Op::UpdateGroup { victim, group } => {
                    if model.is_empty() { continue; }
                    let keys: Vec<i64> = model.keys().copied().collect();
                    let id = keys[victim % keys.len()];
                    let (rid, _) = model[&id];
                    t.update(rid, vec![Value::Int(id), Value::Int(group)])
                        .expect("update succeeds");
                    model.insert(id, (rid, group));
                }
                Op::Delete { victim } => {
                    if model.is_empty() { continue; }
                    let keys: Vec<i64> = model.keys().copied().collect();
                    let id = keys[victim % keys.len()];
                    let (rid, _) = model.remove(&id).expect("present");
                    prop_assert!(t.delete(rid).is_some());
                }
            }

            // Invariant 1: row count matches the model.
            prop_assert_eq!(t.row_count(), model.len());

            // Invariant 2: pk lookups agree with the model.
            for (&id, &(rid, _)) in &model {
                prop_assert_eq!(t.pk_lookup(&Value::Int(id)), Some(rid));
            }

            // Invariant 3: the secondary index contains exactly the scan's
            // group distribution.
            let ix = t.index_on(1).expect("index exists");
            for g in 0..10i64 {
                let via_index = ix.lookup_eq(&Value::Int(g)).count();
                let via_scan = t
                    .scan()
                    .filter(|(_, row)| row[1] == Value::Int(g))
                    .count();
                prop_assert_eq!(via_index, via_scan, "group {} index drift", g);
            }
        }
    }

    #[test]
    fn restore_inverts_delete(ids in prop::collection::btree_set(0..100i64, 1..30)) {
        let mut t = table();
        let mut rids = Vec::new();
        for &id in &ids {
            rids.push(t.insert(vec![Value::Int(id), Value::Int(id % 10)]).expect("insert"));
        }
        // Delete everything, then restore in reverse: table must be identical.
        let mut deleted = Vec::new();
        for &rid in &rids {
            deleted.push((rid, t.delete(rid).expect("present")));
        }
        prop_assert_eq!(t.row_count(), 0);
        for (rid, row) in deleted.into_iter().rev() {
            t.restore(rid, row);
        }
        prop_assert_eq!(t.row_count(), ids.len());
        for &id in &ids {
            prop_assert!(t.pk_lookup(&Value::Int(id)).is_some());
        }
        let ix = t.index_on(1).expect("index");
        let total: usize = (0..10i64).map(|g| ix.lookup_eq(&Value::Int(g)).count()).sum();
        prop_assert_eq!(total, ids.len());
    }

    /// With `pk_lookup_agrees_with_a_scan_on_a_fork`, the only test of the
    /// shadow path (base rows updated, deleted and restored after the
    /// freeze): no workload drives it.
    #[test]
    fn frozen_fork_behaves_like_an_unfrozen_table(
        ops in prop::collection::vec(arb_ref_op(), 0..90),
        freeze_at in 0..90usize,
    ) {
        let split = freeze_at.min(ops.len());
        let (mut reference, mut ref_undo) = (ref_table(), Undo::new());
        let (mut source, mut source_undo) = (ref_table(), Undo::new());
        for op in &ops[..split] {
            apply(&mut reference, op, &mut ref_undo);
            apply(&mut source, op, &mut source_undo);
        }
        source.freeze();
        let mut fork = source.clone();
        let mut fork_undo = source_undo.clone();
        let frozen = observe(&source);
        prop_assert_eq!(observe(&fork), observe(&reference), "right after the freeze");
        for (step, op) in ops[split..].iter().enumerate() {
            let want = apply(&mut reference, op, &mut ref_undo);
            let got = apply(&mut fork, op, &mut fork_undo);
            prop_assert_eq!(&got, &want, "outcome of step {} ({:?})", split + step, op);
            prop_assert_eq!(observe(&fork), observe(&reference), "reads after step {}", split + step);
        }
        prop_assert_eq!(observe(&source), frozen, "the frozen source never changes");
    }
}

/// One write to a fork, as `pk_lookup_agrees_with_a_scan_on_a_fork` draws
/// it. Victims are picked among the live rows, base and delta alike.
#[derive(Debug, Clone)]
enum ForkOp {
    Insert {
        id: i64,
    },
    /// Give a row a new key (a duplicate is refused).
    Rekey {
        victim: usize,
        id: i64,
    },
    /// Rewrite a row's other column, keeping its key.
    Touch {
        victim: usize,
        group: i64,
    },
    Delete {
        victim: usize,
    },
    /// Bring back the most recently deleted row, unless its key is taken.
    Restore,
}

fn arb_fork_op() -> impl Strategy<Value = ForkOp> {
    prop_oneof![
        3 => (0..40i64).prop_map(|id| ForkOp::Insert { id }),
        3 => (any::<usize>(), 0..40i64).prop_map(|(victim, id)| ForkOp::Rekey { victim, id }),
        2 => (any::<usize>(), 0..10i64).prop_map(|(victim, group)| ForkOp::Touch { victim, group }),
        2 => any::<usize>().prop_map(|victim| ForkOp::Delete { victim }),
        2 => Just(ForkOp::Restore),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A primary-key probe reads the frozen base first and stops at a live,
    /// unshadowed hit; only a miss or a shadowed hit reads the fork's delta.
    /// On a fork whose base rows and delta rows are re-keyed, rewritten,
    /// deleted and restored, every probe — of live keys, keys re-keyed
    /// away, deleted keys and keys never used — names the one live row a
    /// scan finds with that key.
    #[test]
    fn pk_lookup_agrees_with_a_scan_on_a_fork(
        base_ids in prop::collection::btree_set(0..40i64, 0..30),
        ops in prop::collection::vec(arb_fork_op(), 0..80),
    ) {
        let mut source = table();
        for &id in &base_ids {
            source.insert(vec![Value::Int(id), Value::Int(id % 10)]).expect("insert");
        }
        source.freeze();
        let mut fork = source.clone();
        let mut deleted: Vec<(RowId, Arc<[Value]>)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let live: Vec<RowId> = fork.scan().map(|(rid, _)| rid).collect();
            let pick = |victim: usize| live.get(victim % live.len().max(1)).copied();
            match *op {
                ForkOp::Insert { id } => {
                    let _ = fork.insert(vec![Value::Int(id), Value::Int(0)]);
                }
                ForkOp::Rekey { victim, id } => {
                    if let Some(rid) = pick(victim) {
                        let mut row = fork.get(rid).expect("live").to_vec();
                        row[0] = Value::Int(id);
                        let _ = fork.update(rid, row);
                    }
                }
                ForkOp::Touch { victim, group } => {
                    if let Some(rid) = pick(victim) {
                        let mut row = fork.get(rid).expect("live").to_vec();
                        row[1] = Value::Int(group);
                        fork.update(rid, row).expect("the key is unchanged");
                    }
                }
                ForkOp::Delete { victim } => {
                    if let Some(rid) = pick(victim) {
                        deleted.push((rid, fork.delete(rid).expect("live")));
                    }
                }
                ForkOp::Restore => {
                    if let Some((rid, row)) = deleted.pop() {
                        if fork.pk_lookup(&row[0]).is_none() {
                            fork.restore(rid, row);
                        }
                    }
                }
            }
            for key in 0..45 {
                let scanned: Vec<RowId> = fork
                    .scan()
                    .filter(|(_, row)| row[0] == Value::Int(key))
                    .map(|(rid, _)| rid)
                    .collect();
                prop_assert!(scanned.len() <= 1, "key {} held twice: {:?}", key, scanned);
                prop_assert_eq!(
                    fork.pk_lookup(&Value::Int(key)),
                    scanned.first().copied(),
                    "key {} after step {} ({:?})", key, step, op
                );
            }
        }
    }
}

/// One write to a table whose indexed INT and TIMESTAMP columns hold NULLs
/// (`None`). Victims are picked among the live rows.
#[derive(Debug, Clone)]
enum IntOp {
    Insert {
        id: i64,
        n: Option<i64>,
        ts: Option<i64>,
    },
    Update {
        victim: usize,
        n: Option<i64>,
        ts: Option<i64>,
    },
    Delete {
        victim: usize,
    },
    /// Bring back the most recently deleted row, unless its key is taken.
    Restore,
}

fn arb_nullable() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![1 => Just(None), 4 => (0..6i64).prop_map(Some)]
}

fn arb_int_op() -> impl Strategy<Value = IntOp> {
    prop_oneof![
        4 => (0..30i64, arb_nullable(), arb_nullable())
            .prop_map(|(id, n, ts)| IntOp::Insert { id, n, ts }),
        3 => (any::<usize>(), arb_nullable(), arb_nullable())
            .prop_map(|(victim, n, ts)| IntOp::Update { victim, n, ts }),
        2 => any::<usize>().prop_map(|victim| IntOp::Delete { victim }),
        2 => Just(IntOp::Restore),
    ]
}

/// `id` (pk), `n` (INT, indexed) and `ts` (TIMESTAMP, indexed).
fn int_table() -> Table {
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("n", DataType::Int),
            Column::new("ts", DataType::Timestamp),
        ],
    )
    .expect("valid schema");
    let mut t = Table::new(schema);
    t.create_index("idx_n", 1, false).expect("index");
    t.create_index("idx_ts", 2, false).expect("index");
    t
}

/// A row image, stored or removed under its row id.
type Posted = (RowId, Arc<[Value]>);

/// Apply `op` to `t`; returns the row image it took out of the indexes and
/// the one it put in.
fn apply_int(t: &mut Table, op: &IntOp, undo: &mut Undo) -> (Option<Posted>, Option<Posted>) {
    let live: Vec<RowId> = t.scan().map(|(rid, _)| rid).collect();
    let pick = |victim: usize| live.get(victim % live.len().max(1)).copied();
    let nullable = |v: Option<i64>, wrap: fn(i64) -> Value| v.map_or(Value::Null, wrap);
    let stored = |t: &Table, rid: RowId| (rid, Arc::clone(t.handle(rid).expect("live")));
    match *op {
        IntOp::Insert { id, n, ts } => {
            let row = vec![
                Value::Int(id),
                nullable(n, Value::Int),
                nullable(ts, Value::Timestamp),
            ];
            (None, t.insert(row).ok().map(|rid| stored(t, rid)))
        }
        IntOp::Update { victim, n, ts } => {
            let Some(rid) = pick(victim) else {
                return (None, None);
            };
            let mut row = t.get(rid).expect("live").to_vec();
            row[1] = nullable(n, Value::Int);
            row[2] = nullable(ts, Value::Timestamp);
            let old = t.update(rid, row).expect("the key is unchanged");
            (Some((rid, old)), Some(stored(t, rid)))
        }
        IntOp::Delete { victim } => {
            let Some(rid) = pick(victim) else {
                return (None, None);
            };
            let old = t.delete(rid).expect("live");
            undo.push((rid, Arc::clone(&old)));
            (Some((rid, old)), None)
        }
        IntOp::Restore => match undo.pop() {
            Some((rid, row)) if t.pk_lookup(&row[0]).is_none() => {
                t.restore(rid, Arc::clone(&row));
                (None, Some((rid, row)))
            }
            _ => (None, None),
        },
    }
}

/// The reference postings of `n` and `ts`: each key's row ids in the order
/// an index lists them (an update or a restore appends the row again).
type IntModel = [BTreeMap<Key, Vec<RowId>>; 2];

fn model_apply(model: &mut IntModel, (out, into): (Option<Posted>, Option<Posted>)) {
    for (c, m) in model.iter_mut().enumerate() {
        if let Some((rid, row)) = &out {
            let key = Key(row[c + 1].clone());
            let list = m.get_mut(&key).expect("posted");
            list.retain(|r| r != rid);
            if list.is_empty() {
                m.remove(&key);
            }
        }
        if let Some((rid, row)) = &into {
            m.entry(Key(row[c + 1].clone())).or_default().push(*rid);
        }
    }
}

/// The model's answer to an equality probe: a whole double finds the
/// integer it equals; any other double (fractional or NaN) finds nothing.
fn model_eq(m: &BTreeMap<Key, Vec<RowId>>, probe: &Value) -> Vec<RowId> {
    let probe = match *probe {
        Value::Double(d) if d.fract() == 0.0 => Value::Int(d as i64),
        Value::Double(_) => return Vec::new(),
        ref v => v.clone(),
    };
    m.get(&Key(probe)).cloned().unwrap_or_default()
}

/// Every equality probe and range read of both indexes agrees with the
/// model: postings in model order, ranges in key order with NULL first.
fn check_int_postings(t: &Table, model: &IntModel) -> Result<(), TestCaseError> {
    let mut probes: Vec<Value> = (-1..7).map(Value::Int).collect();
    probes.extend((0..3).map(Value::Timestamp));
    probes.extend([
        Value::Null,
        Value::Double(2.0),
        Value::Double(2.5),
        Value::Double(f64::NAN),
        Value::Text("2".into()),
    ]);
    let (null, two, five, half) = (
        Value::Null,
        Value::Int(2),
        Value::Int(5),
        Value::Double(1.5),
    );
    let mut ranges = vec![
        (Bound::Unbounded, Bound::Unbounded),
        (Bound::Included(&two), Bound::Excluded(&five)),
        (Bound::Excluded(&two), Bound::Included(&five)),
        (Bound::Unbounded, Bound::Excluded(&five)),
        (Bound::Excluded(&null), Bound::Unbounded),
        (Bound::Included(&null), Bound::Included(&null)),
    ];
    for (c, m) in model.iter().enumerate() {
        let ix = t.index_on(c + 1).expect("index");
        for probe in &probes {
            let got: Vec<RowId> = ix.lookup_eq(probe).collect();
            prop_assert_eq!(got, model_eq(m, probe), "column {} = {:?}", c + 1, probe);
        }
        if c == 0 {
            // A fractional bound orders among INT keys; against TIMESTAMP
            // keys `index_cmp` calls it equal to each, so it is no order.
            ranges.push((Bound::Included(&half), Bound::Included(&five)));
        }
        for &(lo, hi) in &ranges {
            let key = |b: Bound<&Value>| b.map(|v| Key(v.clone()));
            let want: Vec<RowId> = m
                .range((key(lo), key(hi)))
                .flat_map(|(_, l)| l.clone())
                .collect();
            let got: Vec<RowId> = ix.lookup_range(lo, hi).collect();
            prop_assert_eq!(got, want, "column {} range {:?}..{:?}", c + 1, lo, hi);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Integer-keyed postings against a `BTreeMap<Key, Vec<RowId>>` model,
    /// on a table never frozen and on a fork of a frozen copy of it: every
    /// probe (keys live, emptied by a delete, never used; NULL; a whole
    /// double, which hits; a fractional double, NaN and text, which miss)
    /// and every range, after every write.
    #[test]
    fn int_postings_agree_with_an_ordered_model(
        ops in prop::collection::vec(arb_int_op(), 0..80),
        freeze_at in 0..80usize,
    ) {
        let split = freeze_at.min(ops.len());
        let mut model = IntModel::default();
        let (mut plain, mut plain_undo) = (int_table(), Undo::new());
        let (mut source, mut source_undo) = (int_table(), Undo::new());
        for op in &ops[..split] {
            model_apply(&mut model, apply_int(&mut plain, op, &mut plain_undo));
            apply_int(&mut source, op, &mut source_undo);
            check_int_postings(&plain, &model)?;
        }
        source.freeze();
        let mut fork = source.clone();
        check_int_postings(&fork, &model)?;
        for op in &ops[split..] {
            let change = apply_int(&mut plain, op, &mut plain_undo);
            prop_assert_eq!(&apply_int(&mut fork, op, &mut source_undo), &change, "{:?}", op);
            model_apply(&mut model, change);
            check_int_postings(&plain, &model)?;
            check_int_postings(&fork, &model)?;
        }
    }
}
