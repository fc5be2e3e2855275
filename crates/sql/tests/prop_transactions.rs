//! Property test: transaction semantics against a shadow model.
//!
//! Arbitrary interleavings of BEGIN / writes / COMMIT / ROLLBACK must leave
//! the table exactly equal to a model that buffers uncommitted work, and
//! the binlog must contain exactly the committed writes (rolled-back work
//! never replicates — the invariant the cluster's convergence rests on).
//! A statement that fails part-way changes nothing, in or out of a
//! transaction, under either binlog format.

use amdb_sql::{BinlogFormat, Engine, Lsn, Session, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Act {
    Begin,
    Commit,
    Rollback,
    Insert {
        id: i64,
        v: i64,
    },
    /// A two-row INSERT; the second id may collide with the first or with a
    /// stored row, and then neither row may stay.
    InsertPair {
        id: i64,
        second: i64,
        v: i64,
    },
    Update {
        id: i64,
        v: i64,
    },
    Delete {
        id: i64,
    },
}

fn arb_act() -> impl Strategy<Value = Act> {
    prop_oneof![
        1 => Just(Act::Begin),
        1 => Just(Act::Commit),
        1 => Just(Act::Rollback),
        3 => (0..30i64, any::<i64>()).prop_map(|(id, v)| Act::Insert { id, v }),
        2 => (0..30i64, 0..30i64, any::<i64>())
            .prop_map(|(id, second, v)| Act::InsertPair { id, second, v }),
        2 => (0..30i64, any::<i64>()).prop_map(|(id, v)| Act::Update { id, v }),
        2 => (0..30i64).prop_map(|id| Act::Delete { id }),
    ]
}

/// Shadow model: committed state plus an open-transaction overlay.
#[derive(Default)]
struct Model {
    committed: BTreeMap<i64, i64>,
    txn: Option<BTreeMap<i64, i64>>,
}

impl Model {
    fn view(&self) -> &BTreeMap<i64, i64> {
        self.txn.as_ref().unwrap_or(&self.committed)
    }
    fn view_mut(&mut self) -> &mut BTreeMap<i64, i64> {
        self.txn.as_mut().unwrap_or(&mut self.committed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transactions_match_shadow_model(
        acts in prop::collection::vec(arb_act(), 0..80),
        format in prop_oneof![Just(BinlogFormat::Statement), Just(BinlogFormat::Row)],
    ) {
        let mut engine = Engine::new_master(format);
        let mut session = Session::new();
        engine
            .execute(&mut session, "CREATE TABLE t (id INT PRIMARY KEY, v BIGINT)", &[])
            .expect("schema");
        let mut model = Model::default();

        for act in acts {
            match act {
                Act::Begin => {
                    let res = engine.execute(&mut session, "BEGIN", &[]);
                    if model.txn.is_some() {
                        prop_assert!(res.is_err(), "nested BEGIN rejected");
                    } else {
                        prop_assert!(res.is_ok());
                        model.txn = Some(model.committed.clone());
                    }
                }
                Act::Commit => {
                    let res = engine.execute(&mut session, "COMMIT", &[]);
                    match model.txn.take() {
                        Some(overlay) => {
                            prop_assert!(res.is_ok());
                            model.committed = overlay;
                        }
                        None => prop_assert!(res.is_err(), "COMMIT without BEGIN rejected"),
                    }
                }
                Act::Rollback => {
                    let res = engine.execute(&mut session, "ROLLBACK", &[]);
                    match model.txn.take() {
                        Some(_) => prop_assert!(res.is_ok()),
                        None => prop_assert!(res.is_err(), "ROLLBACK without BEGIN rejected"),
                    }
                }
                Act::Insert { id, v } => {
                    let res = engine.execute(
                        &mut session,
                        "INSERT INTO t (id, v) VALUES (?, ?)",
                        &[Value::Int(id), Value::Int(v)],
                    );
                    if model.view().contains_key(&id) {
                        prop_assert!(res.is_err(), "duplicate pk rejected");
                    } else {
                        prop_assert!(res.is_ok());
                        model.view_mut().insert(id, v);
                    }
                }
                Act::InsertPair { id, second, v } => {
                    let res = engine.execute(
                        &mut session,
                        "INSERT INTO t (id, v) VALUES (?, ?), (?, ?)",
                        &[Value::Int(id), Value::Int(v), Value::Int(second), Value::Int(v)],
                    );
                    let view = model.view();
                    if id == second || view.contains_key(&id) || view.contains_key(&second) {
                        prop_assert!(res.is_err(), "duplicate pk rejected");
                        prop_assert_eq!(
                            session.in_transaction(),
                            model.txn.is_some(),
                            "a failed statement leaves the transaction as it was"
                        );
                    } else {
                        prop_assert!(res.is_ok());
                        model.view_mut().insert(id, v);
                        model.view_mut().insert(second, v);
                    }
                }
                Act::Update { id, v } => {
                    let res = engine
                        .execute(
                            &mut session,
                            "UPDATE t SET v = ? WHERE id = ?",
                            &[Value::Int(v), Value::Int(id)],
                        )
                        .expect("update never errors");
                    let expected = u64::from(model.view().contains_key(&id));
                    prop_assert_eq!(res.rows_affected, expected);
                    if expected == 1 {
                        model.view_mut().insert(id, v);
                    }
                }
                Act::Delete { id } => {
                    let res = engine
                        .execute(&mut session, "DELETE FROM t WHERE id = ?", &[Value::Int(id)])
                        .expect("delete never errors");
                    let expected = u64::from(model.view().contains_key(&id));
                    prop_assert_eq!(res.rows_affected, expected);
                    model.view_mut().remove(&id);
                }
            }

            // Visible state always matches the model's view.
            let rows = engine
                .execute(&mut session, "SELECT id, v FROM t ORDER BY id", &[])
                .expect("select")
                .rows;
            let got: BTreeMap<i64, i64> = rows
                .iter()
                .map(|r| match (&r[0], &r[1]) {
                    (Value::Int(id), Value::Int(v)) => (*id, *v),
                    other => panic!("unexpected row {other:?}"),
                })
                .collect();
            prop_assert_eq!(&got, model.view());
        }

        // End of scenario: an open transaction rolls back implicitly in the
        // model; make the engine match by rolling back too.
        if model.txn.take().is_some() {
            engine.execute(&mut session, "ROLLBACK", &[]).expect("rollback");
        }

        // The binlog replays to exactly the committed state on a slave.
        let mut slave = Engine::new_slave();
        for ev in engine.binlog_from(Lsn(0)).to_vec() {
            slave.apply_event(&ev, 0).expect("apply");
        }
        let mut ss = Session::new();
        let rows = slave
            .execute(&mut ss, "SELECT id, v FROM t ORDER BY id", &[])
            .expect("select")
            .rows;
        let replayed: BTreeMap<i64, i64> = rows
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Int(id), Value::Int(v)) => (*id, *v),
                other => panic!("unexpected row {other:?}"),
            })
            .collect();
        prop_assert_eq!(
            &replayed, &model.committed,
            "binlog replay equals committed state (rolled-back work never ships)"
        );
    }
}
