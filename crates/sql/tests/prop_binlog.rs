//! Property tests: binlog events survive encode → decode for arbitrary
//! contents, and corrupt prefixes never panic.

use amdb_sql::binlog::{BinlogEvent, EventPayload, Lsn};
use amdb_sql::exec::{RowChange, RowChangeKind};
use amdb_sql::Value;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: NaN breaks PartialEq-based round-trip checks,
        // and the engine never stores NaN (comparisons reject it upstream).
        prop::num::f64::NORMAL.prop_map(Value::Double),
        ".{0,40}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..8)
}

fn arb_change() -> impl Strategy<Value = RowChange> {
    ("[a-z]{1,12}", arb_row(), arb_row(), 0..3u8).prop_map(|(table, a, b, kind)| RowChange {
        table: table.into(),
        kind: match kind {
            0 => RowChangeKind::Insert { row: a.into() },
            1 => RowChangeKind::Update {
                before: a.into(),
                after: b.into(),
            },
            _ => RowChangeKind::Delete { row: a.into() },
        },
    })
}

fn arb_event() -> impl Strategy<Value = BinlogEvent> {
    (
        any::<u64>(),
        any::<i64>(),
        prop_oneof![
            (".{0,200}", arb_row())
                .prop_map(|(sql, params)| EventPayload::Statement { sql, params }),
            prop::collection::vec(arb_change(), 0..5)
                .prop_map(|changes| EventPayload::Rows { changes }),
        ],
    )
        .prop_map(|(lsn, ts, payload)| BinlogEvent {
            lsn: Lsn(lsn),
            commit_ts_micros: ts,
            payload,
        })
}

proptest! {
    #[test]
    fn encode_decode_round_trips(ev in arb_event()) {
        let decoded = BinlogEvent::decode(&ev.encode()).expect("decodes");
        prop_assert_eq!(decoded, ev);
    }

    #[test]
    fn truncation_errors_cleanly(ev in arb_event(), cut in 0usize..64) {
        let full = ev.encode();
        if cut < full.len() {
            // Must error, never panic. (A truncated prefix can never be a
            // valid event because lengths are encoded up front.)
            prop_assert!(BinlogEvent::decode(&full[..cut]).is_err());
        }
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Fuzz the decoder: any outcome is fine except a panic.
        let _ = BinlogEvent::decode(&bytes);
    }

    #[test]
    fn encoded_len_is_consistent(ev in arb_event()) {
        prop_assert_eq!(ev.encoded_len(), ev.encode().len());
    }
}
