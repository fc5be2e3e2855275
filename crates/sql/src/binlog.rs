//! The binary log: ordered, encoded writeset events for replication.
//!
//! The master appends one event group per committed transaction; slaves
//! receive events (shipped by `amdb-repl` over the simulated network) and
//! re-apply them. Two formats are supported, as in MySQL:
//!
//! * **Statement-based** (the paper's setup — "synchronized in the format of
//!   SQL statement across replicas", §III-A): the SQL text is logged *as
//!   written*, with its bound parameter values shipped alongside rather than
//!   substituted into the text. Keeping the text canonical is what lets a
//!   slave's statement→plan cache hit on every repetition of a parameterized
//!   statement. Non-deterministic functions stay intact either way, so
//!   `NOW_MICROS()` re-evaluates against each slave's own clock. This is
//!   exactly the mechanism the paper's heartbeat exploits.
//! * **Row-based**: the changed row images are logged; apply is deterministic
//!   and cheaper, at the price of larger events (ablation A3).
//!
//! Events are binary-encoded with a small TLV scheme (via `bytes`) and
//! round-trip tested, because the replication layer ships *bytes*, not Rust
//! objects — the event size feeds the network model.

use crate::error::SqlError;
use crate::exec::{RowChange, RowChangeKind};
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Log sequence number: the position of an event in the master's binlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// Binlog event format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinlogFormat {
    Statement,
    Row,
}

/// Payload of one event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload {
    /// Statement-based: the SQL text as executed on the master plus its
    /// bound parameter values, re-executed on the slave. The text is the
    /// slave's plan-cache key, so it ships unsubstituted.
    Statement { sql: String, params: Vec<Value> },
    /// Row-based: concrete row changes to apply.
    Rows { changes: Vec<RowChange> },
}

/// One replication event: an LSN, the master commit timestamp (master local
/// clock, µs), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct BinlogEvent {
    pub lsn: Lsn,
    /// Master's local wall-clock at commit, in microseconds.
    pub commit_ts_micros: i64,
    pub payload: EventPayload,
}

impl BinlogEvent {
    /// Encode to bytes (the unit shipped over the simulated network).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u64(self.lsn.0);
        buf.put_i64(self.commit_ts_micros);
        match &self.payload {
            EventPayload::Statement { sql, params } => {
                buf.put_u8(0);
                put_str(&mut buf, sql);
                put_row(&mut buf, params);
            }
            EventPayload::Rows { changes } => {
                buf.put_u8(1);
                buf.put_u32(changes.len() as u32);
                for c in changes {
                    put_str(&mut buf, &c.table);
                    match &c.kind {
                        RowChangeKind::Insert { row } => {
                            buf.put_u8(0);
                            put_row(&mut buf, row);
                        }
                        RowChangeKind::Update { before, after } => {
                            buf.put_u8(1);
                            put_row(&mut buf, before);
                            put_row(&mut buf, after);
                        }
                        RowChangeKind::Delete { row } => {
                            buf.put_u8(2);
                            put_row(&mut buf, row);
                        }
                    }
                }
            }
        }
        buf.freeze()
    }

    /// Decode from bytes.
    pub fn decode(mut buf: Bytes) -> Result<BinlogEvent, SqlError> {
        let need = |buf: &Bytes, n: usize| -> Result<(), SqlError> {
            if buf.remaining() < n {
                Err(SqlError::BinlogCorrupt(format!(
                    "need {n} bytes, have {}",
                    buf.remaining()
                )))
            } else {
                Ok(())
            }
        };
        need(&buf, 17)?;
        let lsn = Lsn(buf.get_u64());
        let commit_ts_micros = buf.get_i64();
        let tag = buf.get_u8();
        let payload = match tag {
            0 => EventPayload::Statement {
                sql: get_str(&mut buf)?,
                params: get_row(&mut buf)?,
            },
            1 => {
                need(&buf, 4)?;
                let n = buf.get_u32() as usize;
                // Cap the pre-allocation: a corrupt length must not trigger a
                // huge allocation before the per-change reads detect EOF.
                let mut changes = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let table = get_str(&mut buf)?;
                    need(&buf, 1)?;
                    let kind = match buf.get_u8() {
                        0 => RowChangeKind::Insert {
                            row: get_row(&mut buf)?,
                        },
                        1 => RowChangeKind::Update {
                            before: get_row(&mut buf)?,
                            after: get_row(&mut buf)?,
                        },
                        2 => RowChangeKind::Delete {
                            row: get_row(&mut buf)?,
                        },
                        t => {
                            return Err(SqlError::BinlogCorrupt(format!("unknown change tag {t}")))
                        }
                    };
                    changes.push(RowChange { table, kind });
                }
                EventPayload::Rows { changes }
            }
            t => return Err(SqlError::BinlogCorrupt(format!("unknown payload tag {t}"))),
        };
        Ok(BinlogEvent {
            lsn,
            commit_ts_micros,
            payload,
        })
    }

    /// Encoded size in bytes — the replication layer uses this to model
    /// shipping cost.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, SqlError> {
    if buf.remaining() < 4 {
        return Err(SqlError::BinlogCorrupt("truncated string length".into()));
    }
    let n = buf.get_u32() as usize;
    if buf.remaining() < n {
        return Err(SqlError::BinlogCorrupt("truncated string body".into()));
    }
    let bytes = buf.copy_to_bytes(n);
    String::from_utf8(bytes.to_vec())
        .map_err(|_| SqlError::BinlogCorrupt("invalid utf-8 in string".into()))
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64(*i);
        }
        Value::Double(d) => {
            buf.put_u8(2);
            buf.put_f64(*d);
        }
        Value::Text(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(*b as u8);
        }
        Value::Timestamp(t) => {
            buf.put_u8(5);
            buf.put_i64(*t);
        }
    }
}

fn get_value(buf: &mut Bytes) -> Result<Value, SqlError> {
    if !buf.has_remaining() {
        return Err(SqlError::BinlogCorrupt("truncated value tag".into()));
    }
    let need = |buf: &Bytes, n: usize| -> Result<(), SqlError> {
        if buf.remaining() < n {
            Err(SqlError::BinlogCorrupt("truncated value body".into()))
        } else {
            Ok(())
        }
    };
    match buf.get_u8() {
        0 => Ok(Value::Null),
        1 => {
            need(buf, 8)?;
            Ok(Value::Int(buf.get_i64()))
        }
        2 => {
            need(buf, 8)?;
            Ok(Value::Double(buf.get_f64()))
        }
        3 => Ok(Value::Text(get_str(buf)?)),
        4 => {
            need(buf, 1)?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        5 => {
            need(buf, 8)?;
            Ok(Value::Timestamp(buf.get_i64()))
        }
        t => Err(SqlError::BinlogCorrupt(format!("unknown value tag {t}"))),
    }
}

fn put_row(buf: &mut BytesMut, row: &[Value]) {
    buf.put_u32(row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

fn get_row(buf: &mut Bytes) -> Result<Vec<Value>, SqlError> {
    if buf.remaining() < 4 {
        return Err(SqlError::BinlogCorrupt("truncated row length".into()));
    }
    let n = buf.get_u32() as usize;
    let mut row = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        row.push(get_value(buf)?);
    }
    Ok(row)
}

/// The master's append-only binary log.
///
/// A log normally starts at LSN 0, but a log opened with
/// [`Binlog::starting_at`] continues an existing LSN space from `base` —
/// how a promoted replica under the shared-log backend keeps appending into
/// the cluster-wide log position instead of restarting from zero.
#[derive(Debug, Clone, Default)]
pub struct Binlog {
    events: Vec<BinlogEvent>,
    /// LSN of the first event this log will hold (0 for a fresh master).
    base: u64,
}

impl Binlog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty log whose first append will be assigned `base` — the LSN-space
    /// continuation used by shared-log promotion.
    pub fn starting_at(base: Lsn) -> Self {
        Self {
            events: Vec::new(),
            base: base.0,
        }
    }

    /// LSN of the first event this log holds (or would hold).
    pub fn base(&self) -> Lsn {
        Lsn(self.base)
    }

    /// Append a payload with the given commit timestamp; returns its LSN.
    pub fn append(&mut self, commit_ts_micros: i64, payload: EventPayload) -> Lsn {
        let lsn = Lsn(self.base + self.events.len() as u64);
        self.events.push(BinlogEvent {
            lsn,
            commit_ts_micros,
            payload,
        });
        lsn
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The next LSN to be assigned.
    pub fn head(&self) -> Lsn {
        Lsn(self.base + self.events.len() as u64)
    }

    /// Fetch an event by LSN (`None` below `base` or at/past head).
    pub fn get(&self, lsn: Lsn) -> Option<&BinlogEvent> {
        let i = lsn.0.checked_sub(self.base)?;
        self.events.get(i as usize)
    }

    /// Events at or after `from` (what a slave I/O thread fetches). A `from`
    /// below `base` returns everything held — truncated history cannot be
    /// served.
    pub fn read_from(&self, from: Lsn) -> &[BinlogEvent] {
        let i = (from.0.saturating_sub(self.base) as usize).min(self.events.len());
        &self.events[i..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows_event() -> BinlogEvent {
        BinlogEvent {
            lsn: Lsn(7),
            commit_ts_micros: 123_456_789,
            payload: EventPayload::Rows {
                changes: vec![
                    RowChange {
                        table: "users".into(),
                        kind: RowChangeKind::Insert {
                            row: vec![
                                Value::Int(1),
                                Value::Text("alice".into()),
                                Value::Null,
                                Value::Double(2.5),
                                Value::Bool(true),
                                Value::Timestamp(99),
                            ],
                        },
                    },
                    RowChange {
                        table: "events".into(),
                        kind: RowChangeKind::Update {
                            before: vec![Value::Int(1)],
                            after: vec![Value::Int(2)],
                        },
                    },
                    RowChange {
                        table: "events".into(),
                        kind: RowChangeKind::Delete {
                            row: vec![Value::Int(2)],
                        },
                    },
                ],
            },
        }
    }

    #[test]
    fn statement_event_round_trips() {
        let ev = BinlogEvent {
            lsn: Lsn(0),
            commit_ts_micros: -5,
            payload: EventPayload::Statement {
                sql: "INSERT INTO heartbeat (id, ts) VALUES (?, NOW_MICROS())".into(),
                params: vec![Value::Int(42)],
            },
        };
        let decoded = BinlogEvent::decode(ev.encode()).unwrap();
        assert_eq!(decoded, ev);
    }

    #[test]
    fn statement_event_with_all_param_types_round_trips() {
        let ev = BinlogEvent {
            lsn: Lsn(3),
            commit_ts_micros: 1,
            payload: EventPayload::Statement {
                sql: "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)".into(),
                params: vec![
                    Value::Null,
                    Value::Int(-9),
                    Value::Double(2.5),
                    Value::Text("it's".into()),
                    Value::Bool(false),
                    Value::Timestamp(123),
                ],
            },
        };
        assert_eq!(BinlogEvent::decode(ev.encode()).unwrap(), ev);
    }

    #[test]
    fn rows_event_round_trips() {
        let ev = sample_rows_event();
        let decoded = BinlogEvent::decode(ev.encode()).unwrap();
        assert_eq!(decoded, ev);
    }

    #[test]
    fn truncated_event_rejected() {
        let ev = sample_rows_event();
        let full = ev.encode();
        for cut in [0usize, 5, 16, 17, full.len() - 1] {
            let sliced = full.slice(0..cut);
            assert!(
                BinlogEvent::decode(sliced).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn corrupt_tag_rejected() {
        let ev = sample_rows_event();
        let mut raw = ev.encode().to_vec();
        raw[16] = 9; // payload tag
        assert!(matches!(
            BinlogEvent::decode(Bytes::from(raw)),
            Err(SqlError::BinlogCorrupt(_))
        ));
    }

    #[test]
    fn log_append_and_read() {
        let mut log = Binlog::new();
        assert!(log.is_empty());
        let l0 = log.append(
            1,
            EventPayload::Statement {
                sql: "a".into(),
                params: vec![],
            },
        );
        let l1 = log.append(
            2,
            EventPayload::Statement {
                sql: "b".into(),
                params: vec![],
            },
        );
        assert_eq!(l0, Lsn(0));
        assert_eq!(l1, Lsn(1));
        assert_eq!(log.head(), Lsn(2));
        assert_eq!(log.read_from(Lsn(0)).len(), 2);
        assert_eq!(log.read_from(Lsn(1)).len(), 1);
        assert_eq!(log.read_from(Lsn(5)).len(), 0, "past-head read is empty");
        assert_eq!(log.get(Lsn(1)).unwrap().commit_ts_micros, 2);
        assert!(log.get(Lsn(9)).is_none());
    }

    #[test]
    fn log_starting_at_continues_lsn_space() {
        let mut log = Binlog::starting_at(Lsn(10));
        assert_eq!(log.base(), Lsn(10));
        assert_eq!(log.head(), Lsn(10));
        let l = log.append(
            1,
            EventPayload::Statement {
                sql: "a".into(),
                params: vec![],
            },
        );
        assert_eq!(l, Lsn(10));
        assert_eq!(log.head(), Lsn(11));
        assert_eq!(log.get(Lsn(10)).unwrap().lsn, Lsn(10));
        assert!(log.get(Lsn(9)).is_none(), "below base is gone");
        assert!(log.get(Lsn(11)).is_none());
        assert_eq!(log.read_from(Lsn(10)).len(), 1);
        assert_eq!(log.read_from(Lsn(11)).len(), 0);
        assert_eq!(log.read_from(Lsn(0)).len(), 1, "pre-base reads clamp");
    }

    #[test]
    fn encoded_len_matches() {
        let ev = sample_rows_event();
        assert_eq!(ev.encoded_len(), ev.encode().len());
        assert!(ev.encoded_len() > 17);
    }

    #[test]
    fn unicode_sql_survives() {
        let ev = BinlogEvent {
            lsn: Lsn(1),
            commit_ts_micros: 0,
            payload: EventPayload::Statement {
                sql: "INSERT INTO t VALUES ('日本 🚀')".into(),
                params: vec![],
            },
        };
        assert_eq!(BinlogEvent::decode(ev.encode()).unwrap(), ev);
    }
}
