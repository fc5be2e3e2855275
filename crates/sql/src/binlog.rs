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
//! Events are binary-encoded with a small big-endian TLV scheme and
//! round-trip tested. Replication ships event values, not bytes: the encoding
//! feeds the benchmark ledger's bytes-per-event rows, not the network model.

use crate::error::SqlError;
use crate::exec::{RowChange, RowChangeKind};
use crate::value::Value;

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
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&self.lsn.0.to_be_bytes());
        buf.extend_from_slice(&self.commit_ts_micros.to_be_bytes());
        match &self.payload {
            EventPayload::Statement { sql, params } => {
                buf.push(0);
                put_str(&mut buf, sql);
                put_row(&mut buf, params);
            }
            EventPayload::Rows { changes } => {
                buf.push(1);
                put_len(&mut buf, changes.len());
                for c in changes {
                    put_str(&mut buf, &c.table);
                    match &c.kind {
                        RowChangeKind::Insert { row } => {
                            buf.push(0);
                            put_row(&mut buf, row);
                        }
                        RowChangeKind::Update { before, after } => {
                            buf.push(1);
                            put_row(&mut buf, before);
                            put_row(&mut buf, after);
                        }
                        RowChangeKind::Delete { row } => {
                            buf.push(2);
                            put_row(&mut buf, row);
                        }
                    }
                }
            }
        }
        buf
    }

    /// Decode from bytes. Truncated or corrupt input is an error, never a
    /// panic: every read goes through one bounds-checked cursor.
    pub fn decode(buf: &[u8]) -> Result<BinlogEvent, SqlError> {
        let mut r = Reader(buf);
        let lsn = Lsn(u64::from_be_bytes(r.array()?));
        let commit_ts_micros = i64::from_be_bytes(r.array()?);
        let payload = match r.u8()? {
            0 => EventPayload::Statement {
                sql: r.str()?,
                params: r.row()?,
            },
            1 => {
                let n = r.len()?;
                let mut changes = Vec::new();
                for _ in 0..n {
                    let table = r.str()?;
                    let kind = match r.u8()? {
                        0 => RowChangeKind::Insert {
                            row: r.row()?.into(),
                        },
                        1 => RowChangeKind::Update {
                            before: r.row()?.into(),
                            after: r.row()?.into(),
                        },
                        2 => RowChangeKind::Delete {
                            row: r.row()?.into(),
                        },
                        t => {
                            return Err(SqlError::BinlogCorrupt(format!("unknown change tag {t}")))
                        }
                    };
                    changes.push(RowChange {
                        table: table.into(),
                        kind,
                    });
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

    /// Encoded size in bytes — what the benchmark ledger's bytes-per-event
    /// rows report for each binlog format.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

fn put_len(buf: &mut Vec<u8>, n: usize) {
    buf.extend_from_slice(&(n as u32).to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_be_bytes());
        }
        Value::Double(d) => {
            buf.push(2);
            buf.extend_from_slice(&d.to_be_bytes());
        }
        Value::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.push(4);
            buf.push(*b as u8);
        }
        Value::Timestamp(t) => {
            buf.push(5);
            buf.extend_from_slice(&t.to_be_bytes());
        }
    }
}

fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
    put_len(buf, row.len());
    for v in row {
        put_value(buf, v);
    }
}

/// Read cursor over an encoded event. Every read returns `Err` once the
/// input runs out, so no length check lives anywhere else. Decoded counts
/// never size an allocation up front: a corrupt count fails at the first
/// missing byte instead of reserving gigabytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SqlError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(|| {
            SqlError::BinlogCorrupt(format!("need {n} bytes, have {}", self.0.len()))
        })?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SqlError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8, SqlError> {
        Ok(self.take(1)?[0])
    }

    /// A big-endian u32 count or length.
    fn len(&mut self) -> Result<usize, SqlError> {
        Ok(u32::from_be_bytes(self.array()?) as usize)
    }

    fn str(&mut self) -> Result<String, SqlError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| SqlError::BinlogCorrupt("invalid utf-8 in string".into()))
    }

    fn value(&mut self) -> Result<Value, SqlError> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(i64::from_be_bytes(self.array()?)),
            2 => Value::Double(f64::from_be_bytes(self.array()?)),
            3 => Value::Text(self.str()?),
            4 => Value::Bool(self.u8()? != 0),
            5 => Value::Timestamp(i64::from_be_bytes(self.array()?)),
            t => return Err(SqlError::BinlogCorrupt(format!("unknown value tag {t}"))),
        })
    }

    fn row(&mut self) -> Result<Vec<Value>, SqlError> {
        let n = self.len()?;
        (0..n).map(|_| self.value()).collect()
    }
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
                            ]
                            .into(),
                        },
                    },
                    RowChange {
                        table: "events".into(),
                        kind: RowChangeKind::Update {
                            before: vec![Value::Int(1)].into(),
                            after: vec![Value::Int(2)].into(),
                        },
                    },
                    RowChange {
                        table: "events".into(),
                        kind: RowChangeKind::Delete {
                            row: vec![Value::Int(2)].into(),
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
        let decoded = BinlogEvent::decode(&ev.encode()).unwrap();
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
        assert_eq!(BinlogEvent::decode(&ev.encode()).unwrap(), ev);
    }

    #[test]
    fn rows_event_round_trips() {
        let ev = sample_rows_event();
        let decoded = BinlogEvent::decode(&ev.encode()).unwrap();
        assert_eq!(decoded, ev);
    }

    /// The wire layout is pinned: an FNV-1a hash over the encodings of a
    /// statement event and a rows event that between them cover every value
    /// tag and change kind. Recorded before the codec moved onto std slices.
    #[test]
    fn encoding_bytes_are_pinned() {
        let stmt = BinlogEvent {
            lsn: Lsn(u64::MAX - 3),
            commit_ts_micros: -1_234_567,
            payload: EventPayload::Statement {
                sql: "UPDATE t SET a = ?, b = ? WHERE c = ? -- ü".into(),
                params: vec![
                    Value::Null,
                    Value::Int(i64::MIN),
                    Value::Double(-0.125),
                    Value::Text("x".into()),
                    Value::Bool(true),
                    Value::Timestamp(1_700_000_000_000_000),
                ],
            },
        };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for ev in [stmt, sample_rows_event()] {
            for &b in ev.encode().iter() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x5fc2_f695_3d34_216d);
    }

    #[test]
    fn truncated_event_rejected() {
        let ev = sample_rows_event();
        let full = ev.encode();
        for cut in [0usize, 5, 16, 17, full.len() - 1] {
            assert!(
                BinlogEvent::decode(&full[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn corrupt_tag_rejected() {
        let ev = sample_rows_event();
        let mut raw = ev.encode();
        raw[16] = 9; // payload tag
        assert!(matches!(
            BinlogEvent::decode(&raw),
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
        assert_eq!(BinlogEvent::decode(&ev.encode()).unwrap(), ev);
    }
}
