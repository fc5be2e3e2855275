//! Structured trace records and the recorder implementations.
//!
//! Records are stamped with simulated time and stored, encoded in one
//! append-only byte log, in the order they were recorded. Since the simulation kernel executes events in a deterministic
//! order for a given seed, the record stream — and any export derived from
//! it — is bit-identical across same-seed runs.

use crate::index::AddrMap;
use crate::metrics::Table;
use crate::registry::{MetricKey, MetricsRegistry};
use crate::tsdb::Tsdb;
use crate::Component;
use amdb_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One observability record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed duration: `name` ran on `(comp, inst)` for `dur`
    /// starting at `start`.
    Span {
        comp: Component,
        inst: u32,
        name: &'static str,
        start: SimTime,
        dur: SimDuration,
    },
    /// A point-in-time marker.
    Instant {
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
    },
    /// A sampled counter-track value (queue depth, backlog, …).
    Counter {
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    },
    /// One hop of a causal flow (Chrome-trace arrow). Hops sharing `id`
    /// are drawn as one arrow chain from the `Start` through every `Step`
    /// to each `End` — the telemetry layer uses this to thread a write's
    /// trace id from master commit through binlog shipping to each slave's
    /// apply.
    Flow {
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        id: u64,
        phase: FlowPhase,
    },
}

/// Which edge of a causal-flow arrow a [`Record::Flow`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// The flow's origin (Chrome `ph:"s"`).
    Start,
    /// An intermediate hop (`ph:"t"`).
    Step,
    /// A terminal hop (`ph:"f"`, bound to the enclosing slice).
    End,
}

impl Record {
    /// The record's timestamp (span start for spans).
    pub fn at(&self) -> SimTime {
        match *self {
            Record::Span { start, .. } => start,
            Record::Instant { at, .. } | Record::Counter { at, .. } | Record::Flow { at, .. } => at,
        }
    }

    /// The component the record belongs to.
    pub fn component(&self) -> Component {
        match *self {
            Record::Span { comp, .. }
            | Record::Instant { comp, .. }
            | Record::Counter { comp, .. }
            | Record::Flow { comp, .. } => comp,
        }
    }
}

/// Record kinds, in the low two bits of a record's header byte.
const KIND_SPAN: u8 = 0;
const KIND_INSTANT: u8 = 1;
const KIND_COUNTER: u8 = 2;
const KIND_FLOW: u8 = 3;

/// Counter header bit 5: the value is a whole number below 2^53, stored as
/// a varint instead of its raw bits.
const COUNTER_VARINT: u8 = 1 << 5;

/// Longest encoded record: header, two 5-byte and two 10-byte varints.
const MAX_RECORD_BYTES: usize = 1 + 5 + 5 + 10 + 10;

/// Header codes: a component or a flow phase is coded by its position here.
const COMPONENTS: [Component; 5] = [
    Component::Cpu,
    Component::Proxy,
    Component::Repl,
    Component::Sql,
    Component::Cluster,
];
const PHASES: [FlowPhase; 3] = [FlowPhase::Start, FlowPhase::Step, FlowPhase::End];

/// LEB128: seven bits per byte, low group first, high bit set on all but
/// the last byte.
fn put_varint(buf: &mut [u8; MAX_RECORD_BYTES], n: &mut usize, mut v: u64) {
    while v >= 0x80 {
        buf[*n] = v as u8 | 0x80;
        *n += 1;
        v >>= 7;
    }
    buf[*n] = v as u8;
    *n += 1;
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Signed to unsigned so that small magnitudes of either sign encode short.
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// The recorder's append-only record log. Each record is encoded as
///
/// * a header byte: kind (bits 0–1), the component's position in
///   `COMPONENTS` (bits 2–4) and, for flows, the [`FlowPhase`] (bits 5–6);
///   for counters, bit 5 is `COUNTER_VARINT`;
/// * the instance, as a varint;
/// * the name, as a varint index into `names`. The table is keyed, as the
///   key index's first probe is, by the `&'static str`'s address and
///   length, so the same text at two addresses takes two entries, each
///   decoding to its own string;
/// * the time (span start for spans) as a zigzag varint delta from the
///   previous record's, in µs: a span or flow may lie before or after the
///   record recorded just ahead of it;
/// * the payload: a span's duration as a varint, a flow's id as a varint,
///   a counter value as a varint if it is a whole number below 2^53 that
///   round-trips bit-exactly through `u64`, else as its raw `f64` bits
///   (little-endian); nothing for an instant.
#[derive(Debug, Default)]
struct RecordLog {
    bytes: Vec<u8>,
    len: usize,
    names: Vec<&'static str>,
    name_ids: AddrMap<(usize, usize), u32>,
    /// Time of the last record appended (µs).
    last_us: u64,
}

impl RecordLog {
    fn name_id(&mut self, name: &'static str) -> u32 {
        let names = &mut self.names;
        *self
            .name_ids
            .entry((name.as_ptr() as usize, name.len()))
            .or_insert_with(|| {
                names.push(name);
                (names.len() - 1) as u32
            })
    }

    fn push(&mut self, r: &Record) {
        let (kind, flags, payload) = match *r {
            Record::Span { dur, .. } => (KIND_SPAN, 0, dur.as_micros()),
            Record::Instant { .. } => (KIND_INSTANT, 0, 0),
            Record::Counter { value, .. } => {
                let whole = value as u64;
                if whole < 1 << 53 && (whole as f64).to_bits() == value.to_bits() {
                    (KIND_COUNTER, COUNTER_VARINT, whole)
                } else {
                    (KIND_COUNTER, 0, value.to_bits())
                }
            }
            Record::Flow { id, phase, .. } => (KIND_FLOW, (phase as u8) << 5, id),
        };
        let (Record::Span { inst, name, .. }
        | Record::Instant { inst, name, .. }
        | Record::Counter { inst, name, .. }
        | Record::Flow { inst, name, .. }) = *r;
        let at = r.at().as_micros();
        let mut buf = [0u8; MAX_RECORD_BYTES];
        buf[0] = kind | ((r.component() as u8) << 2) | flags;
        let mut n = 1;
        put_varint(&mut buf, &mut n, u64::from(inst));
        put_varint(&mut buf, &mut n, u64::from(self.name_id(name)));
        put_varint(
            &mut buf,
            &mut n,
            zigzag(at.wrapping_sub(self.last_us) as i64),
        );
        if kind == KIND_COUNTER && flags == 0 {
            buf[n..n + 8].copy_from_slice(&payload.to_le_bytes());
            n += 8;
        } else if kind != KIND_INSTANT {
            put_varint(&mut buf, &mut n, payload);
        }
        self.bytes.extend_from_slice(&buf[..n]);
        self.last_us = at;
        self.len += 1;
    }
}

/// Decoding iterator over a recorder's log, in recording order.
struct Records<'a> {
    log: &'a RecordLog,
    pos: usize,
    left: usize,
    last_us: u64,
}

impl Iterator for Records<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let bytes = &self.log.bytes[..];
        let header = bytes[self.pos];
        self.pos += 1;
        let comp = COMPONENTS[usize::from((header >> 2) & 0b111)];
        let inst = get_varint(bytes, &mut self.pos) as u32;
        let name = self.log.names[get_varint(bytes, &mut self.pos) as usize];
        let delta = unzigzag(get_varint(bytes, &mut self.pos));
        self.last_us = self.last_us.wrapping_add(delta as u64);
        let at = SimTime::from_micros(self.last_us);
        Some(match header & 0b11 {
            KIND_SPAN => Record::Span {
                comp,
                inst,
                name,
                start: at,
                dur: SimDuration::from_micros(get_varint(bytes, &mut self.pos)),
            },
            KIND_INSTANT => Record::Instant {
                comp,
                inst,
                name,
                at,
            },
            KIND_COUNTER => {
                let value = if header & COUNTER_VARINT != 0 {
                    get_varint(bytes, &mut self.pos) as f64
                } else {
                    let raw = bytes[self.pos..self.pos + 8].try_into().expect("8 bytes");
                    self.pos += 8;
                    f64::from_bits(u64::from_le_bytes(raw))
                };
                Record::Counter {
                    comp,
                    inst,
                    name,
                    at,
                    value,
                }
            }
            _ => Record::Flow {
                comp,
                inst,
                name,
                at,
                id: get_varint(bytes, &mut self.pos),
                phase: PHASES[usize::from(header >> 5)],
            },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// Collects records in order and carries the metrics registry, plus an
/// optional fixed-interval time-series store fed by explicit tsdb probes.
///
/// Records are held once, encoded in an append-only byte log (see
/// [`Self::records`]); the counter series of [`Self::series_csv`] and the
/// OpenMetrics last-sample gauges are derived from its counter records at
/// export rather than stored a second time.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    log: RecordLog,
    registry: MetricsRegistry,
    tsdb: Option<Tsdb>,
}

impl TraceRecorder {
    /// Empty recorder (no tsdb).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a fixed-interval [`Tsdb`]. The store is a curated plane:
    /// explicit [`Self::tsdb_record`] calls feed value tracks and
    /// [`Self::tsdb_observe`] calls feed sketch tracks — plain counter
    /// probes do not touch it.
    pub fn enable_tsdb(&mut self, interval_ms: u64) {
        self.tsdb = Some(Tsdb::new(interval_ms));
    }

    /// All records in recording order, decoded from the log.
    pub fn records(&self) -> impl ExactSizeIterator<Item = Record> + '_ {
        Records {
            log: &self.log,
            pos: 0,
            left: self.log.len,
            last_us: 0,
        }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.log.len
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.log.len == 0
    }

    /// Bytes of the encoded record log (the name table excluded).
    pub fn encoded_bytes(&self) -> usize {
        self.log.bytes.len()
    }

    /// Every counter track's `(t_seconds, value)` samples in recording
    /// order, keyed in the registry's `(component, instance, name)` order.
    pub fn counter_series(&self) -> BTreeMap<MetricKey, Vec<(f64, f64)>> {
        let mut series: BTreeMap<MetricKey, Vec<(f64, f64)>> = BTreeMap::new();
        for r in self.records() {
            if let Record::Counter {
                comp,
                inst,
                name,
                at,
                value,
            } = r
            {
                series
                    .entry(MetricKey { comp, inst, name })
                    .or_default()
                    .push((at.as_micros() as f64 / 1e6, value));
            }
        }
        series
    }

    /// Long-format counter-series table (`component,instance,metric,
    /// t_seconds,value`) suitable for CSV export; sample order within a
    /// series is recording order, series order is key order — fully
    /// deterministic.
    pub fn series_table(&self) -> Table {
        let mut t = Table::new(
            "timeseries",
            vec![
                "component".into(),
                "instance".into(),
                "metric".into(),
                "t_seconds".into(),
                "value".into(),
            ],
        );
        for (k, points) in self.counter_series() {
            for (ts, v) in points {
                t.push_row(vec![
                    k.comp.as_str().to_string(),
                    k.inst.to_string(),
                    k.name.to_string(),
                    format!("{ts:.6}"),
                    format!("{v}"),
                ]);
            }
        }
        t
    }

    /// CSV of [`Self::series_table`].
    pub fn series_csv(&self) -> String {
        self.series_table().to_csv()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable registry access (used by the [`crate::Obs`] metric probes).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// The attached time-series store, when enabled.
    pub fn tsdb(&self) -> Option<&Tsdb> {
        self.tsdb.as_ref()
    }

    /// Detach the time-series store (fleet collection merges per-tree
    /// stores after a run).
    pub fn take_tsdb(&mut self) -> Option<Tsdb> {
        self.tsdb.take()
    }

    /// Record a distribution observation into a tsdb sketch track. A no-op
    /// without an attached store — callers probe unconditionally.
    pub fn tsdb_observe(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        if let Some(db) = &mut self.tsdb {
            db.observe(comp, inst, name, at, value);
        }
    }

    /// Record a scalar sample into a tsdb value track. A no-op without an
    /// attached store — callers probe unconditionally. This is the opt-in
    /// for tick-rate gauges (utilization, staleness, backlog) that the
    /// fleet rollups read.
    pub fn tsdb_record(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        if let Some(db) = &mut self.tsdb {
            db.record(comp, inst, name, at, value);
        }
    }

    /// Record a completed span `[start, end)`. `end < start` is clamped to
    /// a zero-length span rather than panicking — probes must never abort a
    /// run.
    pub fn span(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let dur = if end > start {
            end - start
        } else {
            SimDuration::ZERO
        };
        self.log.push(&Record::Span {
            comp,
            inst,
            name,
            start,
            dur,
        });
    }

    /// Record a point-in-time event.
    pub fn instant(&mut self, comp: Component, inst: u32, name: &'static str, at: SimTime) {
        self.log.push(&Record::Instant {
            comp,
            inst,
            name,
            at,
        });
    }

    /// Record a counter-track sample. It is held once, in the log: the
    /// series exports derive from it. The tsdb is not fed here — it is a
    /// curated plane, opted into with an explicit [`Self::tsdb_record`].
    pub fn counter(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        self.log.push(&Record::Counter {
            comp,
            inst,
            name,
            at,
            value,
        });
    }

    /// Record one hop of a causal flow.
    pub fn flow(
        &mut self,
        phase: FlowPhase,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        id: u64,
    ) {
        self.log.push(&Record::Flow {
            comp,
            inst,
            name,
            at,
            id,
            phase,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_clamps_reversed_interval() {
        let mut t = TraceRecorder::new();
        t.span(
            Component::Cpu,
            0,
            "oops",
            SimTime::from_millis(5),
            SimTime::from_millis(3),
        );
        let Some(Record::Span { dur, .. }) = t.records().next() else {
            panic!("expected span");
        };
        assert_eq!(dur, SimDuration::ZERO);
    }

    #[test]
    fn counter_series_derive_from_the_records() {
        let mut t = TraceRecorder::new();
        t.counter(Component::Sql, 0, "waiters", SimTime::from_secs(2), 7.0);
        t.instant(Component::Cluster, 0, "mark", SimTime::from_secs(3));
        t.counter(Component::Cpu, 1, "util", SimTime::from_secs(3), 0.5);
        t.counter(Component::Sql, 0, "waiters", SimTime::from_secs(1), 4.0);
        let series = t.counter_series();
        let keys: Vec<_> = series.keys().map(|k| (k.comp, k.inst, k.name)).collect();
        assert_eq!(
            keys,
            [(Component::Cpu, 1, "util"), (Component::Sql, 0, "waiters")],
            "key order"
        );
        let waiters = &series[&MetricKey {
            comp: Component::Sql,
            inst: 0,
            name: "waiters",
        }];
        assert_eq!(waiters, &[(2.0, 7.0), (1.0, 4.0)], "recording order");
        assert!(t.registry().is_empty(), "counters are not mirrored");
        assert!(t
            .series_csv()
            .contains("sql,0,waiters,2.000000,7\nsql,0,waiters,1.000000,4"));
    }

    #[test]
    fn tsdb_is_an_explicit_opt_in_plane() {
        let mut t = TraceRecorder::new();
        t.tsdb_record(Component::Sql, 0, "waiters", SimTime::from_millis(10), 1.0);
        assert!(t.tsdb().is_none(), "tsdb is opt-in");
        t.enable_tsdb(250);
        t.tsdb_record(Component::Sql, 0, "waiters", SimTime::from_millis(20), 7.0);
        t.tsdb_observe(Component::Repl, 1, "lat_ms", SimTime::from_millis(20), 4.0);
        // Counters feed the trace only — the store is curated, so a plain
        // counter probe must not grow it.
        t.counter(Component::Sql, 0, "waiters", SimTime::from_millis(20), 7.0);
        t.counter(
            Component::Cpu,
            0,
            "queue_depth",
            SimTime::from_millis(20),
            3.0,
        );
        let db = t.tsdb().unwrap();
        assert_eq!(db.len(), 2, "only explicit tsdb probes create tracks");
        let waiting = db.track(Component::Sql, 0, "waiters").unwrap();
        let means: Vec<_> = waiting.samples().map(|(s, c)| (s, c.mean())).collect();
        assert_eq!(means, [(0, 7.0)]);
        let track = db.track(Component::Repl, 1, "lat_ms").unwrap();
        assert_eq!(track.samples().next().unwrap().1.count(), 1);
        // The counter series is unaffected by the tsdb.
        let series = t.counter_series();
        let waiters = MetricKey {
            comp: Component::Sql,
            inst: 0,
            name: "waiters",
        };
        assert_eq!(series[&waiters].len(), 1);
    }

    #[test]
    fn flow_hops_record_in_order_with_shared_id() {
        let mut t = TraceRecorder::new();
        t.flow(FlowPhase::Start, Component::Cpu, 0, "ws", SimTime::ZERO, 7);
        t.flow(
            FlowPhase::End,
            Component::Repl,
            1,
            "ws",
            SimTime::from_millis(4),
            7,
        );
        let records: Vec<Record> = t.records().collect();
        let [a, b] = &records[..] else {
            panic!("expected two records");
        };
        let (
            Record::Flow {
                phase: pa, id: ia, ..
            },
            Record::Flow {
                phase: pb, id: ib, ..
            },
        ) = (a, b)
        else {
            panic!("expected flows");
        };
        assert_eq!((*pa, *ia), (FlowPhase::Start, 7));
        assert_eq!((*pb, *ib), (FlowPhase::End, 7));
        assert_eq!(b.at(), SimTime::from_millis(4));
        assert_eq!(b.component(), Component::Repl);
    }

    #[test]
    fn record_accessors() {
        let r = Record::Instant {
            comp: Component::Cluster,
            inst: 0,
            name: "m",
            at: SimTime::from_millis(9),
        };
        assert_eq!(r.at(), SimTime::from_millis(9));
        assert_eq!(r.component(), Component::Cluster);
    }

    /// Deterministic stream for the round-trip records.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0
        }
    }

    /// Record `r` through the probe that records its kind.
    fn probe(t: &mut TraceRecorder, r: &Record) {
        match *r {
            Record::Span {
                comp,
                inst,
                name,
                start,
                dur,
            } => t.span(comp, inst, name, start, start + dur),
            Record::Instant {
                comp,
                inst,
                name,
                at,
            } => t.instant(comp, inst, name, at),
            Record::Counter {
                comp,
                inst,
                name,
                at,
                value,
            } => t.counter(comp, inst, name, at, value),
            Record::Flow {
                comp,
                inst,
                name,
                at,
                id,
                phase,
            } => t.flow(phase, comp, inst, name, at, id),
        }
    }

    /// Every record kind, component and flow phase; times that step back
    /// and forward by small and huge amounts; `inst` and `id` at their
    /// extremes; non-finite, negative-zero, arbitrary-bit and whole counter
    /// values on both sides of 2^53; one name text at two addresses. The log decodes each to an
    /// equal record (the same `&'static str` included), and the Chrome
    /// export of the decoded stream equals that of the reference vector.
    #[test]
    fn the_log_round_trips_every_record() {
        let shared: &'static str = Box::leak(String::from("dup").into_boxed_str());
        let names = ["serve", "dup", shared, "", "relay_depth", "x\"y"];
        let comps = [
            Component::Cpu,
            Component::Proxy,
            Component::Repl,
            Component::Sql,
            Component::Cluster,
        ];
        let insts = [0, 1, 127, 128, u32::MAX - 1, u32::MAX];
        let ids = [0, 1, 127, 128, 1 << 56, u64::MAX - 1, u64::MAX];
        let values = [
            0.0,
            -0.0,
            1.5,
            -3.25,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::from_bits(0x7ff8_dead_beef_0001),
            1.0,
            127.0,
            128.0,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e300,
        ];
        let times = [0, 1, 250_000, 0, u64::MAX, 3, u64::MAX - 1, 1 << 40, 5];
        let mut rng = Lcg(42);
        let mut reference = Vec::new();
        for i in 0..4_000usize {
            let pick = |rng: &mut Lcg, n: usize| (rng.next() >> 33) as usize % n;
            let comp = comps[pick(&mut rng, comps.len())];
            let name = names[pick(&mut rng, names.len())];
            let inst = if i % 3 == 0 {
                insts[pick(&mut rng, insts.len())]
            } else {
                (rng.next() >> 40) as u32
            };
            // Mostly small steps either way around a drifting clock, with
            // the extremes mixed in.
            let at = if i % 5 == 0 {
                times[pick(&mut rng, times.len())]
            } else {
                let base = 1_000_000 + (i as u64) * 1_000;
                base.wrapping_add(rng.next() % 20_000).wrapping_sub(10_000)
            };
            let at = SimTime::from_micros(at);
            reference.push(match i % 6 {
                0 => Record::Span {
                    comp,
                    inst,
                    name,
                    start: at,
                    dur: SimDuration::from_micros(match pick(&mut rng, 3) {
                        0 => 0,
                        1 => (rng.next() % 10_000).min(u64::MAX - at.as_micros()),
                        _ => u64::MAX - at.as_micros(),
                    }),
                },
                1 => Record::Instant {
                    comp,
                    inst,
                    name,
                    at,
                },
                2 | 3 => Record::Counter {
                    comp,
                    inst,
                    name,
                    at,
                    value: if i % 4 == 0 {
                        f64::from_bits(rng.next())
                    } else {
                        values[pick(&mut rng, values.len())]
                    },
                },
                _ => Record::Flow {
                    comp,
                    inst,
                    name,
                    at,
                    id: if i % 4 == 0 {
                        rng.next()
                    } else {
                        ids[pick(&mut rng, ids.len())]
                    },
                    phase: [FlowPhase::Start, FlowPhase::Step, FlowPhase::End][i % 3],
                },
            });
        }
        let mut t = TraceRecorder::new();
        for r in &reference {
            probe(&mut t, r);
        }
        assert_eq!(t.len(), reference.len());
        assert_eq!(t.records().len(), reference.len());
        let decoded: Vec<Record> = t.records().collect();
        for (i, (d, r)) in decoded.iter().zip(&reference).enumerate() {
            // `PartialEq` on `f64` fails NaN against itself: compare the
            // counter value's bits, and everything else as records.
            match (d, r) {
                (
                    Record::Counter {
                        value: dv,
                        name: dn,
                        ..
                    },
                    Record::Counter {
                        value: rv,
                        name: rn,
                        ..
                    },
                ) => {
                    assert_eq!(dv.to_bits(), rv.to_bits(), "record {i}: value bits");
                    assert!(std::ptr::eq(*dn, *rn), "record {i}: name address");
                    let unit = |r: &Record| match *r {
                        Record::Counter {
                            comp,
                            inst,
                            name,
                            at,
                            ..
                        } => Record::Counter {
                            comp,
                            inst,
                            name,
                            at,
                            value: 0.0,
                        },
                        _ => unreachable!(),
                    };
                    assert_eq!(unit(d), unit(r), "record {i}");
                }
                _ => assert_eq!(d, r, "record {i}"),
            }
        }
        assert_eq!(decoded.len(), reference.len());
        assert_eq!(
            crate::chrome_trace_json(t.records()),
            crate::chrome_trace_json(reference.iter().cloned()),
        );
        // The shared text took two table entries, one per address.
        assert_eq!(t.log.names.iter().filter(|n| **n == "dup").count(), 2);
    }

    #[test]
    fn varints_and_zigzag_round_trip_at_the_edges() {
        for d in [0, 1, -1, 63, -64, 64, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        assert_eq!(zigzag(-1), 1, "small negatives encode short");
        // Header, instance, name and a one-byte delta: a step back of 1 µs
        // costs what a step forward does.
        let mut t = TraceRecorder::new();
        t.instant(Component::Cpu, 0, "a", SimTime::from_micros(50));
        t.instant(Component::Cpu, 0, "a", SimTime::from_micros(49));
        t.instant(Component::Cpu, 0, "a", SimTime::from_micros(50));
        assert_eq!(t.encoded_bytes(), 3 * 4);
        for v in [0, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            let mut buf = [0u8; MAX_RECORD_BYTES];
            let mut n = 0;
            put_varint(&mut buf, &mut n, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), v);
            assert_eq!(pos, n);
        }
    }

    /// A whole counter value below 2^53 costs its varint; anything else —
    /// `-0.0`, a fraction, 2^53 and up, a non-finite value — its 8 raw
    /// bytes. Each decodes bit-exactly.
    #[test]
    fn whole_counter_values_encode_as_varints() {
        let two_53 = 9_007_199_254_740_992.0;
        for (value, payload) in [
            (0.0, 1),
            (3.0, 1),
            (127.0, 1),
            (128.0, 2),
            (two_53 - 1.0, 8),
            (two_53, 8),
            (-0.0, 8),
            (0.5, 8),
            (-1.0, 8),
            (f64::NAN, 8),
            (f64::INFINITY, 8),
            (1e300, 8),
        ] {
            let mut t = TraceRecorder::new();
            t.counter(Component::Repl, 0, "backlog", SimTime::ZERO, value);
            assert_eq!(t.encoded_bytes(), 4 + payload, "value {value:?}");
            let Some(Record::Counter { value: back, .. }) = t.records().next() else {
                panic!("expected a counter");
            };
            assert_eq!(back.to_bits(), value.to_bits(), "value {value:?}");
        }
    }
}
