//! Structured trace records and the recorder implementations.
//!
//! Records are stamped with simulated time and stored in the order they were
//! recorded. Since the simulation kernel executes events in a deterministic
//! order for a given seed, the record stream — and any export derived from
//! it — is bit-identical across same-seed runs.

use crate::registry::MetricsRegistry;
use crate::tsdb::Tsdb;
use crate::Component;
use amdb_sim::{SimDuration, SimTime};

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

/// Collects records in order and carries the metrics registry, plus an
/// optional fixed-interval time-series store fed by explicit tsdb probes.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    records: Vec<Record>,
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

    /// All records in recording order.
    pub fn records(&self) -> &[Record] {
        &self.records
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
        self.records.push(Record::Span {
            comp,
            inst,
            name,
            start,
            dur,
        });
    }

    /// Record a point-in-time event.
    pub fn instant(&mut self, comp: Component, inst: u32, name: &'static str, at: SimTime) {
        self.records.push(Record::Instant {
            comp,
            inst,
            name,
            at,
        });
    }

    /// Record a counter-track sample.
    pub fn counter(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        // Mirror counter samples into the registry as a time series so CSV
        // export sees them without a second probe at the call site. The
        // tsdb is NOT fed here: it is a curated plane — callers opt a
        // series in with an explicit [`Self::tsdb_record`], which keeps the
        // store's footprint (and the per-sample cost of every counter
        // probe) proportional to what the fleet rollups actually read.
        self.registry
            .sample(comp, inst, name, at.as_micros() as f64 / 1e6, value);
        self.records.push(Record::Counter {
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
        self.records.push(Record::Flow {
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
        let Record::Span { dur, .. } = t.records()[0] else {
            panic!("expected span");
        };
        assert_eq!(dur, SimDuration::ZERO);
    }

    #[test]
    fn counter_mirrors_into_registry_series() {
        let mut t = TraceRecorder::new();
        t.counter(Component::Pool, 0, "waiters", SimTime::from_secs(2), 7.0);
        let m = t
            .registry()
            .get(Component::Pool, 0, "waiters")
            .expect("series exists");
        let crate::registry::Metric::Series(s) = m else {
            panic!("expected series");
        };
        assert_eq!(s.points(), &[(2.0, 7.0)]);
    }

    #[test]
    fn tsdb_is_an_explicit_opt_in_plane() {
        let mut t = TraceRecorder::new();
        t.tsdb_record(Component::Pool, 0, "waiters", SimTime::from_millis(10), 1.0);
        assert!(t.tsdb().is_none(), "tsdb is opt-in");
        t.enable_tsdb(250);
        t.tsdb_record(Component::Pool, 0, "waiters", SimTime::from_millis(20), 7.0);
        t.tsdb_observe(Component::Repl, 1, "lat_ms", SimTime::from_millis(20), 4.0);
        // Counters feed the registry/trace only — the store is curated, so
        // a plain counter probe must not grow it.
        t.counter(Component::Pool, 0, "waiters", SimTime::from_millis(20), 7.0);
        t.counter(
            Component::Cpu,
            0,
            "queue_depth",
            SimTime::from_millis(20),
            3.0,
        );
        let db = t.tsdb().unwrap();
        assert_eq!(db.len(), 2, "only explicit tsdb probes create tracks");
        assert_eq!(db.mean_series(Component::Pool, 0, "waiters"), [(0.0, 7.0)]);
        let track = db.track(Component::Repl, 1, "lat_ms").unwrap();
        assert_eq!(track.samples().next().unwrap().1.count(), 1);
        // The registry series is unaffected by the tsdb.
        let crate::registry::Metric::Series(s) =
            t.registry().get(Component::Pool, 0, "waiters").unwrap()
        else {
            panic!("expected series");
        };
        assert_eq!(s.points().len(), 1);
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
        let [a, b] = t.records() else {
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
}
