//! Deterministic metrics registry.
//!
//! Metrics are keyed by `(component, instance, name)` in a `BTreeMap`, so
//! every iteration — and every table/CSV export built from one — visits keys
//! in the same order on every run. Sketches reuse the `amdb-metrics`
//! implementation. Counter-track samples are not held here: they live once,
//! in the trace recorder's log, and their series export derives from it.

use crate::Component;
use amdb_metrics::{QuantileSketch, Table};
use std::collections::BTreeMap;

/// Registry key: which metric on which component instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Owning component.
    pub comp: Component,
    /// Instance index within the component (node id, slave id, …).
    pub inst: u32,
    /// Metric name (static so probes never allocate).
    pub name: &'static str,
}

/// A registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Last-written value plus the maximum ever written.
    Gauge { last: f64, max: f64 },
    /// Log-bucket streaming quantile sketch — the bounded-memory
    /// replacement for full-sample percentile paths on hot probes.
    Sketch(QuantileSketch),
}

/// Pre-resolved handle to one registered metric: a direct index into the
/// registry's slot vector, skipping the per-probe `BTreeMap` descent (and
/// its three-word key comparisons). Handles are only valid for the registry
/// that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// Deterministically ordered collection of counters, gauges and sketches.
///
/// Storage is split: `slots` holds the metric values (probe writes are an
/// index away), `index` maps keys to slots and — being a `BTreeMap` —
/// fixes every export's iteration order regardless of registration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    index: BTreeMap<MetricKey, usize>,
    slots: Vec<Metric>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(comp: Component, inst: u32, name: &'static str) -> MetricKey {
        MetricKey { comp, inst, name }
    }

    /// Slot index for a key, creating the metric via `mk` on first use.
    fn slot_of(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        mk: impl FnOnce() -> Metric,
    ) -> usize {
        match self.index.entry(Self::key(comp, inst, name)) {
            std::collections::btree_map::Entry::Occupied(e) => *e.get(),
            std::collections::btree_map::Entry::Vacant(v) => {
                let i = self.slots.len();
                self.slots.push(mk());
                v.insert(i);
                i
            }
        }
    }

    /// Pre-resolve a sketch handle (creating the sketch on first call). Hot
    /// probes hold the [`MetricId`] and call [`Self::observe_sketch_id`] per
    /// event.
    pub fn sketch_handle(&mut self, comp: Component, inst: u32, name: &'static str) -> MetricId {
        MetricId(self.slot_of(comp, inst, name, || {
            Metric::Sketch(QuantileSketch::latency())
        }))
    }

    /// Record into a pre-resolved sketch.
    ///
    /// # Panics
    /// Panics if the handle names a non-sketch (handle/probe kind bug).
    #[inline]
    pub fn observe_sketch_id(&mut self, id: MetricId, value: f64) {
        match &mut self.slots[id.0] {
            Metric::Sketch(s) => s.record(value),
            other => panic!("MetricId does not name a sketch: {other:?}"),
        }
    }

    /// Add `by` to a counter, creating it at zero on first use.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric kind
    /// (probe bug: one name, one kind).
    pub fn incr(&mut self, comp: Component, inst: u32, name: &'static str, by: u64) {
        let i = self.slot_of(comp, inst, name, || Metric::Counter(0));
        match &mut self.slots[i] {
            Metric::Counter(c) => *c += by,
            other => panic!("metric {comp}/{inst}/{name} is not a counter: {other:?}"),
        }
    }

    /// Set a gauge; tracks the maximum across all writes.
    pub fn gauge(&mut self, comp: Component, inst: u32, name: &'static str, value: f64) {
        let i = self.slot_of(comp, inst, name, || Metric::Gauge {
            last: value,
            max: value,
        });
        match &mut self.slots[i] {
            Metric::Gauge { last, max } => {
                *last = value;
                if value > *max {
                    *max = value;
                }
            }
            other => panic!("metric {comp}/{inst}/{name} is not a gauge: {other:?}"),
        }
    }

    /// Record an observation into a streaming quantile sketch, created with
    /// the [`amdb_metrics::SketchConfig::LATENCY`] layout on first use.
    /// Memory is bounded and the quantile estimate tracks the exact
    /// percentile to within one bucket width.
    pub fn observe_sketch(&mut self, comp: Component, inst: u32, name: &'static str, value: f64) {
        let i = self.slot_of(comp, inst, name, || {
            Metric::Sketch(QuantileSketch::latency())
        });
        match &mut self.slots[i] {
            Metric::Sketch(s) => s.record(value),
            other => panic!("metric {comp}/{inst}/{name} is not a sketch: {other:?}"),
        }
    }

    /// Look up a metric.
    pub fn get(&self, comp: Component, inst: u32, name: &'static str) -> Option<&Metric> {
        self.index
            .get(&Self::key(comp, inst, name))
            .map(|&i| &self.slots[i])
    }

    /// Counter value, or 0 when absent / not a counter.
    pub fn counter_value(&self, comp: Component, inst: u32, name: &'static str) -> u64 {
        match self.get(comp, inst, name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// All metrics in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &Metric)> {
        self.index.iter().map(|(k, &i)| (k, &self.slots[i]))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Scalar summary table: one row per counter/gauge/sketch (counter
    /// series are exported separately by
    /// [`crate::TraceRecorder::series_table`]).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            "metrics",
            vec![
                "component".into(),
                "instance".into(),
                "metric".into(),
                "kind".into(),
                "value".into(),
                "max".into(),
            ],
        );
        for (k, m) in self.iter() {
            let (kind, value, max) = match m {
                Metric::Counter(c) => ("counter", c.to_string(), "-".to_string()),
                Metric::Gauge { last, max } => ("gauge", format!("{last:.3}"), format!("{max:.3}")),
                Metric::Sketch(s) => (
                    "sketch",
                    format!("n={}", s.count()),
                    match s.quantile(0.95) {
                        Some(q) => format!("p95={q:.3}"),
                        None => "-".to_string(),
                    },
                ),
            };
            t.push_row(vec![
                k.comp.as_str().to_string(),
                k.inst.to_string(),
                k.name.to_string(),
                kind.to_string(),
                value,
                max,
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.incr(Component::Proxy, 0, "routed_reads", 2);
        r.incr(Component::Proxy, 0, "routed_reads", 3);
        assert_eq!(r.counter_value(Component::Proxy, 0, "routed_reads"), 5);
        assert_eq!(r.counter_value(Component::Proxy, 1, "routed_reads"), 0);
    }

    #[test]
    fn gauges_track_last_and_max() {
        let mut r = MetricsRegistry::new();
        r.gauge(Component::Pool, 0, "waiters", 4.0);
        r.gauge(Component::Pool, 0, "waiters", 9.0);
        r.gauge(Component::Pool, 0, "waiters", 2.0);
        assert!(matches!(
            r.get(Component::Pool, 0, "waiters"),
            Some(Metric::Gauge { last, max }) if (*last, *max) == (2.0, 9.0)
        ));
    }

    #[test]
    fn sketch_created_on_first_observe() {
        let mut r = MetricsRegistry::new();
        r.observe_sketch(Component::Repl, 2, "wf_apply_ms", 12.0);
        r.observe_sketch(Component::Repl, 2, "wf_apply_ms", 14.0);
        let Some(Metric::Sketch(s)) = r.get(Component::Repl, 2, "wf_apply_ms") else {
            panic!("expected sketch");
        };
        assert_eq!(s.count(), 2);
        let p50 = s.quantile(0.5).unwrap();
        assert!((p50 - 13.0).abs() <= s.config().bucket_width(13.0));
        let summary = r.summary_table().to_csv();
        assert!(summary.contains("repl,2,wf_apply_ms,sketch,n=2"));
    }

    #[test]
    #[should_panic(expected = "not a sketch")]
    fn sketch_kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.incr(Component::Repl, 0, "x", 1);
        r.observe_sketch(Component::Repl, 0, "x", 1.0);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge(Component::Cpu, 0, "x", 1.0);
        r.incr(Component::Cpu, 0, "x", 1);
    }

    #[test]
    fn handles_alias_the_name_addressed_metric() {
        let mut r = MetricsRegistry::new();
        let s = r.sketch_handle(Component::Sql, 1, "demand_read_us");
        r.observe_sketch_id(s, 10.0);
        r.observe_sketch(Component::Sql, 1, "demand_read_us", 20.0);
        let Some(Metric::Sketch(sk)) = r.get(Component::Sql, 1, "demand_read_us") else {
            panic!("expected sketch");
        };
        assert_eq!(sk.count(), 2);
        assert_eq!(r.sketch_handle(Component::Sql, 1, "demand_read_us"), s);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut r = MetricsRegistry::new();
        r.incr(Component::Sql, 3, "z", 1);
        r.incr(Component::Cpu, 1, "b", 1);
        r.incr(Component::Cpu, 0, "a", 1);
        let keys: Vec<_> = r.iter().map(|(k, _)| (k.comp, k.inst, k.name)).collect();
        assert_eq!(
            keys,
            vec![
                (Component::Cpu, 0, "a"),
                (Component::Cpu, 1, "b"),
                (Component::Sql, 3, "z"),
            ]
        );
    }

    #[test]
    fn tables_export_deterministically() {
        let mut r = MetricsRegistry::new();
        r.incr(Component::Proxy, 0, "routed", 7);
        r.gauge(Component::Pool, 0, "active", 3.0);
        let summary = r.summary_table().to_csv();
        assert!(summary.contains("pool,0,active,gauge,3.000,3.000"));
        assert!(summary.contains("proxy,0,routed,counter,7,-"));
    }
}
