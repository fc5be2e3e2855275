//! Deterministic metrics registry.
//!
//! Metrics are keyed by `(component, instance, name)` through the crate's
//! one key index: a probe finds its slot by the name's address (its text on
//! a miss), and every iteration — and every table/CSV export built from one
//! — visits keys in text order, the same on every run. Sketches are the
//! [`QuantileSketch`] of [`crate::metrics`]. Counter-track samples are not
//! held here: they live once, in the trace recorder's log, and their series
//! export derives from it.

use crate::index::KeyIndex;
use crate::metrics::{QuantileSketch, Table};
use crate::Component;

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

/// Deterministically ordered collection of counters, gauges and sketches:
/// the values in dense slots behind the crate's one key index, which
/// resolves a probe's key by its name's address (by its text on a miss) and
/// iterates in key order whatever the registration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: KeyIndex<Metric>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to a counter, creating it at zero on first use.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric kind
    /// (probe bug: one name, one kind).
    pub fn incr(&mut self, comp: Component, inst: u32, name: &'static str, by: u64) {
        match self
            .metrics
            .get_or_insert_with(comp, inst, name, || Metric::Counter(0))
        {
            Metric::Counter(c) => *c += by,
            other => panic!("metric {comp}/{inst}/{name} is not a counter: {other:?}"),
        }
    }

    /// Set a gauge; tracks the maximum across all writes.
    pub fn gauge(&mut self, comp: Component, inst: u32, name: &'static str, value: f64) {
        let mk = || Metric::Gauge {
            last: value,
            max: value,
        };
        match self.metrics.get_or_insert_with(comp, inst, name, mk) {
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
    /// the fixed [`QuantileSketch`] layout on first use.
    /// Memory is bounded and the quantile estimate tracks the exact
    /// percentile to within one bucket width.
    pub fn observe_sketch(&mut self, comp: Component, inst: u32, name: &'static str, value: f64) {
        let mk = || Metric::Sketch(QuantileSketch::latency());
        match self.metrics.get_or_insert_with(comp, inst, name, mk) {
            Metric::Sketch(s) => s.record(value),
            other => panic!("metric {comp}/{inst}/{name} is not a sketch: {other:?}"),
        }
    }

    /// Look up a metric.
    pub fn get(&self, comp: Component, inst: u32, name: &'static str) -> Option<&Metric> {
        self.metrics.get(comp, inst, name)
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
        self.metrics.iter()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.len() == 0
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
        r.gauge(Component::Proxy, 0, "waiters", 4.0);
        r.gauge(Component::Proxy, 0, "waiters", 9.0);
        r.gauge(Component::Proxy, 0, "waiters", 2.0);
        assert!(matches!(
            r.get(Component::Proxy, 0, "waiters"),
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
        assert!((p50 - 13.0).abs() <= QuantileSketch::bucket_width(13.0));
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

    /// `text` at an address of its own, never a literal's.
    fn leaked(text: &str) -> &'static str {
        Box::leak(text.to_owned().into_boxed_str())
    }

    /// A name probed at a second address — a leaked `String` here, another
    /// crate's literal in a run — is the literal's metric, and exports once.
    #[test]
    fn a_name_at_a_second_address_is_the_same_metric() {
        let mut r = MetricsRegistry::new();
        r.incr(Component::Proxy, 0, "routed", 2);
        r.incr(Component::Proxy, 0, leaked("routed"), 3);
        r.observe_sketch(Component::Sql, 1, "demand", 20.0);
        r.observe_sketch(Component::Sql, 1, leaked("demand"), 30.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.counter_value(Component::Proxy, 0, "routed"), 5);
        assert_eq!(r.counter_value(Component::Proxy, 0, leaked("routed")), 5);
        let Some(Metric::Sketch(s)) = r.get(Component::Sql, 1, "demand") else {
            panic!("expected sketch");
        };
        assert_eq!(s.count(), 2);
        let csv = r.summary_table().to_csv();
        assert_eq!(csv.matches("routed,counter").count(), 1);
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
        r.gauge(Component::Proxy, 0, "active", 3.0);
        let summary = r.summary_table().to_csv();
        assert!(summary.contains("proxy,0,active,gauge,3.000,3.000"));
        assert!(summary.contains("proxy,0,routed,counter,7,-"));
    }
}
