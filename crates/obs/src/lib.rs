//! # amdb-obs — deterministic observability for the simulated cluster
//!
//! A zero-cost-when-disabled observability layer for the discrete-event
//! simulation. Every record is stamped with **simulated** time, so two runs
//! with the same seed produce bit-identical traces — observability never
//! perturbs the experiment it observes.
//!
//! The pieces:
//!
//! * [`TraceRecorder`] — structured span, instant, counter and flow
//!   records ([`Record`]) held once, in event order, in an append-only
//!   encoded log that [`TraceRecorder::records`] decodes; the counter
//!   series CSV is derived from its counter records at export;
//! * [`Obs`] — the off-or-recording dispatcher whose methods compile to a
//!   single discriminant test (and nothing else) when disabled;
//! * [`MetricsRegistry`] — counters, gauges and quantile sketches (reusing
//!   [`amdb_metrics`]) keyed by `(component, instance, name)` in a
//!   `BTreeMap`, so iteration order — and therefore every export — is
//!   deterministic;
//! * [`Tsdb`] — a fixed-interval, bounded-memory time-series store whose
//!   per-slot cells merge across shard trees, the substrate for fleet
//!   rollups (per-shard and fleet-wide staleness/throughput/utilization
//!   series queryable at run end);
//! * [`openmetrics_text`] / [`openmetrics_text_multi`] — OpenMetrics text
//!   exposition of one recorder (its registry and its counter tracks' last
//!   samples) or a whole fleet of shard-tagged ones;
//! * [`chrome_trace_json`] — Chrome trace-format (`chrome://tracing`,
//!   Perfetto) JSON export of the record stream;
//! * [`BottleneckReport`] — per-instance utilization / queue-depth rows over
//!   the measured steady window, naming the saturated resource. This is the
//!   paper's central observation made legible: *"the observed saturation
//!   point … appearing in slaves at the beginning … eventually the
//!   saturation will transit from slaves to the master"* (§IV-A).

pub mod bottleneck;
pub mod chrome;
pub mod openmetrics;
pub mod registry;
pub mod trace;
pub mod tsdb;

pub use bottleneck::{BottleneckReport, ResourceUsage};
pub use chrome::chrome_trace_json;
pub use openmetrics::{openmetrics_text, openmetrics_text_multi};
pub use registry::{Metric, MetricId, MetricKey, MetricsRegistry};
pub use trace::{FlowPhase, Record, TraceRecorder};
pub use tsdb::{Tsdb, TsdbCell, TsdbTrack};

use amdb_sim::SimTime;

/// The instrumented component a record or metric belongs to.
///
/// Ordered so registry iteration (and every export derived from it) has a
/// stable, meaningful order: compute first, then the layers above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// A virtual machine's FIFO CPU server (`amdb-sim::FifoCpu`).
    Cpu,
    /// The connection pool (`amdb-pool`).
    Pool,
    /// The read/write-splitting proxy (`amdb-proxy`).
    Proxy,
    /// Replication: relay logs, apply threads, heartbeats (`amdb-repl`).
    Repl,
    /// The SQL engine: per-operation-class service demand (`amdb-sql`).
    Sql,
    /// Cluster-level control events (failover, scaling, phase markers).
    Cluster,
}

impl Component {
    /// Stable lowercase label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Component::Cpu => "cpu",
            Component::Pool => "pool",
            Component::Proxy => "proxy",
            Component::Repl => "repl",
            Component::Sql => "sql",
            Component::Cluster => "cluster",
        }
    }

    /// Small integer id, used as the Chrome-trace `pid`.
    pub fn id(self) -> u32 {
        match self {
            Component::Cpu => 1,
            Component::Pool => 2,
            Component::Proxy => 3,
            Component::Repl => 4,
            Component::Sql => 5,
            Component::Cluster => 6,
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Observability configuration knob carried in `ClusterConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record traces and metrics. When `false` the cluster holds
    /// [`Obs::Null`] and every probe is a single branch.
    pub enabled: bool,
    /// Period of the background sampler that records queue depths,
    /// utilizations, pool occupancy, and staleness gauges (milliseconds of
    /// simulated time).
    pub sample_interval_ms: u64,
    /// Attach the fixed-interval time-series store ([`Tsdb`], slotted on
    /// `sample_interval_ms`) so the explicit tsdb probes build mergeable
    /// per-interval series. Only meaningful when `enabled`.
    pub tsdb: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            sample_interval_ms: 250,
            tsdb: true,
        }
    }
}

impl ObsConfig {
    /// Enabled with the default sampling period.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Enum dispatcher over the two recorder implementations.
///
/// Probes call these inherent methods directly; with [`Obs::Null`] each call
/// inlines to a discriminant test and no further work (arguments to the
/// metric paths are computed by the caller, so keep heavyweight argument
/// computation behind [`Obs::is_enabled`]).
#[derive(Debug, Default)]
pub enum Obs {
    /// Observability off: every probe is a no-op.
    #[default]
    Null,
    /// Observability on: records accumulate in a [`TraceRecorder`].
    Trace(Box<TraceRecorder>),
}

impl Obs {
    /// An active recorder.
    pub fn trace() -> Self {
        Obs::Trace(Box::new(TraceRecorder::new()))
    }

    /// Build from a config knob.
    pub fn from_config(cfg: &ObsConfig) -> Self {
        if cfg.enabled {
            let mut t = TraceRecorder::new();
            if cfg.tsdb {
                t.enable_tsdb(cfg.sample_interval_ms.max(1));
            }
            Obs::Trace(Box::new(t))
        } else {
            Obs::Null
        }
    }

    /// Whether records are being collected. Use to guard probe-side work
    /// that is more expensive than the call itself.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Obs::Trace(_))
    }

    /// Record a completed span `[start, end)`.
    #[inline]
    pub fn span(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if let Obs::Trace(t) = self {
            t.span(comp, inst, name, start, end);
        }
    }

    /// Record a point-in-time event.
    #[inline]
    pub fn instant(&mut self, comp: Component, inst: u32, name: &'static str, at: SimTime) {
        if let Obs::Trace(t) = self {
            t.instant(comp, inst, name, at);
        }
    }

    /// Record a counter-track sample (rendered as a stepped area chart by
    /// trace viewers). It is held once, as a trace record; the counter
    /// series CSV and the OpenMetrics last-sample gauges derive from it at
    /// export.
    #[inline]
    pub fn counter(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        if let Obs::Trace(t) = self {
            t.counter(comp, inst, name, at, value);
        }
    }

    /// Increment a monotonic counter in the registry.
    #[inline]
    pub fn incr(&mut self, comp: Component, inst: u32, name: &'static str, by: u64) {
        if let Obs::Trace(t) = self {
            t.registry_mut().incr(comp, inst, name, by);
        }
    }

    /// Set a gauge (last-write-wins; the registry also tracks its max).
    #[inline]
    pub fn gauge(&mut self, comp: Component, inst: u32, name: &'static str, value: f64) {
        if let Obs::Trace(t) = self {
            t.registry_mut().gauge(comp, inst, name, value);
        }
    }

    /// Record a streaming-sketch observation (bounded-memory quantile
    /// estimation; see [`MetricsRegistry::observe_sketch`]).
    #[inline]
    pub fn observe_sketch(&mut self, comp: Component, inst: u32, name: &'static str, value: f64) {
        if let Obs::Trace(t) = self {
            t.registry_mut().observe_sketch(comp, inst, name, value);
        }
    }

    /// Pre-resolve a sketch handle for a hot probe site. Returns `None` when
    /// tracing is off; the metric is created on resolution, so resolve lazily
    /// (at first record, not at construction) to keep exports identical to
    /// the name-addressed path.
    pub fn sketch_handle(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
    ) -> Option<MetricId> {
        match self {
            Obs::Trace(t) => Some(t.registry_mut().sketch_handle(comp, inst, name)),
            _ => None,
        }
    }

    /// Record into a pre-resolved sketch — one array index instead of a
    /// keyed map lookup per observation.
    #[inline]
    pub fn observe_sketch_id(&mut self, id: MetricId, value: f64) {
        if let Obs::Trace(t) = self {
            t.registry_mut().observe_sketch_id(id, value);
        }
    }

    /// Record one hop of a causal flow (Chrome-trace arrow). Hops sharing
    /// `id` chain into one arrow from `Start` through `Step`s to `End`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn flow(
        &mut self,
        phase: FlowPhase,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        id: u64,
    ) {
        if let Obs::Trace(t) = self {
            t.flow(phase, comp, inst, name, at, id);
        }
    }

    /// Record a distribution observation into the time-series store, when
    /// one is attached (sketch cell in the interval slot covering `at`).
    /// Use for bounded-rate sites — batch completions, leg arrivals — not
    /// per-event hot paths.
    #[inline]
    pub fn tsdb_observe(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        if let Obs::Trace(t) = self {
            t.tsdb_observe(comp, inst, name, at, value);
        }
    }

    /// Record a scalar sample (gauge, utilization, backlog) into the
    /// time-series store, when one is attached. The store is a curated
    /// plane: counters do not mirror into it automatically — a series is
    /// opted in with this probe at its (bounded-rate) sampling site.
    #[inline]
    pub fn tsdb_record(
        &mut self,
        comp: Component,
        inst: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        if let Obs::Trace(t) = self {
            t.tsdb_record(comp, inst, name, at, value);
        }
    }

    /// The attached time-series store, when enabled and configured.
    pub fn tsdb(&self) -> Option<&Tsdb> {
        self.recorder().and_then(TraceRecorder::tsdb)
    }

    /// Detach the time-series store for fleet-level merging.
    pub fn take_tsdb(&mut self) -> Option<Tsdb> {
        match self {
            Obs::Trace(t) => t.take_tsdb(),
            Obs::Null => None,
        }
    }

    /// The collected recorder, if enabled.
    pub fn recorder(&self) -> Option<&TraceRecorder> {
        match self {
            Obs::Trace(t) => Some(t),
            Obs::Null => None,
        }
    }

    /// Chrome-trace JSON of everything recorded so far; `None` when
    /// disabled.
    pub fn chrome_trace(&self) -> Option<String> {
        self.recorder().map(|t| chrome_trace_json(t.records()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_sim::SimTime;

    #[test]
    fn null_obs_records_nothing() {
        let mut obs = Obs::Null;
        obs.span(
            Component::Cpu,
            0,
            "x",
            SimTime::ZERO,
            SimTime::from_millis(1),
        );
        obs.incr(Component::Pool, 0, "c", 1);
        assert!(!obs.is_enabled());
        assert!(obs.recorder().is_none());
        assert!(obs.chrome_trace().is_none());
    }

    #[test]
    fn trace_obs_collects_in_order() {
        let mut obs = Obs::trace();
        obs.span(
            Component::Cpu,
            1,
            "serve",
            SimTime::ZERO,
            SimTime::from_millis(2),
        );
        obs.instant(
            Component::Cluster,
            0,
            "steady_start",
            SimTime::from_millis(1),
        );
        obs.counter(
            Component::Repl,
            0,
            "relay_depth",
            SimTime::from_millis(1),
            3.0,
        );
        let rec = obs.recorder().unwrap();
        let records: Vec<Record> = rec.records().collect();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0], Record::Span { .. }));
        assert!(matches!(records[2], Record::Counter { .. }));
    }

    #[test]
    fn component_labels_are_stable() {
        assert_eq!(Component::Cpu.as_str(), "cpu");
        assert_eq!(Component::Cluster.id(), 6);
        assert!(Component::Cpu < Component::Pool);
    }

    #[test]
    fn obs_from_config_honours_knob() {
        assert!(!Obs::from_config(&ObsConfig::default()).is_enabled());
        assert!(Obs::from_config(&ObsConfig::enabled()).is_enabled());
    }

    #[test]
    fn obs_from_config_attaches_tsdb_on_request() {
        let mut on = Obs::from_config(&ObsConfig::enabled());
        assert!(on.tsdb().is_some(), "tsdb defaults on when tracing");
        assert_eq!(on.tsdb().unwrap().interval_ms(), 250);
        on.tsdb_observe(Component::Repl, 0, "lat", SimTime::from_millis(1), 3.0);
        assert_eq!(on.take_tsdb().unwrap().len(), 1);
        assert!(on.tsdb().is_none(), "take detaches");

        let off = Obs::from_config(&ObsConfig {
            tsdb: false,
            ..ObsConfig::enabled()
        });
        assert!(off.is_enabled() && off.tsdb().is_none());
        assert!(Obs::from_config(&ObsConfig::default()).tsdb().is_none());
    }
}
