//! Online telemetry for the simulated cluster.
//!
//! Where the rest of this crate explains a run *after the fact*
//! (steady-window bottleneck attribution, trace export), this module
//! watches the pipeline *as it runs* — the operator-facing layer a
//! production replicated tier would ship:
//!
//! * [`StalenessWaterfall`] — causal per-write tracing keyed by binlog
//!   sequence: client issue → proxy route → master commit → relay delivery
//!   → apply → first stale read, decomposing each slave's replication
//!   delay into network / queueing / apply legs held in bounded
//!   [`QuantileSketch`](crate::metrics::QuantileSketch)s;
//! * [`SloEngine`] — deterministic threshold rules with hysteresis over
//!   the sampled series, including the **delay-surge detector** that
//!   attributes each surge to the saturated resource via the bottleneck
//!   attributor's rows at surge onset;
//! * [`Telemetry`] — the bundle the cluster feeds while observability is
//!   on; [`TelemetryConfig`] places it in a fleet.
//!
//! ## Determinism contract
//!
//! Telemetry reads only simulated time and deterministic cluster state,
//! never mutates anything the workload observes, and stores its state in
//! ordered containers — so enabling it changes no run result, and its own
//! outputs (alert timeline, waterfall, flow events) are byte-identical
//! across runs and `--jobs` counts. With observability off the cluster
//! never feeds it: every probe site is the one `Obs::Null` discriminant
//! test the observability probes already pay.

pub mod fleet;
pub mod slo;
pub mod waterfall;

pub use fleet::FleetTelemetry;
pub use slo::{
    attribute_surge, paper_rules, AlertEvent, AlertKind, Direction, SloEngine, SloMetric, SloRule,
    SloSample,
};
pub use waterfall::{ClientLeg, SlaveLeg, StalenessWaterfall, DEFAULT_MAX_INFLIGHT};

use crate::bottleneck::DEFAULT_SATURATION_THRESHOLD;

/// Where a cluster's telemetry sits in a fleet, carried in
/// `ClusterConfig`. Telemetry runs whenever observability does; a sharded
/// front stamps these coordinates on each tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Which shard tree this telemetry instance watches (0 unsharded);
    /// stamped into every alert so fleet timelines name `(shard,
    /// component, instance)`.
    pub shard: u32,
    /// Total shard trees in the fleet. A sharded front multiplies the
    /// outstanding write traces by its fan-out, so the waterfall's FIFO
    /// eviction cap scales with this count.
    pub shards: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            shard: 0,
            shards: 1,
        }
    }
}

/// The live telemetry state a cluster owns while running.
#[derive(Debug, Clone)]
pub struct Telemetry {
    pub waterfall: StalenessWaterfall,
    pub slo: SloEngine,
}

impl Telemetry {
    /// Build from the knob for a cluster with `n_slaves` slaves: the
    /// paper's rule set ([`paper_rules`]), evaluated at every obs sampling
    /// tick, with surge attribution at the bottleneck attributor's
    /// saturation threshold. The waterfall's FIFO cap scales with the
    /// fleet's shard count so a scatter-gather front fanning out to N trees
    /// keeps the same per-tree trace retention as an unsharded cluster.
    pub fn new(cfg: &TelemetryConfig, n_slaves: usize) -> Self {
        let cap = DEFAULT_MAX_INFLIGHT * cfg.shards.max(1) as usize;
        Self {
            waterfall: StalenessWaterfall::with_inflight_cap(n_slaves, cap),
            slo: SloEngine::new(paper_rules(), DEFAULT_SATURATION_THRESHOLD).with_shard(cfg.shard),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_one_tree_with_paper_rules() {
        let t = Telemetry::new(&TelemetryConfig::default(), 2);
        let paper = SloEngine::new(paper_rules(), DEFAULT_SATURATION_THRESHOLD);
        assert_eq!(format!("{:?}", t.slo), format!("{paper:?}"));
        assert_eq!(t.waterfall.inflight_cap(), DEFAULT_MAX_INFLIGHT);
    }

    #[test]
    fn telemetry_bundle_renders_empty() {
        let t = Telemetry::new(&TelemetryConfig::default(), 2);
        assert!(t.waterfall.table().render().contains("staleness waterfall"));
        assert!(t.slo.alerts().is_empty());
    }
}
