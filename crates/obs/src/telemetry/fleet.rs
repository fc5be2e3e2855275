//! Fleet-level telemetry rollup across shard trees.
//!
//! Each shard tree runs its own [`Telemetry`] bundle — waterfall plus
//! per-shard [`SloEngine`](super::SloEngine) — and the sharded front never
//! synchronizes them during a run (that would serialize the trees). After
//! the run, [`FleetTelemetry`] absorbs the per-tree bundles and answers
//! fleet questions:
//!
//! * a merged alert timeline naming every transition `(shard, component,
//!   instance)`, sorted deterministically by `(time, shard, rule,
//!   instance)`;
//! * total FIFO-evicted traces, so silent trace loss anywhere in the
//!   fleet is visible in one number.

use super::slo::{AlertEvent, AlertKind};
use super::Telemetry;
use crate::metrics::Table;

/// Per-shard telemetry bundles collected after a sharded run.
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    shards: Vec<(u32, Telemetry)>,
}

impl FleetTelemetry {
    /// Empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take ownership of shard `shard`'s telemetry bundle.
    pub fn absorb(&mut self, shard: u32, t: Telemetry) {
        self.shards.push((shard, t));
        self.shards.sort_by_key(|(s, _)| *s);
    }

    /// Per-shard bundles in shard order.
    pub fn shards(&self) -> impl Iterator<Item = (u32, &Telemetry)> {
        self.shards.iter().map(|(s, t)| (*s, t))
    }

    /// The merged fleet alert timeline, sorted by `(time, shard, rule,
    /// instance)` — a total, deterministic order regardless of absorb
    /// order.
    pub fn alerts(&self) -> Vec<&AlertEvent> {
        let mut out: Vec<&AlertEvent> = self
            .shards
            .iter()
            .flat_map(|(_, t)| t.slo.alerts().iter())
            .collect();
        out.sort_by_key(|a| (a.at, a.shard, a.rule, a.inst));
        out
    }

    /// `(shard, rule, instance)` triples currently firing, fleet-wide.
    pub fn firing(&self) -> Vec<(u32, &'static str, u32)> {
        self.shards
            .iter()
            .flat_map(|(s, t)| t.slo.firing().into_iter().map(move |(r, i)| (*s, r, i)))
            .collect()
    }

    /// Writes traced to commit across the fleet.
    pub fn total_committed(&self) -> u64 {
        self.shards.iter().map(|(_, t)| t.waterfall.committed).sum()
    }

    /// The fleet alert timeline as a table, one row per fire/clear
    /// transition: time, shard, rule, metric, instance, event, value and
    /// attribution.
    pub fn alert_table(&self) -> Table {
        let mut t = Table::new(
            "fleet alert timeline",
            vec![
                "t (s)".into(),
                "shard".into(),
                "rule".into(),
                "metric".into(),
                "inst".into(),
                "event".into(),
                "value".into(),
                "attribution".into(),
            ],
        );
        for a in self.alerts() {
            t.push_row(vec![
                format!("{:.3}", a.at.as_micros() as f64 / 1e6),
                a.shard.to_string(),
                a.rule.to_string(),
                a.metric.as_str().to_string(),
                a.inst.to_string(),
                match a.kind {
                    AlertKind::Fire => "FIRE".into(),
                    AlertKind::Clear => "clear".into(),
                },
                format!("{:.1}", a.value),
                a.attribution.clone().unwrap_or_else(|| "-".into()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottleneck::DEFAULT_SATURATION_THRESHOLD;
    use crate::telemetry::slo::{Direction, SloEngine, SloMetric, SloRule, SloSample};
    use crate::telemetry::TelemetryConfig;
    use crate::Component;
    use crate::ResourceUsage;
    use amdb_sim::SimTime;

    fn surge_rule() -> SloRule {
        SloRule {
            name: "delay_surge",
            metric: SloMetric::ReplicationDelayMs,
            direction: Direction::Above,
            fire_at: 100.0,
            clear_at: 25.0,
            window: 1,
            arm_above: None,
        }
    }

    fn shard_telemetry(shard: u32, fire_at_ms: u64) -> Telemetry {
        let mut t = Telemetry::new(&TelemetryConfig { shard, shards: 4 }, 1);
        t.slo = SloEngine::new(vec![surge_rule()], DEFAULT_SATURATION_THRESHOLD).with_shard(shard);
        let rows = [ResourceUsage {
            comp: Component::Cpu,
            inst: 1,
            label: "slave0 cpu".into(),
            utilization: 0.97,
            peak_queue: 3,
        }];
        t.slo.observe(&SloSample {
            at: SimTime::from_millis(fire_at_ms),
            delay_ms: &[400.0],
            cpu_util: &[],
            ops_per_s: 0.0,
            sla_violation_rate: 0.0,
            rows: &rows,
            rtt_ms: 16.0,
            rtt_class: "same zone",
        });
        // One write traced to commit, so the fleet totals have mass.
        let tr = t.waterfall.begin_write(SimTime::ZERO, SimTime::ZERO);
        t.waterfall
            .on_service_start(tr, SimTime::from_millis(1), 0, 1);
        t.waterfall.on_commit(tr, SimTime::from_millis(2));
        t
    }

    #[test]
    fn fleet_timeline_orders_by_time_then_shard() {
        let mut f = FleetTelemetry::new();
        // Absorb out of order; shard 2 fires earlier than shard 0.
        f.absorb(2, shard_telemetry(2, 100));
        f.absorb(0, shard_telemetry(0, 500));
        assert_eq!(f.shards().map(|(s, _)| s).collect::<Vec<_>>(), [0, 2]);
        let alerts = f.alerts();
        assert_eq!(alerts.len(), 2);
        assert_eq!((alerts[0].shard, alerts[0].inst), (2, 0));
        assert_eq!(alerts[1].shard, 0);
        assert_eq!(
            f.firing(),
            vec![(0, "delay_surge", 0), (2, "delay_surge", 0)]
        );
        let csv = f.alert_table().to_csv();
        assert!(csv.contains("0.100,2,delay_surge,replication_delay_ms,0,FIRE"));
        assert!(csv.contains("0.500,0,delay_surge"));
    }

    #[test]
    fn totals_sum_every_shard() {
        let mut f = FleetTelemetry::new();
        f.absorb(0, shard_telemetry(0, 100));
        f.absorb(1, shard_telemetry(1, 100));
        assert_eq!(f.total_committed(), 2);
    }
}
