//! Deterministic SLO monitor and alert engine.
//!
//! Rules are threshold checks with hysteresis over a rolling window of
//! sampled values — the classic alerting shape ("fire when the 2 s mean
//! replication delay exceeds 500 ms, clear when it falls back under
//! 125 ms") made deterministic: evaluation happens at the cluster's obs
//! sampling tick in simulated time, so the alert timeline is a pure
//! function of the seed.
//!
//! ## Rule grammar
//!
//! A [`SloRule`] is `(name, metric, direction, fire_at, clear_at, window,
//! arm_above)`:
//!
//! * `metric` selects a sampled series ([`SloMetric`]); per-instance
//!   metrics (replication delay per slave, CPU per node) evaluate one
//!   state machine per instance.
//! * `direction` — [`Direction::Above`] fires when the windowed mean
//!   reaches `fire_at` and clears when it drops below `clear_at`
//!   (`clear_at ≤ fire_at`); [`Direction::Below`] mirrors this for
//!   floor-style rules (throughput collapse).
//! * `window` — number of consecutive samples averaged; transitions only
//!   evaluate once the window is full.
//! * `arm_above` — optional arming level for `Below` rules: the rule stays
//!   dormant until the windowed mean first *exceeds* this value, so a
//!   throughput-floor rule does not fire during ramp-up when throughput is
//!   legitimately still zero.
//!
//! ## Surge attribution
//!
//! When a [`SloMetric::ReplicationDelayMs`] rule fires, the engine names
//! the resource responsible using the bottleneck attributor's rows *at the
//! fire instant* (interval utilizations, not steady-window averages):
//! saturated resource if any (deterministically tie-broken by
//! [`BottleneckReport::busiest`]), otherwise the network RTT class when
//! the base RTT is a large fraction of the observed delay, otherwise the
//! busiest CPU. This reproduces the paper's §IV reading: surges start at
//! saturated slaves and migrate to the master as slaves are added.

use amdb_obs::{BottleneckReport, ResourceUsage};
use amdb_sim::SimTime;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Which side of the threshold is unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Fire when the windowed mean rises to `fire_at` (delay, CPU, waits).
    Above,
    /// Fire when the windowed mean falls to `fire_at` (throughput floors).
    Below,
}

/// The sampled series a rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloMetric {
    /// True replication delay per slave (ms) — binlog ground truth, not
    /// the heartbeat-quantized observable. One state machine per slave.
    ReplicationDelayMs,
    /// Interval CPU utilization per node (0 = master, `s+1` = slave `s`).
    CpuUtilization,
    /// Connections waiting on the pool (cluster-wide).
    PoolWaiting,
    /// Completed operations per second over the sample interval.
    ThroughputOps,
    /// Consistency-SLA violations per second over the sample interval.
    SlaViolationRate,
}

impl SloMetric {
    /// Stable label used in tables and CSV.
    pub fn as_str(self) -> &'static str {
        match self {
            SloMetric::ReplicationDelayMs => "replication_delay_ms",
            SloMetric::CpuUtilization => "cpu_utilization",
            SloMetric::PoolWaiting => "pool_waiting",
            SloMetric::ThroughputOps => "throughput_ops",
            SloMetric::SlaViolationRate => "sla_violation_rate",
        }
    }
}

/// One alert rule; see the module docs for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Stable rule name (static so alert instants never allocate).
    pub name: &'static str,
    pub metric: SloMetric,
    pub direction: Direction,
    /// Windowed-mean level at which the rule fires.
    pub fire_at: f64,
    /// Windowed-mean level at which a firing rule clears (hysteresis).
    pub clear_at: f64,
    /// Samples in the rolling window.
    pub window: usize,
    /// For `Below` rules: stay dormant until the mean first exceeds this.
    pub arm_above: Option<f64>,
}

/// The rule set `Telemetry::new` installs: the paper's §IV signals.
pub fn paper_rules() -> Vec<SloRule> {
    vec![
        // The delay-surge detector. Fig 5 puts the healthy 3-slave delay
        // near 100 ms and the surged regimes at 200 ms – 14 s, so a 150 ms
        // windowed mean separates surge from noise at every placement.
        SloRule {
            name: "delay_surge",
            metric: SloMetric::ReplicationDelayMs,
            direction: Direction::Above,
            fire_at: 150.0,
            clear_at: 50.0,
            window: 4,
            arm_above: None,
        },
        SloRule {
            name: "cpu_saturated",
            metric: SloMetric::CpuUtilization,
            direction: Direction::Above,
            fire_at: 0.95,
            clear_at: 0.80,
            window: 4,
            arm_above: None,
        },
        SloRule {
            name: "pool_backlog",
            metric: SloMetric::PoolWaiting,
            direction: Direction::Above,
            fire_at: 4.0,
            clear_at: 1.0,
            window: 4,
            arm_above: None,
        },
        SloRule {
            name: "throughput_collapse",
            metric: SloMetric::ThroughputOps,
            direction: Direction::Below,
            fire_at: 1.0,
            clear_at: 2.0,
            window: 4,
            arm_above: Some(5.0),
        },
        SloRule {
            name: "sla_violations",
            metric: SloMetric::SlaViolationRate,
            direction: Direction::Above,
            fire_at: 5.0,
            clear_at: 1.0,
            window: 4,
            arm_above: None,
        },
    ]
}

/// Did the rule fire or clear?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    Fire,
    Clear,
}

/// One alert transition on the deterministic timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    pub rule: &'static str,
    pub metric: SloMetric,
    /// Shard tree the engine watches (0 for an unsharded cluster), so a
    /// fleet aggregator can name alerts as `(shard, component, instance)`.
    pub shard: u32,
    /// Instance the rule fired for (slave index, node index, or 0).
    pub inst: u32,
    pub kind: AlertKind,
    pub at: SimTime,
    /// The windowed mean at the transition.
    pub value: f64,
    /// For delay-surge fires: the resource the surge is attributed to.
    pub attribution: Option<String>,
}

/// One sampling tick's inputs, gathered by the cluster.
#[derive(Debug, Clone, Copy)]
pub struct SloSample<'a> {
    pub at: SimTime,
    /// True replication delay per slave (ms).
    pub delay_ms: &'a [f64],
    /// Interval CPU utilization per node (0 = master, then slaves).
    pub cpu_util: &'a [f64],
    /// Connections currently waiting on the pool.
    pub pool_waiting: f64,
    /// Completed operations per second over the last interval.
    pub ops_per_s: f64,
    /// Consistency-SLA violations per second over the last interval.
    pub sla_violation_rate: f64,
    /// Interval resource-usage rows for surge attribution (master CPU,
    /// slave CPUs; labels as in the steady-window bottleneck report).
    pub rows: &'a [ResourceUsage],
    /// Base one-way RTT to the slave zone (ms) and its placement class.
    pub rtt_ms: f64,
    pub rtt_class: &'a str,
}

/// Per-(rule, instance) hysteresis state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    window: VecDeque<f64>,
    armed: bool,
    firing: bool,
}

/// The engine: evaluates every rule at every sample and keeps the alert
/// log. All state lives in `BTreeMap`s keyed by (rule index, instance), so
/// evaluation order — and the alert timeline — is deterministic.
#[derive(Debug, Clone)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    saturation_threshold: f64,
    shard: u32,
    state: BTreeMap<(usize, u32), RuleState>,
    alerts: Vec<AlertEvent>,
}

impl SloEngine {
    /// Engine over `rules`; `saturation_threshold` feeds surge attribution.
    pub fn new(rules: Vec<SloRule>, saturation_threshold: f64) -> Self {
        Self {
            rules,
            saturation_threshold,
            shard: 0,
            state: BTreeMap::new(),
            alerts: Vec::new(),
        }
    }

    /// Stamp every alert this engine emits with `shard` — one engine runs
    /// per shard tree, and the fleet aggregator merges their timelines.
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// The shard this engine's alerts are attributed to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The configured rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// The full alert log, in firing order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// Rules currently firing, as `(rule name, instance)`.
    pub fn firing(&self) -> Vec<(&'static str, u32)> {
        self.state
            .iter()
            .filter(|(_, s)| s.firing)
            .map(|(&(ri, inst), _)| (self.rules[ri].name, inst))
            .collect()
    }

    /// Feed one sampling tick; returns the transitions it produced (also
    /// appended to [`Self::alerts`]).
    pub fn observe(&mut self, s: &SloSample<'_>) -> Vec<AlertEvent> {
        let mut out = Vec::new();
        for ri in 0..self.rules.len() {
            let rule = self.rules[ri].clone();
            match rule.metric {
                SloMetric::ReplicationDelayMs => {
                    for (i, &v) in s.delay_ms.iter().enumerate() {
                        self.step(ri, &rule, i as u32, v, s, &mut out);
                    }
                }
                SloMetric::CpuUtilization => {
                    for (i, &v) in s.cpu_util.iter().enumerate() {
                        self.step(ri, &rule, i as u32, v, s, &mut out);
                    }
                }
                SloMetric::PoolWaiting => self.step(ri, &rule, 0, s.pool_waiting, s, &mut out),
                SloMetric::ThroughputOps => self.step(ri, &rule, 0, s.ops_per_s, s, &mut out),
                SloMetric::SlaViolationRate => {
                    self.step(ri, &rule, 0, s.sla_violation_rate, s, &mut out)
                }
            }
        }
        out
    }

    fn step(
        &mut self,
        ri: usize,
        rule: &SloRule,
        inst: u32,
        value: f64,
        s: &SloSample<'_>,
        out: &mut Vec<AlertEvent>,
    ) {
        let st = self.state.entry((ri, inst)).or_default();
        st.window.push_back(value);
        while st.window.len() > rule.window.max(1) {
            st.window.pop_front();
        }
        if st.window.len() < rule.window.max(1) {
            return;
        }
        let mean = st.window.iter().sum::<f64>() / st.window.len() as f64;
        let (fires, clears) = match rule.direction {
            Direction::Above => (mean >= rule.fire_at, mean < rule.clear_at),
            Direction::Below => {
                if !st.armed {
                    st.armed = mean > rule.arm_above.unwrap_or(rule.fire_at);
                }
                if !st.armed {
                    return;
                }
                (mean <= rule.fire_at, mean > rule.clear_at)
            }
        };
        let transition = if !st.firing && fires {
            st.firing = true;
            Some(AlertKind::Fire)
        } else if st.firing && clears {
            st.firing = false;
            Some(AlertKind::Clear)
        } else {
            None
        };
        let Some(kind) = transition else { return };
        let attribution = (kind == AlertKind::Fire && rule.metric == SloMetric::ReplicationDelayMs)
            .then(|| {
                attribute_surge(
                    s.rows,
                    self.saturation_threshold,
                    s.rtt_ms,
                    s.rtt_class,
                    mean,
                )
            });
        let ev = AlertEvent {
            rule: rule.name,
            metric: rule.metric,
            shard: self.shard,
            inst,
            kind,
            at: s.at,
            value: mean,
            attribution,
        };
        self.alerts.push(ev.clone());
        out.push(ev);
    }
}

/// Name the resource behind a delay surge from the attributor rows at the
/// fire instant.
///
/// Policy, in order: (1) a saturated row (≥ `threshold` utilization,
/// deterministically tie-broken) is the cause; (2) otherwise, when the
/// base network RTT is at least half the windowed delay, the network class
/// is the cause — distance, not queueing; (3) otherwise the busiest row.
pub fn attribute_surge(
    rows: &[ResourceUsage],
    threshold: f64,
    rtt_ms: f64,
    rtt_class: &str,
    windowed_delay_ms: f64,
) -> String {
    let mut rep = BottleneckReport::new(threshold);
    for r in rows {
        rep.push(r.clone());
    }
    if let Some(b) = rep.bottleneck() {
        return b.label.clone();
    }
    if rtt_ms >= 0.5 * windowed_delay_ms {
        return format!("network ({rtt_class})");
    }
    match rep.busiest() {
        Some(b) => b.label.clone(),
        None => "unattributed".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_obs::Component;

    fn delay_rule(fire: f64, clear: f64, window: usize) -> SloRule {
        SloRule {
            name: "delay_surge",
            metric: SloMetric::ReplicationDelayMs,
            direction: Direction::Above,
            fire_at: fire,
            clear_at: clear,
            window,
            arm_above: None,
        }
    }

    fn row(comp: Component, inst: u32, label: &str, util: f64) -> ResourceUsage {
        ResourceUsage {
            comp,
            inst,
            label: label.to_string(),
            utilization: util,
            peak_queue: 0,
        }
    }

    fn sample<'a>(at_ms: u64, delays: &'a [f64], rows: &'a [ResourceUsage]) -> SloSample<'a> {
        SloSample {
            at: SimTime::from_millis(at_ms),
            delay_ms: delays,
            cpu_util: &[],
            pool_waiting: 0.0,
            ops_per_s: 0.0,
            sla_violation_rate: 0.0,
            rows,
            rtt_ms: 16.0,
            rtt_class: "same zone",
        }
    }

    #[test]
    fn fires_once_and_clears_with_hysteresis() {
        let mut e = SloEngine::new(vec![delay_rule(100.0, 25.0, 2)], 0.9);
        let rows = [row(Component::Cpu, 1, "slave0 cpu", 1.2)];
        // Window not full: no transition whatever the value.
        assert!(e.observe(&sample(0, &[500.0], &rows)).is_empty());
        // Full window above fire_at: exactly one fire.
        let evs = e.observe(&sample(500, &[500.0], &rows));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AlertKind::Fire);
        assert_eq!(evs[0].attribution.as_deref(), Some("slave0 cpu"));
        // Still elevated: no duplicate fire.
        assert!(e.observe(&sample(1000, &[400.0], &rows)).is_empty());
        // Mean drops between clear_at and fire_at: hysteresis holds it.
        assert!(e.observe(&sample(1500, &[30.0], &rows)).is_empty());
        // Window mean finally below clear_at: one clear, no attribution.
        let evs = e.observe(&sample(2000, &[10.0], &rows));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AlertKind::Clear);
        assert_eq!(evs[0].attribution, None);
        assert_eq!(e.alerts().len(), 2);
    }

    #[test]
    fn shard_stamp_lands_on_every_alert() {
        let mut e = SloEngine::new(vec![delay_rule(100.0, 25.0, 1)], 0.9).with_shard(3);
        assert_eq!(e.shard(), 3);
        let rows = [row(Component::Cpu, 1, "slave0 cpu", 1.0)];
        let evs = e.observe(&sample(0, &[500.0], &rows));
        assert_eq!(evs[0].shard, 3);
        let mut plain = SloEngine::new(vec![delay_rule(100.0, 25.0, 1)], 0.9);
        assert_eq!(plain.observe(&sample(0, &[500.0], &rows))[0].shard, 0);
    }

    #[test]
    fn per_instance_state_is_independent() {
        let mut e = SloEngine::new(vec![delay_rule(100.0, 25.0, 1)], 0.9);
        let rows = [row(Component::Cpu, 1, "slave0 cpu", 1.0)];
        let evs = e.observe(&sample(0, &[500.0, 5.0], &rows));
        assert_eq!(evs.len(), 1, "only slave 0 fires");
        assert_eq!(evs[0].inst, 0);
        assert_eq!(e.firing(), vec![("delay_surge", 0)]);
    }

    #[test]
    fn below_rules_arm_before_firing() {
        let rule = SloRule {
            name: "throughput_collapse",
            metric: SloMetric::ThroughputOps,
            direction: Direction::Below,
            fire_at: 1.0,
            clear_at: 2.0,
            window: 1,
            arm_above: Some(5.0),
        };
        let mut e = SloEngine::new(vec![rule], 0.9);
        let tick = |e: &mut SloEngine, at: u64, ops: f64| {
            let s = SloSample {
                ops_per_s: ops,
                ..sample(at, &[], &[])
            };
            e.observe(&s)
        };
        // Ramp-up: throughput 0 but the rule is not armed yet.
        assert!(tick(&mut e, 0, 0.0).is_empty());
        // Healthy traffic arms it …
        assert!(tick(&mut e, 500, 8.0).is_empty());
        // … and the collapse now fires.
        let evs = tick(&mut e, 1000, 0.5);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AlertKind::Fire);
        assert_eq!(evs[0].attribution, None, "only delay surges attribute");
    }

    #[test]
    fn attribution_policy_orders_saturation_network_busiest() {
        let saturated = [
            row(Component::Cpu, 0, "master cpu", 0.97),
            row(Component::Cpu, 1, "slave0 cpu", 0.5),
        ];
        assert_eq!(
            attribute_surge(&saturated, 0.9, 16.0, "same zone", 400.0),
            "master cpu"
        );
        // Nothing saturated, RTT dominates the windowed delay: network.
        let calm = [
            row(Component::Cpu, 0, "master cpu", 0.4),
            row(Component::Cpu, 1, "slave0 cpu", 0.5),
        ];
        assert_eq!(
            attribute_surge(&calm, 0.9, 173.0, "different region", 300.0),
            "network (different region)"
        );
        // Nothing saturated, RTT negligible: the busiest row.
        assert_eq!(
            attribute_surge(&calm, 0.9, 16.0, "same zone", 400.0),
            "slave0 cpu"
        );
        assert_eq!(attribute_surge(&[], 0.9, 1.0, "x", 1000.0), "unattributed");
    }

    #[test]
    fn saturation_ties_resolve_deterministically_for_attribution() {
        // Master and a slave both pinned: the (component, instance) key
        // tie-break names the master, matching the §IV migration readout.
        let rows = [
            row(Component::Cpu, 3, "slave2 cpu", 1.0),
            row(Component::Cpu, 0, "master cpu", 1.0),
        ];
        assert_eq!(
            attribute_surge(&rows, 0.9, 16.0, "same zone", 500.0),
            "master cpu"
        );
    }

    #[test]
    fn paper_rules_cover_all_metrics() {
        let rules = paper_rules();
        for m in [
            SloMetric::ReplicationDelayMs,
            SloMetric::CpuUtilization,
            SloMetric::PoolWaiting,
            SloMetric::ThroughputOps,
            SloMetric::SlaViolationRate,
        ] {
            assert!(
                rules.iter().any(|r| r.metric == m),
                "missing rule for {}",
                m.as_str()
            );
        }
        for r in &rules {
            match r.direction {
                Direction::Above => assert!(r.clear_at <= r.fire_at, "{}", r.name),
                Direction::Below => assert!(r.clear_at >= r.fire_at, "{}", r.name),
            }
        }
    }
}
