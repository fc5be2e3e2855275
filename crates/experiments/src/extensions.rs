//! Extension experiments beyond the paper's figures:
//!
//! * **E-F (failover)** — the §I motivation ("automatic failover management
//!   and ensure high availability") exercised: a slave dies mid-run, is
//!   replaced, and the cluster's throughput and staleness are tracked.
//! * **E-A (autoscaling)** — the application-managed elasticity promise: a
//!   staleness-SLO controller grows the slave tier under load, compared
//!   against the static deployment.

use crate::calib::paper_cost_model;
use crate::exec::{parallel_map, Progress};
use crate::grid::cross2;
use crate::Fidelity;
use amdb_cloudstone::{DataSize, MixConfig};
use amdb_core::{run_cluster, AutoscaleConfig, ClusterConfig, FaultPlan, Placement, RunReport};
use amdb_metrics::Table;
use amdb_sim::SimDuration;

/// Run the failover experiment: 3 slaves, one fails at the start of the
/// steady stage and is replaced half-way through.
pub fn failover(fidelity: Fidelity) -> RunReport {
    let w = fidelity.workload(match fidelity {
        Fidelity::Full => 150,
        Fidelity::Quick => 60,
    });
    let fail_at = w.phases.steady_start() - amdb_sim::SimTime::ZERO;
    let recover_after = (w.phases.steady_end() - w.phases.steady_start()) / 2;
    run_cluster(
        ClusterConfig::builder()
            .slaves(3)
            .placement(Placement::SameZone)
            .mix(MixConfig::RW_80_20)
            .data_size(DataSize { scale: 100 })
            .workload(w)
            .cost(paper_cost_model())
            .fault(FaultPlan {
                slave: 1,
                fail_at,
                recover_after: Some(recover_after),
            })
            .seed(41)
            .build(),
    )
}

/// Run the autoscaling experiment: start with one slave under heavy read
/// load; the controller grows the tier. Returns (static, autoscaled). The
/// two arms are independent runs and fan out across `jobs` workers.
pub fn autoscale(fidelity: Fidelity, jobs: usize) -> (RunReport, RunReport) {
    let users = match fidelity {
        Fidelity::Full => 250,
        Fidelity::Quick => 170,
    };
    let base = |auto: Option<AutoscaleConfig>| {
        let mut b = ClusterConfig::builder()
            .slaves(1)
            .placement(Placement::SameZone)
            .mix(MixConfig::RW_80_20)
            .data_size(DataSize { scale: 100 })
            .workload(fidelity.workload(users))
            .cost(paper_cost_model())
            .seed(42);
        if let Some(a) = auto {
            b = b.autoscale(a);
        }
        b.build()
    };
    let auto = AutoscaleConfig {
        check_interval: SimDuration::from_secs(10),
        staleness_slo_ms: 2_000.0,
        max_slaves: 6,
        sync_duration: SimDuration::from_secs(60),
        cooldown: SimDuration::from_secs(90),
    };
    let arms = [None, Some(auto)];
    let mut runs = parallel_map(&arms, jobs, &Progress::Silent, |_, arm, _| {
        run_cluster(base(arm.clone()))
    })
    .into_iter();
    let st = runs.next().expect("static arm");
    let au = runs.next().expect("autoscaled arm");
    (st, au)
}

/// Render the failover report.
pub fn failover_table(r: &RunReport) -> Table {
    let mut t = Table::new(
        "E-F — failover: 3 slaves, slave 1 fails and is replaced",
        vec!["measure".into(), "value".into()],
    );
    t.push_row(vec![
        "steady throughput (ops/s)".into(),
        format!("{:.1}", r.throughput_ops_s),
    ]);
    t.push_row(vec![
        "reads per slave".into(),
        format!("{:?}", r.reads_per_slave),
    ]);
    for (at, ev) in &r.membership_events {
        t.push_row(vec![format!("t={at:.0}s"), ev.clone()]);
    }
    t
}

/// Render the autoscale comparison.
pub fn autoscale_table(static_run: &RunReport, auto_run: &RunReport) -> Table {
    let mut t = Table::new(
        "E-A — staleness-SLO autoscaling vs static single slave",
        vec![
            "deployment".into(),
            "final slaves".into(),
            "throughput (ops/s)".into(),
            "hot-slave relative delay (ms)".into(),
        ],
    );
    for (name, r) in [("static", static_run), ("autoscaled", auto_run)] {
        t.push_row(vec![
            name.into(),
            r.final_slaves.to_string(),
            format!("{:.1}", r.throughput_ops_s),
            r.delays[0]
                .relative_ms
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    for (at, ev) in &auto_run.membership_events {
        t.push_row(vec![
            format!("t={at:.0}s"),
            "".into(),
            "".into(),
            ev.clone(),
        ]);
    }
    t
}

/// E-M: master failover, two arms. With two healthy slaves the promoted
/// replica is current and nothing is lost; with one *saturated* slave (the
/// Fig-5 deep-delay regime) the promoted replica lags by seconds and every
/// un-applied write in that window is gone — §II: "once the updated replica
/// goes offline before duplicating data, data loss may occur". Returns
/// (healthy-arm report, lagging-arm report); the two arms fan out across
/// `jobs` workers.
pub fn master_failover(fidelity: Fidelity, jobs: usize) -> (RunReport, RunReport) {
    let users = 175;
    let run = |slaves: usize| {
        let w = fidelity.workload(users);
        let fail_at = w.phases.steady_start() - amdb_sim::SimTime::ZERO
            + (w.phases.steady_end() - w.phases.steady_start()) / 2;
        run_cluster(
            ClusterConfig::builder()
                .slaves(slaves)
                .placement(Placement::SameZone)
                .mix(MixConfig::RW_50_50)
                .data_size(DataSize::SMALL)
                .workload(w)
                .cost(paper_cost_model())
                .master_fault(amdb_core::MasterFaultPlan {
                    fail_at,
                    detection_delay: SimDuration::from_secs(5),
                })
                .seed(61)
                .build(),
        )
    };
    let arms = [2usize, 1];
    let mut runs =
        parallel_map(&arms, jobs, &Progress::Silent, |_, &slaves, _| run(slaves)).into_iter();
    let healthy = runs.next().expect("healthy arm");
    let lagging = runs.next().expect("lagging arm");
    (healthy, lagging)
}

/// Render E-M.
pub fn master_failover_table(healthy: &RunReport, lagging: &RunReport) -> Table {
    let mut t = Table::new(
        "E-M — master failover: healthy vs lagging promoted replica (50/50, 175 users)",
        vec![
            "arm".into(),
            "throughput (ops/s)".into(),
            "writes lost".into(),
            "timeline".into(),
        ],
    );
    for (name, r) in [
        ("2 healthy slaves", healthy),
        ("1 saturated slave", lagging),
    ] {
        let timeline = r
            .membership_events
            .iter()
            .map(|(at, ev)| format!("t={at:.0}s {ev}"))
            .collect::<Vec<_>>()
            .join("; ");
        t.push_row(vec![
            name.into(),
            format!("{:.1}", r.throughput_ops_s),
            r.lost_writes.to_string(),
            timeline,
        ]);
    }
    t
}

/// E-W: Web 1.0 vs Web 2.0 scale-out. The paper's §III-A motivation is
/// that Web 2.0 writes more; this experiment quantifies the consequence:
/// with a 95/5 mix the master ceiling sits several times further out, so
/// slave scale-out keeps paying where the Cloudstone mix has long stalled.
pub fn workload_classes(fidelity: Fidelity, jobs: usize) -> Vec<(&'static str, usize, RunReport)> {
    let users = match fidelity {
        Fidelity::Full => 300,
        Fidelity::Quick => 120,
    };
    let classes = [
        (
            "web2.0 (cloudstone 50/50)",
            amdb_core::WorkloadKind::Cloudstone,
            MixConfig::RW_50_50,
        ),
        (
            "web1.0 (bookstore 95/5)",
            amdb_core::WorkloadKind::Web10,
            MixConfig::RW_50_50, // ignored by Web10
        ),
    ];
    parallel_map(
        &cross2(&classes, &[1usize, 2, 4, 6]),
        jobs,
        &Progress::Silent,
        |_, &((name, kind, mix), slaves), _| {
            let cfg = ClusterConfig::builder()
                .slaves(slaves)
                .placement(Placement::SameZone)
                .mix(mix)
                .workload_kind(kind)
                .data_size(DataSize { scale: 100 })
                .workload(fidelity.workload(users))
                .cost(paper_cost_model())
                .seed(55)
                .build();
            (name, slaves, run_cluster(cfg))
        },
    )
}

/// Render E-W.
pub fn workload_classes_table(results: &[(&'static str, usize, RunReport)]) -> Table {
    let mut t = Table::new(
        "E-W — scale-out by workload class (same users, same hardware)",
        vec![
            "workload".into(),
            "slaves".into(),
            "throughput (ops/s)".into(),
            "master util".into(),
        ],
    );
    for (name, slaves, r) in results {
        t.push_row(vec![
            (*name).into(),
            slaves.to_string(),
            format!("{:.1}", r.throughput_ops_s),
            format!("{:.2}", r.master_utilization),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_run_records_both_events() {
        let r = failover(Fidelity::Quick);
        let evs: Vec<&str> = r
            .membership_events
            .iter()
            .map(|(_, e)| e.as_str())
            .collect();
        assert!(evs.iter().any(|e| e.contains("failed")), "{evs:?}");
        assert!(evs.iter().any(|e| e.contains("replaced")), "{evs:?}");
        assert!(r.steady_ops > 0);
    }

    #[test]
    fn master_failover_loss_depends_on_replica_lag() {
        let (healthy, lagging) = master_failover(Fidelity::Quick, 2);
        for r in [&healthy, &lagging] {
            assert!(r
                .membership_events
                .iter()
                .any(|(_, e)| e.contains("promoted")));
            assert!(r.steady_writes > 0, "writes resumed after promotion");
        }
        assert_eq!(healthy.lost_writes, 0, "current replica loses nothing");
        assert!(
            lagging.lost_writes > 0,
            "saturated replica's apply backlog is the data-loss window"
        );
    }

    #[test]
    fn web10_scales_further_than_web20() {
        let rs = workload_classes(Fidelity::Quick, 2);
        let at = |name_frag: &str, slaves: usize| {
            rs.iter()
                .find(|(n, s, _)| n.contains(name_frag) && *s == slaves)
                .map(|(_, _, r)| r.throughput_ops_s)
                .expect("present")
        };
        // Web 2.0 stalls at the master ceiling; Web 1.0 keeps gaining.
        let w2_gain = at("web2.0", 6) / at("web2.0", 2);
        let w1_gain = at("web1.0", 6) / at("web1.0", 2);
        assert!(
            w1_gain > w2_gain,
            "web1.0 scale-out gain {w1_gain:.2} must exceed web2.0 {w2_gain:.2}"
        );
    }

    #[test]
    fn autoscale_improves_hot_slave_delay() {
        let (st, auto) = autoscale(Fidelity::Quick, 2);
        assert!(auto.final_slaves > st.final_slaves);
        let ds = st.delays[0].relative_ms.unwrap_or(f64::MAX);
        let da = auto.delays[0].relative_ms.unwrap_or(f64::MAX);
        assert!(da < ds, "autoscaled {da:.0} ms < static {ds:.0} ms");
    }
}
