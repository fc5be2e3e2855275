//! Ablations beyond the paper's measured figures.
//!
//! * **A1 — sync vs semi-sync vs async** (§II discusses the trade-off
//!   qualitatively; we measure it): replication mode × workload at 3 slaves.
//! * **A2 — balancer policies** (§IV-B.2 suggests a "smart load balancer
//!   ... based on estimated processing time"): policies over a cluster whose
//!   slaves differ in speed, so naive balancing hurts.
//! * **A3 — statement- vs row-based binlog**: apply cost and delay under a
//!   write-heavy workload.

use crate::calib::paper_cost_model;
use crate::exec::{parallel_map, Progress};
use crate::Fidelity;

use amdb_cloudstone::{DataSize, MixConfig};
use amdb_core::{run_cluster, BalancerKind, ClusterConfig, Placement, RunReport};
use amdb_obs::metrics::Table;
use amdb_repl::{BackendKind, ReplMode};

fn base_cfg(users: u32, slaves: usize, fidelity: Fidelity) -> ClusterConfig {
    ClusterConfig::builder()
        .slaves(slaves)
        .placement(Placement::SameZone)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize::SMALL)
        .workload(fidelity.workload(users))
        .cost(paper_cost_model())
        .seed(23)
        .build()
}

/// A1: replication mode comparison. Returns `(mode, report)` triples.
/// Each mode is an independent run, so the three fan out across `jobs`
/// workers; results come back in mode order regardless.
pub fn sync_modes(fidelity: Fidelity, jobs: usize) -> Vec<(ReplMode, RunReport)> {
    let users = match fidelity {
        Fidelity::Full => 125,
        Fidelity::Quick => 40,
    };
    let modes = [ReplMode::Async, ReplMode::SemiSync, ReplMode::Sync];
    parallel_map(&modes, jobs, &Progress::Silent, |_, &mode, _| {
        let mut cfg = base_cfg(users, 3, fidelity);
        cfg.mode = mode;
        // Make the commit-latency effect visible: slaves in another
        // region, as geo-replication is where sync modes really hurt.
        cfg.placement = Placement::DifferentRegion(amdb_cloud::net::Region::EuWest1);
        (mode, run_cluster(cfg))
    })
}

/// Render A1.
pub fn sync_modes_table(results: &[(ReplMode, RunReport)]) -> Table {
    let mut t = Table::new(
        "A1 — replication mode (3 geo-replicated slaves, 50/50)",
        vec![
            "mode".into(),
            "throughput (ops/s)".into(),
            "p95 latency (ms)".into(),
            "avg relative delay (ms)".into(),
        ],
    );
    for (mode, r) in results {
        t.push_row(vec![
            mode.name().into(),
            format!("{:.1}", r.throughput_ops_s),
            r.latency_ms
                .as_ref()
                .map(|l| format!("{:.0}", l.p95))
                .unwrap_or_else(|| "-".into()),
            r.avg_relative_delay_ms()
                .map(|d| format!("{d:.1}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// A2: balancer comparison over heterogeneous slaves (fleet-sampled hosts,
/// so some slaves are markedly slower).
pub fn balancers(fidelity: Fidelity, jobs: usize) -> Vec<(BalancerKind, RunReport)> {
    let users = match fidelity {
        Fidelity::Full => 150,
        Fidelity::Quick => 50,
    };
    let kinds = [
        BalancerKind::RoundRobin,
        BalancerKind::Random,
        BalancerKind::LeastOutstanding,
        BalancerKind::LatencyAware,
    ];
    parallel_map(&kinds, jobs, &Progress::Silent, |_, &b, _| {
        let mut cfg = base_cfg(users, 4, fidelity);
        cfg.balancer = b;
        // Heterogeneous fleet: sample host models instead of pinning.
        cfg.pin_slave_host = None;
        (b, run_cluster(cfg))
    })
}

/// Render A2.
pub fn balancers_table(results: &[(BalancerKind, RunReport)]) -> Table {
    let mut t = Table::new(
        "A2 — balancing policy over heterogeneous slaves (4 slaves, 50/50)",
        vec![
            "policy".into(),
            "throughput (ops/s)".into(),
            "mean latency (ms)".into(),
            "p95 latency (ms)".into(),
        ],
    );
    for (b, r) in results {
        t.push_row(vec![
            format!("{b:?}"),
            format!("{:.1}", r.throughput_ops_s),
            r.latency_ms
                .as_ref()
                .map(|l| format!("{:.0}", l.mean))
                .unwrap_or_else(|| "-".into()),
            r.latency_ms
                .as_ref()
                .map(|l| format!("{:.0}", l.p95))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// A3: binlog format comparison under a write-heavy mix.
pub fn binlog_formats(fidelity: Fidelity, jobs: usize) -> Vec<(BackendKind, RunReport)> {
    let users = match fidelity {
        Fidelity::Full => 125,
        Fidelity::Quick => 40,
    };
    let formats = [BackendKind::Statement, BackendKind::Row];
    parallel_map(&formats, jobs, &Progress::Silent, |_, &format, _| {
        let mut cfg = base_cfg(users, 2, fidelity);
        cfg.backend = format;
        cfg.mix = MixConfig {
            read_fraction: 0.2, // write-heavy: the apply path dominates
        };
        (format, run_cluster(cfg))
    })
}

/// Render A3.
pub fn binlog_formats_table(results: &[(BackendKind, RunReport)]) -> Table {
    let mut t = Table::new(
        "A3 — binlog format under a 20/80 write-heavy mix (2 slaves)",
        vec![
            "format".into(),
            "throughput (ops/s)".into(),
            "avg relative delay (ms)".into(),
            "peak relay backlog".into(),
        ],
    );
    for (f, r) in results {
        t.push_row(vec![
            format!("{f:?}"),
            format!("{:.1}", r.throughput_ops_s),
            r.avg_relative_delay_ms()
                .map(|d| format!("{d:.1}"))
                .unwrap_or_else(|| "-".into()),
            r.peak_relay_backlog.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_hurts_write_latency_on_geo_replicas() {
        let rs = sync_modes(Fidelity::Quick, 2);
        let lat = |m: ReplMode| {
            rs.iter()
                .find(|(mode, _)| *mode == m)
                .and_then(|(_, r)| r.latency_ms.as_ref())
                .map(|l| l.p95)
                .expect("latency present")
        };
        assert!(
            lat(ReplMode::Sync) > lat(ReplMode::Async),
            "sync p95 {} must exceed async p95 {}",
            lat(ReplMode::Sync),
            lat(ReplMode::Async)
        );
    }

    #[test]
    fn all_modes_complete_work() {
        for (_, r) in sync_modes(Fidelity::Quick, 2) {
            assert!(r.steady_ops > 0);
        }
    }

    #[test]
    fn balancer_ablation_produces_all_policies() {
        let rs = balancers(Fidelity::Quick, 2);
        assert_eq!(rs.len(), 4);
        for (_, r) in &rs {
            assert!(r.steady_ops > 0);
        }
    }

    #[test]
    fn binlog_formats_both_converge() {
        let rs = binlog_formats(Fidelity::Quick, 2);
        assert_eq!(rs.len(), 2);
        for (_, r) in &rs {
            assert!(r.steady_writes > 0);
        }
    }
}
