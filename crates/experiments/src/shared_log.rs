//! E-SL: the shared-log (Taurus-style) replication backend compared against
//! the paper's binlog fan-out, in three cuts:
//!
//! * **backends** — the fig2-style throughput/delay/latency grid run under
//!   each [`BackendKind`], quantifying what quorum-gated durability costs
//!   on the steady path;
//! * **failover** — the E-M master-failure scenario per backend: the binlog
//!   backends rebuild (promote + snapshot resync, losing the un-applied
//!   tail), the shared log *reattaches* at the durable-quorum LSN (losing
//!   only never-acked writes) — recovery time and data loss side by side;
//! * **faults** — the shared log under a sweep of per-replica MTBFs: quorum
//!   waits, retries and re-sends grow, but no acked write is ever lost.
//!
//! Every cell is a deterministic simulation; grids fan out across the
//! [`crate::exec`] pool and render byte-identically for any `--jobs`.

use crate::calib::paper_cost_model;
use crate::exec::{parallel_map, Progress};
use crate::grid::cross2;
use crate::Fidelity;
use amdb_cloudstone::{DataSize, MixConfig};
use amdb_core::{
    run_cluster, BackendKind, ClusterConfig, LogFaultPlan, MasterFaultPlan, Placement, RunReport,
};
use amdb_obs::metrics::Table;
use amdb_sim::SimDuration;

/// The three backends, in presentation order.
pub const BACKENDS: [BackendKind; 3] = [
    BackendKind::Statement,
    BackendKind::Row,
    BackendKind::SharedLog,
];

fn base(users: u32, slaves: usize, fidelity: Fidelity) -> amdb_core::ClusterBuilder {
    ClusterConfig::builder()
        .slaves(slaves)
        .placement(Placement::SameZone)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize::SMALL)
        .workload(fidelity.workload(users))
        .cost(paper_cost_model())
        .seed(71)
}

/// Backend-comparison grid: {backend} × {slave count} at a fixed user load.
pub fn backends(fidelity: Fidelity, jobs: usize) -> Vec<(BackendKind, usize, RunReport)> {
    let users = match fidelity {
        Fidelity::Full => 150,
        Fidelity::Quick => 60,
    };
    let slaves: &[usize] = match fidelity {
        Fidelity::Full => &[1, 2, 3, 4],
        Fidelity::Quick => &[1, 2, 4],
    };
    let cells = cross2(&BACKENDS, slaves);
    parallel_map(&cells, jobs, &Progress::Silent, |_, &(b, slaves), _| {
        let r = run_cluster(base(users, slaves, fidelity).backend(b).build());
        (b, slaves, r)
    })
}

/// Render the backend grid.
pub fn backends_table(results: &[(BackendKind, usize, RunReport)]) -> Table {
    let mut t = Table::new(
        "E-SL — replication backends (50/50, size 300, same zone)",
        vec![
            "backend".into(),
            "slaves".into(),
            "throughput (ops/s)".into(),
            "p95 latency (ms)".into(),
            "avg rel delay (ms)".into(),
            "quorum wait mean (ms)".into(),
        ],
    );
    for (b, slaves, r) in results {
        t.push_row(vec![
            b.name().into(),
            slaves.to_string(),
            format!("{:.1}", r.throughput_ops_s),
            r.latency_ms
                .as_ref()
                .map(|s| format!("{:.1}", s.p95))
                .unwrap_or_else(|| "-".into()),
            r.avg_relative_delay_ms()
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "-".into()),
            r.shared_log
                .as_ref()
                .and_then(|sl| sl.quorum_wait_mean_ms)
                .map(|w| format!("{w:.2}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// Failover comparison: the E-M master-failure scenario run once per
/// backend and per arm. The *healthy* arm (2 current slaves) isolates the
/// recovery mechanism; the *lagging* arm (1 saturated slave, the Fig-5
/// deep-delay regime) adds the data-loss dimension — the binlog backends
/// discard the promoted replica's un-applied backlog, the shared log
/// replays it from the durable prefix instead. All cells share the failure
/// instant, the detection delay and the resync window.
pub fn failover(fidelity: Fidelity, jobs: usize) -> Vec<(BackendKind, &'static str, RunReport)> {
    let users = 175;
    let arms: [(&'static str, usize); 2] = [("2 healthy slaves", 2), ("1 saturated slave", 1)];
    parallel_map(
        &cross2(&BACKENDS, &arms),
        jobs,
        &Progress::Silent,
        |_, &(b, (arm, slaves)), _| {
            let w = fidelity.workload(users);
            // Mid-steady: the log's quorum-append stream is in full flight.
            let fail_at = w.phases.steady_start() - amdb_sim::SimTime::ZERO
                + (w.phases.steady_end() - w.phases.steady_start()) / 2;
            let r = run_cluster(
                base(users, slaves, fidelity)
                    .backend(b)
                    .master_fault(MasterFaultPlan {
                        fail_at,
                        detection_delay: SimDuration::from_secs(5),
                    })
                    .failover_resync(SimDuration::from_secs(60))
                    .build(),
            );
            (b, arm, r)
        },
    )
}

/// Render the failover comparison.
pub fn failover_table(results: &[(BackendKind, &'static str, RunReport)]) -> Table {
    let mut t = Table::new(
        "E-SL — master failover by backend (175 users, fail mid-steady, 60 s resync)",
        vec![
            "backend".into(),
            "arm".into(),
            "recovery (ms)".into(),
            "writes lost".into(),
            "throughput (ops/s)".into(),
            "mechanism".into(),
        ],
    );
    for (b, arm, r) in results {
        let mechanism = match (b, r.shared_log.as_ref().and_then(|sl| sl.recovery)) {
            (BackendKind::SharedLog, Some((lsn, replayed))) => {
                format!("reattach at lsn {lsn}, {replayed} replayed")
            }
            (BackendKind::SharedLog, None) => "reattach (no recovery recorded)".into(),
            _ => "promote + snapshot resync".into(),
        };
        t.push_row(vec![
            b.name().into(),
            (*arm).into(),
            r.recovery_ms
                .map(|ms| format!("{ms:.0}"))
                .unwrap_or_else(|| "-".into()),
            r.lost_writes.to_string(),
            format!("{:.1}", r.throughput_ops_s),
            mechanism,
        ]);
    }
    t
}

/// Log-replica fault grid: the shared-log backend under increasingly
/// hostile per-replica fault schedules (MTBF sweep, fixed 2 s MTTR plus a
/// slow-disk plane). Returns `(mtbf_label, report)` rows; `None` MTBF is
/// the healthy baseline.
pub fn fault_grid(fidelity: Fidelity, jobs: usize) -> Vec<(String, RunReport)> {
    let users = match fidelity {
        Fidelity::Full => 150,
        Fidelity::Quick => 60,
    };
    let mtbfs: Vec<Option<u64>> = vec![None, Some(120), Some(60), Some(30), Some(15)];
    parallel_map(&mtbfs, jobs, &Progress::Silent, |_, &mtbf, _| {
        let mut b = base(users, 2, fidelity).backend(BackendKind::SharedLog);
        if let Some(secs) = mtbf {
            b = b.log_faults(LogFaultPlan {
                mtbf: SimDuration::from_secs(secs),
                mttr: SimDuration::from_secs(2),
                slow_mtbf: Some(SimDuration::from_secs(secs)),
                slow_mttr: SimDuration::from_secs(3),
                slow_factor: 8.0,
            });
        }
        let label = match mtbf {
            None => "healthy".to_string(),
            Some(secs) => format!("mtbf {secs}s"),
        };
        (label, run_cluster(b.build()))
    })
}

/// Render the fault grid.
pub fn fault_grid_table(results: &[(String, RunReport)]) -> Table {
    let mut t = Table::new(
        "E-SL — shared log under per-replica faults (2 slaves, quorum 2/3)",
        vec![
            "log replicas".into(),
            "throughput (ops/s)".into(),
            "quorum wait mean/max (ms)".into(),
            "retries".into(),
            "re-sends".into(),
            "quorum failures".into(),
            "acked writes lost".into(),
        ],
    );
    for (label, r) in results {
        let sl = r.shared_log.as_ref().expect("fault grid runs shared-log");
        t.push_row(vec![
            label.clone(),
            format!("{:.1}", r.throughput_ops_s),
            format!(
                "{:.2} / {:.1}",
                sl.quorum_wait_mean_ms.unwrap_or(0.0),
                sl.quorum_wait_max_ms.unwrap_or(0.0)
            ),
            sl.ack_retries.to_string(),
            sl.ack_resends.to_string(),
            sl.quorum_failures.to_string(),
            r.lost_writes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_grid_covers_all_backends_and_reports_quorum_waits() {
        let rs = backends(Fidelity::Quick, 2);
        assert_eq!(rs.len(), 9);
        for (b, _, r) in &rs {
            assert_eq!(r.shared_log.is_some(), *b == BackendKind::SharedLog);
            assert!(r.steady_ops > 0);
        }
    }

    #[test]
    fn shared_log_failover_beats_binlog_rebuild() {
        let rs = failover(Fidelity::Quick, 3);
        let by = |want: BackendKind, arm_frag: &str| {
            rs.iter()
                .find(|(b, arm, _)| *b == want && arm.contains(arm_frag))
                .map(|(_, _, r)| r)
                .expect("cell present")
        };
        // Healthy arm: same loss (none), but reattach skips the resync.
        let stmt = by(BackendKind::Statement, "healthy");
        let slog = by(BackendKind::SharedLog, "healthy");
        let (sr, lr) = (
            stmt.recovery_ms.expect("statement arm recovered"),
            slog.recovery_ms.expect("shared-log arm recovered"),
        );
        assert!(
            lr < sr,
            "log reattach ({lr:.0} ms) must beat snapshot rebuild ({sr:.0} ms)"
        );
        // Lagging arm: async fan-out discards the promoted replica's
        // backlog; the quorum log replays it and loses nothing.
        let stmt_lag = by(BackendKind::Statement, "saturated");
        let slog_lag = by(BackendKind::SharedLog, "saturated");
        assert!(
            stmt_lag.lost_writes > 0,
            "saturated-replica promotion must lose writes under async fan-out"
        );
        assert_eq!(slog_lag.lost_writes, 0, "quorum log loses nothing");
        let (_, replayed) = slog_lag
            .shared_log
            .as_ref()
            .and_then(|sl| sl.recovery)
            .expect("reattach recorded");
        assert!(replayed > 0, "the lagging replica replays its backlog");
    }

    #[test]
    fn no_fault_cell_loses_acked_writes() {
        let rs = fault_grid(Fidelity::Quick, 2);
        assert_eq!(rs.len(), 5);
        for (label, r) in &rs {
            assert_eq!(r.lost_writes, 0, "cell {label} lost acked writes");
            let sl = r.shared_log.as_ref().unwrap();
            assert_eq!(
                sl.durable_lsn, sl.published_lsn,
                "cell {label} left published writes non-durable"
            );
        }
        // Hostile cells actually exercise the retry machinery.
        let worst = &rs.last().unwrap().1;
        assert!(worst.shared_log.as_ref().unwrap().ack_retries > 0);
    }
}
