//! Integration properties of the parallel-apply scheduler against the full
//! cluster simulation — the acceptance gates of the amdb-apply subsystem:
//!
//! * `apply_workers = 1` **is** the serial pipeline: the builder default and
//!   the explicit setting produce bit-identical runs, and every batch holds
//!   exactly one event;
//! * on a saturated row-format cell, the staleness-waterfall delay segments
//!   shrink monotonically as workers grow, and the `delay_surge` alert
//!   fires later (or never) — the paper's Fig 5/6 surge flattening.

use amdb_cloudstone::{DataSize, MixConfig, WorkloadConfig};
use amdb_core::{run_cell, run_cluster, BackendKind, ClusterConfig, ObsConfig, RunReport};
use amdb_obs::telemetry::AlertKind;
use proptest::prelude::*;

fn quick_cfg(users: u32, slaves: usize, seed: u64) -> amdb_core::ClusterBuilder {
    ClusterConfig::builder()
        .slaves(slaves)
        .workload(WorkloadConfig::quick(users))
        .data_size(DataSize { scale: 30 })
        .seed(seed)
}

/// Every observable a run produces, collapsed to exact bit patterns so
/// float comparisons cannot hide drift.
fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut v = vec![
        r.steady_ops,
        r.steady_reads,
        r.steady_writes,
        r.steady_slave_reads,
        r.sim_events,
        r.peak_relay_backlog,
        r.apply_batches,
        r.apply_events,
        r.pool_stats.0,
        r.pool_stats.1,
        r.throughput_ops_s.to_bits(),
        r.master_utilization.to_bits(),
    ];
    v.extend(r.reads_per_slave.iter().copied());
    v.extend(r.slave_utilizations.iter().map(|u| u.to_bits()));
    if let Some(l) = &r.latency_ms {
        v.extend([l.mean.to_bits(), l.p95.to_bits(), l.max.to_bits()]);
    }
    for d in &r.delays {
        v.push(d.baseline_ms.map_or(0, f64::to_bits));
        v.push(d.loaded_ms.map_or(0, f64::to_bits));
        v.push(d.loaded_samples as u64);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The builder default and an explicit `apply_workers(1)` are the same
    /// run, and the serial thread never groups a batch.
    #[test]
    fn workers_one_is_the_serial_pipeline(seed in 1..1000u64) {
        let default = run_cluster(quick_cfg(8, 2, seed).backend(BackendKind::Row).build());
        let explicit = run_cluster(
            quick_cfg(8, 2, seed)
                .backend(BackendKind::Row)
                .apply_workers(1)
                .build(),
        );
        prop_assert_eq!(fingerprint(&default), fingerprint(&explicit));
        prop_assert_eq!(explicit.apply_batches, explicit.apply_events);
        prop_assert!(explicit.apply_events > 0, "the run replicated something");
    }
}

/// A row-format cell pushed into the delay surge: the fig5-style
/// 150-user / size-300 / 2-slave grid cell, where offered demand
/// saturates the slaves and the relay backlog grows for the whole steady
/// window (mean staleness is measured in seconds under serial apply).
fn surge_cfg(workers: usize) -> ClusterConfig {
    quick_cfg(150, 2, 424242)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize::SMALL)
        .backend(BackendKind::Row)
        .apply_workers(workers)
        .observability(ObsConfig::enabled())
        .build()
}

#[test]
fn waterfall_apply_delay_shrinks_and_surge_onset_recedes() {
    // One saturated cell at 1, 2 and 4 workers. The workload replays
    // identically (the seed does not depend on the worker count), so every
    // delta below is the scheduler's doing.
    let runs: Vec<(RunReport, amdb_obs::telemetry::Telemetry)> = [1usize, 2, 4]
        .into_iter()
        .map(|w| run_cell(surge_cfg(w), None).expect("valid config"))
        .map(|run| (run.report, run.telemetry.expect("obs on")))
        .collect();

    // The waterfall's per-slave delay decomposition: the queueing leg
    // (relay wait) and the end-to-end commit→applied leg must shrink
    // monotonically with the worker count on a saturated cell.
    let leg_means: Vec<(f64, f64)> = runs
        .iter()
        .map(|(_, t)| {
            let leg = &t.waterfall.legs()[0];
            (
                leg.queue_ms.mean().expect("writes were traced"),
                leg.e2e_ms.mean().expect("writes were traced"),
            )
        })
        .collect();
    for pair in leg_means.windows(2) {
        assert!(
            pair[1].0 < pair[0].0,
            "queue leg did not shrink: {leg_means:?}"
        );
        assert!(
            pair[1].1 < pair[0].1,
            "e2e delay leg did not shrink: {leg_means:?}"
        );
    }

    // Batches actually formed, and group commit did real work: the mean
    // batch size grows with the worker count. (Total event counts are
    // *nearly* equal across arms — the closed-loop workload completes a
    // few more ops when applies speed up — so compare ratios, not counts.)
    let mean_batch: Vec<f64> = runs
        .iter()
        .map(|(r, _)| r.apply_events as f64 / r.apply_batches as f64)
        .collect();
    assert_eq!(mean_batch[0], 1.0, "serial apply never batches");
    assert!(
        mean_batch[1] > 1.05,
        "2 workers formed no batches: {mean_batch:?}"
    );
    assert!(
        mean_batch[2] > mean_batch[1],
        "batch size not monotone: {mean_batch:?}"
    );

    // The delay-surge alert: fires on the serial baseline; with 4 workers
    // the onset moves later, or the alert never fires at all.
    let onset = |t: &amdb_obs::telemetry::Telemetry| {
        t.slo
            .alerts()
            .iter()
            .find(|a| a.rule == "delay_surge" && a.kind == AlertKind::Fire)
            .map(|a| a.at)
    };
    let serial_onset = onset(&runs[0].1).expect("serial baseline must surge");
    match onset(&runs[2].1) {
        None => {} // surge eliminated entirely
        Some(batched_onset) => assert!(
            batched_onset > serial_onset,
            "surge onset did not recede: serial {serial_onset:?}, 4 workers {batched_onset:?}"
        ),
    }
}
