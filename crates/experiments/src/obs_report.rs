//! Observability demo: run one fig2-style cell with tracing enabled and
//! report where the steady-window bottleneck sits.
//!
//! The paper's §IV-A narrative — saturation starts on the slaves and
//! migrates to the master as slaves are added — becomes directly visible
//! here: at one slave the slave CPU saturates first (it serves every read),
//! while at three or more slaves the reads spread out and the master
//! (serving every write plus one binlog dump thread per slave) becomes the
//! hot spot.

use crate::calib::paper_cost_model;
use crate::grid::{run_fleet, run_tree};
use amdb_cloudstone::{DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::{CellRun, ClusterConfig, FleetObsBundle, ShardedConfig, ShardedReport};
use amdb_obs::ObsConfig;

/// Fig2-style cell (50/50 mix, data size 300, quick phases) with
/// observability enabled.
pub fn observed_cell_config(slaves: usize, users: u32, seed: u64) -> ClusterConfig {
    let mut workload = WorkloadConfig::paper(users);
    workload.phases = Phases::quick();
    ClusterConfig::builder()
        .slaves(slaves)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize::SMALL)
        .workload(workload)
        .cost(paper_cost_model())
        .observability(ObsConfig {
            enabled: true,
            sample_interval_ms: 500,
            tsdb: true,
        })
        .seed(seed)
        .build()
}

/// Run one observed fig2-style cell: report, bottleneck attribution and the
/// detached recorder.
pub fn run_observed_cell(slaves: usize, users: u32, seed: u64) -> CellRun {
    run_tree(observed_cell_config(slaves, users, seed), None)
}

/// Run the same observed cell behind a `shards`-tree sharded front:
/// returns the sharded report plus the fleet bundle (per-tree recorders,
/// per-shard time-series stores, scatter-gather front trace). A fifth of
/// the reads scatter so the front's leg waterfalls have mass.
pub fn run_observed_sharded_cell(
    shards: u32,
    slaves: usize,
    users: u32,
    seed: u64,
) -> (ShardedReport, FleetObsBundle) {
    let cfg = ShardedConfig::new(shards, observed_cell_config(slaves, users, seed))
        .cross_shard_read_fraction(0.20);
    run_fleet(&cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_cell_collects_everything() {
        let cell = run_observed_cell(1, 20, 42);
        assert!(cell.report.steady_ops > 0);
        assert!(cell.obs.is_enabled());
        assert_eq!(cell.bottleneck.rows().len(), 2, "master + slave");
        let json = cell.obs.chrome_trace().expect("trace present");
        assert!(json.contains("\"traceEvents\""));
    }
}
