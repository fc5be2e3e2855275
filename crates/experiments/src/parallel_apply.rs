//! E-PA: the parallel-apply extension sweep (`extensions_parallel_apply`
//! binary).
//!
//! The paper's replication-delay surge (Figs 5/6) is an apply-path capacity
//! problem: the slave's serial SQL thread pays full per-transaction commit
//! overhead for every binlog event while the master batches concurrent
//! clients. The amdb-apply scheduler attacks exactly that term — row-format
//! events with disjoint writesets group-commit as one batch, paying the
//! apply overhead and commit fsync once per *batch* instead of once per
//! event, while LSN commit order is preserved.
//!
//! This sweep walks `apply_workers ∈ {1, 2, 4, 8}` over two grids: a
//! fig5-style 50/50 grid and a write-heavy surge grid (the A3 stress mix,
//! where the apply path dominates the slave). Every cell runs the
//! **row-format** binlog, because statement events are scheduling barriers
//! and parallelism cannot help them.
//!
//! Row-format heartbeats ship the master's `NOW_MICROS()` value verbatim,
//! so the paper's heartbeat-differencing delay probe reads 0 by
//! construction (see the A3 ablation). Staleness is therefore measured by
//! the consistency layer's true-staleness probe — every slave-served read
//! records how far the serving slave trailed the master binlog at service
//! start. `ConsistencyPolicy::Eventual` keeps routing oblivious (pure
//! bookkeeping), so the arms differ only by worker count.
//!
//! Each cell seeds identically **per (grid, users)** — the worker count is
//! not part of the cell key — so within a column the arms replay the same
//! workload and the staleness deltas are the scheduler's doing alone.

use crate::calib::paper_cost_model;
use crate::grid::{run_grid, run_tree, SweepOptions};
use crate::Fidelity;
use amdb_cloudstone::{DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::{
    load_template, BackendKind, ClusterConfig, ConsistencyConfig, ConsistencyPolicy, Placement,
    RunReport, Template,
};
use amdb_obs::metrics::Table;
use amdb_sim::Rng;

/// One user-load column family: a mix, a data size and the user counts to
/// sweep at that mix.
#[derive(Debug, Clone)]
pub struct ApplyGrid {
    pub label: &'static str,
    pub mix: MixConfig,
    pub data_size: DataSize,
    pub users: Vec<u32>,
}

/// Grid specification for the parallel-apply sweep.
#[derive(Debug, Clone)]
pub struct ParallelApplySpec {
    pub name: &'static str,
    pub grids: Vec<ApplyGrid>,
    /// Swept worker counts, rendered in the order given.
    pub workers: Vec<usize>,
    pub slaves: usize,
    pub phases: Phases,
    pub seed: u64,
}

/// The A3 stress mix: 20/80 write-heavy, where the slave apply thread is
/// the bottleneck and the delay surge is steepest.
pub const WRITE_HEAVY: MixConfig = MixConfig { read_fraction: 0.2 };

impl ParallelApplySpec {
    /// The full sweep: two grids × three user counts × {1, 2, 4, 8}
    /// workers. 24 cells.
    pub fn paper_set(f: Fidelity) -> ParallelApplySpec {
        match f {
            Fidelity::Full => ParallelApplySpec {
                name: "E-PA (row binlog, 2 slaves)",
                grids: vec![
                    ApplyGrid {
                        label: "fig5-style (50/50, size 300)",
                        mix: MixConfig::RW_50_50,
                        data_size: DataSize::SMALL,
                        users: vec![100, 150, 200],
                    },
                    ApplyGrid {
                        label: "surge (20/80, size 600)",
                        mix: WRITE_HEAVY,
                        data_size: DataSize::LARGE,
                        users: vec![75, 125, 175],
                    },
                ],
                workers: vec![1, 2, 4, 8],
                slaves: 2,
                phases: Phases::paper(),
                seed: 97,
            },
            Fidelity::Quick => ParallelApplySpec {
                name: "E-PA quick (row binlog, 2 slaves)",
                grids: vec![
                    ApplyGrid {
                        label: "fig5-style (50/50, size 300)",
                        mix: MixConfig::RW_50_50,
                        data_size: DataSize::SMALL,
                        users: vec![60],
                    },
                    ApplyGrid {
                        label: "surge (20/80, size 300)",
                        mix: WRITE_HEAVY,
                        data_size: DataSize::SMALL,
                        users: vec![200],
                    },
                ],
                workers: vec![1, 4],
                slaves: 2,
                phases: Phases::quick(),
                seed: 97,
            },
        }
    }

    /// Per-(grid, users) seed. Deliberately *not* keyed on the worker
    /// count: every worker arm of one column replays the same workload, so
    /// the measured deltas are the scheduler's doing, not sampling noise.
    pub fn column_seed(&self, grid: &ApplyGrid, users: u32) -> u64 {
        let label = format!("parallel-apply/{}/users={users}", grid.label);
        Rng::new(self.seed).derive(&label).next_u64()
    }

    /// The cluster config for one cell.
    pub fn cell_config(&self, grid: &ApplyGrid, users: u32, workers: usize) -> ClusterConfig {
        let mut workload = WorkloadConfig::paper(users);
        workload.phases = self.phases;
        ClusterConfig::builder()
            .slaves(self.slaves)
            .placement(Placement::SameZone)
            .mix(grid.mix)
            .data_size(grid.data_size)
            .workload(workload)
            .cost(paper_cost_model())
            .backend(BackendKind::Row)
            .apply_workers(workers)
            // Eventual = oblivious routing, bookkeeping only — opted in
            // purely for the true-staleness probe.
            .consistency(ConsistencyConfig::new(ConsistencyPolicy::Eventual))
            .seed(self.column_seed(grid, users))
            .build()
    }
}

/// One cell's outcome.
pub struct ApplyCell {
    pub grid: &'static str,
    pub users: u32,
    pub workers: usize,
    pub report: RunReport,
}

/// Mean events per apply batch — 1.0 exactly under the serial thread.
pub fn mean_batch(r: &RunReport) -> f64 {
    if r.apply_batches == 0 {
        0.0
    } else {
        r.apply_events as f64 / r.apply_batches as f64
    }
}

/// Worst true staleness any slave-served read observed (ms); 0 when no
/// slave read was measured.
pub fn staleness_max_ms(r: &RunReport) -> f64 {
    r.consistency
        .as_ref()
        .and_then(|c| c.served_staleness_max_ms)
        .unwrap_or(0.0)
}

/// Mean true staleness across slave-served reads (ms).
pub fn staleness_mean_ms(r: &RunReport) -> f64 {
    r.consistency
        .as_ref()
        .and_then(|c| c.served_staleness_mean_ms)
        .unwrap_or(0.0)
}

/// Run the sweep, fanning cells across `opts.jobs` workers. Cells gather
/// in (grid, users, workers) order — output is byte-identical for any jobs
/// count.
pub fn run(spec: &ParallelApplySpec, opts: &SweepOptions) -> Vec<ApplyCell> {
    // One template per grid (grids may differ in data size), borrowed by
    // that grid's cells.
    let templates: Vec<Template> = spec
        .grids
        .iter()
        .map(|g| load_template(spec.seed, g.data_size))
        .collect();
    let mut keys: Vec<(usize, u32, usize)> = Vec::new();
    for (gi, grid) in spec.grids.iter().enumerate() {
        for &users in &grid.users {
            for &workers in &spec.workers {
                keys.push((gi, users, workers));
            }
        }
    }
    run_grid(&keys, opts, |&(gi, users, workers)| {
        let grid = &spec.grids[gi];
        let cfg = spec.cell_config(grid, users, workers);
        let report = run_tree(cfg, Some(&templates[gi])).report;
        let line = format!(
            "{} users={users} workers={workers}: {:.1} ops/s, stale max {:.1} ms, batch {:.2}",
            grid.label,
            report.throughput_ops_s,
            staleness_max_ms(&report),
            mean_batch(&report)
        );
        let cell = ApplyCell {
            grid: grid.label,
            users,
            workers,
            report,
        };
        (cell, line)
    })
}

/// Render the sweep: one row per (grid, users, workers).
pub fn table(spec: &ParallelApplySpec, cells: &[ApplyCell]) -> Table {
    let mut t = Table::new(
        format!("{} — true read staleness vs apply workers", spec.name),
        vec![
            "grid".into(),
            "users".into(),
            "workers".into(),
            "throughput (ops/s)".into(),
            "staleness mean (ms)".into(),
            "staleness max (ms)".into(),
            "peak relay backlog".into(),
            "apply batches".into(),
            "mean batch".into(),
            "max slave util".into(),
        ],
    );
    for c in cells {
        let r = &c.report;
        t.push_row(vec![
            c.grid.to_string(),
            c.users.to_string(),
            c.workers.to_string(),
            format!("{:.1}", r.throughput_ops_s),
            format!("{:.1}", staleness_mean_ms(r)),
            format!("{:.1}", staleness_max_ms(r)),
            r.peak_relay_backlog.to_string(),
            r.apply_batches.to_string(),
            format!("{:.2}", mean_batch(r)),
            format!("{:.2}", r.max_slave_utilization()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thin_spec() -> ParallelApplySpec {
        let mut spec = ParallelApplySpec::paper_set(Fidelity::Quick);
        // Surge grid only: the apply path must be the bottleneck for the
        // worker count to matter.
        spec.grids.remove(0);
        spec
    }

    #[test]
    fn workers_flatten_staleness_on_surge_cell() {
        // The acceptance property: on a saturated write-heavy cell the
        // 4-worker arm group-commits real batches and the worst-case read
        // staleness drops measurably below the serial-apply baseline.
        let spec = thin_spec();
        let cells = run(&spec, &SweepOptions::serial());
        assert_eq!(cells.len(), 2);
        let serial = &cells[0];
        let batched = &cells[1];
        assert_eq!((serial.workers, batched.workers), (1, 4));
        // Serial apply never batches; the parallel arm must actually have.
        assert_eq!(serial.report.apply_batches, serial.report.apply_events);
        assert!(
            mean_batch(&batched.report) > 1.05,
            "4-worker arm formed no real batches: mean {}",
            mean_batch(&batched.report)
        );
        // Same workload replayed: identical steady op counts per column.
        assert_eq!(serial.report.steady_writes, batched.report.steady_writes);
        let (s1, s4) = (
            staleness_max_ms(&serial.report),
            staleness_max_ms(&batched.report),
        );
        assert!(
            s4 < s1 * 0.95,
            "max staleness did not flatten: serial {s1:.2} ms vs 4 workers {s4:.2} ms"
        );
    }

    #[test]
    fn output_is_byte_identical_across_jobs() {
        let spec = thin_spec();
        let serial = table(&spec, &run(&spec, &SweepOptions::serial())).render();
        let fanned = table(&spec, &run(&spec, &SweepOptions::silent(3))).render();
        assert_eq!(serial, fanned);
    }
}
