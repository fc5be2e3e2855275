//! Fleet observability report (`fleet_report` binary): sharded runs with
//! telemetry, the time-series plane, and parallel apply all on, rendered as
//! a per-shard "top"-style table.
//!
//! Each cell is one sharded run (default 4 trees behind the scatter-gather
//! front, 4 apply workers per slave, row-format binlog, 20% of reads
//! scattered). The table answers, per shard, the questions an operator's
//! `top` would: which tree is the slowest scatter leg, how busy are its
//! apply workers, how often did writeset conflicts close an apply batch,
//! which resource saturated, and what the SLO engine thinks — §IV-A's
//! bottleneck migration (slave CPU at 1 slave, master CPU at 3+) appears
//! per shard in the `bottleneck`/`slo` columns.
//!
//! Everything is derived from gathered per-cell results in grid order, so
//! the rendered tables, the CSV, and the OpenMetrics dump are byte-identical
//! for any `--jobs` count.

use crate::calib::paper_cost_model;
use crate::grid::{cross2, run_fleet, run_grid, SweepOptions};
use crate::Fidelity;
use amdb_cloudstone::{DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::sharded::FleetObsBundle;
use amdb_core::{BackendKind, ClusterConfig, ShardedConfig, ShardedReport};
use amdb_obs::metrics::{QuantileSketch, Table};
use amdb_obs::{openmetrics_text_multi, Component, ObsConfig, Tsdb};
use amdb_sim::Rng;

/// Grid specification for the fleet report.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub name: &'static str,
    /// Replication trees behind the front.
    pub shards: u32,
    /// Grid rows: slaves per tree (1 vs 3 reproduces §IV-A's migration).
    pub slave_counts: Vec<usize>,
    /// Grid columns: front user counts.
    pub user_counts: Vec<u32>,
    /// Apply workers per slave (row-format binlog, writeset scheduling).
    pub apply_workers: usize,
    /// Fraction of reads scatter-gathered across every tree.
    pub cross_fraction: f64,
    /// Observability sampling period (ms); also the tsdb slot width.
    pub sample_interval_ms: u64,
    pub phases: Phases,
    pub seed: u64,
}

impl FleetSpec {
    /// The report grids. Both fidelities run 4 shards × 4 apply workers
    /// (the acceptance shape); full widens the slave grid.
    pub fn paper_set(f: Fidelity) -> FleetSpec {
        match f {
            Fidelity::Full => FleetSpec {
                name: "fleet_report (4 shards, 4 apply workers, row binlog)",
                shards: 4,
                slave_counts: vec![1, 2, 3, 4],
                user_counts: vec![175],
                apply_workers: 4,
                cross_fraction: 0.20,
                sample_interval_ms: 250,
                phases: Phases::quick(),
                seed: 42,
            },
            Fidelity::Quick => FleetSpec {
                name: "fleet_report quick (4 shards, 4 apply workers, row binlog)",
                shards: 4,
                slave_counts: vec![1, 3],
                user_counts: vec![175],
                apply_workers: 4,
                cross_fraction: 0.20,
                sample_interval_ms: 250,
                phases: Phases::quick(),
                seed: 42,
            },
        }
    }

    /// Per-cell derived seed.
    pub fn cell_seed(&self, slaves: usize, users: u32) -> u64 {
        let label = format!("fleet/shards={}/slaves={slaves}/users={users}", self.shards);
        Rng::new(self.seed).derive(&label).next_u64()
    }

    /// The sharded config for one cell: fig2-style 50/50 trees with
    /// row-format binlog, parallel apply, and observability — telemetry and
    /// the time-series store included — enabled.
    pub fn cell_config(&self, slaves: usize, users: u32) -> ShardedConfig {
        let mut workload = WorkloadConfig::paper(users);
        workload.phases = self.phases;
        let base = ClusterConfig::builder()
            .slaves(slaves)
            .mix(MixConfig::RW_50_50)
            .data_size(DataSize::SMALL)
            .workload(workload)
            .cost(paper_cost_model())
            .backend(BackendKind::Row)
            .apply_workers(self.apply_workers)
            .observability(ObsConfig {
                enabled: true,
                sample_interval_ms: self.sample_interval_ms,
                tsdb: true,
            })
            .seed(self.cell_seed(slaves, users))
            .build();
        ShardedConfig::new(self.shards, base).cross_shard_read_fraction(self.cross_fraction)
    }
}

/// One cell's outcome: the sharded report plus the fleet obs bundle.
pub struct FleetCell {
    pub slaves: usize,
    pub users: u32,
    pub report: ShardedReport,
    pub bundle: FleetObsBundle,
}

/// Run the grid, fanning cells across `opts.jobs` workers. Cells gather in
/// (slaves, users) grid order.
pub fn run(spec: &FleetSpec, opts: &SweepOptions) -> Vec<FleetCell> {
    let keys = cross2(&spec.slave_counts, &spec.user_counts);
    run_grid(&keys, opts, |&(slaves, users)| {
        let (report, bundle) = run_fleet(&spec.cell_config(slaves, users), None);
        let line = format!(
            "shards={} slaves={slaves} users={users}: {:.1} ops/s, {} scatter reads, \
             {} fleet alert transition(s)",
            spec.shards,
            report.throughput_ops_s,
            report.scatter_reads,
            bundle.telemetry.alerts().len(),
        );
        let cell = FleetCell {
            slaves,
            users,
            report,
            bundle,
        };
        (cell, line)
    })
}

/// Sum of a sketch-cell track's observations (count × mean per slot).
fn track_total(db: &Tsdb, inst_matches: impl Fn(u32) -> bool, name: &str) -> f64 {
    let mut total = 0.0;
    for (key, track) in db.tracks() {
        if key.name != name || !inst_matches(key.inst) {
            continue;
        }
        for (_, cell) in track.samples() {
            total += cell.count() as f64 * cell.mean();
        }
    }
    total
}

/// Sum a set of per-slave registry counters across every instance.
fn counter_sum(obs: &amdb_obs::Obs, name: &str) -> u64 {
    obs.recorder().map_or(0, |rec| {
        rec.registry()
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                amdb_obs::Metric::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    })
}

/// One "top" row per shard for one cell (shared by [`top_table`] and the
/// combined CSV of [`combined_table`]).
fn top_rows(spec: &FleetSpec, cell: &FleetCell) -> Vec<Vec<String>> {
    let mut rows = Vec::with_capacity(spec.shards as usize);
    let front_reg = cell.bundle.front.recorder().map(|r| r.registry());
    let span_us = spec.phases.hard_end().as_micros().max(1) as f64;
    for k in 0..spec.shards {
        let slowest = front_reg
            .map(|r| r.counter_value(Component::Proxy, k, "scatter_slowest"))
            .unwrap_or(0);
        let tree_obs = &cell.bundle.trees[k as usize];
        // Apply-worker occupancy: total worker-busy µs over the run span ×
        // worker slots. Worker instances are slave*100 + w.
        let occ = cell.bundle.shard_tsdb(k).map_or(0.0, |db| {
            let busy = track_total(db, |_| true, "apply_worker_busy_us");
            let slots = (cell.slaves * spec.apply_workers) as f64;
            100.0 * busy / (span_us * slots)
        });
        // What closed apply batches on this shard's slaves.
        let conflict = counter_sum(tree_obs, "apply_conflict_bounded");
        let closed = conflict
            + counter_sum(tree_obs, "apply_capacity_bounded")
            + counter_sum(tree_obs, "apply_barrier")
            + counter_sum(tree_obs, "apply_batch_drained");
        let conflict_rate = if closed > 0 {
            100.0 * conflict as f64 / closed as f64
        } else {
            0.0
        };
        let e2e = cell
            .bundle
            .telemetry
            .shards()
            .find(|(s, _)| *s == k)
            .map(|(_, tel)| QuantileSketch::merged(tel.waterfall.legs().iter().map(|l| &l.e2e_ms)));
        let e2e_p95 = e2e
            .as_ref()
            .and_then(|s| s.quantile(0.95))
            .map_or("-".to_string(), |v| format!("{v:.1}"));
        let slo: Vec<String> = cell
            .bundle
            .telemetry
            .firing()
            .into_iter()
            .filter(|(s, _, _)| *s == k)
            .map(|(_, rule, inst)| format!("{rule}@{inst}"))
            .collect();
        rows.push(vec![
            k.to_string(),
            slowest.to_string(),
            format!("{occ:.1}"),
            format!("{conflict_rate:.1}"),
            e2e_p95,
            cell.report.per_shard_bottleneck[k as usize].clone(),
            if slo.is_empty() {
                "ok".into()
            } else {
                slo.join("+")
            },
        ]);
    }
    rows
}

const TOP_COLUMNS: [&str; 7] = [
    "shard",
    "slowest_legs",
    "apply_occ (%)",
    "conflict_rate (%)",
    "e2e_p95 (ms)",
    "bottleneck",
    "slo",
];

/// The per-shard "top" table for one cell: one row per shard naming the
/// slowest-leg count, apply-worker occupancy, batch-close attribution,
/// staleness, the saturated resource, and the SLO state.
pub fn top_table(spec: &FleetSpec, cell: &FleetCell) -> Table {
    let mut t = Table::new(
        format!(
            "{} — per-shard top: slaves={} users={}",
            spec.name, cell.slaves, cell.users
        ),
        TOP_COLUMNS.iter().map(|c| c.to_string()).collect(),
    );
    for row in top_rows(spec, cell) {
        t.push_row(row);
    }
    t
}

/// Every cell's top rows in one table (leading `slaves`/`users` columns) —
/// the `results/fleet_report.csv` artifact.
pub fn combined_table(spec: &FleetSpec, cells: &[FleetCell]) -> Table {
    let mut header = vec!["slaves".to_string(), "users".to_string()];
    header.extend(TOP_COLUMNS.iter().map(|c| c.to_string()));
    let mut t = Table::new(format!("{} — per-shard top, all cells", spec.name), header);
    for cell in cells {
        for row in top_rows(spec, cell) {
            let mut full = vec![cell.slaves.to_string(), cell.users.to_string()];
            full.extend(row);
            t.push_row(full);
        }
    }
    t
}

/// The OpenMetrics exposition for one cell: the front's recorder plus every
/// tree's, each part labeled with its shard tag.
pub fn openmetrics_dump(cell: &FleetCell) -> String {
    let mut parts: Vec<(String, &amdb_obs::TraceRecorder)> = Vec::new();
    if let Some(rec) = cell.bundle.front.recorder() {
        parts.push(("front".to_string(), rec));
    }
    for (k, o) in cell.bundle.trees.iter().enumerate() {
        if let Some(rec) = o.recorder() {
            parts.push((k.to_string(), rec));
        }
    }
    let borrowed: Vec<(&str, &amdb_obs::TraceRecorder)> =
        parts.iter().map(|(s, r)| (s.as_str(), *r)).collect();
    openmetrics_text_multi(&borrowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Progress;

    fn tiny_spec() -> FleetSpec {
        let mut s = FleetSpec::paper_set(Fidelity::Quick);
        s.slave_counts = vec![1];
        s.user_counts = vec![40];
        s
    }

    #[test]
    fn fleet_cell_collects_per_shard_observability() {
        let spec = tiny_spec();
        let cells = run(&spec, &SweepOptions::serial());
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.bundle.trees.len(), 4);
        assert_eq!(cell.bundle.telemetry.len(), 4, "telemetry per shard");
        assert_eq!(cell.bundle.tsdbs.len(), 4, "a tsdb per shard");
        assert!(cell.report.scatter_reads > 0, "20% of reads scatter");
        let top = top_table(&spec, cell);
        assert_eq!(top.rows().len(), 4);
        let dump = openmetrics_dump(cell);
        assert!(dump.ends_with("# EOF\n"));
        assert!(dump.contains("shard=\"front\""));
        assert!(dump.contains("shard=\"3\""));
        // The fleet rollup store folds every shard's series.
        let fleet = cell.bundle.fleet_tsdb().expect("stores attached");
        assert!(!fleet.is_empty());
    }

    #[test]
    fn fleet_report_is_byte_identical_across_jobs() {
        let spec = tiny_spec();
        let serial = run(&spec, &SweepOptions::serial());
        let parallel = run(
            &spec,
            &SweepOptions {
                jobs: 2,
                progress: Progress::Silent,
            },
        );
        let render = |cells: &[FleetCell]| {
            cells
                .iter()
                .map(|c| format!("{}\n{}", top_table(&spec, c).render(), openmetrics_dump(c)))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&serial), render(&parallel));
    }
}
