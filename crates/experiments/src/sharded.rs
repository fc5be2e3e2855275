//! The sharded scale-out sweep (fig2_sharded): throughput vs users at
//! shard counts {1, 2, 4, 8}, plus the cross-shard read ablation.
//!
//! Every grid cell is one complete sharded benchmark run (N independent
//! replication trees behind one scatter-gather front, see
//! `amdb-core::sharded`). Cells are independent deterministic simulations
//! and fan out through [`crate::grid`] exactly like the
//! fig2/fig3 sweeps: one shared template database, per-cell derived seeds,
//! results gathered in grid order — byte-identical for every `--jobs`
//! count.
//!
//! The `shards = 1` column is *byte-identical to the unsharded sweep
//! machinery* on the same (placement, slaves, users) cell: the cell seed
//! uses the same derivation label as [`crate::sweep::SweepSpec::cell_seed`], and a
//! one-shard world replays the standalone cluster's event sequence
//! bit-for-bit (pinned by tests here and in `amdb-core`).

use crate::calib::paper_cost_model;
use crate::grid::{counted, cross2, pivot_table, run_fleet, run_grid, SweepOptions};
use crate::Fidelity;
use amdb_cloudstone::{DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::{load_template, ClusterConfig, Placement, ShardedConfig, ShardedReport, Template};
use amdb_obs::metrics::Table;
use amdb_sim::Rng;

/// Grid specification for one sharded sweep.
#[derive(Debug, Clone)]
pub struct ShardedSweepSpec {
    pub name: &'static str,
    pub mix: MixConfig,
    pub data_size: DataSize,
    pub users: Vec<u32>,
    pub shards: Vec<u32>,
    pub slaves_per_shard: usize,
    /// Fraction of reads scatter-gathered across every shard.
    pub cross_fraction: f64,
    pub placement: Placement,
    pub phases: Phases,
    pub seed: u64,
}

impl ShardedSweepSpec {
    /// The scale-out grid: 50/50 mix, fig2's data size, shard counts
    /// {1, 2, 4, 8} over a user grid reaching well past the single-master
    /// ceiling (10⁵ users). No cross-shard reads: this measures the pure
    /// scale-out envelope.
    pub fn scaleout(f: Fidelity) -> ShardedSweepSpec {
        match f {
            Fidelity::Full => ShardedSweepSpec {
                name: "fig2_sharded (50/50, size 300, cross 0%)",
                mix: MixConfig::RW_50_50,
                data_size: DataSize::SMALL,
                users: vec![200, 1_000, 5_000, 25_000, 100_000],
                shards: vec![1, 2, 4, 8],
                slaves_per_shard: 2,
                cross_fraction: 0.0,
                placement: Placement::SameZone,
                phases: Phases::paper(),
                seed: 42,
            },
            Fidelity::Quick => ShardedSweepSpec {
                name: "fig2_sharded quick (50/50, size 300, cross 0%)",
                mix: MixConfig::RW_50_50,
                data_size: DataSize::SMALL,
                users: vec![50, 200, 800],
                shards: vec![1, 2, 4],
                slaves_per_shard: 1,
                cross_fraction: 0.0,
                placement: Placement::SameZone,
                phases: Phases::quick(),
                seed: 42,
            },
        }
    }

    /// One arm of the cross-shard ablation: the scale-out config pinned at
    /// 4 shards with `cross` of the reads scatter-gathered. Cell seeds do
    /// not include the fraction, so every arm runs the identical trees and
    /// user streams — the measured delta is the scatter-gather tax alone.
    pub fn cross_ablation(f: Fidelity, cross: f64) -> ShardedSweepSpec {
        match f {
            Fidelity::Full => ShardedSweepSpec {
                name: "fig2_sharded cross-shard ablation (4 shards)",
                mix: MixConfig::RW_50_50,
                data_size: DataSize::SMALL,
                users: vec![1_000, 5_000, 25_000],
                shards: vec![4],
                slaves_per_shard: 2,
                cross_fraction: cross,
                placement: Placement::SameZone,
                phases: Phases::paper(),
                seed: 42,
            },
            Fidelity::Quick => ShardedSweepSpec {
                name: "fig2_sharded cross-shard ablation quick (2 shards)",
                mix: MixConfig::RW_50_50,
                data_size: DataSize::SMALL,
                users: vec![100, 400],
                shards: vec![2],
                slaves_per_shard: 1,
                cross_fraction: cross,
                placement: Placement::SameZone,
                phases: Phases::quick(),
                seed: 42,
            },
        }
    }

    /// The ablation's cross-fraction arms.
    pub fn ablation_fractions() -> [f64; 3] {
        [0.0, 0.05, 0.20]
    }

    /// Per-cell base seed. Deliberately the same derivation label as
    /// [`crate::sweep::SweepSpec::cell_seed`] — with the same sweep seed,
    /// a `shards = 1` cell reproduces the unsharded sweep cell exactly.
    /// (The fraction is excluded: ablation arms share trees and users.)
    pub fn cell_seed(&self, users: u32) -> u64 {
        let label = format!(
            "cell/{:?}/slaves={}/users={}",
            self.placement, self.slaves_per_shard, users
        );
        Rng::new(self.seed).derive(&label).next_u64()
    }

    /// The per-tree base config for one grid cell.
    pub fn cell_base_config(&self, users: u32) -> ClusterConfig {
        let mut workload = WorkloadConfig::paper(users);
        workload.phases = self.phases;
        ClusterConfig::builder()
            .slaves(self.slaves_per_shard)
            .placement(self.placement)
            .mix(self.mix)
            .data_size(self.data_size)
            .workload(workload)
            .cost(paper_cost_model())
            .seed(self.cell_seed(users))
            .build()
    }

    /// The full sharded config for one grid cell.
    pub fn cell_config(&self, shards: u32, users: u32) -> ShardedConfig {
        ShardedConfig::new(shards, self.cell_base_config(users))
            .cross_shard_read_fraction(self.cross_fraction)
    }

    /// The shared template database (same derivation as the unsharded
    /// sweeps: sweep seed → `"load"` stream).
    pub fn template(&self) -> Template {
        load_template(self.seed, self.data_size)
    }
}

/// Results of one sharded sweep.
pub struct ShardedSweepResult {
    pub label: String,
    /// rows = users, cols = shard counts; cells = ops/s.
    pub throughput: Table,
    /// rows = users, cols = shard counts; cells = p95 latency, ms.
    pub latency_p95: Table,
    /// `reports[shard_idx][user_idx]`.
    pub reports: Vec<Vec<ShardedReport>>,
}

/// Run the full sharded grid, fanning cells across `opts.jobs` workers.
/// Results are gathered in grid order: byte-identical for any jobs count.
pub fn run_sharded_sweep(spec: &ShardedSweepSpec, opts: &SweepOptions) -> ShardedSweepResult {
    let template = spec.template();
    let keys = cross2(&spec.shards, &spec.users);
    let mut flat = run_grid(&keys, opts, |&(shards, users)| {
        let (report, _) = run_fleet(&spec.cell_config(shards, users), Some(&template));
        let line = format!(
            "shards={shards} users={users}: {:.1} ops/s, p95 {:?} ms, \
             scatter {} reads / {} legs ({} filtered), bottleneck {}",
            report.throughput_ops_s,
            report.latency_ms.as_ref().map(|s| s.p95.round()),
            report.scatter_reads,
            report.scatter_legs,
            report.scatter_filtered_legs,
            report.busiest_shard_label(),
        );
        (report, line)
    })
    .into_iter();

    // Reassemble `reports[shard_idx][user_idx]` and pivot it into the tables.
    let reports: Vec<Vec<ShardedReport>> = spec
        .shards
        .iter()
        .map(|_| flat.by_ref().take(spec.users.len()).collect())
        .collect();
    let columns = || spec.shards.iter().map(|&k| counted(k as usize, "shard"));
    ShardedSweepResult {
        label: format!("cross{}pct", (spec.cross_fraction * 100.0).round() as u32),
        throughput: pivot_table(
            format!("{} — end-to-end throughput (ops/s)", spec.name),
            columns(),
            &spec.users,
            |si, ui| Some(reports[si][ui].throughput_ops_s),
        ),
        latency_p95: pivot_table(
            format!("{} — p95 latency (ms)", spec.name),
            columns(),
            &spec.users,
            |si, ui| reports[si][ui].latency_ms.as_ref().map(|s| s.p95),
        ),
        reports,
    }
}

/// The cross-shard read ablation: one sweep per fraction in
/// [`ShardedSweepSpec::ablation_fractions`] over the same trees and user
/// streams (cell seeds exclude the fraction), so only the scattered share
/// moves. Returns the arms in fraction order.
pub fn run_cross_ablation(
    fidelity: Fidelity,
    opts: &SweepOptions,
) -> Vec<(f64, ShardedSweepResult)> {
    ShardedSweepSpec::ablation_fractions()
        .into_iter()
        .map(|cross| {
            let spec = ShardedSweepSpec::cross_ablation(fidelity, cross);
            (cross, run_sharded_sweep(&spec, opts))
        })
        .collect()
}

/// The ablation as one table pair: rows = users, columns = cross fractions;
/// `(throughput ops/s, p95 latency ms)`.
pub fn cross_ablation_tables(
    fidelity: Fidelity,
    arms: &[(f64, ShardedSweepResult)],
) -> (Table, Table) {
    let spec = ShardedSweepSpec::cross_ablation(fidelity, 0.0);
    let shards = spec.shards[0];
    let columns = || {
        arms.iter()
            .map(|(cross, _)| format!("cross {}%", (cross * 100.0).round() as u32))
    };
    let throughput = pivot_table(
        format!("fig2_sharded — throughput vs cross-shard read fraction ({shards} shards, ops/s)"),
        columns(),
        &spec.users,
        |arm, ui| Some(arms[arm].1.reports[0][ui].throughput_ops_s),
    );
    let p95 = pivot_table(
        format!("fig2_sharded — p95 latency vs cross-shard read fraction ({shards} shards, ms)"),
        columns(),
        &spec.users,
        |arm, ui| {
            arms[arm].1.reports[0][ui]
                .latency_ms
                .as_ref()
                .map(|s| s.p95)
        },
    );
    (throughput, p95)
}

/// Run one grid cell exactly as the sweep would (shared-template fork +
/// per-cell seed).
pub fn run_sharded_cell(spec: &ShardedSweepSpec, shards: u32, users: u32) -> ShardedReport {
    run_fleet(&spec.cell_config(shards, users), Some(&spec.template())).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;

    /// The acceptance identity: a `shards = 1` cell of this sweep is
    /// byte-identical to the unsharded fig2 sweep machinery on the same
    /// (placement, slaves, users) cell and sweep seed.
    #[test]
    fn one_shard_cell_matches_the_unsharded_sweep_cell() {
        let sharded_spec = ShardedSweepSpec::scaleout(Fidelity::Quick);
        let mut flat_spec = SweepSpec::fig2_fig5(Fidelity::Quick);
        flat_spec.users = vec![50];
        flat_spec.slaves = vec![sharded_spec.slaves_per_shard];
        assert_eq!(flat_spec.seed, sharded_spec.seed, "specs must share a seed");

        let flat = crate::sweep::run_cell(
            &flat_spec,
            sharded_spec.placement,
            sharded_spec.slaves_per_shard,
            50,
        );
        let sharded = run_sharded_cell(&sharded_spec, 1, 50);
        assert_eq!(sharded.steady_ops, flat.steady_ops);
        assert_eq!(sharded.steady_slave_reads, flat.steady_slave_reads);
        assert_eq!(
            sharded.throughput_ops_s.to_bits(),
            flat.throughput_ops_s.to_bits()
        );
        assert_eq!(
            format!("{:?}", sharded.latency_ms),
            format!("{:?}", flat.latency_ms)
        );
        assert_eq!(
            format!("{:?}", sharded.per_shard[0].delays),
            format!("{:?}", flat.delays)
        );
    }

    /// Cross-jobs determinism: the whole sharded grid renders identically
    /// serial and parallel.
    #[test]
    fn parallel_sharded_sweep_matches_serial() {
        let mut spec = ShardedSweepSpec::scaleout(Fidelity::Quick);
        spec.users = vec![50, 100];
        spec.shards = vec![1, 2];
        let serial = run_sharded_sweep(&spec, &SweepOptions::serial());
        let parallel = run_sharded_sweep(&spec, &SweepOptions::silent(4));
        assert_eq!(serial.throughput.render(), parallel.throughput.render());
        assert_eq!(serial.latency_p95.render(), parallel.latency_p95.render());
        for (srow, prow) in serial.reports.iter().zip(&parallel.reports) {
            for (s, p) in srow.iter().zip(prow) {
                assert_eq!(s.throughput_ops_s.to_bits(), p.throughput_ops_s.to_bits());
                assert_eq!(s.scatter_reads, p.scatter_reads);
            }
        }
    }

    /// The ablation arms share cell seeds (the fraction is excluded from
    /// the derivation), so the tax is measured against identical trees.
    #[test]
    fn ablation_arms_share_cell_seeds() {
        let a = ShardedSweepSpec::cross_ablation(Fidelity::Quick, 0.0);
        let b = ShardedSweepSpec::cross_ablation(Fidelity::Quick, 0.20);
        for &u in &a.users {
            assert_eq!(a.cell_seed(u), b.cell_seed(u));
        }
        assert_eq!(ShardedSweepSpec::ablation_fractions(), [0.0, 0.05, 0.20]);
    }
}
