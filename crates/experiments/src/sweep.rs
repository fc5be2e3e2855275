//! The main sweep: Figs 2/3 (end-to-end throughput) and 5/6 (average
//! relative replication delay).
//!
//! One sweep runs the full grid of {placement × slave count × concurrent
//! users} for a given read/write mix and data size. Every grid cell is one
//! complete benchmark run (idle → ramp-up → steady → ramp-down → drain);
//! throughput and replication delay come from the *same* run, as in the
//! paper, so Fig 2 pairs with Fig 5 and Fig 3 with Fig 6.
//!
//! Grid cells are independent deterministic simulations, so the sweep fans
//! them out through [`crate::grid`]: the template database is loaded once
//! and borrowed by every worker, each cell's RNG streams derive from the
//! cell's own (seed, placement, slaves, users) key, and results are gathered
//! back in grid order — tables and CSVs are byte-identical for every
//! `--jobs` count.

use crate::calib::paper_cost_model;
use crate::grid::{counted, cross3, pivot_table, run_grid, run_tree, SweepOptions};
use crate::Fidelity;
use amdb_cloudstone::{DataCounters, DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::{load_template, BackendKind, ClusterConfig, Placement, RunReport};
use amdb_metrics::Table;
use amdb_sim::Rng;
use amdb_sql::Engine;

/// Grid specification for one figure pair.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub name: &'static str,
    pub mix: MixConfig,
    pub data_size: DataSize,
    pub users: Vec<u32>,
    pub slaves: Vec<usize>,
    pub placements: Vec<Placement>,
    pub phases: Phases,
    pub seed: u64,
    /// Replication backend for every cell. `Statement` replays the exact
    /// default pipeline, so `--backend statement` output is byte-identical
    /// to a flag-less run (cross-diffed by ci.sh).
    pub backend: BackendKind,
}

impl SweepSpec {
    /// Figs 2 & 5: 50/50 mix, data size 300, 50–200 users, 1–4 slaves,
    /// three placements.
    pub fn fig2_fig5(f: Fidelity) -> SweepSpec {
        match f {
            Fidelity::Full => SweepSpec {
                name: "fig2/fig5 (50/50, size 300)",
                mix: MixConfig::RW_50_50,
                data_size: DataSize::SMALL,
                users: (50..=200).step_by(25).collect(),
                slaves: (1..=4).collect(),
                placements: Placement::PAPER_SET.to_vec(),
                phases: Phases::paper(),
                seed: 42,
                backend: BackendKind::Statement,
            },
            Fidelity::Quick => SweepSpec {
                name: "fig2/fig5 quick (50/50, size 300)",
                mix: MixConfig::RW_50_50,
                data_size: DataSize::SMALL,
                users: vec![50, 100, 175],
                slaves: vec![1, 2, 4],
                placements: vec![Placement::SameZone],
                phases: Phases::quick(),
                seed: 42,
                backend: BackendKind::Statement,
            },
        }
    }

    /// Figs 3 & 6: 80/20 mix, data size 600, 50–450 users, 1–11 slaves.
    pub fn fig3_fig6(f: Fidelity) -> SweepSpec {
        match f {
            Fidelity::Full => SweepSpec {
                name: "fig3/fig6 (80/20, size 600)",
                mix: MixConfig::RW_80_20,
                data_size: DataSize::LARGE,
                users: (50..=450).step_by(50).collect(),
                slaves: (1..=11).collect(),
                placements: Placement::PAPER_SET.to_vec(),
                phases: Phases::paper(),
                seed: 43,
                backend: BackendKind::Statement,
            },
            Fidelity::Quick => SweepSpec {
                name: "fig3/fig6 quick (80/20, size 600)",
                mix: MixConfig::RW_80_20,
                data_size: DataSize::LARGE,
                users: vec![50, 250, 450],
                slaves: vec![1, 5, 11],
                placements: vec![Placement::SameZone],
                phases: Phases::quick(),
                seed: 43,
                backend: BackendKind::Statement,
            },
        }
    }

    /// Per-cell seed, derived from the sweep seed and the cell's own
    /// (placement, slaves, users) key. Every cell therefore owns its RNG
    /// streams outright: no cell's randomness depends on how many cells ran
    /// before it (or on which worker thread it lands on), which is what
    /// makes the parallel executor bit-compatible with the serial loop.
    pub fn cell_seed(&self, placement: Placement, slaves: usize, users: u32) -> u64 {
        let label = format!("cell/{placement:?}/slaves={slaves}/users={users}");
        Rng::new(self.seed).derive(&label).next_u64()
    }

    /// The cluster config for one grid cell.
    pub fn cell_config(&self, placement: Placement, slaves: usize, users: u32) -> ClusterConfig {
        let mut workload = WorkloadConfig::paper(users);
        workload.phases = self.phases;
        ClusterConfig::builder()
            .slaves(slaves)
            .placement(placement)
            .mix(self.mix)
            .data_size(self.data_size)
            .workload(workload)
            .cost(paper_cost_model())
            .backend(self.backend)
            .seed(self.cell_seed(placement, slaves, users))
            .build()
    }

    /// The shared template database for this sweep: loaded once from the
    /// sweep seed, then forked (copy-on-run) by every cell.
    pub fn template(&self) -> (Engine, DataCounters) {
        load_template(self.seed, self.data_size)
    }
}

/// Results for one placement: the two tables plus every raw report.
pub struct PlacementResult {
    pub placement: Placement,
    pub label: String,
    /// rows = users, cols = slave counts; cells = ops/s (Fig 2/3).
    pub throughput: Table,
    /// rows = users, cols = slave counts; cells = avg relative delay, ms
    /// (Fig 5/6).
    pub delay: Table,
    /// `reports[slave_idx][user_idx]`.
    pub reports: Vec<Vec<RunReport>>,
}

/// Run the full sweep, fanning the grid cells across `opts.jobs` worker
/// threads. The template database is loaded once and borrowed by every
/// cell, which forks it. Cells run in (placement, slaves, users) order and
/// are gathered back in it, so the returned tables are byte-identical for
/// any jobs count.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Vec<PlacementResult> {
    let template = spec.template();
    let keys = cross3(&spec.placements, &spec.slaves, &spec.users);
    let mut flat = run_grid(&keys, opts, |&(placement, slaves, users)| {
        let cfg = spec.cell_config(placement, slaves, users);
        let label = placement.label(cfg.master_zone);
        let report = run_tree(cfg, Some(&template)).report;
        let line = format!(
            "{label} slaves={slaves} users={users}: {:.1} ops/s, delay {:?} ms",
            report.throughput_ops_s,
            report.avg_relative_delay_ms().map(|d| d.round())
        );
        (report, line)
    })
    .into_iter();

    // Reassemble `reports[slave_idx][user_idx]` per placement and pivot it
    // into the two tables.
    spec.placements
        .iter()
        .map(|&placement| {
            let label = placement.label(spec.cell_config(placement, 1, 1).master_zone);
            let reports: Vec<Vec<RunReport>> = spec
                .slaves
                .iter()
                .map(|_| flat.by_ref().take(spec.users.len()).collect())
                .collect();
            let columns = || spec.slaves.iter().map(|&s| counted(s, "slave"));
            let throughput = pivot_table(
                format!("{} — end-to-end throughput (ops/s) — {label}", spec.name),
                columns(),
                &spec.users,
                |si, ui| Some(reports[si][ui].throughput_ops_s),
            );
            let delay = pivot_table(
                format!(
                    "{} — avg relative replication delay (ms) — {label}",
                    spec.name
                ),
                columns(),
                &spec.users,
                |si, ui| reports[si][ui].avg_relative_delay_ms(),
            );
            PlacementResult {
                placement,
                label,
                throughput,
                delay,
                reports,
            }
        })
        .collect()
}

/// Run a single cell exactly as the sweep would (shared-template fork +
/// per-cell seed).
pub fn run_cell(spec: &SweepSpec, placement: Placement, slaves: usize, users: u32) -> RunReport {
    let cfg = spec.cell_config(placement, slaves, users);
    run_tree(cfg, Some(&spec.template())).report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_specs_are_thinned() {
        let q2 = SweepSpec::fig2_fig5(Fidelity::Quick);
        let f2 = SweepSpec::fig2_fig5(Fidelity::Full);
        assert!(q2.users.len() < f2.users.len());
        assert_eq!(f2.users, vec![50, 75, 100, 125, 150, 175, 200]);
        assert_eq!(f2.slaves, vec![1, 2, 3, 4]);
        let f3 = SweepSpec::fig3_fig6(Fidelity::Full);
        assert_eq!(f3.slaves.len(), 11);
        assert_eq!(f3.users.last(), Some(&450));
        assert_eq!(f3.placements.len(), 3);
    }

    #[test]
    fn cell_seeds_are_distinct_per_cell_and_stable() {
        let spec = SweepSpec::fig2_fig5(Fidelity::Full);
        let mut seen = std::collections::HashSet::new();
        for &placement in &spec.placements {
            for &slaves in &spec.slaves {
                for &users in &spec.users {
                    let s = spec.cell_seed(placement, slaves, users);
                    assert!(
                        seen.insert(s),
                        "duplicate cell seed for {placement:?}/{slaves}/{users}"
                    );
                    // Stable: same key → same seed.
                    assert_eq!(s, spec.cell_seed(placement, slaves, users));
                }
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let mut spec = SweepSpec::fig2_fig5(Fidelity::Quick);
        // Thin the quick grid further: this is a unit test, not a bench.
        spec.users = vec![50, 100];
        spec.slaves = vec![1, 2];
        let serial = run_sweep(&spec, &SweepOptions::serial());
        let parallel = run_sweep(&spec, &SweepOptions::silent(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.throughput.render(), p.throughput.render());
            assert_eq!(s.delay.render(), p.delay.render());
            for (srow, prow) in s.reports.iter().zip(&p.reports) {
                for (sr, pr) in srow.iter().zip(prow) {
                    assert_eq!(sr.throughput_ops_s.to_bits(), pr.throughput_ops_s.to_bits());
                    assert_eq!(
                        sr.avg_relative_delay_ms().map(f64::to_bits),
                        pr.avg_relative_delay_ms().map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn run_cell_reproduces_the_matching_sweep_cell() {
        let mut spec = SweepSpec::fig2_fig5(Fidelity::Quick);
        spec.users = vec![50, 100];
        spec.slaves = vec![1, 2];
        let swept = run_sweep(&spec, &SweepOptions::serial());
        let lone = run_cell(&spec, spec.placements[0], spec.slaves[1], spec.users[0]);
        let cell = &swept[0].reports[1][0];
        assert_eq!(
            lone.throughput_ops_s.to_bits(),
            cell.throughput_ops_s.to_bits()
        );
    }

    #[test]
    fn cell_config_respects_spec() {
        let spec = SweepSpec::fig3_fig6(Fidelity::Quick);
        let cfg = spec.cell_config(Placement::SameZone, 5, 250);
        assert_eq!(cfg.n_slaves, 5);
        assert_eq!(cfg.workload.concurrent_users, 250);
        assert!((cfg.mix.read_fraction - 0.8).abs() < 1e-9);
        assert_eq!(cfg.data_size.scale, 600);
    }
}
