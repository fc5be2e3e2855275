//! SLO/alert sweep (`obs_slo` binary): run fig2-style cells with telemetry
//! enabled and collect the deterministic alert timeline each produces.
//!
//! This is the paper's Fig 5/6 surge story told by an *online* monitor
//! instead of a post-run report: as user counts rise, the `delay_surge`
//! rule fires when the windowed true replication delay crosses its
//! threshold, and each fire is attributed to the resource saturated at
//! surge onset — the slave CPU when one slave serves every read, the
//! master CPU once three or four slaves spread the reads out and the
//! write/ship load dominates (§IV-A's saturation migration).
//!
//! Every cell is deterministic in its derived seed, cells gather in grid
//! order, and the rendered table (and `results/obs_slo_alerts.csv`) is
//! byte-identical for any `--jobs` count.

use crate::calib::paper_cost_model;
use crate::grid::{cross3, run_fleet, run_grid, SweepOptions};
use crate::Fidelity;
use amdb_cloudstone::{DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::{load_template, ClusterConfig, ObsConfig, Placement, ShardedConfig, ShardedReport};
use amdb_obs::metrics::Table;
use amdb_obs::telemetry::{AlertEvent, AlertKind, FleetTelemetry};
use amdb_sim::Rng;

/// Grid specification for the SLO sweep.
#[derive(Debug, Clone)]
pub struct ObsSloSpec {
    pub name: &'static str,
    pub slave_counts: Vec<usize>,
    pub user_counts: Vec<u32>,
    pub placements: Vec<Placement>,
    pub phases: Phases,
    /// Telemetry sampling period (ms); SLO windows are counted in samples.
    pub sample_interval_ms: u64,
    pub seed: u64,
}

impl ObsSloSpec {
    /// The sweep grids. Both fidelities use quick phases — the surge
    /// dynamics the alert engine watches appear within seconds of steady
    /// load — and differ only in grid breadth.
    pub fn paper_set(f: Fidelity) -> ObsSloSpec {
        match f {
            Fidelity::Full => ObsSloSpec {
                name: "obs_slo (50/50, size 300)",
                slave_counts: vec![1, 2, 3, 4],
                user_counts: vec![75, 175],
                placements: Placement::PAPER_SET.to_vec(),
                phases: Phases::quick(),
                sample_interval_ms: 250,
                seed: 42,
            },
            Fidelity::Quick => ObsSloSpec {
                name: "obs_slo quick (50/50, size 300)",
                slave_counts: vec![1, 3],
                user_counts: vec![175],
                placements: vec![Placement::SameZone, Placement::PAPER_SET[2]],
                phases: Phases::quick(),
                sample_interval_ms: 250,
                seed: 42,
            },
        }
    }

    /// Per-cell derived seed.
    pub fn cell_seed(&self, placement: Placement, slaves: usize, users: u32) -> u64 {
        let label = format!("obs_slo/{placement:?}/slaves={slaves}/users={users}");
        Rng::new(self.seed).derive(&label).next_u64()
    }

    /// The cluster config for one cell: fig2-style 50/50 cell with
    /// observability (and therefore telemetry) enabled.
    pub fn cell_config(&self, placement: Placement, slaves: usize, users: u32) -> ClusterConfig {
        let mut workload = WorkloadConfig::paper(users);
        workload.phases = self.phases;
        ClusterConfig::builder()
            .slaves(slaves)
            .placement(placement)
            .mix(MixConfig::RW_50_50)
            .data_size(DataSize::SMALL)
            .workload(workload)
            .cost(paper_cost_model())
            .observability(ObsConfig {
                enabled: true,
                sample_interval_ms: self.sample_interval_ms,
                tsdb: true,
            })
            .seed(self.cell_seed(placement, slaves, users))
            .build()
    }
}

/// One cell's outcome: the sharded report plus every tree's telemetry
/// bundle (waterfall + shard-stamped SLO engine).
pub struct ObsSloCell {
    pub placement: Placement,
    pub slaves: usize,
    pub users: u32,
    pub report: ShardedReport,
    pub fleet: FleetTelemetry,
}

impl ObsSloCell {
    /// Every tree's alert transitions in time order, shard by shard within
    /// one instant and in rule order within one tree's sample — the
    /// standalone engine's own order at one shard, where the fleet timeline
    /// would sort same-instant rules by name.
    pub fn alerts(&self) -> Vec<&AlertEvent> {
        let mut alerts: Vec<&AlertEvent> = self
            .fleet
            .shards()
            .flat_map(|(_, t)| t.slo.alerts())
            .collect();
        alerts.sort_by_key(|a| (a.at, a.shard));
        alerts
    }

    /// The first `delay_surge` fire of the run, if any.
    pub fn first_delay_surge(&self) -> Option<&AlertEvent> {
        self.alerts()
            .into_iter()
            .find(|a| a.rule == "delay_surge" && a.kind == AlertKind::Fire)
    }
}

impl ObsSloSpec {
    /// The grid in (placement, slaves, users) order.
    fn keys(&self) -> Vec<(Placement, usize, u32)> {
        cross3(&self.placements, &self.slave_counts, &self.user_counts)
    }
}

/// Run the sweep with every cell behind a `shards`-tree front (no
/// scatter-gather: the story here is per-shard surge attribution,
/// `(shard, component, instance)` on every alert), all forking the grid's
/// one template and fanned across `opts.jobs` workers. One shard is the
/// standalone cluster byte for byte. Cells gather in (placement, slaves,
/// users) grid order.
pub fn run(spec: &ObsSloSpec, shards: u32, opts: &SweepOptions) -> Vec<ObsSloCell> {
    let template = load_template(spec.seed, DataSize::SMALL);
    run_grid(&spec.keys(), opts, |&(placement, slaves, users)| {
        let base = spec.cell_config(placement, slaves, users);
        let label = placement.label(base.master_zone);
        let (report, bundle) = run_fleet(&ShardedConfig::new(shards, base), Some(&template));
        let cell = ObsSloCell {
            placement,
            slaves,
            users,
            report,
            fleet: bundle.telemetry,
        };
        let alerts = cell.alerts();
        let surges = alerts
            .iter()
            .filter(|a| a.rule == "delay_surge" && a.kind == AlertKind::Fire)
            .count();
        let line = format!(
            "{label} shards={shards} slaves={slaves} users={users}: {:.1} ops/s, \
             {} alert transition(s), {} delay surge(s)",
            cell.report.throughput_ops_s,
            alerts.len(),
            surges,
        );
        (cell, line)
    })
}

/// Render the sweep as an alert table: per cell one row per fire, carrying
/// the time of the next clear of the same `(shard, rule, inst)` when the
/// rule cleared before the run ended, or one `no alerts` row for a quiet
/// cell. Behind more than one shard a `shard` column follows the cell key.
pub fn table(spec: &ObsSloSpec, cells: &[ObsSloCell]) -> Table {
    let shards = cells.first().map_or(1, |c| c.report.shards);
    let shard_column = shards > 1;
    let title = if shard_column {
        format!("{} — fleet alert timeline ({shards} shards)", spec.name)
    } else {
        format!("{} — alert timeline per cell", spec.name)
    };
    let shard_header = shard_column.then_some("shard");
    let header = ["placement", "slaves", "users"]
        .into_iter()
        .chain(shard_header)
        .chain([
            "rule",
            "inst",
            "t_fire (s)",
            "t_clear (s)",
            "value",
            "attribution",
        ]);
    let mut t = Table::new(title, header.map(String::from).collect());
    let t_clear = t.header().len() - 3;
    let zone = ClusterConfig::builder().build().master_zone;
    for cell in cells {
        let lead = [
            cell.placement.label(zone),
            cell.slaves.to_string(),
            cell.users.to_string(),
        ];
        let row = |shard: String, rest: [String; 6]| -> Vec<String> {
            let shard = shard_column.then_some(shard);
            lead.iter().cloned().chain(shard).chain(rest).collect()
        };
        let mut open: std::collections::BTreeMap<(u32, &str, u32), usize> = Default::default();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for a in cell.alerts() {
            match a.kind {
                AlertKind::Fire => {
                    open.insert((a.shard, a.rule, a.inst), rows.len());
                    rows.push(row(
                        a.shard.to_string(),
                        [
                            a.rule.to_string(),
                            a.inst.to_string(),
                            format!("{:.2}", a.at.as_secs_f64()),
                            "-".into(),
                            format!("{:.1}", a.value),
                            a.attribution.clone().unwrap_or_else(|| "-".into()),
                        ],
                    ));
                }
                AlertKind::Clear => {
                    if let Some(i) = open.remove(&(a.shard, a.rule, a.inst)) {
                        rows[i][t_clear] = format!("{:.2}", a.at.as_secs_f64());
                    }
                }
            }
        }
        if rows.is_empty() {
            let dash = || "-".to_string();
            let rest = [dash(), dash(), dash(), dash(), dash(), "no alerts".into()];
            rows.push(row(dash(), rest));
        }
        for row in rows {
            t.push_row(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Progress;

    fn quick_spec() -> ObsSloSpec {
        ObsSloSpec::paper_set(Fidelity::Quick)
    }

    #[test]
    fn surge_attribution_migrates_from_slave_to_master() {
        // The acceptance story: at the 50/50 mix with 175 users, the first
        // delay surge is the slave CPU's fault with one slave (it serves
        // every read *and* every apply), and the master CPU's fault by
        // three slaves (reads spread out; writes + per-slave dump threads
        // concentrate) — §IV-A's saturation migration, caught online.
        let spec = quick_spec();
        let cells = run(&spec, 1, &SweepOptions::serial());
        let same_zone = |slaves: usize| {
            cells
                .iter()
                .find(|c| c.placement == Placement::SameZone && c.slaves == slaves)
                .expect("cell in grid")
        };
        let one = same_zone(1)
            .first_delay_surge()
            .expect("1-slave cell surges");
        assert_eq!(
            one.attribution.as_deref(),
            Some("slave0 cpu"),
            "one slave: the read+apply-loaded slave saturates first"
        );
        let three = same_zone(3)
            .first_delay_surge()
            .expect("3-slave cell surges");
        assert_eq!(
            three.attribution.as_deref(),
            Some("master cpu"),
            "three slaves: saturation has migrated to the master"
        );
    }

    #[test]
    fn sweep_is_byte_identical_for_any_jobs_count() {
        let spec = quick_spec();
        let serial = table(&spec, &run(&spec, 1, &SweepOptions::serial()));
        let parallel = table(
            &spec,
            &run(
                &spec,
                1,
                &SweepOptions {
                    jobs: 3,
                    progress: Progress::Silent,
                },
            ),
        );
        assert_eq!(serial.render(), parallel.render());
        let mut a = Vec::new();
        let mut b = Vec::new();
        amdb_obs::metrics::write_csv(&serial, &mut a).unwrap();
        amdb_obs::metrics::write_csv(&parallel, &mut b).unwrap();
        assert_eq!(a, b, "CSV bytes identical across jobs counts");
    }
}
