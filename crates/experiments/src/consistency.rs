//! E-C: the consistency/performance trade-off sweep
//! (`extensions_consistency` binary).
//!
//! The paper measures the replication-delay window but routes reads
//! obliviously — every read risks the full window. The amdb-consistency
//! layer turns that window into a knob: `BoundedStaleness { max_ms }`
//! restricts reads to slaves estimated fresher than the bound, redirecting
//! the rest to the master. This sweep walks the knob from `0` (master-only
//! by construction) to `Eventual` (today's oblivious routing) across the
//! paper's three placements, measuring what each consistency guarantee
//! *costs*: the slave-served read share shrinks, the master absorbs the
//! redirected reads, and throughput degrades toward the master-only ceiling
//! — steeply in the cross-region placement where staleness is largest.
//!
//! Each cell seeds identically **per placement** (the bound is not part of
//! the cell key), so within a placement the arms differ only by policy and
//! the trade-off is attributable to the knob alone.

use crate::calib::paper_cost_model;
use crate::grid::{cross2, run_grid, run_tree, SweepOptions};
use crate::Fidelity;
use amdb_cloudstone::{DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::{
    load_template, ClusterConfig, ConsistencyConfig, ConsistencyPolicy, Placement, RunReport,
};
use amdb_metrics::Table;
use amdb_sim::Rng;

/// The swept staleness bounds: `Some(ms)` = `BoundedStaleness`, `None` =
/// `Eventual` (the unbounded reference arm).
pub type Bound = Option<f64>;

/// Grid specification for the consistency sweep.
#[derive(Debug, Clone)]
pub struct ConsistencySpec {
    pub name: &'static str,
    pub users: u32,
    pub slaves: usize,
    pub mix: MixConfig,
    pub data_size: DataSize,
    /// Swept bounds, loosest-meaningful order is up to the caller; rendered
    /// in the order given.
    pub bounds: Vec<Bound>,
    pub placements: Vec<Placement>,
    pub phases: Phases,
    pub seed: u64,
}

impl ConsistencySpec {
    /// The full sweep: three placements × {0, 50, 250, 1000 ms, Eventual},
    /// paper phases. 15 cells.
    pub fn paper_set(f: Fidelity) -> ConsistencySpec {
        match f {
            Fidelity::Full => ConsistencySpec {
                name: "E-C (50/50, size 300, 150 users, 2 slaves)",
                users: 150,
                slaves: 2,
                mix: MixConfig::RW_50_50,
                data_size: DataSize::SMALL,
                bounds: vec![Some(0.0), Some(50.0), Some(250.0), Some(1000.0), None],
                placements: Placement::PAPER_SET.to_vec(),
                phases: Phases::paper(),
                seed: 71,
            },
            Fidelity::Quick => ConsistencySpec {
                name: "E-C quick (50/50, size 300)",
                users: 40,
                slaves: 2,
                mix: MixConfig::RW_50_50,
                data_size: DataSize::SMALL,
                bounds: vec![Some(0.0), Some(100.0), None],
                placements: vec![Placement::SameZone, Placement::PAPER_SET[2]],
                phases: Phases::quick(),
                seed: 71,
            },
        }
    }

    /// Per-placement seed. Deliberately *not* keyed on the bound: every arm
    /// of one placement replays the same workload, so the measured deltas
    /// are the policy's doing, not sampling noise.
    pub fn placement_seed(&self, placement: Placement) -> u64 {
        let label = format!("consistency/{placement:?}/users={}", self.users);
        Rng::new(self.seed).derive(&label).next_u64()
    }

    /// The cluster config for one cell.
    pub fn cell_config(&self, placement: Placement, bound: Bound) -> ClusterConfig {
        let mut workload = WorkloadConfig::paper(self.users);
        workload.phases = self.phases;
        let policy = match bound {
            Some(max_ms) => ConsistencyPolicy::BoundedStaleness { max_ms },
            None => ConsistencyPolicy::Eventual,
        };
        ClusterConfig::builder()
            .slaves(self.slaves)
            .placement(placement)
            .mix(self.mix)
            .data_size(self.data_size)
            .workload(workload)
            .cost(paper_cost_model())
            .consistency(ConsistencyConfig::new(policy))
            .seed(self.placement_seed(placement))
            .build()
    }
}

/// One cell's outcome.
pub struct ConsistencyCell {
    pub placement: Placement,
    pub bound: Bound,
    pub report: RunReport,
}

/// Human/CSV label for a bound.
pub fn bound_label(bound: Bound) -> String {
    match bound {
        Some(ms) => format!("{ms:.0}"),
        None => "eventual".into(),
    }
}

/// Share of steady-window reads a slave served.
pub fn slave_read_share(r: &RunReport) -> f64 {
    if r.steady_reads == 0 {
        0.0
    } else {
        r.steady_slave_reads as f64 / r.steady_reads as f64
    }
}

/// Run the sweep, fanning cells across `opts.jobs` workers. Cells gather in
/// (placement, bound) grid order — output is byte-identical for any jobs
/// count.
pub fn run(spec: &ConsistencySpec, opts: &SweepOptions) -> Vec<ConsistencyCell> {
    let template = load_template(spec.seed, spec.data_size);
    let keys = cross2(&spec.placements, &spec.bounds);
    run_grid(&keys, opts, |&(placement, bound)| {
        let cfg = spec.cell_config(placement, bound);
        let label = placement.label(cfg.master_zone);
        let report = run_tree(cfg, Some(&template)).report;
        let line = format!(
            "{label} bound={}: {:.1} ops/s, slave share {:.2}",
            bound_label(bound),
            report.throughput_ops_s,
            slave_read_share(&report)
        );
        let cell = ConsistencyCell {
            placement,
            bound,
            report,
        };
        (cell, line)
    })
}

/// Render the sweep: one row per (placement, bound).
pub fn table(spec: &ConsistencySpec, cells: &[ConsistencyCell]) -> Table {
    let mut t = Table::new(
        format!(
            "{} — throughput & staleness-violation rate vs staleness bound",
            spec.name
        ),
        vec![
            "placement".into(),
            "bound (ms)".into(),
            "throughput (ops/s)".into(),
            "slave read share".into(),
            "redirects".into(),
            "violations (steady)".into(),
            "violation rate".into(),
            "served staleness mean (ms)".into(),
            "master util".into(),
        ],
    );
    let zone = spec.cell_config(spec.placements[0], None).master_zone;
    for c in cells {
        let r = &c.report;
        let cons = r.consistency.as_ref().expect("sweep always opts in");
        t.push_row(vec![
            c.placement.label(zone),
            bound_label(c.bound),
            format!("{:.1}", r.throughput_ops_s),
            format!("{:.3}", slave_read_share(r)),
            cons.redirects_master.to_string(),
            cons.sla_violations_steady.to_string(),
            format!("{:.4}", cons.violation_rate(r.steady_reads)),
            cons.served_staleness_mean_ms
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.2}", r.master_utilization),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thin_spec() -> ConsistencySpec {
        let mut spec = ConsistencySpec::paper_set(Fidelity::Quick);
        spec.users = 12;
        spec.placements = vec![Placement::SameZone];
        spec
    }

    #[test]
    fn tightening_the_bound_is_monotone_in_slave_share() {
        // The acceptance property, per placement: walking the bounds from
        // tightest to loosest (Eventual last) never *decreases* the
        // slave-served share, and the 0-bound arm is exactly master-only.
        let spec = {
            let mut s = thin_spec();
            s.placements = vec![Placement::SameZone, Placement::PAPER_SET[2]];
            s
        };
        let cells = run(&spec, &SweepOptions::serial());
        for &placement in &spec.placements {
            let shares: Vec<f64> = cells
                .iter()
                .filter(|c| c.placement == placement)
                .map(|c| slave_read_share(&c.report))
                .collect();
            assert_eq!(shares.len(), spec.bounds.len());
            assert_eq!(shares[0], 0.0, "{placement:?}: 0-bound is master-only");
            for w in shares.windows(2) {
                assert!(
                    w[0] <= w[1] + 1e-12,
                    "{placement:?}: share not monotone: {shares:?}"
                );
            }
        }
    }

    #[test]
    fn zero_bound_throughput_sits_at_the_master_ceiling() {
        let spec = thin_spec();
        let cells = run(&spec, &SweepOptions::serial());
        let at = |bound: Bound| {
            cells
                .iter()
                .find(|c| c.bound == bound)
                .map(|c| &c.report)
                .expect("cell exists")
        };
        // Master-only reads push master utilization above the eventual arm.
        assert!(
            at(Some(0.0)).master_utilization > at(None).master_utilization,
            "redirected reads must land on the master"
        );
        assert_eq!(at(Some(0.0)).steady_slave_reads, 0);
    }

    #[test]
    fn sweep_is_byte_identical_for_any_jobs_count() {
        let spec = thin_spec();
        let serial = table(&spec, &run(&spec, &SweepOptions::serial()));
        let parallel = table(&spec, &run(&spec, &SweepOptions::silent(3)));
        assert_eq!(serial.render(), parallel.render());
    }

    #[test]
    fn bound_labels() {
        assert_eq!(bound_label(Some(250.0)), "250");
        assert_eq!(bound_label(None), "eventual");
    }
}
