//! §IV-A instance performance variation.
//!
//! Two measurements back the paper's claim that "the performance variation
//! of the dynamically allocated virtual machines is an inevitable issue":
//!
//! 1. The small-instance speed distribution across a launched fleet —
//!    Schad et al.'s CoV ≈ 21 %, which the provider model reproduces.
//! 2. The paper's concrete anecdote: the "1 slave, 50/50" curve measured in
//!    *different zone* underperformed the one in *same zone* not because of
//!    distance but because the same-zone slave landed on a Xeon E5430
//!    2.66 GHz host while the different-zone slave got a Xeon E5507
//!    2.27 GHz. We rerun one grid cell pinned to each host model.

use crate::calib::paper_cost_model;
use crate::exec::{parallel_map, Progress};
use crate::Fidelity;
use amdb_cloud::net::{Region, Zone};
use amdb_cloud::{CpuModel, InstanceType, Provider, ProviderConfig};
use amdb_cloudstone::{DataSize, MixConfig, WorkloadConfig};
use amdb_core::{run_cluster, ClusterConfig, Placement, RunReport};
use amdb_obs::metrics::{coefficient_of_variation, Table};
use amdb_sim::Rng;

/// Fleet speed statistics.
#[derive(Debug, Clone)]
pub struct FleetStats {
    pub samples: usize,
    pub mean_speed: f64,
    pub cov: f64,
}

/// Sample `n` small-instance launches and compute the speed CoV.
pub fn fleet_speed_cov(n: usize, seed: u64) -> FleetStats {
    let mut provider = Provider::new(ProviderConfig::default(), Rng::new(seed).derive("fleet"));
    let zone = Zone::new(Region::UsWest1, 'a');
    let speeds: Vec<f64> = (0..n)
        .map(|_| provider.launch(zone, InstanceType::Small).speed())
        .collect();
    FleetStats {
        samples: n,
        mean_speed: speeds.iter().sum::<f64>() / n as f64,
        cov: coefficient_of_variation(&speeds).expect("n >= 2"),
    }
}

/// Throughput of the 1-slave 50/50 cell with the slave pinned to a host.
pub fn pinned_host_run(host: CpuModel, fidelity: Fidelity) -> RunReport {
    let workload = match fidelity {
        Fidelity::Full => WorkloadConfig::paper(100),
        Fidelity::Quick => WorkloadConfig::quick(60),
    };
    let cfg = ClusterConfig::builder()
        .slaves(1)
        .placement(Placement::SameZone)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize::SMALL)
        .workload(workload)
        .cost(paper_cost_model())
        .pin_slave_host(Some(host))
        .seed(17)
        .build();
    run_cluster(cfg)
}

/// Render the experiment table. The two pinned-host runs are independent,
/// so they fan out across `jobs` workers.
pub fn table(fidelity: Fidelity, jobs: usize) -> Table {
    let fleet = fleet_speed_cov(2000, 5);
    let hosts = [CpuModel::XeonE5430, CpuModel::XeonE5507];
    let mut runs = parallel_map(&hosts, jobs, &Progress::Silent, |_, &host, _| {
        pinned_host_run(host, fidelity)
    })
    .into_iter();
    let fast = runs.next().expect("E5430 run");
    let slow = runs.next().expect("E5507 run");
    let mut t = Table::new(
        "instance performance variation (§IV-A)",
        vec!["measure".into(), "value".into(), "paper".into()],
    );
    t.push_row(vec![
        "small-instance CPU CoV".into(),
        format!("{:.1} %", fleet.cov * 100.0),
        "21 % (Schad et al.)".into(),
    ]);
    t.push_row(vec![
        "1-slave 50/50 throughput on E5430 host".into(),
        format!("{:.1} ops/s", fast.throughput_ops_s),
        "faster".into(),
    ]);
    t.push_row(vec![
        "1-slave 50/50 throughput on E5507 host".into(),
        format!("{:.1} ops/s", slow.throughput_ops_s),
        "slower (2.27 vs 2.66 GHz)".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_cov_near_21_percent() {
        let f = fleet_speed_cov(3000, 9);
        assert!((f.cov - 0.21).abs() < 0.04, "CoV {:.3}", f.cov);
        assert!(f.mean_speed > 0.5 && f.mean_speed < 1.2);
    }

    #[test]
    fn slow_host_yields_less_throughput() {
        let fast = pinned_host_run(CpuModel::XeonE5430, Fidelity::Quick);
        let slow = pinned_host_run(CpuModel::XeonE5507, Fidelity::Quick);
        assert!(
            slow.throughput_ops_s < fast.throughput_ops_s,
            "E5507 ({:.2}) must underperform E5430 ({:.2})",
            slow.throughput_ops_s,
            fast.throughput_ops_s
        );
    }
}
