//! Integration properties of the consistency layer against the full cluster
//! simulation — the acceptance gates of the amdb-consistency subsystem:
//!
//! * `Eventual` is **byte-identical** to no policy at all (the layer is pure
//!   bookkeeping: no events, no RNG), so every pre-existing result stays
//!   valid;
//! * `BoundedStaleness { max_ms: 0 }` degenerates to master-only reads (the
//!   bound is strict, so even a zero-lag slave is excluded);
//! * tightening the bound never *increases* the slave-served read share.

use amdb_cloudstone::{DataSize, WorkloadConfig};
use amdb_core::{run_cluster, ClusterConfig, ConsistencyConfig, ConsistencyPolicy, RunReport};
use proptest::prelude::*;

fn quick_cfg(users: u32, slaves: usize, seed: u64) -> amdb_core::ClusterBuilder {
    ClusterConfig::builder()
        .slaves(slaves)
        .workload(WorkloadConfig::quick(users))
        .data_size(DataSize { scale: 30 })
        .seed(seed)
}

/// Every observable a run produces, collapsed to exact bit patterns so float
/// comparisons cannot hide drift.
fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut v = vec![
        r.steady_ops,
        r.steady_reads,
        r.steady_writes,
        r.steady_slave_reads,
        r.sim_events,
        r.peak_relay_backlog,
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

fn slave_read_share(r: &RunReport) -> f64 {
    if r.steady_reads == 0 {
        0.0
    } else {
        r.steady_slave_reads as f64 / r.steady_reads as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn eventual_is_byte_identical_to_no_policy(seed in 1..1000u64) {
        let plain = run_cluster(quick_cfg(8, 2, seed).build());
        let eventual = run_cluster(
            quick_cfg(8, 2, seed)
                .consistency(ConsistencyConfig::new(ConsistencyPolicy::Eventual))
                .build(),
        );
        prop_assert_eq!(fingerprint(&plain), fingerprint(&eventual));
        // And the layer still reported (proof it was actually active).
        let c = eventual.consistency.expect("layer was configured");
        prop_assert_eq!(c.policy, "eventual");
        prop_assert_eq!(c.redirects_master, 0);
        prop_assert!(c.served_staleness_samples > 0, "slave reads were measured");
    }

    #[test]
    fn zero_bound_is_master_only(seed in 1..1000u64) {
        let r = run_cluster(
            quick_cfg(8, 2, seed)
                .consistency(ConsistencyConfig::new(ConsistencyPolicy::BoundedStaleness {
                    max_ms: 0.0,
                }))
                .build(),
        );
        prop_assert!(r.steady_ops > 0, "run did work");
        prop_assert_eq!(r.steady_slave_reads, 0, "no steady read was slave-served");
        prop_assert_eq!(r.reads_per_slave.iter().sum::<u64>(), 0u64);
        let c = r.consistency.expect("layer was configured");
        prop_assert!(c.redirects_master > 0, "reads were redirected");
        prop_assert_eq!(c.served_staleness_samples, 0);
        prop_assert_eq!(c.sla_violations, 0, "master reads cannot violate");
    }
}

#[test]
fn tightening_the_bound_never_increases_slave_share() {
    let shares: Vec<f64> = [0.0, 50.0, f64::INFINITY]
        .iter()
        .map(|&max_ms| {
            let r = run_cluster(
                quick_cfg(10, 2, 7)
                    .consistency(ConsistencyConfig::new(
                        ConsistencyPolicy::BoundedStaleness { max_ms },
                    ))
                    .build(),
            );
            slave_read_share(&r)
        })
        .collect();
    assert!(
        shares.windows(2).all(|w| w[0] <= w[1] + 1e-12),
        "slave-served share must be monotone in the bound: {shares:?}"
    );
    assert_eq!(shares[0], 0.0, "zero bound is master-only");
    assert!(shares[2] > 0.0, "infinite bound serves from slaves");
}

#[test]
fn session_policies_run_and_report() {
    for policy in [
        ConsistencyPolicy::ReadYourWrites,
        ConsistencyPolicy::Monotonic,
    ] {
        let r = run_cluster(
            quick_cfg(8, 2, 13)
                .consistency(ConsistencyConfig::new(policy))
                .build(),
        );
        assert!(r.steady_ops > 0, "{policy:?} run made progress");
        let c = r.consistency.expect("layer was configured");
        // Session guarantees are cheap in this workload (slaves keep up),
        // so most reads still land on slaves — but the layer must have
        // measured them.
        assert!(
            c.served_staleness_samples > 0,
            "{policy:?} served reads from slaves"
        );
        assert_eq!(c.policy, ConsistencyPolicy::label(&policy));
    }
}

#[test]
fn bounded_staleness_counts_violations_against_ground_truth() {
    // A tight-but-satisfiable bound in the cross-region placement: the
    // estimator admits slaves that sometimes turn out stale — those must be
    // counted, not silently forgiven.
    let r = run_cluster(
        quick_cfg(12, 2, 19)
            .placement(amdb_core::Placement::DifferentRegion(
                amdb_cloud::net::Region::EuWest1,
            ))
            .consistency(ConsistencyConfig::new(
                ConsistencyPolicy::BoundedStaleness { max_ms: 200.0 },
            ))
            .build(),
    );
    let c = r.consistency.expect("layer was configured");
    assert!(
        c.served_staleness_samples > 0 || c.redirects_master > 0,
        "reads were either served by slaves or redirected"
    );
    assert!(c.sla_violations >= c.sla_violations_steady);
}
