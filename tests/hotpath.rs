//! The plan cache's transparency contract at cluster level: a full timed
//! run with the cache on must be bit-identical to the same run with the
//! cache off — same seed, same workload, same report, down to the float
//! bits. Any divergence means the cache changed behaviour, not just speed.

use amdb::cloudstone::{build_template, DataSize, MixConfig, WorkloadConfig};
use amdb::core::{load_template, run_cell, ClusterConfig, Placement, RunReport};
use amdb::sim::Rng;

/// One run off a template whose plan cache is on or off: every replica
/// forked from it inherits the template's cache capacity.
fn run(users: u32, slaves: usize, plan_cache: bool) -> RunReport {
    let cfg = ClusterConfig::builder()
        .slaves(slaves)
        .placement(Placement::SameZone)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize { scale: 100 })
        .workload(WorkloadConfig::quick(users))
        .seed(42)
        .build();
    // The template a run without one would load for itself.
    let mut template = load_template(cfg.seed, cfg.data_size);
    if !plan_cache {
        template.0.set_plan_cache_capacity(0);
    }
    run_cell(cfg, Some(&template))
        .expect("the config validates")
        .report
}

/// The premise of `run(.., false)`: a replica forked from an uncached
/// template caches nothing either.
#[test]
fn forks_inherit_the_templates_plan_cache_capacity() {
    use amdb::sql::{ForkRole, Session};
    let (mut template, _) = build_template(DataSize { scale: 10 }, &mut Rng::new(1));
    for (capacity_zero, cached) in [(false, 1), (true, 0)] {
        if capacity_zero {
            template.set_plan_cache_capacity(0);
        }
        let mut slave = template.fork(ForkRole::Slave);
        let mut session = Session::new();
        for _ in 0..2 {
            slave
                .execute(&mut session, "SELECT COUNT(*) FROM users", &[])
                .expect("the template has a users table");
        }
        assert_eq!(slave.plan_cache_stats().entries, cached);
    }
}

fn assert_bit_identical(on: &RunReport, off: &RunReport) {
    assert_eq!(on.steady_ops, off.steady_ops);
    assert_eq!(on.steady_reads, off.steady_reads);
    assert_eq!(on.steady_writes, off.steady_writes);
    assert_eq!(on.steady_slave_reads, off.steady_slave_reads);
    assert_eq!(on.lost_writes, off.lost_writes);
    assert_eq!(
        on.throughput_ops_s.to_bits(),
        off.throughput_ops_s.to_bits(),
        "throughput diverged: {} vs {}",
        on.throughput_ops_s,
        off.throughput_ops_s
    );
    assert_eq!(
        on.master_utilization.to_bits(),
        off.master_utilization.to_bits()
    );
    assert_eq!(
        on.avg_relative_delay_ms().map(f64::to_bits),
        off.avg_relative_delay_ms().map(f64::to_bits),
        "relative delay diverged"
    );
    match (&on.latency_ms, &off.latency_ms) {
        (Some(a), Some(b)) => {
            assert_eq!(a.count, b.count);
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.p95.to_bits(), b.p95.to_bits());
            assert_eq!(a.max.to_bits(), b.max.to_bits());
        }
        (None, None) => {}
        _ => panic!("latency summary present in one run only"),
    }
}

#[test]
fn plan_cache_is_transparent_at_cluster_level() {
    let on = run(50, 2, true);
    let off = run(50, 2, false);
    assert_bit_identical(&on, &off);
}

#[test]
fn plan_cache_is_transparent_under_write_pressure() {
    // More users and one slave: the binlog-apply fast path carries most of
    // the slave's work, so this leg exercises the replication-side cache.
    let on = run(100, 1, true);
    let off = run(100, 1, false);
    assert_bit_identical(&on, &off);
}
