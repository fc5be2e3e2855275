//! Integration tests for the availability extensions: slave failure,
//! replacement, and staleness-driven autoscaling.

use amdb::cloudstone::{DataSize, MixConfig, WorkloadConfig};
use amdb::core::{run_cluster, AutoscaleConfig, ClusterConfig, FaultPlan, Placement};
use amdb::sim::SimDuration;

fn base(users: u32, slaves: usize) -> amdb::core::ClusterBuilder {
    ClusterConfig::builder()
        .slaves(slaves)
        .placement(Placement::SameZone)
        .mix(MixConfig::RW_80_20)
        .data_size(DataSize { scale: 100 })
        .workload(WorkloadConfig::quick(users))
        .seed(9)
}

#[test]
fn slave_failure_redistributes_reads() {
    let phases = WorkloadConfig::quick(1).phases;
    let fail_at = phases.steady_start() - amdb::sim::SimTime::ZERO; // at steady start
    let cfg = base(60, 3)
        .fault(FaultPlan {
            slave: 1,
            fail_at,
            recover_after: None,
        })
        .build();
    let r = run_cluster(cfg);
    assert!(r.steady_ops > 0, "cluster keeps serving after a failure");
    assert!(
        r.membership_events
            .iter()
            .any(|(_, e)| e.contains("failed")),
        "failure recorded: {:?}",
        r.membership_events
    );
    // Surviving slaves absorb the reads: the dead slave's count freezes at
    // its pre-failure value, well below the survivors'.
    let reads = &r.reads_per_slave;
    assert!(
        reads[1] < reads[0] && reads[1] < reads[2],
        "dead slave served fewest reads: {reads:?}"
    );
}

#[test]
fn failed_slave_replacement_rejoins_and_converges() {
    let cfg = base(40, 2)
        .fault(FaultPlan {
            slave: 0,
            fail_at: SimDuration::from_secs(120),
            recover_after: Some(SimDuration::from_secs(90)),
        })
        .build();
    let r = run_cluster(cfg);
    assert!(
        r.membership_events
            .iter()
            .any(|(_, e)| e.contains("replaced")),
        "replacement recorded: {:?}",
        r.membership_events
    );
    // The replaced slave serves reads again after rejoining.
    assert!(r.reads_per_slave[0] > 0);
    // And it is measurably replicating (heartbeats matched post-recovery).
    assert!(
        r.delays[0].loaded_samples > 0,
        "recovered slave applies heartbeats"
    );
}

#[test]
fn autoscaling_grows_cluster_under_staleness_pressure() {
    // One slave at high read load: staleness blows past the SLO, and the
    // controller launches replicas up to the cap.
    let cfg = base(170, 1)
        .autoscale(AutoscaleConfig {
            check_interval: SimDuration::from_secs(10),
            staleness_slo_ms: 2_000.0,
            max_slaves: 4,
            sync_duration: SimDuration::from_secs(30),
            cooldown: SimDuration::from_secs(60),
        })
        .build();
    let r = run_cluster(cfg);
    assert!(
        r.final_slaves > 1,
        "controller scaled out: events {:?}",
        r.membership_events
    );
    assert!(r.final_slaves <= 4, "cap respected");
    assert!(
        r.membership_events
            .iter()
            .any(|(_, e)| e.contains("autoscale")),
        "scale-out recorded"
    );
    // New slaves actually serve reads.
    let late_reads: u64 = r.reads_per_slave[1..].iter().sum();
    assert!(late_reads > 0, "scaled-out slaves take traffic");
}

#[test]
fn autoscaling_stays_put_when_slo_is_met() {
    let cfg = base(20, 2)
        .autoscale(AutoscaleConfig {
            staleness_slo_ms: 10_000.0,
            ..AutoscaleConfig::default()
        })
        .build();
    let r = run_cluster(cfg);
    assert_eq!(r.final_slaves, 2, "no scale-out under light load");
    assert!(r.membership_events.is_empty());
}

#[test]
fn autoscaled_run_beats_static_run_on_staleness() {
    let static_cfg = base(170, 1).build();
    let auto_cfg = base(170, 1)
        .autoscale(AutoscaleConfig {
            check_interval: SimDuration::from_secs(10),
            staleness_slo_ms: 2_000.0,
            max_slaves: 4,
            sync_duration: SimDuration::from_secs(30),
            cooldown: SimDuration::from_secs(60),
        })
        .build();
    let s = run_cluster(static_cfg);
    let a = run_cluster(auto_cfg);
    assert!(
        a.throughput_ops_s >= s.throughput_ops_s,
        "autoscaling cannot hurt throughput: {:.1} vs {:.1}",
        a.throughput_ops_s,
        s.throughput_ops_s
    );
    // Delay on the original slave improves once load is shared.
    let ds = s.delays[0].relative_ms.unwrap_or(f64::MAX);
    let da = a.delays[0].relative_ms.unwrap_or(f64::MAX);
    assert!(
        da < ds,
        "autoscaling reduces staleness on the hot slave: {da:.0} ms vs {ds:.0} ms"
    );
}

#[test]
fn master_failover_promotes_and_resumes_writes() {
    let phases = WorkloadConfig::quick(1).phases;
    let fail_at = phases.steady_start() - amdb::sim::SimTime::ZERO;
    let cfg = base(50, 3)
        .master_fault(amdb::core::MasterFaultPlan {
            fail_at,
            detection_delay: SimDuration::from_secs(15),
        })
        .build();
    let r = run_cluster(cfg);
    let evs: Vec<&str> = r
        .membership_events
        .iter()
        .map(|(_, e)| e.as_str())
        .collect();
    assert!(evs.iter().any(|e| e.contains("master failed")), "{evs:?}");
    assert!(evs.iter().any(|e| e.contains("promoted")), "{evs:?}");
    // Writes resumed after failover: steady writes happened although the
    // master died at steady start.
    assert!(
        r.steady_writes > 0,
        "writes resumed on the promoted master: {evs:?}"
    );
    assert!(r.steady_reads > 0, "reads flowed throughout");
}

#[test]
fn master_failover_converges_on_new_master() {
    use amdb::core::Cluster;

    let cfg = base(30, 3)
        .master_fault(amdb::core::MasterFaultPlan {
            fail_at: SimDuration::from_secs(150),
            detection_delay: SimDuration::from_secs(10),
        })
        .seed(13)
        .build();
    let mut world = Cluster::new(cfg);
    world.run_timeline();

    // All relays drained, and every live replica matches the new master
    // exactly; the corpse (the deposed master, identifiable because its
    // engine still carries the master role) is excluded.
    for s in 0..3 {
        assert_eq!(world.relay(s).backlog(), 0, "slave {s} drained");
    }
    for table in ["users", "events", "comments", "attendees", "heartbeat"] {
        let m = world.engine_mut(0).table_rows(table);
        for node in 1..=3 {
            if world.engine_mut(node).is_master() {
                continue; // the deposed master's corpse
            }
            assert_eq!(
                m,
                world.engine_mut(node).table_rows(table),
                "table {table} diverged on live node {node}"
            );
        }
    }
}

#[test]
fn master_failover_reports_lost_writes() {
    // Read-saturated slaves lag the master by seconds (the Figs 5/6 delay
    // surge); promoting a lagging replica discards its un-applied backlog —
    // §II: "once the updated replica goes offline before duplicating data,
    // data loss may occur".
    // Deep saturation (the Fig 5 one-slave regime: delay in the tens of
    // seconds) so the backlog outlives the detection window.
    let cfg = ClusterConfig::builder()
        .slaves(1)
        .placement(Placement::SameZone)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize::SMALL)
        .workload(WorkloadConfig::quick(175))
        .master_fault(amdb::core::MasterFaultPlan {
            fail_at: SimDuration::from_secs(280),
            detection_delay: SimDuration::from_secs(2),
        })
        .seed(29)
        .build();
    let r = run_cluster(cfg);
    assert!(
        r.lost_writes > 0,
        "async failover under write load must lose writes: events {:?}",
        r.membership_events
    );
    assert!(
        r.membership_events.iter().any(|(_, e)| e.contains("lost")),
        "loss recorded in the timeline"
    );
}

#[test]
fn slave_failover_mid_batch_replays_from_committed_lsn() {
    // Row-format binlog with 4 apply workers on a loaded cell: the fault
    // lands while the slave's SQL thread is group-committing batches, so
    // the in-flight batch dies with the node. Because batch commit is
    // in-order (a batch's LSN range commits atomically and sequentially),
    // the replacement bootstraps from the last in-order-committed LSN and
    // replays cleanly — nothing skipped, nothing applied twice.
    use amdb::core::BackendKind;
    use amdb::core::Cluster;

    let cfg = base(90, 2)
        .backend(BackendKind::Row)
        .apply_workers(4)
        .fault(FaultPlan {
            slave: 0,
            fail_at: SimDuration::from_secs(150),
            recover_after: Some(SimDuration::from_secs(60)),
        })
        .build();
    let mut world = Cluster::new(cfg);
    let events = world.run_timeline();
    let r = world.report(events);

    assert!(
        r.membership_events
            .iter()
            .any(|(_, e)| e.contains("replaced")),
        "replacement recorded: {:?}",
        r.membership_events
    );
    assert!(
        r.apply_batches < r.apply_events,
        "the scheduler actually batched ({} batches / {} events)",
        r.apply_batches,
        r.apply_events
    );
    // Both relays fully drained, cursors consistent with no gaps.
    for s in 0..2 {
        assert_eq!(world.relay(s).backlog(), 0, "slave {s} drained");
        assert_eq!(
            world.relay(s).received_upto(),
            world.relay(s).applied_upto(),
            "slave {s} cursors agree"
        );
    }
    // And the replayed slave's content matches the master's exactly.
    for table in ["users", "events", "comments", "attendees", "heartbeat"] {
        let m = world.engine_mut(0).table_rows(table);
        for node in 1..=2 {
            assert_eq!(
                m,
                world.engine_mut(node).table_rows(table),
                "table {table} diverged on node {node} after mid-batch failover"
            );
        }
    }
}

#[test]
fn master_failover_mid_batch_converges_on_new_master() {
    // The master dies while every slave is group-committing row batches;
    // the promoted replica's binlog position is its last in-order-committed
    // LSN, and the survivors re-sync from it without divergence.
    use amdb::core::BackendKind;
    use amdb::core::Cluster;

    let cfg = base(60, 3)
        .backend(BackendKind::Row)
        .apply_workers(8)
        .master_fault(amdb::core::MasterFaultPlan {
            fail_at: SimDuration::from_secs(150),
            detection_delay: SimDuration::from_secs(10),
        })
        .seed(13)
        .build();
    let mut world = Cluster::new(cfg);
    world.run_timeline();

    for s in 0..3 {
        assert_eq!(world.relay(s).backlog(), 0, "slave {s} drained");
    }
    for table in ["users", "events", "comments", "attendees", "heartbeat"] {
        let m = world.engine_mut(0).table_rows(table);
        for node in 1..=3 {
            if world.engine_mut(node).is_master() {
                continue; // the deposed master's corpse
            }
            assert_eq!(
                m,
                world.engine_mut(node).table_rows(table),
                "table {table} diverged on live node {node}"
            );
        }
    }
}
