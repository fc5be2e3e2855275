//! Integration tests for the shared-log replication backend: statement-path
//! bit-identity, quorum-gated durability, log-replica fault injection, and
//! reattach-style failover (no acked write lost, no session-state reset).

use amdb::cloudstone::{DataSize, MixConfig, WorkloadConfig};
use amdb::core::{
    run_cluster, BackendKind, ClusterConfig, ConsistencyConfig, ConsistencyPolicy, LogFaultPlan,
    LogStoreConfig, MasterFaultPlan, Placement, RunReport,
};
use amdb::sim::SimDuration;

fn base(users: u32, slaves: usize) -> amdb::core::ClusterBuilder {
    ClusterConfig::builder()
        .slaves(slaves)
        .placement(Placement::SameZone)
        .mix(MixConfig::RW_80_20)
        .data_size(DataSize { scale: 100 })
        .workload(WorkloadConfig::quick(users))
        .seed(17)
}

/// A structural fingerprint of a run: if two runs executed the same event
/// sequence, every one of these matches exactly.
fn fingerprint(r: &RunReport) -> (u64, u64, u64, String, Vec<u64>, String) {
    (
        r.sim_events,
        r.steady_ops,
        r.steady_slave_reads,
        format!("{:?}", r.latency_ms),
        r.reads_per_slave.clone(),
        format!("{:?}", r.delays),
    )
}

#[test]
fn statement_backend_is_bit_identical_to_default() {
    // The backend knob must be invisible unless opted into: an explicit
    // `--backend statement` run replays exactly the default pipeline (same
    // kernel event count, same measurements).
    let default_run = run_cluster(base(60, 2).build());
    let explicit = run_cluster(base(60, 2).backend(BackendKind::Statement).build());
    assert_eq!(fingerprint(&default_run), fingerprint(&explicit));
    assert!(default_run.shared_log.is_none());
}

#[test]
fn shared_log_run_completes_and_drains_durable() {
    let r = run_cluster(base(60, 2).backend(BackendKind::SharedLog).build());
    let sl = r.shared_log.as_ref().expect("shared-log report present");
    assert!(sl.records > 0, "writes were published to the log");
    assert_eq!(
        sl.durable_lsn, sl.published_lsn,
        "healthy log reaches quorum on everything published"
    );
    assert_eq!(sl.quorum_failures, 0, "no quorum failures without faults");
    assert_eq!(sl.ack_retries, 0, "no retries without faults");
    assert_eq!(r.lost_writes, 0);
    assert!(r.steady_ops > 0 && r.steady_writes > 0);
    // The read tier still measures replication delay through the log tail.
    assert!(r.delays.iter().any(|d| d.loaded_samples > 0));
}

#[test]
fn shared_log_slaves_converge_on_master() {
    use amdb::core::Cluster;

    let cfg = base(50, 2).backend(BackendKind::SharedLog).build();
    let mut world = Cluster::new(cfg);
    world.run_timeline();

    for s in 0..2 {
        assert_eq!(world.relay(s).backlog(), 0, "slave {s} drained");
    }
    for table in ["users", "events", "comments", "attendees", "heartbeat"] {
        let m = world.engine_mut(0).table_rows(table);
        for node in 1..=2 {
            assert_eq!(
                m,
                world.engine_mut(node).table_rows(table),
                "table {table} diverged on node {node}"
            );
        }
    }
}

#[test]
fn log_replica_faults_delay_but_never_lose_quorum_writes() {
    // Aggressive per-replica fault schedule: crashes every ~30 s plus slow
    // windows. Quorum (2/3) keeps every published write durable; the cost
    // shows up as retries/resends and longer quorum waits, not loss.
    let r = run_cluster(
        base(60, 2)
            .backend(BackendKind::SharedLog)
            .log_faults(LogFaultPlan {
                mtbf: SimDuration::from_secs(30),
                mttr: SimDuration::from_secs(5),
                slow_mtbf: Some(SimDuration::from_secs(45)),
                slow_mttr: SimDuration::from_secs(5),
                slow_factor: 8.0,
            })
            .build(),
    );
    let sl = r.shared_log.as_ref().expect("shared-log report present");
    assert!(
        sl.ack_retries > 0,
        "fault windows force transport retries: {sl:?}"
    );
    assert!(
        sl.replica_downtime_ms.iter().any(|&d| d > 0.0),
        "fault plan actually scheduled downtime"
    );
    assert_eq!(
        sl.durable_lsn, sl.published_lsn,
        "every published write reached quorum despite faults"
    );
    assert_eq!(r.lost_writes, 0, "no client-acked write lost to log faults");
    assert!(r.steady_ops > 0);
    let healthy = run_cluster(base(60, 2).backend(BackendKind::SharedLog).build());
    let h = healthy.shared_log.as_ref().unwrap();
    assert!(
        sl.quorum_wait_max_ms.unwrap_or(0.0) > h.quorum_wait_max_ms.unwrap_or(0.0),
        "faults lengthen the worst quorum wait"
    );
}

#[test]
fn shared_log_failover_reattaches_without_losing_acked_writes() {
    // Satellite regression: the master dies mid-steady — i.e. mid
    // quorum-append stream — and the promoted slave reattaches to the log
    // at the published frontier. Every client-acked write (quorum-gated, so
    // ≤ published) survives; only the master's unpublished local tail can
    // be lost, and the LSN space continues, so sessions and watermarks are
    // not reset.
    let phases = WorkloadConfig::quick(1).phases;
    let fail_at = phases.steady_start() - amdb::sim::SimTime::ZERO;
    let build = |backend| {
        base(60, 3)
            .backend(backend)
            .consistency(ConsistencyConfig::new(ConsistencyPolicy::ReadYourWrites))
            .master_fault(MasterFaultPlan {
                fail_at,
                detection_delay: SimDuration::from_secs(10),
            })
            .failover_resync(SimDuration::from_secs(30))
            .build()
    };
    let r = run_cluster(build(BackendKind::SharedLog));
    let sl = r.shared_log.as_ref().expect("shared-log report present");
    assert!(
        sl.recovery.is_some(),
        "failover recorded a log reattach: {:?}",
        r.membership_events
    );
    assert!(
        r.membership_events
            .iter()
            .any(|(_, e)| e.contains("reattach")),
        "reattach in the timeline: {:?}",
        r.membership_events
    );
    // Quorum-gated acks mean the publish frontier bounds loss; with a
    // healthy log the master publishes at commit, so nothing is lost at all.
    assert_eq!(r.lost_writes, 0, "no acked (or published) write lost");
    assert!(r.recovery_ms.is_some(), "recovery window measured");
    assert!(r.steady_writes > 0, "writes resumed on the new master");
    // Sessions survive the reattach: read-your-writes keeps routing slave
    // reads (a reset_all regression would wedge reads onto the master).
    assert!(
        r.steady_slave_reads > 0,
        "slave reads continue under read-your-writes after reattach"
    );
    let c = r.consistency.as_ref().unwrap();
    assert_eq!(c.sla_violations, 0, "read-your-writes never violated");

    // And the reattach beats the statement-path rebuild on recovery time.
    let stmt = run_cluster(build(BackendKind::Statement));
    assert!(
        r.recovery_ms.unwrap()
            < stmt
                .recovery_ms
                .expect("statement run also measured recovery"),
        "log reattach ({:.0} ms) beats snapshot rebuild ({:.0} ms)",
        r.recovery_ms.unwrap(),
        stmt.recovery_ms.unwrap()
    );
}

#[test]
fn shared_log_quorum_gates_write_latency() {
    // Slow the log service down massively: quorum waits must show up in
    // client-visible write latency (the ack is gated on durability).
    let fast = run_cluster(base(40, 1).backend(BackendKind::SharedLog).build());
    let slow = run_cluster(
        base(40, 1)
            .backend(BackendKind::SharedLog)
            .log_store(LogStoreConfig {
                append_service_us: 20_000,
                ..LogStoreConfig::default()
            })
            .build(),
    );
    let f = fast.latency_ms.as_ref().unwrap().mean;
    let s = slow.latency_ms.as_ref().unwrap().mean;
    assert!(
        s > f,
        "a 20 ms log append must raise mean op latency: {s:.2} vs {f:.2}"
    );
}

#[test]
fn reattach_delivers_the_published_but_not_yet_durable_tail() {
    // A slow log service (50 ms appends) and a fast failure detector (5 ms):
    // the master dies with a batch published but not yet quorum-acked. The
    // reattach replays that batch on the promoted slave, so the log's
    // surviving replicas must hold it — and every other slave must tail it
    // too. Dropping it used to leave a gap in their relays (a panic in debug
    // builds, silent divergence in release).
    use amdb::core::Cluster;

    let phases = WorkloadConfig::quick(1).phases;
    let cfg = base(60, 3)
        .mix(MixConfig::RW_50_50)
        .backend(BackendKind::SharedLog)
        .log_store(LogStoreConfig {
            append_service_us: 50_000,
            ..LogStoreConfig::default()
        })
        .master_fault(MasterFaultPlan {
            fail_at: phases.steady_start() - amdb::sim::SimTime::ZERO,
            detection_delay: SimDuration::from_millis(5),
        })
        .build();
    let mut world = Cluster::new(cfg);
    let events = world.run_timeline();
    let report = world.report(events);
    let sl = report.shared_log.as_ref().expect("shared-log report");
    let (_, replayed) = sl.recovery.expect("failover reattached to the log");
    assert!(
        replayed > 0,
        "the scenario must reattach past the durable frontier: {:?}",
        report.membership_events
    );
    assert_eq!(sl.durable_lsn, sl.published_lsn, "drained durable");

    let master = world.engine_mut(0).fingerprint();
    let live: Vec<usize> = (0..3)
        .filter(|s| {
            !report
                .membership_events
                .iter()
                .any(|(_, e)| e.starts_with(&format!("slave {s} promoted")))
        })
        .collect();
    assert_eq!(live.len(), 2, "one slave slot holds the dead master");
    for s in live {
        assert_eq!(world.relay(s).backlog(), 0, "slave {s} drained");
        assert_eq!(
            world.engine_mut(s + 1).fingerprint(),
            master,
            "slave {s} diverged from the master"
        );
    }
}
