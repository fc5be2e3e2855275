//! Integration tests for the observability subsystem: determinism of the
//! trace export and the paper's §IV-A bottleneck-migration story as seen by
//! the bottleneck attributor.

use amdb::cloudstone::{DataSize, MixConfig, WorkloadConfig};
use amdb::core::{run_cell, CellRun, ClusterConfig, ObsConfig};
use amdb::experiments::exec::{parallel_map, Progress};
use amdb::experiments::grid::SweepOptions;
use amdb::experiments::obs_report::run_observed_cell;
use amdb::experiments::sweep::{run_sweep, SweepSpec};
use amdb::experiments::Fidelity;
use amdb::obs::Component;

fn observed_cfg(users: u32, slaves: usize, seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .slaves(slaves)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize { scale: 100 })
        .workload(WorkloadConfig::quick(users))
        .observability(ObsConfig {
            enabled: true,
            sample_interval_ms: 1_000,
            tsdb: true,
        })
        .seed(seed)
        .build()
}

fn run(cfg: ClusterConfig) -> CellRun {
    run_cell(cfg, None).expect("the config validates")
}

/// Same seed, same config ⇒ byte-identical Chrome-trace export. This is the
/// determinism contract: every record is stamped with simulated time in
/// kernel event order, and the JSON encoder is a pure function of the
/// records.
#[test]
fn same_seed_trace_exports_are_byte_identical() {
    let obs_a = run(observed_cfg(30, 2, 7)).obs;
    let obs_b = run(observed_cfg(30, 2, 7)).obs;
    let a = obs_a.chrome_trace().expect("trace a");
    let b = obs_b.chrome_trace().expect("trace b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed traces must match byte for byte");
}

/// A different seed must actually change the trace (otherwise the
/// determinism test above proves nothing).
#[test]
fn different_seed_changes_the_trace() {
    let obs_a = run(observed_cfg(30, 2, 7)).obs;
    let obs_b = run(observed_cfg(30, 2, 8)).obs;
    assert_ne!(obs_a.chrome_trace(), obs_b.chrome_trace());
}

/// The exported trace carries events from every layer of the stack.
#[test]
fn trace_covers_all_stack_layers() {
    let obs = run(observed_cfg(30, 2, 7)).obs;
    let rec = obs.recorder().expect("recorder present");
    for comp in [
        Component::Cpu,
        Component::Proxy,
        Component::Repl,
        Component::Sql,
        Component::Cluster,
    ] {
        let in_records = rec.records().any(|r| r.component() == comp);
        let in_registry = rec.registry().iter().any(|(k, _)| k.comp == comp);
        assert!(in_records || in_registry, "no events from {comp}");
    }
}

/// The parallel sweep executor is bit-compatible with the serial loop: the
/// quick fig2/fig5 and fig3/fig6 sweeps render byte-identical tables at
/// `--jobs 1` and `--jobs 4`. (The jobs count only changes wall-clock.)
#[test]
fn sweeps_are_byte_identical_across_jobs_counts() {
    // fig3/fig6's deepest quick cells (450 users × 11 slaves) cost minutes;
    // thin that grid here — `simcore_fingerprint` exercises the full quick grids.
    let mut spec36 = SweepSpec::fig3_fig6(Fidelity::Quick);
    spec36.users = vec![50, 250];
    spec36.slaves = vec![1, 5];
    for spec in [SweepSpec::fig2_fig5(Fidelity::Quick), spec36] {
        let serial = run_sweep(&spec, &SweepOptions::serial());
        let parallel = run_sweep(&spec, &SweepOptions::silent(4));
        assert_eq!(serial.len(), parallel.len(), "{}", spec.name);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.throughput.render(),
                p.throughput.render(),
                "{}: throughput table diverged between jobs=1 and jobs=4",
                spec.name
            );
            assert_eq!(
                s.delay.render(),
                p.delay.render(),
                "{}: delay table diverged between jobs=1 and jobs=4",
                spec.name
            );
        }
    }
}

/// Observed runs (trace recording on) stay deterministic when fanned across
/// the worker pool: each cell's Chrome-trace export is byte-identical to
/// the same cell run serially.
#[test]
fn observed_traces_are_byte_identical_under_parallel_executor() {
    let cells: Vec<(u32, usize, u64)> = vec![(30, 1, 7), (30, 2, 7), (40, 2, 9), (30, 2, 8)];
    let trace_of = |_: usize, &(users, slaves, seed): &(u32, usize, u64), _: &_| {
        let obs = run(observed_cfg(users, slaves, seed)).obs;
        obs.chrome_trace().expect("trace")
    };
    let serial = parallel_map(&cells, 1, &Progress::Silent, trace_of);
    let parallel = parallel_map(&cells, 4, &Progress::Silent, trace_of);
    assert_eq!(serial.len(), cells.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert!(!s.is_empty());
        assert_eq!(s, p, "cell {i}: trace bytes diverged under parallel run");
    }
}

/// §IV-A shape check on a fig2-style mini-grid: with a single slave serving
/// every read, the slave CPU saturates first; with reads spread over three
/// slaves the master (all writes + binlog shipping) becomes the bottleneck.
#[test]
fn bottleneck_migrates_from_slave_to_master() {
    let one = run_observed_cell(1, 175, 42);
    let bn = one
        .bottleneck
        .bottleneck()
        .expect("1 slave at 175 users must saturate");
    assert_eq!(bn.comp, Component::Cpu);
    assert_eq!(bn.label, "slave0 cpu", "got {}", one.bottleneck.render());

    let three = run_observed_cell(3, 175, 42);
    let bn = three
        .bottleneck
        .bottleneck()
        .expect("3 slaves at 175 users must still saturate");
    assert_eq!(bn.comp, Component::Cpu);
    assert_eq!(bn.label, "master cpu", "got {}", three.bottleneck.render());
    assert!(
        three.report.throughput_ops_s > one.report.throughput_ops_s,
        "spreading reads must lift throughput until the master caps it"
    );
}

/// Telemetry determinism: same seed ⇒ byte-identical alert timeline,
/// waterfall rendering, and Chrome-trace export (now including flow
/// events); a different seed must change the alert timeline's trace.
#[test]
fn telemetry_outputs_are_byte_identical_for_same_seed() {
    let outputs = |seed: u64| {
        let CellRun { obs, telemetry, .. } = run(observed_cfg(30, 2, seed));
        let t = telemetry.expect("obs on");
        let render = format!("{}{:?}", t.waterfall.table().render(), t.slo.alerts());
        (obs.chrome_trace().expect("trace"), render)
    };
    let (trace_a, render_a) = outputs(7);
    let (trace_b, render_b) = outputs(7);
    assert_eq!(trace_a, trace_b, "same-seed telemetry traces match");
    assert_eq!(
        render_a, render_b,
        "same-seed alert/waterfall output matches"
    );
    let (trace_c, _) = outputs(8);
    assert_ne!(trace_a, trace_c, "different seed changes the trace");
}

/// Row-format cell with a parallel apply pipeline, observability on.
fn row_apply_cfg(workers: usize, tsdb: bool, seed: u64) -> ClusterConfig {
    use amdb::core::BackendKind;
    ClusterConfig::builder()
        .slaves(2)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize { scale: 100 })
        .workload(WorkloadConfig::quick(120))
        .backend(BackendKind::Row)
        .apply_workers(workers)
        .observability(ObsConfig {
            enabled: true,
            sample_interval_ms: 1_000,
            tsdb,
        })
        .seed(seed)
        .build()
}

/// Waterfall apply legs under row-format binlog with `apply_workers > 1`:
/// the apply stamp comes from the slave-local commit of the batch (not the
/// master clock), so every end-to-end sample is non-negative and dominates
/// its apply-service sample; and adding workers can only shrink (never
/// grow) the queue and end-to-end legs.
#[test]
fn apply_waterfall_legs_shrink_with_workers() {
    use amdb::metrics::QuantileSketch;
    let mut queue_p95 = Vec::new();
    let mut e2e_p95 = Vec::new();
    let mut applied = Vec::new();
    for workers in [1usize, 2, 4] {
        let t = run(row_apply_cfg(workers, true, 11)).telemetry;
        let t = t.expect("obs on");
        let legs = t.waterfall.legs();
        assert_eq!(legs.len(), 2);
        for (s, leg) in legs.iter().enumerate() {
            assert!(
                leg.applied > 0,
                "workers={workers}: slave{s} applied nothing"
            );
            assert!(
                leg.apply_ms.count() > 0,
                "workers={workers}: no apply leg samples"
            );
            // Slave-local commit stamp: committed ≤ delivered ≤ apply_start
            // ≤ applied per writeset, so e2e ≥ apply sample for sample (the
            // 1% slack absorbs sketch bucketing).
            assert!(leg.e2e_ms.min().unwrap() >= 0.0);
            assert!(
                leg.e2e_ms.max().unwrap() >= leg.apply_ms.max().unwrap() * 0.99,
                "workers={workers} slave{s}: e2e must dominate the apply leg"
            );
        }
        let queue = QuantileSketch::merged(legs.iter().map(|l| &l.queue_ms));
        let e2e = QuantileSketch::merged(legs.iter().map(|l| &l.e2e_ms));
        queue_p95.push(queue.quantile(0.95).unwrap());
        e2e_p95.push(e2e.quantile(0.95).unwrap());
        applied.push(legs.iter().map(|l| l.applied).sum::<u64>());
    }
    for w in applied.windows(2) {
        assert_eq!(
            w[0], w[1],
            "worker count must not change how many rows apply"
        );
    }
    for (name, xs) in [("queue", &queue_p95), ("e2e", &e2e_p95)] {
        for w in xs.windows(2) {
            assert!(
                w[1] <= w[0] * 1.001,
                "{name} p95 must be monotone non-increasing in workers: {xs:?}"
            );
        }
    }
}

/// With `apply_workers > 1` the trace carries per-worker apply spans, the
/// batch flow arrows, the in-order-commit wait sketch, and the batch-bound
/// counters that attribute why each batch closed.
#[test]
fn parallel_apply_traces_carry_worker_spans_and_bounds() {
    let obs = run(row_apply_cfg(4, true, 11)).obs;
    let json = obs.chrome_trace().expect("trace");
    assert!(
        json.contains("apply_worker"),
        "per-worker apply spans present"
    );
    let rec = obs.recorder().expect("recorder");
    let reg = rec.registry();
    assert!(
        reg.iter().any(|(k, _)| k.name == "apply_commit_wait_ms"),
        "in-order-commit wait sketch present"
    );
    let bounds: u64 = [
        "apply_batch_drained",
        "apply_conflict_bounded",
        "apply_capacity_bounded",
        "apply_barrier",
    ]
    .iter()
    .map(|n| reg.counter_value(Component::Repl, 1, n) + reg.counter_value(Component::Repl, 2, n))
    .sum();
    assert!(bounds > 0, "every closed batch must name its bound");
    // The waterfall's inflight-map eviction counter is sampled as a
    // counter track, and its series is exported.
    assert!(
        rec.counter_series().keys().any(|k| k.name == "wf_evicted"),
        "pending-waterfall eviction counter sampled"
    );
}

/// The time-series store is config-gated, deterministic, and pure
/// measurement: same seed ⇒ byte-identical CSV; `tsdb: false` detaches it
/// entirely; attaching it changes no run result.
#[test]
fn tsdb_store_is_deterministic_and_config_gated() {
    let outputs = |tsdb: bool| {
        let CellRun {
            report,
            mut obs,
            bottleneck,
            telemetry,
        } = run(row_apply_cfg(4, tsdb, 11));
        let telemetry = telemetry.expect("obs on");
        let results = format!(
            "ops={} tput={:016x} delays={:?}\n{}\n{:?}",
            report.steady_ops,
            report.throughput_ops_s.to_bits(),
            report.delays,
            bottleneck.render(),
            telemetry.slo.alerts(),
        );
        (results, obs.take_tsdb())
    };
    let (results_on, a) = outputs(true);
    let (_, b) = outputs(true);
    let (a, b) = (a.expect("tsdb attached"), b.expect("tsdb attached"));
    assert!(!a.is_empty(), "the run records time-series tracks");
    assert_eq!(
        a.csv(),
        b.csv(),
        "same-seed tsdb exports match byte for byte"
    );
    let (results_off, detached) = outputs(false);
    assert!(detached.is_none(), "tsdb: false must detach the store");
    assert_eq!(
        results_on, results_off,
        "attaching the time-series store changes no result"
    );
}

/// Observability is the one switch for the whole plane: with nothing but
/// `cfg.obs.enabled`, every master write is traced through the staleness
/// waterfall (its causal arrows land in the export as flow events) and the
/// sampling tick feeds the SLO engine.
#[test]
fn observability_records_the_write_waterfall() {
    let CellRun { obs, telemetry, .. } = run(observed_cfg(30, 2, 7));
    let json = obs.chrome_trace().unwrap();
    assert!(json.contains("\"ph\":\"s\""), "flow start events present");
    assert!(json.contains("\"ph\":\"f\""), "flow end events present");
    let t = telemetry.expect("obs on");
    assert!(t.waterfall.committed > 0, "writes were traced");
    // The tick fed the SLO engine all run: throughput armed the collapse
    // rule, and the ramp-down fired it.
    let rules: Vec<&str> = t.slo.alerts().iter().map(|a| a.rule).collect();
    assert!(rules.contains(&"throughput_collapse"), "{rules:?}");
}

/// FNV-1a over every byte a run exports: its Chrome trace, its time-series
/// CSV, its report and its telemetry waterfall.
fn run_digest(cfg: ClusterConfig) -> u64 {
    let CellRun {
        report,
        mut obs,
        telemetry,
        ..
    } = run(cfg);
    fnv_parts(&[
        obs.chrome_trace().unwrap_or_default(),
        obs.take_tsdb().map(|t| t.csv()).unwrap_or_default(),
        format!("{report:?}"),
        format!("{:?}", telemetry.as_ref().map(|t| &t.waterfall)),
    ])
}

/// When slave 0 of [`bounded_row_apply_cfg`] fails and is replaced.
fn slave_fault() -> (amdb::sim::SimDuration, amdb::sim::SimDuration) {
    let steady = WorkloadConfig::quick(1).phases.steady_start() - amdb::sim::SimTime::ZERO;
    (steady, amdb::sim::SimDuration::from_secs(30))
}

/// Parallel row apply under bounded staleness, with slave 0 failing at
/// steady start and replaced 30 s later when `fault`.
fn bounded_row_apply_cfg(fault: bool) -> ClusterConfig {
    use amdb::core::{ConsistencyConfig, ConsistencyPolicy, FaultPlan};
    let mut cfg = row_apply_cfg(4, true, 7);
    cfg.consistency = Some(ConsistencyConfig::new(
        ConsistencyPolicy::BoundedStaleness { max_ms: 250.0 },
    ));
    if fault {
        let (fail_at, recover_after) = slave_fault();
        cfg.faults.push(FaultPlan {
            slave: 0,
            fail_at,
            recover_after: Some(recover_after),
        });
    }
    cfg
}

/// A replacement slave is seeded from a snapshot of the master's head, so
/// it owes the staleness waterfall nothing for the writes in flight then:
/// like the cell without the fault, the fault cell ends with only writes
/// committed after the replacement still in flight, not every write
/// committed while slave 0 was down.
#[test]
fn a_replaced_slave_leaves_no_write_trace_in_flight() {
    let (fail_at, recover_after) = slave_fault();
    let replaced_at = amdb::sim::SimTime::ZERO + fail_at + recover_after;
    for fault in [false, true] {
        let t = run(bounded_row_apply_cfg(fault)).telemetry.expect("obs on");
        let oldest = t.waterfall.oldest_inflight();
        assert!(
            oldest.is_none_or(|at| at > replaced_at),
            "fault={fault}: {} writes in flight, the oldest committed at {oldest:?}",
            t.waterfall.inflight()
        );
    }
}

/// The three plane-heavy cells whose exported bytes are pinned: (a)
/// parallel row apply under bounded staleness with a slave fault, (b) the
/// shared log with log-replica faults, a master failover, read-your-writes
/// and two apply workers, (c) the paper's serial statement cell, whose
/// `apply` spans carry no batch flows or bound counters.
fn pinned_cells() -> [ClusterConfig; 3] {
    use amdb::core::{
        BackendKind, ConsistencyConfig, ConsistencyPolicy, LogFaultPlan, MasterFaultPlan,
    };
    use amdb::sim::SimDuration;
    let steady = WorkloadConfig::quick(1).phases.steady_start() - amdb::sim::SimTime::ZERO;

    let a = bounded_row_apply_cfg(true);

    let b = ClusterConfig::builder()
        .slaves(3)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize { scale: 100 })
        .workload(WorkloadConfig::quick(60))
        .backend(BackendKind::SharedLog)
        .log_faults(LogFaultPlan {
            mtbf: SimDuration::from_secs(30),
            mttr: SimDuration::from_secs(5),
            slow_mtbf: Some(SimDuration::from_secs(45)),
            slow_mttr: SimDuration::from_secs(5),
            slow_factor: 8.0,
        })
        .master_fault(MasterFaultPlan {
            fail_at: steady,
            detection_delay: SimDuration::from_secs(10),
        })
        .consistency(ConsistencyConfig::new(ConsistencyPolicy::ReadYourWrites))
        .apply_workers(2)
        .observability(ObsConfig {
            enabled: true,
            sample_interval_ms: 1_000,
            tsdb: true,
        })
        .seed(7)
        .build();

    let c = observed_cfg(30, 2, 7);
    [a, b, c]
}

/// FNV-1a over a list of exported byte strings, each followed by `0xff`.
fn fnv_parts(parts: &[String]) -> u64 {
    parts
        .iter()
        .flat_map(|p| p.bytes().chain([0xff]))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The trace, series, report and waterfall bytes of the [`pinned_cells`].
/// The constants were recorded before the planes became values; (c)'s was
/// recorded then with telemetry switched on as well, which observability
/// now implies, and (a)'s moved once more when a replaced slave stopped
/// owing the waterfall the writes its snapshot holds. All three moved when
/// the apply stages were keyed, like commit, deliver and read, by the head
/// after each event: only the waterfall and the `writeset` flow ends
/// changed. All three moved again when the waterfall learned to waive a
/// failed master's slot: its `{:?}` prints the new `down` flags (empty in
/// (a) and (c)), and (b), whose master fails, holds 14 write traces in
/// flight at run end instead of 2 090. All three moved when the connection
/// pool left the model: the trace lost its `pool` counter tracks, and
/// nothing else changed. (a) moved once more when a failed slave's slot was
/// waived at the failure, not only at the replacement's re-seed: its
/// waterfall's `{:?}` prints `down: [false]` for the slot it cleared.
#[test]
fn plane_trace_bytes_are_pinned() {
    let digests = pinned_cells().map(run_digest);
    assert_eq!(
        digests,
        [
            0x9e64_aec0_7afc_95ec,
            0x1463_97b4_f168_4d5b,
            0x70a7_2a31_fefd_15e1
        ],
        "a plane's trace, series, report or waterfall bytes moved"
    );
}

/// The counter-series CSV (`obs_series.csv`) and the OpenMetrics
/// exposition of the [`pinned_cells`], pinned: both are derived from the
/// recorded counter samples and the registry, and neither is covered by
/// [`run_digest`]. All three moved once, when the `pool` counter tracks
/// left the trace.
#[test]
fn series_and_openmetrics_bytes_are_pinned() {
    let digests = pinned_cells().map(|cfg| {
        let obs = run(cfg).obs;
        let rec = obs.recorder().expect("obs on");
        fnv_parts(&[
            rec.series_csv(),
            amdb::obs::openmetrics_text_multi(&[("", rec)]),
        ])
    });
    assert_eq!(
        digests,
        [
            0x063b_710c_c42c_d542,
            0x13ae_e3a5_d452_0f59,
            0x57f7_eb47_f80e_84b0
        ],
        "a cell's counter-series CSV or OpenMetrics bytes moved"
    );
}

/// After a master failover the dead master sits in the promoted slave's
/// slot, where it applies and serves nothing, so the waterfall owes it no
/// stage: like its twin without the fault, pinned cell (b) ends with only
/// the writes of the load's last second, which no read followed, still in
/// flight — not every write committed after the failover.
#[test]
fn a_failed_masters_slot_leaves_no_write_trace_in_flight() {
    let [_, b, _] = pinned_cells();
    let load_end = b.workload.phases.load_end().as_micros();
    let tail_from = amdb::sim::SimTime::from_micros(load_end - 1_000_000);
    let mut twin = b.clone();
    twin.master_fault = None;
    for (fault, cfg) in [(true, b), (false, twin)] {
        let t = run(cfg).telemetry.expect("obs on");
        let oldest = t.waterfall.oldest_inflight();
        assert!(
            oldest.is_none_or(|at| at >= tail_from),
            "fault={fault}: {} writes in flight, the oldest committed at {oldest:?}",
            t.waterfall.inflight()
        );
    }
}

/// A failed slave that is never replaced applies and serves nothing more,
/// so the waterfall owes it no stage: like the cell with the replacement,
/// the cell ends with only the writes of the load's last second, which no
/// read followed, still in flight — not every write committed after the
/// failure.
#[test]
fn a_failed_slave_leaves_no_write_trace_in_flight() {
    use amdb::core::FaultPlan;
    let mut cfg = row_apply_cfg(4, true, 7);
    let (fail_at, _) = slave_fault();
    cfg.faults.push(FaultPlan {
        slave: 0,
        fail_at,
        recover_after: None,
    });
    let load_end = cfg.workload.phases.load_end().as_micros();
    let tail_from = amdb::sim::SimTime::from_micros(load_end - 1_000_000);
    let t = run(cfg).telemetry.expect("obs on");
    let oldest = t.waterfall.oldest_inflight();
    assert!(
        oldest.is_none_or(|at| at >= tail_from),
        "{} writes in flight, the oldest committed at {oldest:?}",
        t.waterfall.inflight()
    );
}
