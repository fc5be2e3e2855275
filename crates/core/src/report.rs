//! Run results.

use amdb_obs::metrics::Summary;

/// Replication-delay measurements for one slave.
#[derive(Debug, Clone)]
pub struct DelayReport {
    /// Trimmed-mean measured delay with no load (idle window), ms. Includes
    /// the master↔slave clock offset — the paper's baseline term.
    pub baseline_ms: Option<f64>,
    /// Trimmed-mean measured delay in the steady window, ms.
    pub loaded_ms: Option<f64>,
    /// The paper's *average relative replication delay*: loaded − baseline,
    /// which cancels the clock offset (§IV-B.1).
    pub relative_ms: Option<f64>,
    /// Heartbeats matched in the loaded window.
    pub loaded_samples: usize,
    /// Heartbeats emitted in the steady window that never applied before the
    /// drain cap (their delay exceeds the measured values).
    pub missing_samples: usize,
}

/// Consistency-layer statistics for one run (present only when the run was
/// configured with a consistency policy, `ClusterConfig::consistency`).
#[derive(Debug, Clone)]
pub struct ConsistencyReport {
    /// Active policy label (e.g. `bounded(250ms)`).
    pub policy: String,
    /// Reads the policy layer redirected to the master because live slaves
    /// existed but none qualified (distinct from the proxy's no-slave-alive
    /// fallback).
    pub redirects_master: u64,
    /// Slave-served reads whose *true* staleness at service start exceeded
    /// the bound (BoundedStaleness only) — the estimator let them through.
    pub sla_violations: u64,
    /// ... of which inside the steady window.
    pub sla_violations_steady: u64,
    /// Mean true staleness over all slave-served reads (ms).
    pub served_staleness_mean_ms: Option<f64>,
    /// Worst true staleness any slave-served read observed (ms).
    pub served_staleness_max_ms: Option<f64>,
    /// Number of slave-served reads measured.
    pub served_staleness_samples: u64,
}

impl ConsistencyReport {
    /// Share of steady-window reads that violated the staleness bound.
    pub fn violation_rate(&self, steady_reads: u64) -> f64 {
        if steady_reads == 0 {
            0.0
        } else {
            self.sla_violations_steady as f64 / steady_reads as f64
        }
    }
}

/// Shared-log service statistics for one run (present only when the run was
/// configured with `ClusterConfig::backend(BackendKind::SharedLog)`).
#[derive(Debug, Clone)]
pub struct SharedLogReport {
    /// Append batches the master published to the log service.
    pub appends: u64,
    /// Log records (binlog events) published.
    pub records: u64,
    /// Quorum-durable prefix at end of run.
    pub durable_lsn: u64,
    /// Published (appended) prefix at end of run.
    pub published_lsn: u64,
    /// Mean wait from publish to quorum durability (ms).
    pub quorum_wait_mean_ms: Option<f64>,
    /// Worst publish→quorum wait (ms).
    pub quorum_wait_max_ms: Option<f64>,
    /// Transport-level append retries (timeout + backoff re-attempts).
    pub ack_retries: u64,
    /// Application-level re-sends after the transport retry budget gave up
    /// (sustained partitions; the replica was re-fed after healing).
    pub ack_resends: u64,
    /// Appends that could not reach quorum inside the full retry budget.
    pub quorum_failures: u64,
    /// Per-log-replica scheduled downtime over the run horizon (ms).
    pub replica_downtime_ms: Vec<f64>,
    /// Failover reattach, if one happened: (reattach LSN, events replayed
    /// on the promoted slave to reach it).
    pub recovery: Option<(u64, u64)>,
}

/// The outcome of one full benchmark run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Concurrent users configured.
    pub users: u32,
    /// Number of slaves configured at launch.
    pub n_slaves: usize,
    /// Number of slaves attached at the end of the run (autoscaling may have
    /// grown it).
    pub final_slaves: usize,
    /// Membership timeline: `(t_seconds, event)` for failures, replacements
    /// and scale-outs.
    pub membership_events: Vec<(f64, String)>,
    /// Writes committed on a failed master that no surviving replica had
    /// applied — the asynchronous-replication data-loss window of §II.
    pub lost_writes: u64,
    /// Operations completed inside the steady window.
    pub steady_ops: u64,
    /// ... of which reads.
    pub steady_reads: u64,
    /// ... of which writes.
    pub steady_writes: u64,
    /// ... of the reads, how many a slave served (the rest hit the master
    /// via proxy fallback or a consistency redirect).
    pub steady_slave_reads: u64,
    /// End-to-end throughput over the steady window (operations/second) —
    /// the y-axis of Figs 2 and 3.
    pub throughput_ops_s: f64,
    /// End-to-end operation latency summary over the steady window (ms).
    pub latency_ms: Option<Summary>,
    /// Master CPU utilization over the steady window (can exceed 1.0 when
    /// offered demand outstrips capacity).
    pub master_utilization: f64,
    /// Per-slave CPU utilization over the steady window.
    pub slave_utilizations: Vec<f64>,
    /// Per-slave replication delay (Figs 5 and 6).
    pub delays: Vec<DelayReport>,
    /// Reads routed per slave by the proxy.
    pub reads_per_slave: Vec<u64>,
    /// Peak relay backlog (events) observed across slaves.
    pub peak_relay_backlog: u64,
    /// Apply batches dispatched across all slaves over the whole run.
    /// Equals [`Self::apply_events`] with the serial apply thread
    /// (`apply_workers == 1`); smaller when group commit batches events.
    pub apply_batches: u64,
    /// Binlog events applied across all slaves over the whole run.
    pub apply_events: u64,
    /// (ops issued over the whole run, 0). The second half is always 0 and
    /// stays only because the benchmark reads both; the benchmark's
    /// re-freeze shrinks this to the issued count.
    pub pool_stats: (u64, u64),
    /// Consistency-layer statistics (None unless the run opted in).
    pub consistency: Option<ConsistencyReport>,
    /// Shared-log service statistics (None unless the run used the
    /// shared-log backend).
    pub shared_log: Option<SharedLogReport>,
    /// Failure → fully-recovered window of the (single) master failover, ms.
    /// Statement backend: promotion + snapshot resync (`failover_resync`).
    /// Shared-log backend: promotion + durable-tail replay.
    pub recovery_ms: Option<f64>,
    /// Events executed by the simulation kernel (diagnostics).
    pub sim_events: u64,
}

impl RunReport {
    /// Mean relative replication delay across slaves (ms) — each sub-figure
    /// of Figs 5/6 plots this per slave count.
    pub fn avg_relative_delay_ms(&self) -> Option<f64> {
        let vals: Vec<f64> = self.delays.iter().filter_map(|d| d.relative_ms).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Highest slave utilization (the saturation indicator for slaves).
    pub fn max_slave_utilization(&self) -> f64 {
        self.slave_utilizations
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delay(rel: Option<f64>) -> DelayReport {
        DelayReport {
            baseline_ms: Some(3.0),
            loaded_ms: rel.map(|r| r + 3.0),
            relative_ms: rel,
            loaded_samples: 10,
            missing_samples: 0,
        }
    }

    #[test]
    fn avg_relative_delay_skips_missing() {
        let r = RunReport {
            users: 100,
            n_slaves: 3,
            final_slaves: 3,
            membership_events: vec![],
            lost_writes: 0,
            steady_ops: 0,
            steady_reads: 0,
            steady_writes: 0,
            steady_slave_reads: 0,
            throughput_ops_s: 0.0,
            latency_ms: None,
            master_utilization: 0.0,
            slave_utilizations: vec![0.5, 0.9, 0.2],
            delays: vec![delay(Some(10.0)), delay(None), delay(Some(20.0))],
            reads_per_slave: vec![],
            peak_relay_backlog: 0,
            apply_batches: 0,
            apply_events: 0,
            pool_stats: (0, 0),
            consistency: None,
            shared_log: None,
            recovery_ms: None,
            sim_events: 0,
        };
        assert_eq!(r.avg_relative_delay_ms(), Some(15.0));
        assert_eq!(r.max_slave_utilization(), 0.9);
    }
}
