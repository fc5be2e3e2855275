//! # amdb-core — the application-managed replicated database tier
//!
//! This crate is the paper's *system*: a master-slave replicated database
//! tier whose replicas run in virtual machines of a (simulated) public
//! cloud, fronted by a connection pool and a read/write-splitting proxy, and
//! driven by the modified Cloudstone workload — the full three-layer
//! experiment setup of §III-B, as a library.
//!
//! The main entry points:
//!
//! * [`ClusterConfig`] / [`ClusterBuilder`] — describe a deployment: number
//!   of slaves, their geographic placement, read/write mix, data size,
//!   workload, replication mode and backend, balancing policy, cost model,
//!   fault plans and the optional planes. What the paper fixes (1 s
//!   heartbeat and NTP ticks, the master's host model, network and provider
//!   calibration) is a constant, not a field;
//! * [`run_cell`] — validate a config, execute one full benchmark run (idle
//!   baseline → ramp-up → measured steady stage → ramp-down → drain) in
//!   simulated time and return a [`CellRun`]: the [`RunReport`] with
//!   end-to-end throughput, latency, per-slave replication delay (absolute
//!   and *relative*, the paper's headline staleness metric), utilizations
//!   and routing statistics, plus the bottleneck attribution and whatever
//!   `cfg.obs` switched on. [`run_cluster`] is the same run keeping the
//!   report only;
//! * [`run_sharded_cell`] — the same for N trees behind a scatter-gather
//!   front ([`ShardedConfig`]);
//! * [`Cluster`] — the simulation world itself, for callers who want to
//!   script custom timelines.
//!
//! Everything is deterministic in `ClusterConfig::seed`.

pub mod cluster;
pub mod config;
pub mod report;
pub mod sharded;
mod users;

pub use amdb_consistency::{ConsistencyConfig, ConsistencyPolicy};
pub use amdb_obs::ObsConfig;
pub use amdb_repl::{BackendKind, FaultTimeline, LogStoreConfig, RetryPolicy};
pub use amdb_telemetry::{Telemetry, TelemetryConfig};
pub use cluster::{load_template, run_cell, run_cluster, CellRun, Cluster, Template};
pub use config::{
    AutoscaleConfig, BalancerKind, ClusterBuilder, ClusterConfig, ConfigError, FaultPlan,
    LogFaultPlan, MasterFaultPlan, Placement, WorkloadKind,
};
pub use report::{ConsistencyReport, DelayReport, RunReport, SharedLogReport};
pub use sharded::{
    run_sharded_cell, run_sharded_telemetry, FleetObsBundle, ShardedConfig, ShardedReport,
};
