//! Cluster configuration and builder.

use amdb_cloud::net::{Region, Zone};
use amdb_cloud::CpuModel;
use amdb_cloudstone::{DataSize, MixConfig, WorkloadConfig};
use amdb_consistency::ConsistencyConfig;
use amdb_obs::telemetry::TelemetryConfig;
use amdb_obs::ObsConfig;
use amdb_repl::{BackendKind, FaultTimeline, LogStoreConfig, ReplMode};
use amdb_sim::SimDuration;
use amdb_sql::cost::CostModel;

/// Geographic placement of the slaves relative to the master, matching the
/// paper's three configurations (§III-A): *"same zone, all slaves are
/// deployed in the same Availability Zone ... of the master; different
/// zones, the slaves are in the same Region ... but in different
/// Availability Zones; different regions, all slaves are geographically
/// distributed in a different Region"*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    SameZone,
    DifferentZone,
    /// All slaves in the given foreign region (the paper shows eu-west).
    DifferentRegion(Region),
}

impl Placement {
    /// The figures' standard three configurations.
    pub const PAPER_SET: [Placement; 3] = [
        Placement::SameZone,
        Placement::DifferentZone,
        Placement::DifferentRegion(Region::EuWest1),
    ];

    /// Zone slaves are launched in, given the master's zone.
    pub fn slave_zone(self, master: Zone) -> Zone {
        match self {
            Placement::SameZone => master,
            Placement::DifferentZone => Zone::new(master.region, next_letter(master.letter)),
            Placement::DifferentRegion(r) => Zone::new(r, 'a'),
        }
    }

    /// Label used in reports ("same zone (us-west-1a)").
    pub fn label(self, master: Zone) -> String {
        match self {
            Placement::SameZone => format!("same zone ({})", master),
            Placement::DifferentZone => {
                format!("different zone ({})", self.slave_zone(master))
            }
            Placement::DifferentRegion(_) => {
                format!("different region ({})", self.slave_zone(master))
            }
        }
    }
}

fn next_letter(c: char) -> char {
    if c == 'a' {
        'b'
    } else {
        'a'
    }
}

/// Which application workload drives the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's modified Cloudstone (Web 2.0 events calendar); the
    /// read/write ratio comes from `ClusterConfig::mix`.
    Cloudstone,
    /// The TPC-W-flavoured read-mostly bookstore (Web 1.0 contrast,
    /// 95/5 fixed mix). `ClusterConfig::mix` is ignored.
    Web10,
}

/// Which balancing policy the proxy uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerKind {
    RoundRobin,
    Random,
    LeastOutstanding,
    /// The paper's suggested "smart load balancer ... based on estimated
    /// processing time".
    LatencyAware,
}

/// A planned slave failure (fault injection), for availability experiments.
/// The paper notes that replication architectures exist precisely "to enable
/// automatic failover management and ensure high availability" (§I); this
/// exercises that path.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Which slave fails (index into the initial slave list).
    pub slave: usize,
    /// When it fails (absolute simulated time).
    pub fail_at: SimDuration,
    /// If set, the slave is replaced after this much downtime: a fresh VM is
    /// launched, seeded from a master snapshot, and re-enters rotation.
    pub recover_after: Option<SimDuration>,
}

/// A planned master failure with automatic failover: the middleware detects
/// the dead master, promotes the most up-to-date slave, resynchronizes the
/// remaining slaves from the new master, and resumes writes. Writes the old
/// master committed but never replicated are lost — §II's asynchronous
/// data-loss window, which the run report counts.
#[derive(Debug, Clone)]
pub struct MasterFaultPlan {
    /// When the master fails (absolute simulated time).
    pub fail_at: SimDuration,
    /// How long detection takes before promotion starts (health-check
    /// timeouts; writes park during this window).
    pub detection_delay: SimDuration,
}

/// Per-log-replica fault injection for the shared-log backend: each of the
/// log service's replicas gets an independent, seeded schedule of
/// unreachability windows (crash and network partition look identical to
/// the appender: no ack) and slow-disk windows (stretched append service
/// time). Appends ride the backend's retry/timeout/backoff discipline
/// through the windows; durability needs only the quorum, so a single
/// faulted replica costs latency, not writes.
#[derive(Debug, Clone)]
pub struct LogFaultPlan {
    /// Mean time between unreachability windows, per replica.
    pub mtbf: SimDuration,
    /// Mean unreachability window length (heal time).
    pub mttr: SimDuration,
    /// Mean time between slow-disk windows (`None` = no slow-disk faults).
    pub slow_mtbf: Option<SimDuration>,
    /// Mean slow-disk window length.
    pub slow_mttr: SimDuration,
    /// Append service-time multiplier inside a slow-disk window.
    pub slow_factor: f64,
}

impl Default for LogFaultPlan {
    fn default() -> Self {
        Self {
            mtbf: SimDuration::from_secs(60),
            mttr: SimDuration::from_secs(2),
            slow_mtbf: None,
            slow_mttr: SimDuration::from_secs(5),
            slow_factor: 8.0,
        }
    }
}

impl LogFaultPlan {
    /// Draw one replica's fault schedule over `[0, horizon_us)`: alternating
    /// exponential up/down intervals for unreachability, and an independent
    /// slow-disk schedule when `slow_mtbf` is set. Pure function of the RNG
    /// stream — the cluster derives one stream per log replica, so schedules
    /// are independent across replicas and identical across reruns.
    pub fn timeline(&self, rng: &mut amdb_sim::Rng, horizon_us: u64) -> FaultTimeline {
        let down = draw_windows(rng, self.mtbf, self.mttr, horizon_us);
        let slow = match self.slow_mtbf {
            None => Vec::new(),
            Some(mtbf) => draw_windows(rng, mtbf, self.slow_mttr, horizon_us)
                .into_iter()
                .map(|(s, e)| (s, e, self.slow_factor))
                .collect(),
        };
        FaultTimeline::from_windows(down, slow)
    }
}

/// Alternating exp(up)/exp(down) windows until `horizon_us`. Windows are
/// sorted and disjoint by construction (time only moves forward).
fn draw_windows(
    rng: &mut amdb_sim::Rng,
    mtbf: SimDuration,
    mttr: SimDuration,
    horizon_us: u64,
) -> Vec<(u64, u64)> {
    let mut windows = Vec::new();
    let mut t = 0u64;
    loop {
        let up_us = (rng.exp(mtbf.as_secs_f64()) * 1e6).max(1.0) as u64;
        t = t.saturating_add(up_us);
        if t >= horizon_us {
            break;
        }
        let len_us = (rng.exp(mttr.as_secs_f64()) * 1e6).max(1.0) as u64;
        let end = t.saturating_add(len_us);
        windows.push((t, end));
        t = end;
    }
    windows
}

/// Application-managed autoscaling: monitor replica staleness and launch
/// additional slaves when it violates the SLO. This implements the
/// "application can have the full control in dynamically allocating ...
/// the database tier" promise of §I (and the authors' CloudDB AutoAdmin
/// companion work).
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// How often the controller evaluates the staleness SLO.
    pub check_interval: SimDuration,
    /// Scale out when any slave's observed staleness exceeds this (ms).
    pub staleness_slo_ms: f64,
    /// Hard cap on the slave count.
    pub max_slaves: usize,
    /// Time for a new replica's initial data sync before it serves reads.
    pub sync_duration: SimDuration,
    /// Minimum spacing between scale-out actions (cooldown).
    pub cooldown: SimDuration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            check_interval: SimDuration::from_secs(10),
            staleness_slo_ms: 5_000.0,
            max_slaves: 8,
            sync_duration: SimDuration::from_secs(60),
            cooldown: SimDuration::from_secs(120),
        }
    }
}

/// Full description of one benchmark run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub n_slaves: usize,
    pub placement: Placement,
    pub master_zone: Zone,
    pub mix: MixConfig,
    pub workload_kind: WorkloadKind,
    pub data_size: DataSize,
    pub workload: WorkloadConfig,
    pub mode: ReplMode,
    /// Replication backend: binlog fan-out (statement/row) or the
    /// Taurus-style shared log. `Statement` (the default) is the paper's
    /// pipeline; `Row` is the same fan-out shipping row images;
    /// `SharedLog` routes commits through a quorum-replicated log service
    /// and gates delivery on durability. The binlog format follows the
    /// backend ([`BackendKind::format`]).
    pub backend: BackendKind,
    /// Shape of the shared log service (replica count, quorum, append
    /// service time, retry policy). Ignored unless `backend == SharedLog`.
    pub log_store: LogStoreConfig,
    /// Per-log-replica fault injection. Ignored unless `backend ==
    /// SharedLog`; `None` runs a healthy log service.
    pub log_faults: Option<LogFaultPlan>,
    /// When set, slaves resynchronized from a snapshot after a master
    /// failover leave the read rotation for this long (the honest rebuild
    /// cost the binlog backends pay; a shared-log reattach skips it).
    /// `None` (the default) keeps the historical instantaneous resync —
    /// and bit-identical behaviour.
    pub failover_resync: Option<SimDuration>,
    /// Simulated apply workers per slave (1 = the classic serial SQL
    /// thread, the paper's MySQL setup). With more workers, each slave
    /// drains its relay in writeset-dependency batches planned by
    /// `amdb-apply` and amortizes per-event dispatch + commit across the
    /// batch — in-order commit keeps watermarks sequential. Only row images
    /// expose writesets, so more than one worker needs the row or shared-log
    /// backend ([`ClusterConfig::validate`] refuses statement format).
    pub apply_workers: usize,
    pub balancer: BalancerKind,
    /// Starting cursor for rotating balancers (round-robin and the
    /// tie-break cursors of least-outstanding / latency-aware), taken
    /// modulo the slave count. A sharded front sets each tree's cursor to
    /// its shard id so cold-start picks — and scatter-gather fan-out legs —
    /// do not herd onto the same slave index on every tree. 0 (the
    /// default) is the historical behaviour.
    pub balancer_start: usize,
    /// Where the clients (the emulated-user network endpoint) live.
    /// `None` (the default) places them in the master's zone, the paper's
    /// setup. A sharded front overrides this so every tree measures
    /// client hops from the *front's* zone even when its master is placed
    /// elsewhere.
    pub client_zone: Option<Zone>,
    pub cost: CostModel,
    /// Pin every slave to a specific physical host model (the §IV-A
    /// performance-variation experiment); `None` samples the fleet mix.
    pub pin_slave_host: Option<CpuModel>,
    /// Planned slave failures.
    pub faults: Vec<FaultPlan>,
    /// Planned master failure with automatic failover, if any.
    pub master_fault: Option<MasterFaultPlan>,
    /// Staleness-driven autoscaling, if enabled.
    pub autoscale: Option<AutoscaleConfig>,
    /// Observability, the one switch for the whole measurement plane:
    /// trace, metrics registry, time-series store, staleness waterfall and
    /// SLO engine (off by default — the disabled path costs a single branch
    /// per probe).
    pub obs: ObsConfig,
    /// The tree's fleet coordinates for its telemetry (causal write
    /// tracing, staleness waterfall, SLO/alert engine), which runs whenever
    /// `obs` is enabled. A sharded front stamps them; a standalone cluster
    /// keeps the default.
    pub telemetry: TelemetryConfig,
    /// Application-managed read-consistency policy. `None` (the default)
    /// runs `Eventual` — every read routes as the plain proxy routes it —
    /// and leaves the report's consistency section out.
    pub consistency: Option<ConsistencyConfig>,
    pub seed: u64,
}

impl ClusterConfig {
    /// Start building a config with paper defaults.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Reject a config that would hang the run or die late in it. The
    /// runners call this once, before anything is built.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workload.concurrent_users == 0 {
            return Err(ConfigError::ZeroUsers);
        }
        // The autoscale tick re-schedules itself `check_interval` after it
        // fires; at 0 that is the same instant, forever.
        if matches!(&self.autoscale, Some(a) if a.check_interval == SimDuration::ZERO) {
            return Err(ConfigError::ZeroAutoscaleInterval);
        }
        // "Different region" naming the master's own region would launch the
        // slaves in the master's zone under the wrong label.
        if self.placement == Placement::DifferentRegion(self.master_zone.region) {
            return Err(ConfigError::PlacementRegionIsMasters(
                self.master_zone.region,
            ));
        }
        if let Some((fault, plan)) = self
            .faults
            .iter()
            .enumerate()
            .find(|(_, plan)| plan.slave >= self.n_slaves)
        {
            return Err(ConfigError::FaultNamesMissingSlave {
                fault,
                slave: plan.slave,
                n_slaves: self.n_slaves,
            });
        }
        if self.apply_workers == 0 {
            return Err(ConfigError::ZeroApplyWorkers);
        }
        // Statement events carry no writesets: every one is a scheduling
        // barrier, so extra workers could never form a batch.
        if self.apply_workers > 1 && self.backend == BackendKind::Statement {
            return Err(ConfigError::ApplyWorkersNeedRowImages(self.backend));
        }
        if self.log_faults.is_some() && self.backend != BackendKind::SharedLog {
            return Err(ConfigError::LogFaultsWithoutSharedLog(self.backend));
        }
        if self.backend == BackendKind::SharedLog && !self.log_store.quorum_in_range() {
            return Err(ConfigError::LogQuorumOutOfRange {
                replicas: self.log_store.replicas,
                quorum: self.log_store.quorum,
            });
        }
        Ok(())
    }
}

/// Why a [`ClusterConfig`] or a `ShardedConfig` cannot be run.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `workload.concurrent_users` is zero: no op is ever issued, so the
    /// steady window measures nothing.
    ZeroUsers,
    /// `autoscale.check_interval` is zero: the autoscale tick never advances.
    ZeroAutoscaleInterval,
    /// `Placement::DifferentRegion` names the master's own region.
    PlacementRegionIsMasters(Region),
    /// `faults[fault].slave` names a slave the cluster does not start with.
    FaultNamesMissingSlave {
        fault: usize,
        slave: usize,
        n_slaves: usize,
    },
    /// `apply_workers` is zero: a slave needs at least its serial thread.
    ZeroApplyWorkers,
    /// `apply_workers > 1` under a backend whose events carry no row
    /// images, so no writeset could ever let two events apply together.
    ApplyWorkersNeedRowImages(BackendKind),
    /// `log_faults` is set but only the shared-log backend has log replicas.
    LogFaultsWithoutSharedLog(BackendKind),
    /// The shared log's `log_store.quorum` is not in `1..=replicas` (which
    /// an empty replica set makes impossible): no append could turn durable.
    LogQuorumOutOfRange { replicas: usize, quorum: usize },
    /// A sharded front over a workload other than Cloudstone: the front
    /// routes by Cloudstone's user keys.
    ShardedWorkload(WorkloadKind),
    /// `shards` is zero: a sharded world needs at least one tree.
    ZeroShards,
    /// `cross_shard_read_fraction` is not a probability.
    CrossShardReadFraction(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroUsers => write!(f, "workload.concurrent_users must be at least 1"),
            Self::ZeroAutoscaleInterval => {
                write!(f, "autoscale.check_interval must be positive")
            }
            Self::PlacementRegionIsMasters(region) => write!(
                f,
                "placement DifferentRegion({}) is the master's own region",
                region.name()
            ),
            Self::FaultNamesMissingSlave {
                fault,
                slave,
                n_slaves,
            } => write!(
                f,
                "faults[{fault}].slave = {slave} but the cluster has {n_slaves} slave(s)"
            ),
            Self::ZeroApplyWorkers => write!(f, "apply_workers must be at least 1"),
            Self::ApplyWorkersNeedRowImages(backend) => write!(
                f,
                "apply_workers > 1 needs row images (the row or shared-log backend), not {}",
                backend.name()
            ),
            Self::LogFaultsWithoutSharedLog(backend) => write!(
                f,
                "log_faults needs the shared-log backend, not {}",
                backend.name()
            ),
            Self::LogQuorumOutOfRange { replicas, quorum } => write!(
                f,
                "log_store.quorum = {quorum} is not in 1..={replicas} (log_store.replicas)"
            ),
            Self::ShardedWorkload(kind) => write!(
                f,
                "the sharded front routes the Cloudstone workload, not {kind:?}"
            ),
            Self::ZeroShards => write!(f, "shards must be at least 1"),
            Self::CrossShardReadFraction(x) => {
                write!(f, "cross_shard_read_fraction = {x} is not in [0, 1]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ClusterConfig`] with the paper's defaults.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    cfg: ClusterConfig,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        let master_zone = Zone::new(Region::UsWest1, 'a');
        Self {
            cfg: ClusterConfig {
                n_slaves: 1,
                placement: Placement::SameZone,
                master_zone,
                mix: MixConfig::RW_50_50,
                workload_kind: WorkloadKind::Cloudstone,
                data_size: DataSize::SMALL,
                workload: WorkloadConfig::paper(50),
                mode: ReplMode::Async,
                backend: BackendKind::Statement,
                log_store: LogStoreConfig::default(),
                log_faults: None,
                failover_resync: None,
                apply_workers: 1,
                balancer: BalancerKind::RoundRobin,
                balancer_start: 0,
                client_zone: None,
                cost: CostModel::default(),
                pin_slave_host: Some(CpuModel::XeonE5430),
                faults: Vec::new(),
                master_fault: None,
                autoscale: None,
                obs: ObsConfig::default(),
                telemetry: TelemetryConfig::default(),
                consistency: None,
                seed: 42,
            },
        }
    }
}

impl ClusterBuilder {
    /// Number of slave replicas.
    pub fn slaves(mut self, n: usize) -> Self {
        self.cfg.n_slaves = n;
        self
    }

    /// Geographic placement of the slaves.
    pub fn placement(mut self, p: Placement) -> Self {
        self.cfg.placement = p;
        self
    }

    /// Read/write mix.
    pub fn mix(mut self, m: MixConfig) -> Self {
        self.cfg.mix = m;
        self
    }

    /// Application workload class (Cloudstone Web 2.0 vs Web 1.0 bookstore).
    pub fn workload_kind(mut self, k: WorkloadKind) -> Self {
        self.cfg.workload_kind = k;
        self
    }

    /// Initial data size.
    pub fn data_size(mut self, s: DataSize) -> Self {
        self.cfg.data_size = s;
        self
    }

    /// Workload (users, think time, phases).
    pub fn workload(mut self, w: WorkloadConfig) -> Self {
        self.cfg.workload = w;
        self
    }

    /// Replication mode (async is the paper's setup).
    pub fn mode(mut self, m: ReplMode) -> Self {
        self.cfg.mode = m;
        self
    }

    /// Replication backend, and with it the binlog format (statement is
    /// the paper's setup; the row and shared-log backends ship row images).
    pub fn backend(mut self, b: BackendKind) -> Self {
        self.cfg.backend = b;
        self
    }

    /// Shared-log service shape (replicas, quorum, retry policy).
    pub fn log_store(mut self, c: LogStoreConfig) -> Self {
        self.cfg.log_store = c;
        self
    }

    /// Per-log-replica fault injection for the shared-log backend.
    pub fn log_faults(mut self, p: LogFaultPlan) -> Self {
        self.cfg.log_faults = Some(p);
        self
    }

    /// Charge snapshot-resynced slaves this much out-of-rotation time
    /// after a master failover (binlog backends' rebuild cost).
    pub fn failover_resync(mut self, d: SimDuration) -> Self {
        self.cfg.failover_resync = Some(d);
        self
    }

    /// Simulated apply workers per slave (1 = serial SQL thread). More than
    /// one needs a row-image [`Self::backend`] (row or shared-log):
    /// statement events carry no writesets, so [`ClusterConfig::validate`]
    /// refuses that pairing.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn apply_workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "apply requires at least one worker");
        self.cfg.apply_workers = n;
        self
    }

    /// Cost-model override.
    pub fn cost(mut self, c: CostModel) -> Self {
        self.cfg.cost = c;
        self
    }

    /// Pin slaves to a host model (None = sample the fleet; the default
    /// pins to the E5430 so sweeps are noise-free).
    pub fn pin_slave_host(mut self, m: Option<CpuModel>) -> Self {
        self.cfg.pin_slave_host = m;
        self
    }

    /// Inject a planned slave failure.
    pub fn fault(mut self, f: FaultPlan) -> Self {
        self.cfg.faults.push(f);
        self
    }

    /// Inject a master failure with automatic failover.
    pub fn master_fault(mut self, f: MasterFaultPlan) -> Self {
        self.cfg.master_fault = Some(f);
        self
    }

    /// Enable staleness-driven autoscaling.
    pub fn autoscale(mut self, a: AutoscaleConfig) -> Self {
        self.cfg.autoscale = Some(a);
        self
    }

    /// Observability configuration (tracing + metrics).
    pub fn observability(mut self, o: ObsConfig) -> Self {
        self.cfg.obs = o;
        self
    }

    /// Switch observability — and with it telemetry — on or off, keeping
    /// the rest of the [`ObsConfig`].
    pub fn telemetry_on(mut self, enabled: bool) -> Self {
        self.cfg.obs.enabled = enabled;
        self
    }

    /// Read-consistency policy for the routing tier (unset = `Eventual`).
    pub fn consistency(mut self, c: ConsistencyConfig) -> Self {
        self.cfg.consistency = Some(c);
        self
    }

    /// Master experiment seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Finish building.
    pub fn build(self) -> ClusterConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{HEARTBEAT_INTERVAL, MASTER_HOST, NTP_INTERVAL};

    #[test]
    fn placement_zones() {
        let m = Zone::new(Region::UsWest1, 'a');
        assert_eq!(Placement::SameZone.slave_zone(m), m);
        let dz = Placement::DifferentZone.slave_zone(m);
        assert_eq!(dz.region, m.region);
        assert_ne!(dz.letter, m.letter);
        let dr = Placement::DifferentRegion(Region::EuWest1).slave_zone(m);
        assert_eq!(dr.region, Region::EuWest1);
    }

    #[test]
    fn builder_defaults_match_paper() {
        let c = ClusterConfig::builder().build();
        assert_eq!(c.mode, ReplMode::Async);
        assert_eq!(c.backend, BackendKind::Statement);
        assert_eq!(
            c.apply_workers, 1,
            "serial apply thread is the paper's setup"
        );
        assert_eq!(c.master_zone.name(), "us-west-1a");
        // Fixed by the paper, so constants rather than fields.
        assert_eq!(HEARTBEAT_INTERVAL, SimDuration::from_secs(1));
        assert_eq!(NTP_INTERVAL, SimDuration::from_secs(1));
        assert_eq!(MASTER_HOST, CpuModel::XeonE5430);
        assert_eq!(c.pin_slave_host, Some(MASTER_HOST));
    }

    #[test]
    fn builder_setters_apply() {
        let c = ClusterConfig::builder()
            .slaves(7)
            .placement(Placement::DifferentRegion(Region::ApNortheast1))
            .mode(ReplMode::Sync)
            .seed(7)
            .build();
        assert_eq!(c.n_slaves, 7);
        assert_eq!(c.mode, ReplMode::Sync);
        assert_eq!(
            c.placement.slave_zone(c.master_zone).region,
            Region::ApNortheast1
        );
    }

    #[test]
    fn validate_names_each_way_a_config_cannot_run() {
        let ok = || ClusterConfig::builder().slaves(2);
        assert_eq!(ok().build().validate(), Ok(()));
        let idle = ok().workload(WorkloadConfig::quick(0)).build().validate();
        assert_eq!(idle, Err(ConfigError::ZeroUsers));
        assert_eq!(
            idle.unwrap_err().to_string(),
            "workload.concurrent_users must be at least 1"
        );
        let autoscale = |check_interval| {
            ok().autoscale(AutoscaleConfig {
                check_interval,
                ..AutoscaleConfig::default()
            })
        };
        assert_eq!(
            autoscale(SimDuration::ZERO).build().validate(),
            Err(ConfigError::ZeroAutoscaleInterval)
        );
        assert_eq!(
            autoscale(SimDuration::from_micros(1)).build().validate(),
            Ok(())
        );
        let region = |r| ok().placement(Placement::DifferentRegion(r)).build();
        assert_eq!(
            region(Region::UsWest1).validate(),
            Err(ConfigError::PlacementRegionIsMasters(Region::UsWest1))
        );
        assert_eq!(
            region(Region::UsWest1).validate().unwrap_err().to_string(),
            "placement DifferentRegion(us-west-1) is the master's own region"
        );
        assert_eq!(region(Region::EuWest1).validate(), Ok(()));
        let fault = |slave| FaultPlan {
            slave,
            fail_at: SimDuration::from_secs(60),
            recover_after: None,
        };
        let err = ok().fault(fault(1)).fault(fault(2)).build().validate();
        assert_eq!(
            err,
            Err(ConfigError::FaultNamesMissingSlave {
                fault: 1,
                slave: 2,
                n_slaves: 2
            })
        );
        assert_eq!(
            err.unwrap_err().to_string(),
            "faults[1].slave = 2 but the cluster has 2 slave(s)"
        );
        let mut no_workers = ok().build();
        no_workers.apply_workers = 0;
        assert_eq!(no_workers.validate(), Err(ConfigError::ZeroApplyWorkers));
        let workers = |backend| ok().backend(backend).apply_workers(4).build().validate();
        assert_eq!(
            workers(BackendKind::Statement),
            Err(ConfigError::ApplyWorkersNeedRowImages(
                BackendKind::Statement
            ))
        );
        assert_eq!(
            workers(BackendKind::Statement).unwrap_err().to_string(),
            "apply_workers > 1 needs row images (the row or shared-log backend), not statement"
        );
        assert_eq!(workers(BackendKind::Row), Ok(()));
        assert_eq!(workers(BackendKind::SharedLog), Ok(()));
        let faulty_log = || ok().log_faults(LogFaultPlan::default());
        assert_eq!(
            faulty_log().backend(BackendKind::Row).build().validate(),
            Err(ConfigError::LogFaultsWithoutSharedLog(BackendKind::Row))
        );
        assert_eq!(
            faulty_log()
                .backend(BackendKind::SharedLog)
                .build()
                .validate(),
            Ok(())
        );
        let log_shape = |replicas, quorum| {
            ok().log_store(LogStoreConfig {
                replicas,
                quorum,
                ..LogStoreConfig::default()
            })
        };
        for (replicas, quorum) in [(0, 0), (3, 0), (3, 4)] {
            assert_eq!(
                log_shape(replicas, quorum)
                    .backend(BackendKind::SharedLog)
                    .build()
                    .validate(),
                Err(ConfigError::LogQuorumOutOfRange { replicas, quorum })
            );
            // The binlog backends never build a log service.
            assert_eq!(log_shape(replicas, quorum).build().validate(), Ok(()));
        }
    }

    #[test]
    fn labels_are_descriptive() {
        let m = Zone::new(Region::UsWest1, 'a');
        assert!(Placement::SameZone.label(m).contains("us-west-1a"));
        assert!(Placement::DifferentZone.label(m).contains("us-west-1b"));
        assert!(Placement::DifferentRegion(Region::EuWest1)
            .label(m)
            .contains("eu-west-1a"));
    }
}
