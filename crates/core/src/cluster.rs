//! The timed cluster simulation: users → proxy → replicas, with
//! binlog shipping, apply threads, heartbeats, and NTP, all over the
//! discrete-event kernel.
//!
//! # Event flow
//!
//! Each emulated user loops: think → generate operation → proxy routes
//! (write→master, read→slave) → request travels
//! the network → the target VM executes the operation's statements when its
//! FIFO CPU reaches the job → response travels back → stats → next think.
//!
//! The user half of that loop (think, generate, stats) is the
//! `users::UserLoop`. From the proxy onward there is one chain —
//! `dispatch` → [`Job::ClientOp`] → [`ClusterEvent::ClientOpDone`] →
//! `schedule_response` — and every client operation takes it carrying its
//! user and issue time, whether this cluster's user loop or the sharded
//! front issued it ([`Origin`]).
//!
//! Master writes append binlog events; at the write's *commit* (job
//! completion) new events ship to every slave over the network (FIFO per
//! slave). A slave's relay queue feeds one apply job per event into the same
//! FIFO CPU that serves reads — the shared-resource contention that produces
//! the paper's replication-delay surge.
//!
//! Statements execute *functionally* at CPU-service start: replica tables
//! genuinely diverge until applies run, so staleness is measured from real
//! heartbeat rows, not a model. (Timestamps are therefore stamped at service
//! start rather than commit — a bounded error of one service time, identical
//! in the idle baseline and thus cancelled by the paper's relative-delay
//! metric.) Reads are *costed*, not answered: with the web tier gone, all a
//! read produces is its CPU demand, so every statement goes through
//! `Engine::examine`, which counts the rows a SELECT examines and builds no
//! result rows. Writes change the replica exactly as `execute` would.

use crate::config::{BalancerKind, ClusterConfig, ConfigError};
use crate::report::{ConsistencyReport, DelayReport, RunReport, SharedLogReport};
use crate::users::{UserLoop, WorkGen};
use amdb_cloud::clock::WALL_EPOCH_MICROS;
use amdb_cloud::net::{NetModel, Proximity, Zone};
use amdb_cloud::{CpuModel, Instance, InstanceType, Provider};
use amdb_cloudstone::{build_template, OpClass, OpGenerator, Operation, Phases};
use amdb_consistency::{
    ConsistencyConfig, ConsistencyPolicy, ReadDecision, SessionToken, WatermarkTable,
};
use amdb_obs::metrics::{trimmed_mean, OnlineStats, Summary};
use amdb_obs::telemetry::{AlertKind, SloSample, Telemetry};
use amdb_obs::{BottleneckReport, Component, FlowPhase, Obs, ResourceUsage};
use amdb_proxy::{
    Balancer, LatencyAware, LeastOutstanding, OpClass as ProxyClass, Proxy, RandomPick, RoundRobin,
    Route,
};
use amdb_repl::{
    collect_samples, AckResult, BackendKind, FaultTimeline, HeartbeatPlugin, LogStore, RelayQueue,
    ReplMode,
};
use amdb_sim::{Event, Rng, Sim, SimDuration, SimTime};
use amdb_sql::binlog::{BinlogEvent, Lsn};
use amdb_sql::cost::CostModel;
use amdb_sql::{Engine, ForkRole, Session};

pub type S = Sim<Cluster, ClusterEvent>;

/// Who issued a client operation and when. Every op carries its origin
/// through the one dispatch → service → completion chain: the user's
/// session token judges its reads and a traced write's waterfall starts at
/// `issued`, whoever ran the user loop. Only the write ack and the
/// completion look at `front`.
#[derive(Debug, Clone, Copy)]
pub struct Origin {
    /// The closed-loop user the op belongs to.
    pub user: u32,
    /// When the user issued it.
    pub issued: SimTime,
    /// The sharded front issued the op on the user's behalf, so its
    /// completion goes back to the front.
    pub front: bool,
}

/// A completed front-issued operation, reported back to the sharded front
/// router (see [`ClusterHost::notify_front`]).
#[derive(Debug, Clone, Copy)]
pub struct InjectedDone {
    /// The op's user. A closed-loop user has one op in flight, so the
    /// front correlates every leg of it by user.
    pub user: u32,
    /// Slave index that served the op, `None` for the master.
    pub routed_slave: Option<usize>,
    /// Heartbeat-observed staleness of the serving replica at response time
    /// (ms); 0 for master-served legs. The front's gather judges scatter
    /// legs against its consistency policy with exactly the signal an
    /// application-managed router would have.
    pub staleness_ms: f64,
}

/// The scheduling surface a [`Cluster`] runs against.
///
/// A standalone cluster runs directly on its own kernel ([`S`] implements
/// this by delegation). A sharded world runs N independent clusters on one
/// shared kernel — each tree sees a host that wraps its events with its
/// shard id, so every tree shares one clock and one global event order
/// (same-instant ties stay FIFO across shards, which keeps sharded runs
/// deterministic and `shards = 1` byte-identical to the standalone path).
/// Cluster code never touches the kernel directly; everything schedules
/// through this trait.
pub trait ClusterHost {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Schedule a typed cluster event at an absolute instant.
    fn schedule_event_at(&mut self, at: SimTime, ev: ClusterEvent);
    /// Deliver a completed front-issued operation back to the front
    /// router at `at`. Only a sharded host routes these; a standalone
    /// cluster has no front, so its kernel implementation is unreachable.
    fn notify_front(&mut self, at: SimTime, done: InjectedDone);

    /// Schedule a typed cluster event after a delay.
    fn schedule_event_in(&mut self, d: SimDuration, ev: ClusterEvent) {
        let at = self.now() + d;
        self.schedule_event_at(at, ev);
    }
}

impl ClusterHost for S {
    fn now(&self) -> SimTime {
        Sim::now(self)
    }

    fn schedule_event_at(&mut self, at: SimTime, ev: ClusterEvent) {
        Sim::schedule_event_at(self, at, ev);
    }

    fn notify_front(&mut self, _at: SimTime, _done: InjectedDone) {
        unreachable!("front-issued operations only exist under a sharded host");
    }
}

/// Every event a cluster can put on the agenda, by name.
///
/// The per-operation lifecycle (dispatch → service → respond → think) and
/// the replication pipeline (ship → deliver → apply) schedule several
/// events per simulated operation — millions per sweep — so payloads are a
/// few words stored inline in the agenda's slab. The control plane (ticks,
/// window markers, fault and failover choreography) carries at most a slave
/// index: intervals and plans are read from the cluster's config when the
/// event fires.
pub enum ClusterEvent {
    /// A job arrives at a node's serial queue after the client→node hop.
    EnqueueJob { node: usize, job: Job },
    /// CPU service for a client operation finished on `node_idx`.
    ClientOpDone {
        node_idx: usize,
        gen: u64,
        origin: Origin,
        class: OpClass,
        routed_slave: Option<usize>,
        trace: u64,
    },
    /// CPU service for a slave's apply batch finished.
    ApplyDone {
        node_idx: usize,
        gen: u64,
        slave: usize,
        first_lsn: Lsn,
        last_lsn: Lsn,
    },
    /// CPU service for a master housekeeping job (heartbeat) finished.
    MasterJobDone { node_idx: usize, gen: u64 },
    /// The response for a user's operation reaches the user.
    Respond {
        origin: Origin,
        class: OpClass,
        routed_slave: Option<usize>,
    },
    /// A user's think time elapsed; generate the next operation.
    UserNextOp { user: u32 },
    /// A shipped binlog batch reaches a slave's relay.
    Deliver {
        slave: usize,
        epoch: u64,
        events: Vec<BinlogEvent>,
    },
    /// A shared-log replica's append acknowledgement lands at the master
    /// (shared-log backend only; instants come from [`LogStore::append_at`]).
    LogAck { replica: usize, upto: Lsn },
    /// Periodic NTP discipline of every node (every `NTP_INTERVAL`).
    NtpTick,
    /// The master emits a heartbeat row (every `HEARTBEAT_INTERVAL`).
    HeartbeatTick,
    /// Observability sampler: one gauge record per tracked series.
    ObsSampleTick,
    /// The staleness-driven autoscaling controller evaluates its rule.
    AutoscaleTick,
    /// The steady measurement window opens.
    SteadyStart,
    /// The steady measurement window closes.
    SteadyEnd,
    /// A planned slave failure fires.
    FailSlave { slave: usize },
    /// A failed slave's replacement VM attaches.
    ReplaceSlave { slave: usize },
    /// The planned master failure fires.
    FailMaster,
    /// Failure detection elapsed: promote the most caught-up slave.
    PromoteBestSlave,
    /// A slave finished its initial sync (scale-out) or its post-failover
    /// resync and re-enters the proxy's rotation.
    SlaveInRotation { slave: usize, resynced: bool },
}

impl Event<Cluster> for ClusterEvent {
    fn fire(self, w: &mut Cluster, sim: &mut S) {
        self.fire_on(w, sim);
    }
}

impl ClusterEvent {
    /// Dispatch against any host. The standalone kernel's [`Event`] impl
    /// and the sharded world's per-tree dispatch both land here, so the two
    /// execution paths share one event semantics.
    pub(crate) fn fire_on(self, w: &mut Cluster, sim: &mut dyn ClusterHost) {
        match self {
            ClusterEvent::EnqueueJob { node, job } => w.enqueue_job(sim, node, job),
            ClusterEvent::ClientOpDone {
                node_idx,
                gen,
                origin,
                class,
                routed_slave,
                trace,
            } => w.client_op_done(sim, node_idx, gen, origin, class, routed_slave, trace),
            ClusterEvent::ApplyDone {
                node_idx,
                gen,
                slave,
                first_lsn,
                last_lsn,
            } => w.apply_done(sim, node_idx, gen, slave, first_lsn, last_lsn),
            ClusterEvent::MasterJobDone { node_idx, gen } => w.master_job_done(sim, node_idx, gen),
            ClusterEvent::Respond {
                origin,
                class,
                routed_slave,
            } => w.respond(sim, origin, class, routed_slave),
            ClusterEvent::UserNextOp { user } => w.user_next_op(sim, user),
            ClusterEvent::Deliver {
                slave,
                epoch,
                events,
            } => w.deliver(sim, slave, epoch, events),
            ClusterEvent::LogAck { replica, upto } => w.log_ack(sim, replica, upto),
            ClusterEvent::NtpTick => w.ntp_tick(sim),
            ClusterEvent::HeartbeatTick => w.heartbeat_tick(sim),
            ClusterEvent::ObsSampleTick => w.obs_sample_tick(sim),
            ClusterEvent::AutoscaleTick => w.autoscale_tick(sim),
            ClusterEvent::SteadyStart => w.steady_start(sim.now()),
            ClusterEvent::SteadyEnd => w.steady_end(sim.now()),
            ClusterEvent::FailSlave { slave } => w.fail_slave(sim, slave),
            ClusterEvent::ReplaceSlave { slave } => w.replace_slave(sim, slave),
            ClusterEvent::FailMaster => w.fail_master(sim),
            ClusterEvent::PromoteBestSlave => w.promote_best_slave(sim),
            ClusterEvent::SlaveInRotation { slave, resynced } => {
                w.slave_in_rotation(sim.now(), slave, resynced)
            }
        }
    }
}

/// One database VM: instance (CPU/clock/NTP), engine, serial job queue.
struct Node {
    inst: Instance,
    engine: Engine,
    session: Session,
    queue: std::collections::VecDeque<Job>,
    busy: bool,
    /// True when the VM has failed: it serves nothing until replaced.
    failed: bool,
    /// Slot generation: bumped whenever the node occupying this slot is
    /// replaced or swapped (failover), so completion events scheduled
    /// against the old occupant can detect they are stale.
    gen: u64,
}

impl Node {
    fn new(inst: Instance, engine: Engine) -> Self {
        Self {
            inst,
            engine,
            session: Session::new(),
            queue: std::collections::VecDeque::new(),
            busy: false,
            failed: false,
            gen: 0,
        }
    }
}

/// Work items served by a node's FIFO CPU.
pub enum Job {
    ClientOp {
        origin: Origin,
        op: Operation,
        /// Slave index the proxy routed a read to (for feedback), if any.
        routed_slave: Option<usize>,
        /// Telemetry trace id for tracked writes (0 = untracked).
        trace: u64,
    },
    /// Apply the next relay-queue event on slave `slave`.
    Apply { slave: usize },
    /// Master heartbeat insert.
    Heartbeat,
}

/// A write waiting for synchronous acknowledgements (Sync mode).
struct SyncWait {
    origin: Origin,
    routed_slave: Option<usize>,
    class: OpClass,
    /// The last LSN this write appended; a slave acks once applied past it.
    last_lsn: Lsn,
    acked: Vec<bool>,
    latest_ack: SimTime,
}

impl SyncWait {
    /// The write's response, once it is acknowledged.
    fn respond(&self) -> ClusterEvent {
        ClusterEvent::Respond {
            origin: self.origin,
            class: self.class,
            routed_slave: self.routed_slave,
        }
    }
}

/// The application-managed consistency layer: watermark table, per-user
/// session tokens, and the redirect counters. Without a configured policy
/// it runs `Eventual`, which routes reads exactly as the plain proxy does.
/// Pure bookkeeping: it schedules no events and draws no randomness of its own.
struct ConsistencyLayer {
    cfg: ConsistencyConfig,
    wm: WatermarkTable,
    /// One session token per emulated user, carried across that user's
    /// closed-loop request chain.
    sessions: Vec<SessionToken>,
    redirects_master: u64,
    sla_violations: u64,
    sla_violations_steady: u64,
    /// True staleness (vs the master binlog) of every slave-served read,
    /// measured at CPU-service start.
    served_staleness: OnlineStats,
}

impl ConsistencyLayer {
    /// The layer enforcing `cfg`'s policy, `Eventual` when it sets none.
    fn new(cfg: Option<ConsistencyConfig>, n_slaves: usize, start_seq: u64) -> Self {
        Self {
            cfg: cfg.unwrap_or(ConsistencyConfig::new(ConsistencyPolicy::Eventual)),
            wm: WatermarkTable::new(n_slaves, start_seq),
            sessions: Vec::new(),
            redirects_master: 0,
            sla_violations: 0,
            sla_violations_steady: 0,
            served_staleness: OnlineStats::new(),
        }
    }

    /// `user`'s session token, fresh until the user's first op completes. A
    /// tree behind the sharded front has no users of its own: it keeps one
    /// token per front user, met as their ops arrive.
    fn session(&mut self, user: u32) -> &mut SessionToken {
        let i = user as usize;
        if i >= self.sessions.len() {
            self.sessions.resize(i + 1, SessionToken::new());
        }
        &mut self.sessions[i]
    }
}

/// Where committed events go. Each backend decision — the published cursor
/// and fan-out width, what a commit ships, the write-ack gate, what survives
/// a failover — is one `match` on it. (One per cluster: no need to box.)
#[allow(clippy::large_enum_variant)]
enum Backend {
    /// Statement or row binlog: dump threads ship every commit to each
    /// slave's relay.
    Binlog,
    /// The shared log: commits publish to a quorum-replicated log service.
    SharedLog(SharedLogState),
}

/// Timed state of the shared-log replication backend.
///
/// The flow (Taurus-style, PAPERS.md arXiv 2412.02792): at each master
/// commit the new binlog events are *published* — appended to a
/// quorum-replicated log service whose per-replica ack instants are computed
/// analytically from precomputed [`FaultTimeline`]s. A batch is *durable*
/// when the quorum-th replica ack lands ([`Cluster::log_ack`]); only then do
/// the events deliver to the slaves' relays (slaves tail the durable
/// prefix), the consistency watermark advance, and the client write ack
/// fire. Failover is a *reattach*: the log outlives the master, so the LSN
/// space, the watermarks, and every session token survive promotion.
struct SharedLogState {
    /// Quorum protocol state over the per-replica fault schedules (drawn
    /// once at build from `root.derive("logstore")` streams). It holds both
    /// cursors — published is its append head, durable its quorum prefix —
    /// and no events: a newly durable range is read from the binlog that
    /// logged it.
    log: LogStore,
    /// Quorum instant of the most recent publish — the write-ack gate
    /// `client_op_done` reads right after `ship_new`. `None` when the last
    /// publish appended nothing.
    last_publish_quorum: Option<SimTime>,
    /// Records appended to the log.
    records: u64,
    /// Client-visible quorum wait per publish (ms), one per append batch.
    quorum_waits: OnlineStats,
    /// Set by the reattach recovery path: (reattach LSN, events replayed).
    recovery: Option<(Lsn, u64)>,
}

impl SharedLogState {
    /// The log service for `cfg`, its replicas' fault schedules drawn from
    /// `root`'s `"logstore"` streams. The binlog's pre-loaded prefix up to
    /// `shipped0` (the web10 loader's events) is durable before t=0, which
    /// aligns the log's LSN space with the binlog's.
    fn new(cfg: &ClusterConfig, root: &Rng, shipped0: Lsn) -> Self {
        let horizon_us = cfg.workload.phases.hard_end().as_micros();
        let log_rng = root.derive("logstore");
        let timelines: Vec<FaultTimeline> = (0..cfg.log_store.replicas)
            .map(|r| match &cfg.log_faults {
                None => FaultTimeline::healthy(),
                Some(plan) => {
                    let mut rng = log_rng.derive(&format!("replica{r}"));
                    plan.timeline(&mut rng, horizon_us)
                }
            })
            .collect();
        let mut log = LogStore::with_timelines(cfg.log_store, timelines);
        if shipped0.0 > 0 {
            log.append(shipped0.0);
            for rep in 0..cfg.log_store.replicas {
                log.ack(rep, shipped0);
            }
        }
        Self {
            log,
            last_publish_quorum: None,
            records: 0,
            quorum_waits: OnlineStats::new(),
            recovery: None,
        }
    }

    /// Publish the master's binlog up to `head` to the log: one timed
    /// append ([`LogStore::append_at`] computes each log replica's ack
    /// instant and the quorum instant — the write's durability point and
    /// client-ack gate), one [`ClusterEvent::LogAck`] per replica.
    fn publish(&mut self, sim: &mut dyn ClusterHost, head: Lsn, obs: &mut Obs) {
        let new = head.0 - self.log.appended_upto().0;
        if new == 0 {
            self.last_publish_quorum = None;
            return;
        }
        let now = sim.now();
        let timing = self.log.append_at(new, now.as_micros());
        self.records += new;
        for (replica, at) in timing.acks_us.iter().enumerate() {
            if let Some(at) = *at {
                let ack = ClusterEvent::LogAck {
                    replica,
                    upto: head,
                };
                sim.schedule_event_at(SimTime::from_micros(at), ack);
            }
        }
        let quorum_at = SimTime::from_micros(timing.quorum_at_us);
        self.last_publish_quorum = Some(quorum_at);
        let wait_ms = (quorum_at - now).as_millis_f64();
        self.quorum_waits.push(wait_ms);
        if obs.is_enabled() {
            let lag = head.0 - self.log.durable_upto().0;
            obs.span(Component::Repl, 0, "quorum_wait", now, quorum_at);
            obs.observe_sketch(Component::Repl, 0, "quorum_wait_ms", wait_ms);
            obs.tsdb_observe(Component::Repl, 0, "log_durable_lag", now, lag as f64);
        }
    }

    /// The run's shared-log report over a run ending at `horizon_us`.
    fn report(&self, horizon_us: u64) -> SharedLogReport {
        let acks = self.log.ack_stats();
        SharedLogReport {
            appends: self.quorum_waits.count(),
            records: self.records,
            durable_lsn: self.log.durable_upto().0,
            published_lsn: self.log.appended_upto().0,
            quorum_wait_mean_ms: self.quorum_waits.mean(),
            quorum_wait_max_ms: self.quorum_waits.max(),
            ack_retries: acks.retries,
            ack_resends: acks.resends,
            quorum_failures: acks.quorum_failures,
            replica_downtime_ms: (0..self.log.config().replicas)
                .map(|r| self.log.timeline(r).downtime_us(horizon_us) as f64 / 1_000.0)
                .collect(),
            recovery: self.recovery.map(|(lsn, replayed)| (lsn.0, replayed)),
        }
    }
}

#[derive(Default)]
struct Stats {
    peak_relay_backlog: u64,
    master_util: f64,
    slave_utils: Vec<f64>,
    /// Peak CPU queue depth per node slot over the steady window.
    steady_peak_queue: Vec<usize>,
    /// (heartbeat id, emission sim-time) pairs.
    hb_emitted: Vec<(i64, SimTime)>,
    /// Apply batches dispatched across all slaves (== events applied with
    /// serial apply; smaller when group commit batches events).
    apply_batches: u64,
    /// Binlog events applied across all slaves.
    apply_events: u64,
    /// Operations completed (responses delivered) since the run started.
    ops_completed: u64,
    /// The previous sampling tick's cumulative readings.
    sampled: Sampled,
}

/// Cumulative readings at a sampling tick, which the next tick differences
/// into the interval rates the SLO engine consumes, and the buffers the
/// tick refills in place so that it allocates nothing per tick.
#[derive(Default)]
struct Sampled {
    at: SimTime,
    /// Per-node CPU busy seconds in the current window.
    busy: Vec<f64>,
    ops: u64,
    sla_violations: u64,
    /// This tick's per-node busy seconds (swapped into `busy` at its end).
    busy_now: Vec<f64>,
    /// Per-node CPU queue depth.
    depths: Vec<usize>,
    /// True replication delay per slave (ms).
    delay_ms: Vec<f64>,
    /// Interval CPU utilization per node.
    cpu_util: Vec<f64>,
    /// Attribution rows, one per node: named when the node count changes,
    /// refilled in place every tick.
    rows: Vec<ResourceUsage>,
    /// The placement's label, computed at the first tick.
    rtt_class: String,
}

/// The paper's fixed environment (§III-B): every instance's clock is
/// NTP-disciplined once a second, the master inserts one heartbeat row a
/// second, and the master runs on one host model so its capacity is the same
/// in every cell of a sweep.
pub(crate) const NTP_INTERVAL: SimDuration = SimDuration::from_secs(1);
pub(crate) const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(1);
pub(crate) const MASTER_HOST: CpuModel = CpuModel::XeonE5430;

/// Launch one slave VM in the placement's zone, on the pinned host model when
/// the config pins one.
fn launch_slave_vm(provider: &mut Provider, cfg: &ClusterConfig) -> Instance {
    let zone = cfg.placement.slave_zone(cfg.master_zone);
    match cfg.pin_slave_host {
        Some(m) => provider.launch_on_host(zone, InstanceType::Small, m),
        None => provider.launch(zone, InstanceType::Small),
    }
}

/// Node `node`'s CPU as a bottleneck-attribution row: node 0 is the master,
/// node `s + 1` is slave `s`. The post-run report and the SLO engine's surge
/// attribution both name CPUs through it.
fn cpu_row(node: usize, utilization: f64, peak_queue: usize) -> ResourceUsage {
    ResourceUsage {
        comp: Component::Cpu,
        inst: node as u32,
        label: match node {
            0 => "master cpu".to_string(),
            n => format!("slave{} cpu", n - 1),
        },
        utilization,
        peak_queue,
    }
}

/// The simulation world for one benchmark run.
pub struct Cluster {
    cfg: ClusterConfig,
    phases: Phases,
    net: NetModel,
    cost: CostModel,
    client_zone: Zone,
    /// Node 0 is the master; nodes 1..=n are slaves.
    nodes: Vec<Node>,
    relays: Vec<RelayQueue>,
    /// Master-side shipping cursor.
    shipped_upto: Lsn,
    /// Per-slave FIFO channel clearance (preserves shipping order under
    /// jitter, like a TCP connection).
    chan_clear: Vec<SimTime>,
    proxy: Proxy,
    /// This cluster's own closed-loop users (none under a sharded front).
    users: UserLoop,
    hb: HeartbeatPlugin,
    mode: ReplMode,
    /// Writeset-dependency batch planner, shared across slaves (planning is
    /// a pure function of each relay's queue, so per-slave state is not
    /// needed). With one apply worker it plans one-event batches: the
    /// classic serial SQL thread.
    sched: amdb_apply::ApplyScheduler,
    pending_sync: Vec<SyncWait>,
    rng_ntp: Rng,
    /// Provider handle kept for dynamic slave launches (failover/autoscale).
    provider: Provider,
    /// Timeline of membership events: (time, description).
    events_log: Vec<(SimTime, String)>,
    last_scale_action: SimTime,
    /// Replication epoch: bumped on failover so deliveries from a deposed
    /// master's binlog are discarded (its LSNs would collide with the new
    /// master's fresh log).
    repl_epoch: u64,
    /// Master-routed ops parked while the master is down (failover in
    /// progress).
    awaiting_master: Vec<(Origin, Operation)>,
    /// Committed-but-unreplicated writes lost in failovers (§II data loss).
    lost_writes: u64,
    stats: Stats,
    /// Observability recorder; `Obs::Null` unless `cfg.obs.enabled`.
    obs: Obs,
    /// Consistency layer, `Eventual` unless `cfg.consistency` sets a policy.
    consistency: ConsistencyLayer,
    /// Staleness waterfall and SLO engine. Fed only with observability on:
    /// every probe site tests `obs.is_enabled()` first.
    telemetry: Telemetry,
    /// Replication backend state, after `cfg.backend`.
    backend: Backend,
    /// When the master failed (recovery-time measurement).
    master_failed_at: Option<SimTime>,
    /// Master failure → cluster fully recovered (writes accepted and every
    /// live slave back in rotation), ms. Set by the promotion paths.
    recovery_ms: Option<f64>,
}

impl Cluster {
    /// Build the world: launch instances, load + fork the database, wire the
    /// proxy and pool, but schedule nothing yet.
    pub fn new(cfg: ClusterConfig) -> Self {
        let (template, counters) = load_template(cfg.seed, cfg.data_size);
        Self::with_template(cfg, &template, counters)
    }

    /// Like [`Cluster::new`], but forks the replicas off a pre-built template
    /// database (see `amdb_cloudstone::build_template`). Sweeps load the
    /// template once per data size and reuse it across all of their runs.
    pub fn with_template(
        cfg: ClusterConfig,
        template: &Engine,
        counters: amdb_cloudstone::DataCounters,
    ) -> Self {
        let root = Rng::new(cfg.seed);
        let mut provider = Provider::with_defaults(root.derive("provider"));
        let net = NetModel::with_defaults(root.derive("net"));

        let master_zone = cfg.master_zone;
        let master_inst = provider.launch_on_host(master_zone, InstanceType::Small, MASTER_HOST);
        let master_engine = template.fork(ForkRole::Master(cfg.backend.format()));
        let mut nodes = vec![Node::new(master_inst, master_engine)];
        for _ in 0..cfg.n_slaves {
            let inst = launch_slave_vm(&mut provider, &cfg);
            nodes.push(Node::new(inst, template.fork(ForkRole::Slave)));
        }

        // `starting_at(0)` is exactly the historical default constructor;
        // a sharded front staggers each tree's cursor by its shard id.
        let cursor = cfg.balancer_start;
        let balancer: Box<dyn Balancer> = match cfg.balancer {
            BalancerKind::RoundRobin => Box::new(RoundRobin::starting_at(cursor)),
            BalancerKind::Random => Box::new(RandomPick::new(root.derive("balancer"))),
            BalancerKind::LeastOutstanding => Box::new(LeastOutstanding::starting_at(cursor)),
            BalancerKind::LatencyAware => Box::new(LatencyAware::starting_at(cursor)),
        };
        let proxy = Proxy::new(cfg.n_slaves, balancer);

        let mut shipped0 = Lsn(0);
        let gen = match cfg.workload_kind {
            crate::config::WorkloadKind::Cloudstone => {
                WorkGen::Cloudstone(OpGenerator::new(counters, root.derive("ops")))
            }
            crate::config::WorkloadKind::Web10 => {
                // Load the bookstore catalog identically on every replica
                // (same seed ⇒ identical content ⇒ "pre-loaded,
                // fully-synchronized"), then position the shipping cursor
                // past the loader's binlog events so they are not re-shipped.
                let items = 20 * cfg.data_size.scale;
                for node in &mut nodes {
                    let mut load_rng = root.derive("web10-load");
                    let mut session = Session::new();
                    amdb_cloudstone::load_web10(
                        &mut node.engine,
                        &mut session,
                        items,
                        &mut load_rng,
                    )
                    .expect("web10 catalog loads");
                }
                shipped0 = nodes[0].engine.binlog().head();
                WorkGen::Web10(amdb_cloudstone::Web10Generator::new(
                    items,
                    root.derive("web10-ops"),
                ))
            }
        };
        let phases = cfg.workload.phases;
        let n = cfg.n_slaves;
        let obs = Obs::from_config(&cfg.obs);
        let consistency = ConsistencyLayer::new(cfg.consistency, n, shipped0.0);
        let telemetry = Telemetry::new(&cfg.telemetry, n);
        let backend = match cfg.backend {
            BackendKind::SharedLog => {
                Backend::SharedLog(SharedLogState::new(&cfg, &root, shipped0))
            }
            BackendKind::Statement | BackendKind::Row => Backend::Binlog,
        };
        let users = UserLoop::new(&cfg, gen, &root);
        Self {
            backend,
            master_failed_at: None,
            recovery_ms: None,
            obs,
            consistency,
            telemetry,
            provider,
            events_log: Vec::new(),
            last_scale_action: SimTime::ZERO,
            repl_epoch: 0,
            awaiting_master: Vec::new(),
            lost_writes: 0,
            cost: cfg.cost.clone(),
            client_zone: cfg.client_zone.unwrap_or(master_zone),
            mode: cfg.mode,
            sched: amdb_apply::ApplyScheduler::new(cfg.apply_workers),
            cfg,
            phases,
            net,
            nodes,
            relays: (0..n).map(|_| RelayQueue::starting_at(shipped0)).collect(),
            shipped_upto: shipped0,
            chan_clear: vec![SimTime::ZERO; n],
            proxy,
            users,
            hb: HeartbeatPlugin::new(),
            pending_sync: Vec::new(),
            rng_ntp: root.derive("ntp"),
            stats: Stats::default(),
        }
    }

    fn slave_node(&self, slave: usize) -> usize {
        slave + 1
    }

    // ------------------------------------------------------------------
    // Timeline setup
    // ------------------------------------------------------------------

    /// Schedule the full timeline on a fresh kernel and run it until the
    /// agenda drains; returns the number of events executed.
    pub fn run_timeline(&mut self) -> u64 {
        let mut sim: S = Sim::new();
        self.schedule_timeline(&mut sim);
        sim.run(self);
        sim.events_executed()
    }

    /// Schedule the full timeline: NTP, heartbeats, users, window markers.
    pub fn schedule_timeline(&mut self, sim: &mut dyn ClusterHost) {
        // Initial NTP sync for everyone (instances boot disciplined once),
        // then the periodic chain.
        for i in 0..self.nodes.len() {
            let node = &mut self.nodes[i];
            let (clock, ntp) = (&mut node.inst.clock, &mut node.inst.ntp);
            ntp.sync(clock, SimTime::ZERO, &mut self.rng_ntp);
        }
        sim.schedule_event_in(NTP_INTERVAL, ClusterEvent::NtpTick);

        // Heartbeats from t=0 (idle baseline needs them).
        sim.schedule_event_at(SimTime::ZERO, ClusterEvent::HeartbeatTick);

        // Users, staggered over the ramp-up.
        for (at, user) in self.users.start_times() {
            sim.schedule_event_at(at, ClusterEvent::UserNextOp { user });
        }

        // Planned slave failures (availability experiments).
        for fault in &self.cfg.faults {
            let fail_at = SimTime::ZERO + fault.fail_at;
            let slave = fault.slave;
            sim.schedule_event_at(fail_at, ClusterEvent::FailSlave { slave });
            if let Some(after) = fault.recover_after {
                sim.schedule_event_at(fail_at + after, ClusterEvent::ReplaceSlave { slave });
            }
        }

        // Planned master failure with automatic failover.
        if let Some(mf) = &self.cfg.master_fault {
            let fail_at = SimTime::ZERO + mf.fail_at;
            sim.schedule_event_at(fail_at, ClusterEvent::FailMaster);
            sim.schedule_event_at(fail_at + mf.detection_delay, ClusterEvent::PromoteBestSlave);
        }

        // Staleness-driven autoscaling controller.
        if let Some(auto) = &self.cfg.autoscale {
            sim.schedule_event_in(auto.check_interval, ClusterEvent::AutoscaleTick);
        }

        // Measurement window markers.
        sim.schedule_event_at(self.phases.steady_start(), ClusterEvent::SteadyStart);
        sim.schedule_event_at(self.phases.steady_end(), ClusterEvent::SteadyEnd);

        // Observability sampler: periodic gauges for queue depths,
        // utilization, relay backlogs, and staleness.
        if self.obs.is_enabled() {
            sim.schedule_event_at(SimTime::ZERO, ClusterEvent::ObsSampleTick);
        }
    }

    fn steady_start(&mut self, now: SimTime) {
        for node in &mut self.nodes {
            node.inst.cpu.reset_window(now);
        }
        self.stats.steady_peak_queue = vec![0; self.nodes.len()];
        self.obs.instant(Component::Cluster, 0, "steady_start", now);
    }

    fn steady_end(&mut self, now: SimTime) {
        self.stats.master_util = self.nodes[0].inst.cpu.utilization(now);
        self.stats.slave_utils = self.nodes[1..]
            .iter()
            .map(|n| n.inst.cpu.utilization(now))
            .collect();
        self.obs.instant(Component::Cluster, 0, "steady_end", now);
    }

    /// The sampling tick, scheduled only with observability on. It reads
    /// each node once (queue depth, window utilization, busy time) and each
    /// slave once (relay depth, observed and true staleness, outstanding
    /// reads, relay age), and feeds those readings to the counters, the
    /// tsdb and the SLO engine, whose alert onsets land as trace instants.
    fn obs_sample_tick(&mut self, sim: &mut dyn ClusterHost) {
        let now = sim.now();
        let mut sampled = std::mem::take(&mut self.stats.sampled);
        sampled.depths.clear();
        sampled.busy_now.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            let depth = node.queue.len() + usize::from(node.busy);
            let inst = i as u32;
            self.obs
                .counter(Component::Cpu, inst, "queue_depth", now, depth as f64);
            let util = node.inst.cpu.utilization(now);
            self.obs
                .counter(Component::Cpu, inst, "utilization", now, util);
            // Curated fleet-plane series: per-node utilization drives the
            // fleet rollups, so it is opted into the time-series store.
            self.obs
                .tsdb_record(Component::Cpu, inst, "utilization", now, util);
            sampled.depths.push(depth);
            sampled
                .busy_now
                .push(node.inst.cpu.busy_in_window().as_secs_f64());
        }
        sampled.delay_ms.clear();
        for s in 0..self.relays.len() {
            let inst = s as u32;
            let depth = self.relays[s].backlog() as f64;
            self.obs
                .counter(Component::Repl, inst, "relay_depth", now, depth);
            self.obs
                .tsdb_record(Component::Repl, inst, "relay_depth", now, depth);
            let stale = self.observed_staleness_ms(s);
            self.obs
                .counter(Component::Repl, inst, "staleness_ms", now, stale);
            self.obs
                .tsdb_record(Component::Repl, inst, "staleness_ms", now, stale);
            self.obs.counter(
                Component::Proxy,
                inst,
                "outstanding",
                now,
                self.proxy.slave_status(s).outstanding as f64,
            );
            // Head-of-queue relay age: how stale is the work this slave has
            // not even started, in master wall-clock terms.
            if let Some(ts) = self.relays[s].oldest_commit_ts_micros() {
                let now_wall = self.nodes[0].inst.clock.read(now).0;
                let age_ms = (now_wall - ts).max(0) as f64 / 1000.0;
                self.obs
                    .counter(Component::Repl, inst, "relay_age_ms", now, age_ms);
                self.obs
                    .tsdb_record(Component::Repl, inst, "relay_age_ms", now, age_ms);
            }
            // Ground-truth staleness — continuous, unlike the 1 s-quantized
            // heartbeat estimate, so the surge detector sees a surge as it
            // builds rather than in heartbeat-interval steps.
            sampled
                .delay_ms
                .push(if self.nodes[self.slave_node(s)].failed {
                    0.0
                } else {
                    self.true_staleness_ms(s, now)
                });
        }
        for (s, &st) in sampled.delay_ms.iter().enumerate() {
            self.obs
                .counter(Component::Repl, s as u32, "true_staleness_ms", now, st);
        }
        // Interval rates: difference the cumulative readings against the
        // previous tick's. The steady-window reset zeroes the busy
        // accumulator; the clamp absorbs it as one idle tick. A membership
        // change (scale-out, failover) rebaselines, so new slots read zero.
        let nodes = sampled.busy_now.len();
        if sampled.busy.len() != nodes {
            sampled.busy.clone_from(&sampled.busy_now);
        }
        let elapsed = (now - sampled.at).as_secs_f64();
        let per_s = |delta: f64| if elapsed > 0.0 { delta / elapsed } else { 0.0 };
        // Attribution rows in the bottleneck report's shape and labels, so
        // a surge's attribution names the resource `bottleneck_report()` would.
        if sampled.rows.len() != nodes {
            sampled.rows = (0..nodes).map(|i| cpu_row(i, 0.0, 0)).collect();
        }
        sampled.cpu_util.clear();
        for (i, row) in sampled.rows.iter_mut().enumerate() {
            row.utilization = per_s((sampled.busy_now[i] - sampled.busy[i]).max(0.0));
            row.peak_queue = sampled.depths[i];
            sampled.cpu_util.push(row.utilization);
        }
        let ops = self.stats.ops_completed;
        let sla_violations = self.consistency.sla_violations;
        let ops_per_s = per_s((ops - sampled.ops) as f64);
        let sla_violation_rate = per_s((sla_violations - sampled.sla_violations) as f64);
        let slave_zone = self.cfg.placement.slave_zone(self.cfg.master_zone);
        let rtt_ms = 2.0
            * self
                .net
                .base_one_way(Proximity::of(self.cfg.master_zone, slave_zone))
                .as_millis_f64();
        if sampled.rtt_class.is_empty() {
            sampled.rtt_class = self.cfg.placement.label(self.cfg.master_zone);
        }
        let fired = self.telemetry.slo.observe(&SloSample {
            at: now,
            delay_ms: &sampled.delay_ms,
            cpu_util: &sampled.cpu_util,
            ops_per_s,
            sla_violation_rate,
            rows: &sampled.rows,
            rtt_ms,
            rtt_class: &sampled.rtt_class,
        });
        sampled.at = now;
        std::mem::swap(&mut sampled.busy, &mut sampled.busy_now);
        sampled.ops = ops;
        sampled.sla_violations = sla_violations;
        self.stats.sampled = sampled;
        for a in fired.iter().filter(|a| a.kind == AlertKind::Fire) {
            self.obs.instant(Component::Cluster, a.inst, a.rule, a.at);
        }
        // Cumulative FIFO-evicted waterfall traces: a flat-zero series means
        // every staleness trace survived; any rise makes silent trace loss
        // visible (and names when the fan-out outran the inflight cap).
        let evicted = self.telemetry.waterfall.evicted as f64;
        self.obs
            .counter(Component::Cluster, 0, "wf_evicted", now, evicted);
        self.obs
            .tsdb_record(Component::Cluster, 0, "wf_evicted", now, evicted);
        let interval = SimDuration::from_millis(self.cfg.obs.sample_interval_ms.max(1));
        if now + interval <= self.phases.hard_end() {
            sim.schedule_event_in(interval, ClusterEvent::ObsSampleTick);
        }
    }

    fn ntp_tick(&mut self, sim: &mut dyn ClusterHost) {
        let now = sim.now();
        for node in &mut self.nodes {
            let (clock, ntp) = (&mut node.inst.clock, &mut node.inst.ntp);
            ntp.sync(clock, now, &mut self.rng_ntp);
        }
        if now + NTP_INTERVAL <= self.phases.hard_end() {
            sim.schedule_event_in(NTP_INTERVAL, ClusterEvent::NtpTick);
        }
    }

    fn heartbeat_tick(&mut self, sim: &mut dyn ClusterHost) {
        self.enqueue_job(sim, 0, Job::Heartbeat);
        if sim.now() + HEARTBEAT_INTERVAL <= self.phases.hard_end() {
            sim.schedule_event_in(HEARTBEAT_INTERVAL, ClusterEvent::HeartbeatTick);
        }
    }

    // ------------------------------------------------------------------
    // Users
    // ------------------------------------------------------------------

    fn user_next_op(&mut self, sim: &mut dyn ClusterHost, user: u32) {
        let issued = sim.now();
        if let Some(op) = self.users.next_op(issued) {
            let origin = Origin {
                user,
                issued,
                front: false,
            };
            self.dispatch(sim, origin, op, false);
        }
    }

    /// Dispatch one client operation: route it — reads through the
    /// consistency layer — and send it to the chosen node. `pin_master`
    /// bypasses the balancer and the consistency router: the sharded
    /// front's all-legs-filtered fallback re-runs a scattered read against
    /// this tree's master, whose copy is fresh by definition.
    pub(crate) fn dispatch(
        &mut self,
        sim: &mut dyn ClusterHost,
        origin: Origin,
        op: Operation,
        pin_master: bool,
    ) {
        let class = match op.class {
            OpClass::Read => ProxyClass::Read,
            OpClass::Write => ProxyClass::Write,
        };
        let route = match class {
            _ if pin_master => Route::Master,
            ProxyClass::Write => self.proxy.route(class),
            ProxyClass::Read => {
                let layer = &mut self.consistency;
                let now_ms = sim.now().as_millis_f64();
                let session = *layer.session(origin.user);
                match layer
                    .cfg
                    .decide_read(&mut self.proxy, &layer.wm, &session, now_ms, 0.0)
                {
                    ReadDecision::Route(r) => r,
                    ReadDecision::RedirectMaster => {
                        layer.redirects_master += 1;
                        self.obs
                            .incr(Component::Proxy, 0, "consistency_redirect_master", 1);
                        Route::Master
                    }
                }
            }
        };
        let (node_idx, routed_slave) = match route {
            Route::Master => {
                if self.nodes[0].failed {
                    // Failover in progress: park until promotion completes.
                    self.awaiting_master.push((origin, op));
                    return;
                }
                self.obs.incr(Component::Proxy, 0, "routed_to_master", 1);
                (0, None)
            }
            Route::Slave(s) => {
                self.obs.incr(Component::Proxy, s as u32, "routed_reads", 1);
                (self.slave_node(s), Some(s))
            }
        };
        // Waterfall: open a causal trace for every master-routed write
        // (0 = untraced). The proxy's routing decision happens here, at
        // `sim.now()`; a write that parked for a failed master shows the
        // park as its issue → route leg.
        let master_write = op.class == OpClass::Write && routed_slave.is_none();
        let trace = if self.obs.is_enabled() && master_write {
            self.telemetry
                .waterfall
                .begin_write(origin.issued, sim.now())
        } else {
            0
        };
        let delay = self
            .net
            .delay(self.client_zone, self.nodes[node_idx].inst.zone());
        sim.schedule_event_in(
            delay,
            ClusterEvent::EnqueueJob {
                node: node_idx,
                job: Job::ClientOp {
                    origin,
                    op,
                    routed_slave,
                    trace,
                },
            },
        );
    }

    // ------------------------------------------------------------------
    // Node job queue
    // ------------------------------------------------------------------

    fn enqueue_job(&mut self, sim: &mut dyn ClusterHost, node: usize, job: Job) {
        self.nodes[node].queue.push_back(job);
        if self.phases.in_steady(sim.now()) {
            if let Some(peak) = self.stats.steady_peak_queue.get_mut(node) {
                let depth = self.nodes[node].queue.len() + usize::from(self.nodes[node].busy);
                *peak = (*peak).max(depth);
            }
        }
        self.try_start(sim, node);
    }

    fn try_start(&mut self, sim: &mut dyn ClusterHost, node_idx: usize) {
        if self.nodes[node_idx].busy {
            return;
        }
        if self.nodes[node_idx].failed {
            // A failed VM serves nothing; drop queued work. Client ops get
            // an immediate error response and retry through the proxy, which
            // has already marked this replica dead (and reset its
            // outstanding count).
            let dropped: Vec<Job> = self.nodes[node_idx].queue.drain(..).collect();
            for job in dropped {
                if let Job::ClientOp { origin, op, .. } = job {
                    self.dispatch(sim, origin, op, false);
                }
            }
            return;
        }
        let job = loop {
            let Some(job) = self.nodes[node_idx].queue.pop_front() else {
                return;
            };
            // One Apply job is enqueued per delivered event, but a group-
            // commit batch consumes several events at once; wake-ups whose
            // event was already drained by an earlier batch are skipped.
            // With serial apply batches have size 1 and this guard never
            // fires — the serial pipeline is untouched.
            if let Job::Apply { slave } = &job {
                if self.relays[*slave].peek_next().is_none() {
                    continue;
                }
            }
            break job;
        };
        self.nodes[node_idx].busy = true;
        let now = sim.now();
        let gen = self.nodes[node_idx].gen;

        match job {
            Job::ClientOp {
                origin,
                op,
                routed_slave,
                trace,
            } => {
                let done = self.start_client_service(node_idx, &op, routed_slave, trace, now);
                sim.schedule_event_at(
                    done,
                    ClusterEvent::ClientOpDone {
                        node_idx,
                        gen,
                        origin,
                        class: op.class,
                        routed_slave,
                        trace,
                    },
                );
            }
            Job::Apply { slave } => {
                // Plan the group-commit batch: a contiguous prefix of at
                // most `apply_workers` pairwise-non-conflicting events (one
                // event at a time with the serial SQL thread).
                let engine = &self.nodes[node_idx].engine;
                let pending = self.relays[slave].iter();
                let plan = self.sched.plan_batch(pending, |t| engine.pk_index_of(t));
                let batch_len = plan.len;
                let node = &mut self.nodes[node_idx];
                let now_micros = node.inst.clock.read(now).0;
                let mut results = Vec::with_capacity(batch_len);
                let mut first_lsn = Lsn(0);
                let mut last_lsn = Lsn(0);
                for i in 0..batch_len {
                    let ev = self.relays[slave]
                        .pop_next()
                        .expect("apply job implies a queued relay event");
                    // The batch applies functionally in LSN order and only
                    // becomes visible when its CPU demand completes — the
                    // in-order commit the watermarks rely on.
                    let res = node
                        .engine
                        .apply_event(&ev, now_micros)
                        .unwrap_or_else(|e| {
                            panic!("slave {slave} apply of {:?} failed: {e}", ev.lsn)
                        });
                    self.relays[slave].mark_applied(ev.lsn);
                    results.push(res);
                    if i == 0 {
                        first_lsn = ev.lsn;
                    }
                    last_lsn = ev.lsn;
                }
                self.stats.apply_batches += 1;
                self.stats.apply_events += batch_len as u64;
                // Every event's row work is charged in full; the batch
                // shares one dispatch overhead and one commit. A singleton
                // batch is float-identical to the serial path.
                let demand_us = self.cost.apply_batch_demand_us(&results);
                let done = node
                    .inst
                    .cpu
                    .submit(now, SimDuration::from_micros(demand_us.round() as u64));
                if self.obs.is_enabled() {
                    // Keyed, as commit, deliver and read are, by the binlog
                    // head after each event: its LSN + 1.
                    for key in first_lsn.0 + 1..=last_lsn.0 + 1 {
                        self.telemetry.waterfall.on_apply_start(slave, key, now);
                    }
                    self.obs
                        .span(Component::Repl, slave as u32, "apply", now, done);
                    self.obs.observe_sketch(
                        Component::Sql,
                        node_idx as u32,
                        "demand_apply_us",
                        demand_us,
                    );
                    if self.cfg.apply_workers > 1 {
                        // Parallel apply: decompose the batch into per-worker
                        // spans (one per event, real per-event demand), name
                        // what closed the batch, and measure each worker's
                        // in-order-commit wait — the time its event sat done
                        // but invisible while the batch's LSN-order commit
                        // waited on the slowest sibling.
                        let batch_id = self.stats.apply_batches;
                        let slave_u = slave as u32;
                        let bound_counter = match plan.bound {
                            amdb_apply::BatchBound::Drained => "apply_batch_drained",
                            amdb_apply::BatchBound::Conflict => "apply_conflict_bounded",
                            amdb_apply::BatchBound::Capacity => "apply_capacity_bounded",
                            amdb_apply::BatchBound::Barrier => "apply_barrier",
                        };
                        self.obs.incr(Component::Repl, slave_u, bound_counter, 1);
                        // Service start: `done` minus the batch demand (the
                        // CPU may have queued the job behind earlier work).
                        let start =
                            SimTime::from_micros(done.as_micros() - demand_us.round() as u64);
                        self.obs.flow(
                            FlowPhase::Start,
                            Component::Repl,
                            slave_u,
                            "apply_batch",
                            start,
                            batch_id,
                        );
                        for (w, res) in results.iter().enumerate() {
                            let worker_inst = slave_u * 100 + w as u32;
                            let ev_us = self.cost.apply_demand_us(res);
                            let w_end =
                                SimTime::from_micros(start.as_micros() + ev_us.round() as u64);
                            self.obs.span(
                                Component::Repl,
                                worker_inst,
                                "apply_worker",
                                start,
                                w_end,
                            );
                            self.obs.flow(
                                FlowPhase::Step,
                                Component::Repl,
                                worker_inst,
                                "apply_batch",
                                w_end,
                                batch_id,
                            );
                            let wait_ms = (done - w_end).as_millis_f64();
                            self.obs.observe_sketch(
                                Component::Repl,
                                slave_u,
                                "apply_commit_wait_ms",
                                wait_ms,
                            );
                            self.obs.tsdb_observe(
                                Component::Repl,
                                worker_inst,
                                "apply_worker_busy_us",
                                done,
                                ev_us,
                            );
                        }
                        self.obs.flow(
                            FlowPhase::End,
                            Component::Repl,
                            slave_u,
                            "apply_batch",
                            done,
                            batch_id,
                        );
                        self.obs.tsdb_observe(
                            Component::Repl,
                            slave_u,
                            "apply_batch_len",
                            done,
                            batch_len as f64,
                        );
                    }
                }
                sim.schedule_event_at(
                    done,
                    ClusterEvent::ApplyDone {
                        node_idx,
                        gen,
                        slave,
                        first_lsn,
                        last_lsn,
                    },
                );
            }
            Job::Heartbeat => {
                let (sql, params) = self.hb.next_insert();
                let id = match params[0] {
                    amdb_sql::Value::Int(i) => i,
                    _ => unreachable!(),
                };
                self.stats.hb_emitted.push((id, now));
                let (_, fanout) = self.ship_cursor();
                let node = &mut self.nodes[node_idx];
                node.session.now_micros = node.inst.clock.read(now).0;
                let res = node
                    .engine
                    .examine(&mut node.session, &sql, &params)
                    .unwrap_or_else(|e| panic!("heartbeat insert failed: {e}"));
                let demand_us = self.cost.statement_demand_us(&res, true)
                    + self.cost.commit_us
                    + self.cost.ship_demand_us() * fanout as f64;
                let done = node
                    .inst
                    .cpu
                    .submit(now, SimDuration::from_micros(demand_us.round() as u64));
                self.obs.span(Component::Repl, 0, "heartbeat", now, done);
                sim.schedule_event_at(done, ClusterEvent::MasterJobDone { node_idx, gen });
            }
        }
    }

    /// Execute an operation's statements functionally and return the total
    /// CPU demand in µs (statements + per-op commit + shipping for writes).
    /// Statements run through `Engine::examine`: the demand is all a read
    /// produces here, so its result rows are never built.
    fn exec_client_op(&mut self, node_idx: usize, op: &Operation, now: SimTime) -> f64 {
        let node = &mut self.nodes[node_idx];
        node.session.now_micros = node.inst.clock.read(now).0;
        let mut demand_us = 0.0;
        for (sql, params) in &op.statements {
            let res = node
                .engine
                .examine(&mut node.session, sql, params)
                .unwrap_or_else(|e| panic!("op '{}' failed: {e}\nSQL: {sql}", op.name));
            demand_us += self.cost.statement_demand_us(&res, res.rows_affected > 0);
        }
        if op.class == OpClass::Write {
            demand_us += self.cost.commit_us;
            let (published, fanout) = self.ship_cursor();
            let new_events = self.nodes[node_idx].engine.binlog().head().0 - published.0;
            demand_us += self.cost.ship_demand_us() * new_events as f64 * fanout as f64;
        }
        demand_us
    }

    /// The master's shipping cursor and how many streams each new event
    /// costs it. Binlog dump threads ship every event to every slave; under
    /// the shared log the master appends to the log replicas instead and
    /// slaves tail the log service, so its commit cost is independent of
    /// the slave count (the disaggregation offload).
    fn ship_cursor(&self) -> (Lsn, usize) {
        match &self.backend {
            Backend::Binlog => (self.shipped_upto, self.relays.len()),
            Backend::SharedLog(sl) => (sl.log.appended_upto(), sl.log.config().replicas),
        }
    }

    /// Begin functional service of a client operation on `node_idx`:
    /// telemetry/consistency service-start accounting, functional statement
    /// execution, and CPU submission. Returns the completion time.
    fn start_client_service(
        &mut self,
        node_idx: usize,
        op: &Operation,
        routed_slave: Option<usize>,
        trace: u64,
        now: SimTime,
    ) -> SimTime {
        // Waterfall: a slave-served read observes everything the slave has
        // applied — close the first-read leg of any write trace it newly
        // covers (service start is where statements execute functionally).
        if let (true, Some(s)) = (self.obs.is_enabled(), routed_slave) {
            let upto = self.relays[s].applied_upto().0;
            self.telemetry.waterfall.on_slave_read(s, upto, now);
        }
        // Consistency accounting: the *true* staleness a slave read
        // observes is fixed here, at service start, where statements
        // execute functionally. Pure measurement — no events, no RNG.
        if let (OpClass::Read, Some(s)) = (op.class, routed_slave) {
            let st_ms = self.true_staleness_ms(s, now);
            let layer = &mut self.consistency;
            layer.served_staleness.push(st_ms);
            if let ConsistencyPolicy::BoundedStaleness { max_ms } = layer.cfg.policy {
                if st_ms > max_ms {
                    layer.sla_violations += 1;
                    if self.phases.in_steady(now) {
                        layer.sla_violations_steady += 1;
                    }
                    self.obs
                        .incr(Component::Proxy, s as u32, "consistency_sla_violation", 1);
                }
            }
        }
        let lsn_before = if trace != 0 {
            self.nodes[node_idx].engine.binlog().head().0
        } else {
            0
        };
        let demand_us = self.exec_client_op(node_idx, op, now);
        if trace != 0 {
            let lsn_after = self.nodes[node_idx].engine.binlog().head().0;
            self.telemetry
                .waterfall
                .on_service_start(trace, now, lsn_before, lsn_after);
        }
        let done = self.nodes[node_idx]
            .inst
            .cpu
            .submit(now, SimDuration::from_micros(demand_us.round() as u64));
        if self.obs.is_enabled() {
            let (span, hist) = match op.class {
                OpClass::Read => ("serve_read", "demand_read_us"),
                OpClass::Write => ("serve_write", "demand_write_us"),
            };
            let inst = node_idx as u32;
            self.obs.span(Component::Cpu, inst, span, now, done);
            self.obs
                .observe_sketch(Component::Sql, inst, hist, demand_us);
        }
        done
    }

    // ------------------------------------------------------------------
    // Completions
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn client_op_done(
        &mut self,
        sim: &mut dyn ClusterHost,
        node_idx: usize,
        gen: u64,
        origin: Origin,
        class: OpClass,
        routed_slave: Option<usize>,
        trace: u64,
    ) {
        if self.nodes[node_idx].gen != gen {
            // The node at this slot was swapped/replaced mid-service
            // (failover). The op's functional work already happened; just
            // deliver the response so the client's loop continues.
            let now = sim.now();
            self.schedule_response(sim, now, origin, class, routed_slave);
            return;
        }
        self.nodes[node_idx].busy = false;
        let now = sim.now();

        // Session guarantees: record what this completed op established.
        // Both marks are conservative over-approximations (the serving
        // replica's watermark, not the exact rows touched).
        let seq = match (class, routed_slave) {
            (OpClass::Read, Some(s)) => self.relays[s].applied_upto().0,
            _ => self.nodes[0].engine.binlog().head().0,
        };
        let token = self.consistency.session(origin.user);
        match class {
            OpClass::Write => token.observe_write(seq),
            OpClass::Read => token.observe_read(seq),
        }

        if node_idx == 0 {
            // Waterfall: the write commits here; its binlog events become
            // visible to shipping. The flow arrow starts at the commit.
            if trace != 0 && self.telemetry.waterfall.on_commit(trace, now).is_some() {
                self.obs
                    .flow(FlowPhase::Start, Component::Cpu, 0, "writeset", now, trace);
            }
            // Master job: commit point — ship new binlog events.
            let deliveries = self.ship_new(sim);
            // A write is acknowledged when its durability setting says so;
            // `true` means that ack is now scheduled. A front write acks at
            // commit under every `ReplMode` and backend: a scatter leg
            // cannot block on per-tree acks without a front-side ack
            // protocol (DESIGN.md, "Sharding").
            if !origin.front
                && class == OpClass::Write
                && self.hold_write_ack(sim, origin, routed_slave, &deliveries)
            {
                self.try_start(sim, node_idx);
                return;
            }
        }

        self.schedule_response(sim, now, origin, class, routed_slave);
        self.try_start(sim, node_idx);
    }

    /// A user's write just committed on the master: if its acknowledgement
    /// waits on more than the commit — the shared log's quorum instant, a
    /// semi-sync receipt, or every live slave's apply — arrange that ack and
    /// return `true`. `false` means the write acks now, at commit.
    fn hold_write_ack(
        &mut self,
        sim: &mut dyn ClusterHost,
        origin: Origin,
        routed_slave: Option<usize>,
        deliveries: &[(usize, SimTime)],
    ) -> bool {
        let (now, class) = (sim.now(), OpClass::Write);
        // Shared-log backend: a write is acknowledged at its quorum
        // instant, whatever the ReplMode — durability lives in the log
        // service, not in slave receipt/apply acks.
        if let Backend::SharedLog(SharedLogState {
            last_publish_quorum: Some(q_at),
            ..
        }) = self.backend
        {
            self.schedule_response(sim, q_at, origin, class, routed_slave);
            return true;
        }
        match self.mode {
            ReplMode::SemiSync if !deliveries.is_empty() => {
                // Respond when the first receipt ack returns.
                let mut first_ack = SimTime::from_micros(u64::MAX);
                for &(s, d) in deliveries {
                    let back = self
                        .net
                        .delay(self.nodes[self.slave_node(s)].inst.zone(), self.client_zone);
                    first_ack = first_ack.min(d + back);
                }
                let at = first_ack.max(now);
                sim.schedule_event_at(
                    at,
                    ClusterEvent::Respond {
                        origin,
                        class,
                        routed_slave,
                    },
                );
                true
            }
            ReplMode::Sync if !self.relays.is_empty() => {
                // Respond when every live slave has applied this write.
                let last_lsn = Lsn(self.shipped_upto.0.saturating_sub(1));
                let mut acked = vec![false; self.relays.len()];
                // Slaves that have already applied past it (possible for
                // read-only ops that logged nothing) ack immediately;
                // failed slaves cannot be waited on.
                for (s, r) in self.relays.iter().enumerate() {
                    if r.applied_upto() > last_lsn || self.nodes[s + 1].failed {
                        acked[s] = true;
                    }
                }
                if acked.iter().all(|&a| a) {
                    self.schedule_response(sim, now, origin, class, routed_slave);
                } else {
                    self.pending_sync.push(SyncWait {
                        origin,
                        routed_slave,
                        class,
                        last_lsn,
                        acked,
                        latest_ack: now,
                    });
                }
                true
            }
            _ => false,
        }
    }

    /// Send a finished op's completion back to its client, leaving the
    /// serving replica at `at` and crossing the replica→client network hop.
    fn schedule_response(
        &mut self,
        sim: &mut dyn ClusterHost,
        at: SimTime,
        origin: Origin,
        class: OpClass,
        routed_slave: Option<usize>,
    ) {
        let from = match routed_slave {
            Some(s) => self.nodes[self.slave_node(s)].inst.zone(),
            None => self.nodes[0].inst.zone(),
        };
        let back = self.net.delay(from, self.client_zone);
        let respond_at = at.max(sim.now()) + back;
        if origin.front {
            // The front runs the user loop: hand the completion to it, with
            // the serving replica's heartbeat-observed staleness — exactly
            // the signal an application-managed router would have to judge
            // a scatter leg by.
            let staleness_ms = routed_slave.map_or(0.0, |s| self.observed_staleness_ms(s));
            let done = InjectedDone {
                user: origin.user,
                routed_slave,
                staleness_ms,
            };
            sim.notify_front(respond_at, done);
        } else {
            // A user's response re-enters this cluster's own user loop.
            let respond = ClusterEvent::Respond {
                origin,
                class,
                routed_slave,
            };
            sim.schedule_event_at(respond_at, respond);
        }
    }

    fn respond(
        &mut self,
        sim: &mut dyn ClusterHost,
        origin: Origin,
        class: OpClass,
        routed_slave: Option<usize>,
    ) {
        let (now, Origin { user, issued, .. }) = (sim.now(), origin);
        self.note_response(routed_slave, (now - issued).as_millis_f64());
        let think = self
            .users
            .complete(now, class, issued, routed_slave.is_some());
        sim.schedule_event_in(think, ClusterEvent::UserNextOp { user });
    }

    /// A response reached its client `latency_ms` after the op was issued,
    /// served by slave `routed_slave` (`None`: the master): feedback to the
    /// balancer and, with observability on, the completed-op count the SLO
    /// engine samples plus the client latency sketch. The sharded front
    /// calls this on the serving tree once per leg.
    pub(crate) fn note_response(&mut self, routed_slave: Option<usize>, latency_ms: f64) {
        if let Some(s) = routed_slave {
            self.proxy.read_done(s, latency_ms);
        }
        if self.obs.is_enabled() {
            self.stats.ops_completed += 1;
            // Bounded-memory client latency percentiles per serving replica
            // (instance 0 = master, s+1 = slave s), alongside the exact
            // steady-window sample vector kept for the final report.
            let inst = routed_slave.map_or(0, |s| s as u32 + 1);
            self.obs
                .observe_sketch(Component::Proxy, inst, "client_latency_ms", latency_ms);
        }
    }

    fn master_job_done(&mut self, sim: &mut dyn ClusterHost, node_idx: usize, gen: u64) {
        if self.nodes[node_idx].gen != gen {
            return; // deposed master's heartbeat: nothing to ship
        }
        self.nodes[node_idx].busy = false;
        self.ship_new(sim);
        self.try_start(sim, node_idx);
    }

    fn apply_done(
        &mut self,
        sim: &mut dyn ClusterHost,
        node_idx: usize,
        gen: u64,
        slave: usize,
        first_lsn: Lsn,
        last_lsn: Lsn,
    ) {
        if self.nodes[node_idx].gen != gen {
            return; // slot re-occupied since this apply started
        }
        self.nodes[node_idx].busy = false;
        // Waterfall: the whole batch commits here, in LSN order — close the
        // apply and end-to-end legs of every event in it, and end each flow
        // arrow. (Serial apply: a one-event range, exactly the old shape.)
        if self.obs.is_enabled() {
            let now = sim.now();
            for key in first_lsn.0 + 1..=last_lsn.0 + 1 {
                if let Some(trace) = self.telemetry.waterfall.on_applied(slave, key, now) {
                    self.obs.flow(
                        FlowPhase::End,
                        Component::Repl,
                        slave as u32,
                        "writeset",
                        now,
                        trace,
                    );
                }
            }
        }
        // The slave's SQL thread finished one batch: advance its watermark.
        // After a failover reset the relay's own cursor (not the in-flight
        // job's old-epoch LSN) is authoritative.
        let seq = self.relays[slave].applied_upto().0;
        self.consistency.wm.note_applied(slave, seq, 0.0, false);
        // Sync-mode acks.
        if self.mode == ReplMode::Sync && !self.pending_sync.is_empty() {
            let now = sim.now();
            let back = self
                .net
                .delay(self.nodes[node_idx].inst.zone(), self.client_zone);
            let mut completed = Vec::new();
            for (i, wait) in self.pending_sync.iter_mut().enumerate() {
                if !wait.acked[slave] && last_lsn >= wait.last_lsn {
                    wait.acked[slave] = true;
                    wait.latest_ack = wait.latest_ack.max(now + back);
                    if wait.acked.iter().all(|&a| a) {
                        completed.push(i);
                    }
                }
            }
            for i in completed.into_iter().rev() {
                let wait = self.pending_sync.swap_remove(i);
                sim.schedule_event_at(wait.latest_ack.max(now), wait.respond());
            }
        }
        self.try_start(sim, node_idx);
    }

    // ------------------------------------------------------------------
    // Shipping
    // ------------------------------------------------------------------

    /// Ship all unshipped binlog events to every slave. Returns the
    /// per-slave delivery times of this batch.
    ///
    /// Under the shared-log backend this instead *publishes* the new events
    /// to the log service and returns no deliveries — slaves receive the
    /// batch when its quorum forms (see [`Self::log_ack`]).
    fn ship_new(&mut self, sim: &mut dyn ClusterHost) -> Vec<(usize, SimTime)> {
        let head = self.nodes[0].engine.binlog().head();
        if let Backend::SharedLog(sl) = &mut self.backend {
            sl.publish(sim, head, &mut self.obs);
            return Vec::new();
        }
        // GTID-style watermarks: stamp every newly committed sequence with
        // the commit (= ship-point) time. Monotone no-op when nothing is new.
        self.consistency
            .wm
            .note_master_seq(head.0, sim.now().as_millis_f64());
        if head == self.shipped_upto || self.relays.is_empty() {
            self.shipped_upto = head;
            return Vec::new();
        }
        let events: Vec<BinlogEvent> = self.nodes[0].engine.binlog_from(self.shipped_upto).to_vec();
        self.shipped_upto = head;
        let master_zone = self.nodes[0].inst.zone();
        self.fan_out(sim, master_zone, events)
    }

    /// Send `events` from `from` to every live slave's relay, each over its
    /// FIFO channel; returns the per-slave delivery times. Both backends
    /// ship through here — the binlog ones at commit, the shared log at
    /// quorum — so the watermark, waterfall and apply-scheduler planes see
    /// the same [`ClusterEvent::Deliver`] → apply pipeline either way.
    fn fan_out(
        &mut self,
        sim: &mut dyn ClusterHost,
        from: Zone,
        mut events: Vec<BinlogEvent>,
    ) -> Vec<(usize, SimTime)> {
        // A failed slave has no I/O thread to ship to; its replacement
        // resyncs (binlog) or reattaches via its relay cursor (shared log).
        let failed = |w: &Self, s: usize| w.nodes[w.slave_node(s)].failed;
        // The last receiver takes the batch itself, the others a clone.
        let last = (0..self.relays.len()).rev().find(|&s| !failed(self, s));
        let mut deliveries = Vec::with_capacity(self.relays.len());
        for s in 0..self.relays.len() {
            if failed(self, s) {
                continue;
            }
            let zone = self.nodes[self.slave_node(s)].inst.zone();
            // FIFO channel: batches may not overtake each other.
            let at = (sim.now() + self.net.delay(from, zone)).max(self.chan_clear[s]);
            self.chan_clear[s] = at;
            deliveries.push((s, at));
            let events = if Some(s) == last {
                std::mem::take(&mut events)
            } else {
                events.clone()
            };
            sim.schedule_event_at(
                at,
                ClusterEvent::Deliver {
                    slave: s,
                    epoch: self.repl_epoch,
                    events,
                },
            );
        }
        deliveries
    }

    fn deliver(
        &mut self,
        sim: &mut dyn ClusterHost,
        slave: usize,
        epoch: u64,
        events: Vec<BinlogEvent>,
    ) {
        if epoch != self.repl_epoch {
            return; // shipped by a master deposed since; its log is void
        }
        // A replaced slave's relay silently discards duplicates from
        // deliveries that were in flight before the failure; apply jobs are
        // enqueued only for events actually accepted.
        let before = self.relays[slave].queued();
        let recv_before = self.relays[slave].received_upto().0;
        self.relays[slave].receive(events);
        let n = self.relays[slave].queued() - before;
        // Waterfall: each newly accepted event reached this slave's relay —
        // close the network leg of its trace and step the flow arrow.
        if self.obs.is_enabled() && n > 0 {
            let now = sim.now();
            let recv_after = self.relays[slave].received_upto().0;
            for lsn in (recv_before + 1)..=recv_after {
                if let Some(trace) = self.telemetry.waterfall.on_deliver(slave, lsn, now) {
                    self.obs.flow(
                        FlowPhase::Step,
                        Component::Repl,
                        slave as u32,
                        "writeset",
                        now,
                        trace,
                    );
                }
            }
        }
        self.stats.peak_relay_backlog = self
            .stats
            .peak_relay_backlog
            .max(self.relays[slave].backlog());
        self.obs.gauge(
            Component::Repl,
            slave as u32,
            "relay_backlog",
            self.relays[slave].backlog() as f64,
        );
        let node_idx = self.slave_node(slave);
        for _ in 0..n {
            self.enqueue_job(sim, node_idx, Job::Apply { slave });
        }
    }

    // ------------------------------------------------------------------
    // Shared-log backend: publish → quorum → tail delivery
    // ------------------------------------------------------------------

    /// A log replica's ack lands: advance the quorum state machine, and
    /// when the durable prefix moves, release the newly durable events.
    fn log_ack(&mut self, sim: &mut dyn ClusterHost, replica: usize, upto: Lsn) {
        // Only a shared-log publish schedules log acks.
        let Backend::SharedLog(sl) = &mut self.backend else {
            return;
        };
        let was = sl.log.durable_upto();
        let result = sl.log.ack(replica, upto);
        let counter = match result {
            AckResult::Durable(_) => "log_ack_durable",
            AckResult::Pending => "log_ack_pending",
            AckResult::DuplicateIgnored => "log_ack_duplicate",
            AckResult::LateAfterQuorum => "log_ack_late",
            AckResult::ReplicaDown => "log_ack_lost",
        };
        self.obs.incr(Component::Repl, replica as u32, counter, 1);
        if let AckResult::Durable(durable) = result {
            self.release_durable(sim, 0, was, durable);
        }
    }

    /// The log's durable prefix moved from `was` to `durable`: stamp the
    /// consistency watermark (quorum durability is the master sequence under
    /// this backend) and deliver the range to every live slave's relay (the
    /// log tail the read replicas follow). The log service holds no events
    /// of its own; node `holder`'s binlog logged the range — the master's,
    /// or at a reattach the dead master's.
    fn release_durable(
        &mut self,
        sim: &mut dyn ClusterHost,
        holder: usize,
        was: Lsn,
        durable: Lsn,
    ) {
        let now = sim.now();
        self.consistency
            .wm
            .note_master_seq(durable.0, now.as_millis_f64());
        if self.obs.is_enabled() {
            self.obs.tsdb_observe(
                Component::Repl,
                0,
                "log_durable_upto",
                now,
                durable.0 as f64,
            );
        }
        if self.relays.is_empty() {
            return;
        }
        let range = (durable.0 - was.0) as usize;
        let events = self.nodes[holder].engine.binlog_from(was)[..range].to_vec();
        // The log service lives in the master's zone (the paper's placement
        // keeps the write path local; cross-zone cost falls on the tails).
        self.fan_out(sim, self.cfg.master_zone, events);
    }

    // ------------------------------------------------------------------
    // Membership: failures, replacement, autoscaling
    // ------------------------------------------------------------------

    /// Failover swapped or re-seeded the node at `node` under its queue:
    /// push the queued client ops back through the proxy (their clients
    /// would hang otherwise). Queued apply and heartbeat jobs belong to the
    /// old replication stream and are dropped.
    fn redispatch_queue(&mut self, sim: &mut dyn ClusterHost, node: usize) {
        let orphans: Vec<Job> = self.nodes[node].queue.drain(..).collect();
        for job in orphans {
            if let Job::ClientOp {
                origin,
                op,
                routed_slave,
                ..
            } = job
            {
                if let Some(rs) = routed_slave {
                    self.proxy.read_done(rs, 1.0);
                }
                self.dispatch(sim, origin, op, false);
            }
        }
    }

    /// Kill slave `s`: it stops serving reads and applying writesets.
    fn fail_slave(&mut self, sim: &mut dyn ClusterHost, s: usize) {
        let node_idx = self.slave_node(s);
        if self.nodes[node_idx].failed {
            return;
        }
        self.nodes[node_idx].failed = true;
        self.proxy.set_alive(s, false);
        self.obs
            .instant(Component::Cluster, s as u32, "slave_failed", sim.now());
        self.events_log
            .push((sim.now(), format!("slave {s} failed")));
        // The failed VM applies and serves nothing more: the waterfall owes
        // it no stage until a replacement re-seeds the slot.
        if self.obs.is_enabled() {
            self.telemetry.waterfall.on_slot_down(s);
        }
        // Drain its queue now (in-flight CPU job, if any, still completes —
        // modelling responses already on the wire).
        self.try_start(sim, node_idx);
    }

    /// Launch a slave VM and seed it from a snapshot of the master as of
    /// `now`: fork the master's engine, start the relay at its binlog head
    /// (replication resumes from there), clear the channel, start the
    /// watermark. `slot` re-seeds that slave, one generation on; `None`
    /// appends a new one. Returns the head.
    fn seed_slave_from_master(&mut self, now: SimTime, slot: Option<usize>) -> Lsn {
        let inst = launch_slave_vm(&mut self.provider, &self.cfg);
        let mut node = Node::new(inst, self.nodes[0].engine.fork(ForkRole::Slave));
        let head = self.nodes[0].engine.binlog().head();
        let relay = RelayQueue::starting_at(head);
        match slot {
            Some(s) => {
                let node_idx = self.slave_node(s);
                node.gen = self.nodes[node_idx].gen + 1;
                self.nodes[node_idx] = node;
                self.relays[s] = relay;
                self.chan_clear[s] = now;
                self.consistency.wm.reset_slave(s, head.0);
            }
            None => {
                self.nodes.push(node);
                self.relays.push(relay);
                self.chan_clear.push(now);
                self.consistency.wm.push_slave(head.0);
            }
        }
        head
    }

    /// Replace a failed slave: launch a fresh VM in the same zone, seed it
    /// from a master snapshot, and re-enter rotation after the initial sync.
    fn replace_slave(&mut self, sim: &mut dyn ClusterHost, s: usize) {
        let head = self.seed_slave_from_master(sim.now(), Some(s));
        if self.obs.is_enabled() {
            self.telemetry.waterfall.on_reseed(s);
        }
        self.obs
            .instant(Component::Cluster, s as u32, "slave_replaced", sim.now());
        self.events_log.push((
            sim.now(),
            format!("slave {s} replaced (resync from {head})"),
        ));
        // It can serve reads immediately: the snapshot is current as of now.
        self.proxy.set_alive(s, true);
    }

    /// Kill the master. Writes start parking; reads keep flowing to slaves
    /// (stale, as async replication promises). Sync/semi-sync writes still
    /// waiting for acks are answered immediately (their commit outcome on
    /// the dead master is already fixed; clients observe an error-and-retry
    /// as a completed interaction here).
    fn fail_master(&mut self, sim: &mut dyn ClusterHost) {
        if self.nodes[0].failed {
            return;
        }
        self.nodes[0].failed = true;
        self.master_failed_at = Some(sim.now());
        self.obs
            .instant(Component::Cluster, 0, "master_failed", sim.now());
        self.events_log.push((sim.now(), "master failed".into()));
        let now = sim.now();
        for wait in std::mem::take(&mut self.pending_sync) {
            sim.schedule_event_at(now, wait.respond());
        }
        // Drop queued master work (heartbeats pause; client writes that were
        // already queued re-enter dispatch and park).
        self.try_start(sim, 0);
    }

    /// Automatic failover: promote the most up-to-date live slave to master
    /// and release the parked writes. What is lost, how the new master
    /// catches up and what is reset differ by backend: the binlog backends
    /// rebuild every slave from the new master (`rebuild_from_master`), the
    /// shared log reattaches to the log (`reattach_from_log`).
    fn promote_best_slave(&mut self, sim: &mut dyn ClusterHost) {
        debug_assert!(self.nodes[0].failed, "promotion without a dead master");
        let Some(best) = (0..self.relays.len())
            .filter(|&s| !self.nodes[self.slave_node(s)].failed)
            .max_by_key(|&s| self.relays[s].applied_upto())
        else {
            return; // no live slave to promote; writes stay parked
        };
        let now = sim.now();

        // §II data loss: everything the old master logged beyond what
        // survives it is gone. Binlog backends keep what the promoted slave
        // had applied. The shared log keeps everything published to it:
        // writes the dead master committed locally but never published were
        // never client-acked either (the quorum gate fires after publish).
        let survives = match &self.backend {
            Backend::Binlog => self.relays[best].applied_upto(),
            Backend::SharedLog(sl) => sl.log.appended_upto(),
        };
        let old_head = self.nodes[0].engine.binlog().head();
        self.lost_writes += old_head.0.saturating_sub(survives.0);

        // Swap the promoted node into slot 0; the dead master takes its
        // slave slot (and stays failed until/unless replaced). Both slots'
        // generations bump so completion events for jobs that were in
        // flight across the swap detect they are stale; the promotion
        // restarts service on both slots (busy flags reset, queues
        // re-dispatched below).
        let best_node = self.slave_node(best);
        self.nodes.swap(0, best_node);
        self.nodes[0].gen += 1;
        self.nodes[0].failed = false;
        self.nodes[0].busy = false;
        self.nodes[best_node].gen += 1;
        self.nodes[best_node].busy = false;
        self.proxy.set_alive(best, false); // that slot now holds the corpse

        // The promoted node's queued work (it was serving reads) and the
        // corpse's queued work both re-enter dispatch.
        for node in [0usize, best_node] {
            self.redispatch_queue(sim, node);
        }

        let (recovered_at, probe, line) = match &mut self.backend {
            Backend::Binlog => self.rebuild_from_master(sim, best),
            Backend::SharedLog(sl) => {
                // The surviving log replicas hold everything published, so
                // it all turns durable (acks still in flight for it land as
                // duplicates).
                let was = sl.log.durable_upto();
                for r in 0..sl.log.config().replicas {
                    sl.log.ack(r, survives);
                }
                let replayed = survives.0 - self.relays[best].applied_upto().0;
                sl.recovery = Some((survives, replayed));
                self.reattach_from_log(sim, best, was, survives, replayed)
            }
        };
        // Slot `best` now holds the corpse, which applies and serves
        // nothing: the waterfall owes it no stage until a replacement.
        if self.obs.is_enabled() {
            self.telemetry.waterfall.on_slot_down(best);
        }
        if let Some(failed_at) = self.master_failed_at.take() {
            self.recovery_ms = Some((recovered_at - failed_at).as_millis_f64());
        }
        self.obs
            .instant(Component::Cluster, best as u32, probe, now);
        self.events_log.push((now, line));

        // Release parked writes.
        for (origin, op) in std::mem::take(&mut self.awaiting_master) {
            self.dispatch(sim, origin, op, false);
        }
    }

    /// Binlog failover, after slave `best` took slot 0: a new replication
    /// stream — fresh binlog, fresh epoch — and every live slave resyncs
    /// from a snapshot of the new master. Returns when the cluster has
    /// recovered, the trace instant's name and the membership line.
    fn rebuild_from_master(
        &mut self,
        sim: &mut dyn ClusterHost,
        best: usize,
    ) -> (SimTime, &'static str, String) {
        self.nodes[0]
            .engine
            .promote_to_master(self.cfg.backend.format());
        // The old sequence space is void, and with it every session
        // guarantee (lost writes cannot be read-your-writes'd back into
        // existence).
        self.consistency.wm.reset_all(0);
        for token in &mut self.consistency.sessions {
            token.reset();
        }
        self.repl_epoch += 1;
        self.shipped_upto = Lsn(0);
        // The old sequence space is void — drop every trace keyed on it.
        if self.obs.is_enabled() {
            self.telemetry.waterfall.on_epoch_reset(self.relays.len());
        }
        for s in 0..self.relays.len() {
            self.relays[s] = RelayQueue::starting_at(Lsn(0));
            self.chan_clear[s] = sim.now();
            let node = self.slave_node(s);
            if !self.nodes[node].failed {
                let snapshot = self.nodes[0].engine.fork(ForkRole::Slave);
                self.nodes[node].engine = snapshot;
                self.redispatch_queue(sim, node);
            }
        }
        // Honest rebuild cost: while a slave resyncs from the new master's
        // snapshot it cannot serve reads. `failover_resync` models the
        // snapshot-transfer + catch-up window (None keeps the historical
        // instant-resync behaviour and its committed baselines).
        let mut recovered_at = sim.now();
        if let Some(resync) = self.cfg.failover_resync {
            for s in 0..self.relays.len() {
                let node = self.slave_node(s);
                if s != best && !self.nodes[node].failed {
                    recovered_at = sim.now() + resync;
                    self.proxy.set_alive(s, false);
                    self.events_log
                        .push((sim.now(), format!("slave {s} out of rotation (resync)")));
                    sim.schedule_event_in(
                        resync,
                        ClusterEvent::SlaveInRotation {
                            slave: s,
                            resynced: true,
                        },
                    );
                }
            }
        }
        let line = format!(
            "slave {best} promoted to master ({} write event(s) lost)",
            self.lost_writes
        );
        (recovered_at, "slave_promoted", line)
    }

    /// Shared-log failover, after slave `best` took slot 0 and the log made
    /// everything up to `published` durable (it was durable up to `was`):
    /// *reattach* the new master (`replayed` events behind) at `published`. The log — not
    /// the dead master — is the database: everything published survives,
    /// the LSN space continues, and therefore the watermark table, session
    /// tokens and replication epoch all survive too — no snapshot resync, no
    /// `reset_all`. Returns when the cluster has recovered, the trace
    /// instant's name and the membership line.
    fn reattach_from_log(
        &mut self,
        sim: &mut dyn ClusterHost,
        best: usize,
        was: Lsn,
        published: Lsn,
        replayed: u64,
    ) -> (SimTime, &'static str, String) {
        let now = sim.now();
        let corpse = self.slave_node(best);
        // Published but not yet quorum-acked at the failure: the other
        // slaves tail it like any durable range.
        if published > was {
            self.release_durable(sim, corpse, was, published);
        }

        // Catch the promoted slave up from the log: the tail
        // [applied_upto(best), published) replays from the corpse's binlog
        // (same record bytes the log holds — the sim keeps one copy), then
        // the new master's binlog continues the LSN space at `published`.
        let applied = self.relays[best].applied_upto();
        let tail = self.nodes[corpse].engine.binlog_from(applied)[..replayed as usize].to_vec();
        let mut replay_demand_us = 0.0;
        let now_micros = self.nodes[0].inst.clock.read(now).0;
        for ev in &tail {
            let res = self.nodes[0]
                .engine
                .apply_event(ev, now_micros)
                .unwrap_or_else(|e| panic!("reattach replay of {:?} failed: {e}", ev.lsn));
            replay_demand_us += self.cost.apply_demand_us(&res);
        }
        self.nodes[0]
            .engine
            .promote_to_master_at(self.cfg.backend.format(), published);
        // Charge the replay to the new master's CPU: the parked writes
        // released after this queue behind it on the FIFO core, exactly the
        // recovery window the experiments measure.
        let replay_done = if replay_demand_us > 0.0 {
            self.nodes[0].inst.cpu.submit(
                now,
                SimDuration::from_micros(replay_demand_us.round() as u64),
            )
        } else {
            now
        };

        // Slot `best` now holds the dead node; its relay and watermark
        // restart when a replacement attaches. No global reset: the LSN
        // space lives.
        self.relays[best] = RelayQueue::starting_at(published);
        self.chan_clear[best] = now;
        self.consistency.wm.reset_slave(best, published.0);
        let line = format!(
            "slave {best} promoted via log reattach at lsn {} ({replayed} event(s) replayed, {} lost)",
            published.0, self.lost_writes
        );
        (replay_done, "slave_reattached", line)
    }

    /// Launch an additional slave (scale-out).
    fn add_slave(&mut self, sim: &mut dyn ClusterHost, sync_duration: SimDuration) {
        self.seed_slave_from_master(sim.now(), None);
        let s = self.proxy.add_slave();
        debug_assert_eq!(s + 2, self.nodes.len(), "proxy and node lists in step");
        if self.obs.is_enabled() {
            self.telemetry.waterfall.ensure_slaves(self.relays.len());
        }
        self.obs
            .instant(Component::Cluster, s as u32, "slave_launched", sim.now());
        self.events_log
            .push((sim.now(), format!("slave {s} launched (autoscale)")));
        // Serve reads once the initial sync window elapses.
        sim.schedule_event_in(
            sync_duration,
            ClusterEvent::SlaveInRotation {
                slave: s,
                resynced: false,
            },
        );
    }

    /// Slave `s` serves reads again: its initial sync (scale-out) or its
    /// post-failover resync window elapsed.
    fn slave_in_rotation(&mut self, now: SimTime, s: usize, resynced: bool) {
        self.proxy.set_alive(s, true);
        let what = if resynced {
            "resynced, in rotation"
        } else {
            "in rotation"
        };
        self.events_log.push((now, format!("slave {s} {what}")));
    }

    /// Observed staleness of slave `s` in milliseconds, estimated from the
    /// heartbeat stream: how far behind the newest issued heartbeat its
    /// applied heartbeats are. This is exactly the signal an
    /// application-managed controller can compute from its own tables.
    fn observed_staleness_ms(&self, s: usize) -> f64 {
        let issued = self.hb.issued();
        if issued == 0 {
            return 0.0;
        }
        // Applied heartbeats = rows in the slave's heartbeat table.
        let applied = self.nodes[self.slave_node(s)]
            .engine
            .table_rows("heartbeat")
            .unwrap_or(0) as i64;
        let behind = (issued - applied).max(0) as f64;
        behind * HEARTBEAT_INTERVAL.as_millis_f64()
    }

    /// The *true* staleness of slave `s` right now (ms): the age of the
    /// oldest master-committed writeset it has not applied, 0 when fully
    /// caught up. Unlike `observed_staleness_ms` (heartbeat granularity,
    /// application-visible) this reads the master binlog directly — it is
    /// the ground truth the watermark estimator is judged against, and it
    /// sees writesets still in flight to the relay. Commit timestamps are
    /// master-clock stamps mapped back to sim time; the clock offset is
    /// tens of ms, bounded and identical across a sweep.
    fn true_staleness_ms(&self, s: usize, now: SimTime) -> f64 {
        let applied = self.relays[s].applied_upto();
        match self.nodes[0].engine.binlog_from(applied).first() {
            None => 0.0,
            Some(ev) => {
                let sim_us = (ev.commit_ts_micros - WALL_EPOCH_MICROS).max(0) as u64;
                let committed = SimTime::from_micros(sim_us);
                if now > committed {
                    (now - committed).as_millis_f64()
                } else {
                    0.0
                }
            }
        }
    }

    fn autoscale_tick(&mut self, sim: &mut dyn ClusterHost) {
        let now = sim.now();
        if now < self.phases.load_end() {
            let auto = self
                .cfg
                .autoscale
                .clone()
                .expect("AutoscaleTick is only scheduled with an autoscale config");
            let worst = (0..self.relays.len())
                .filter(|&s| !self.nodes[self.slave_node(s)].failed)
                .map(|s| self.observed_staleness_ms(s))
                .fold(0.0f64, f64::max);
            let cooled = now >= self.last_scale_action + auto.cooldown;
            if worst > auto.staleness_slo_ms && self.relays.len() < auto.max_slaves && cooled {
                self.last_scale_action = now;
                self.add_slave(sim, auto.sync_duration);
            }
            sim.schedule_event_in(auto.check_interval, ClusterEvent::AutoscaleTick);
        }
    }

    /// Membership timeline (failures, replacements, scale-outs).
    pub fn events_log(&self) -> &[(SimTime, String)] {
        &self.events_log
    }

    // ------------------------------------------------------------------
    // Final measurement
    // ------------------------------------------------------------------

    /// Assemble the run report (after the simulation has drained).
    pub fn report(&mut self, sim_events: u64) -> RunReport {
        let phases = self.phases;
        let steady_secs = (phases.steady_end() - phases.steady_start()).as_secs_f64();

        // Replication delay per slave, via the heartbeat tables.
        let n_slaves_now = self.relays.len();
        let mut delays = Vec::with_capacity(n_slaves_now);
        let hb_emitted = self.stats.hb_emitted.clone();
        let steady_emitted: Vec<i64> = hb_emitted
            .iter()
            .filter(|(_, t)| phases.in_steady(*t))
            .map(|&(id, _)| id)
            .collect();
        for s in 0..n_slaves_now {
            if self.nodes[s + 1].failed {
                // A dead (or deposed-master) slot measures nothing.
                delays.push(DelayReport {
                    baseline_ms: None,
                    loaded_ms: None,
                    relative_ms: None,
                    loaded_samples: 0,
                    missing_samples: steady_emitted.len(),
                });
                continue;
            }
            let (master, rest) = self.nodes.split_at_mut(1);
            let samples = collect_samples(&mut master[0].engine, &mut rest[s].engine)
                .expect("heartbeat tables exist on every replica");
            let mut idle = Vec::new();
            let mut loaded = Vec::new();
            for sample in &samples {
                // Map the master-local commit timestamp back to sim time;
                // clock offsets are tens of ms against minute-scale windows.
                let sim_us = (sample.master_ts_micros - WALL_EPOCH_MICROS).max(0) as u64;
                let t = SimTime::from_micros(sim_us);
                if phases.in_idle(t) {
                    idle.push(sample.delay_ms());
                } else if phases.in_steady(t) {
                    loaded.push(sample.delay_ms());
                }
            }
            let baseline = trimmed_mean(&idle, 0.05);
            let loaded_mean = trimmed_mean(&loaded, 0.05);
            delays.push(DelayReport {
                baseline_ms: baseline,
                loaded_ms: loaded_mean,
                relative_ms: match (loaded_mean, baseline) {
                    (Some(l), Some(b)) => Some(l - b),
                    _ => None,
                },
                loaded_samples: loaded.len(),
                missing_samples: steady_emitted.len().saturating_sub(loaded.len()),
            });
        }

        let users = self.users.stats();
        RunReport {
            users: self.cfg.workload.concurrent_users,
            n_slaves: self.cfg.n_slaves,
            final_slaves: n_slaves_now,
            membership_events: self
                .events_log
                .iter()
                .map(|(t, e)| (t.as_secs_f64(), e.clone()))
                .collect(),
            lost_writes: self.lost_writes,
            steady_ops: users.steady_ops,
            steady_reads: users.steady_reads,
            steady_writes: users.steady_writes,
            steady_slave_reads: users.steady_slave_reads,
            throughput_ops_s: users.steady_ops as f64 / steady_secs,
            latency_ms: Summary::of(&users.latencies_ms),
            master_utilization: self.stats.master_util,
            slave_utilizations: self.stats.slave_utils.clone(),
            delays,
            reads_per_slave: self.proxy.reads_per_slave().to_vec(),
            peak_relay_backlog: self.stats.peak_relay_backlog,
            apply_batches: self.stats.apply_batches,
            apply_events: self.stats.apply_events,
            pool_stats: (self.users.issued(), 0),
            // A run with no policy set reports none, though it ran `Eventual`.
            consistency: self.cfg.consistency.map(|_| {
                let l = &self.consistency;
                ConsistencyReport {
                    policy: l.cfg.policy.label(),
                    redirects_master: l.redirects_master,
                    sla_violations: l.sla_violations,
                    sla_violations_steady: l.sla_violations_steady,
                    served_staleness_mean_ms: l.served_staleness.mean(),
                    served_staleness_max_ms: l.served_staleness.max(),
                    served_staleness_samples: l.served_staleness.count(),
                }
            }),
            shared_log: match &self.backend {
                Backend::Binlog => None,
                Backend::SharedLog(sl) => Some(sl.report(phases.hard_end().as_micros())),
            },
            recovery_ms: self.recovery_ms,
            sim_events,
        }
    }

    /// Direct engine access (node 0 is the master) for tests and examples.
    pub fn engine_mut(&mut self, node: usize) -> &mut Engine {
        &mut self.nodes[node].engine
    }

    /// The relay queue of slave `s`.
    pub fn relay(&self, s: usize) -> &RelayQueue {
        &self.relays[s]
    }

    /// The observability recorder ([`Obs::Null`] unless enabled in config).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Detach the recorder, leaving [`Obs::Null`] behind. Call after the
    /// run to export traces without keeping the whole world alive.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::take(&mut self.obs)
    }

    /// The live telemetry bundle (`None` unless `cfg.obs.enabled`).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.obs.is_enabled().then_some(&self.telemetry)
    }

    /// Detach the telemetry bundle after the run (waterfall + alerts);
    /// `None` unless `cfg.obs.enabled`. Call before [`Self::take_obs`].
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        if !self.obs.is_enabled() {
            return None;
        }
        let empty = Telemetry::new(&self.cfg.telemetry, 0);
        Some(std::mem::replace(&mut self.telemetry, empty))
    }

    /// Steady-window bottleneck attribution: one row per CPU (master and
    /// each slave slot), naming the saturated resource. Meaningful once the steady window has ended (utilizations
    /// are captured by the `steady_end` marker).
    pub fn bottleneck_report(&self) -> BottleneckReport {
        let mut rep = BottleneckReport::with_default_threshold();
        let utils = std::iter::once(&self.stats.master_util).chain(&self.stats.slave_utils);
        for (i, &util) in utils.enumerate() {
            let peak_queue = self.stats.steady_peak_queue.get(i).copied().unwrap_or(0);
            rep.push(cpu_row(i, util, peak_queue));
        }
        rep
    }
}

/// A pre-loaded database and its id counters, as
/// `amdb_cloudstone::build_template` returns them.
pub type Template = (Engine, amdb_cloudstone::DataCounters);

/// The template a run with seed `seed` forks its replicas off: loaded from
/// the seed's `"load"` stream. A grid loads it once from the grid seed and
/// hands it to every cell.
pub fn load_template(seed: u64, size: amdb_cloudstone::DataSize) -> Template {
    build_template(size, &mut Rng::new(seed).derive("load"))
}

/// Everything one standalone run produces. `obs` is [`Obs::Null`] and
/// `telemetry` is `None` unless `cfg.obs.enabled`.
pub struct CellRun {
    pub report: RunReport,
    /// Steady-window bottleneck attribution.
    pub bottleneck: BottleneckReport,
    /// The detached observability recorder.
    pub obs: Obs,
    /// The detached telemetry bundle (waterfall + alerts).
    pub telemetry: Option<Telemetry>,
}

/// The one way to run a standalone cluster: validate `cfg`, fork the
/// replicas off `template` (or load one from `cfg.seed` when `None`), run
/// the full timeline (idle baseline → ramp-up → measured steady stage →
/// ramp-down → drain) and detach everything the run produced.
pub fn run_cell(cfg: ClusterConfig, template: Option<&Template>) -> Result<CellRun, ConfigError> {
    cfg.validate()?;
    let mut world = match template {
        Some((engine, counters)) => Cluster::with_template(cfg, engine, counters.clone()),
        None => Cluster::new(cfg),
    };
    let events = world.run_timeline();
    let telemetry = world.take_telemetry();
    Ok(CellRun {
        report: world.report(events),
        bottleneck: world.bottleneck_report(),
        obs: world.take_obs(),
        telemetry,
    })
}

/// [`run_cell`] on a template loaded from `cfg.seed`, keeping the report only.
///
/// # Panics
/// Panics when `cfg` does not validate.
pub fn run_cluster(cfg: ClusterConfig) -> RunReport {
    run_cell(cfg, None).unwrap_or_else(|e| panic!("{e}")).report
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_cloudstone::{DataSize, WorkloadConfig};

    fn quick_cfg(users: u32, slaves: usize) -> ClusterConfig {
        ClusterConfig::builder()
            .slaves(slaves)
            .workload(WorkloadConfig::quick(users))
            .data_size(DataSize { scale: 30 })
            .seed(7)
            .build()
    }

    /// Run `cfg` with observability on.
    fn run_observed(mut cfg: ClusterConfig) -> CellRun {
        cfg.obs.enabled = true;
        run_cell(cfg, None).expect("valid config")
    }

    /// The agenda stores events inline in its slab, so this is the slot
    /// size every scheduled event pays for.
    #[test]
    fn cluster_event_fits_its_slab_slot() {
        assert!(std::mem::size_of::<ClusterEvent>() <= 96);
    }

    /// A zero autoscale interval re-schedules its tick at the same instant
    /// forever; a fault plan naming a missing slave used to panic minutes
    /// into the run. Both are refused before anything is built.
    #[test]
    fn runner_rejects_bad_configs_up_front() {
        assert_eq!(
            run_cell(quick_cfg(0, 2), None).err(),
            Some(ConfigError::ZeroUsers)
        );
        let mut cfg = quick_cfg(4, 2);
        cfg.autoscale = Some(crate::config::AutoscaleConfig {
            check_interval: SimDuration::ZERO,
            ..Default::default()
        });
        assert_eq!(
            run_cell(cfg, None).err(),
            Some(ConfigError::ZeroAutoscaleInterval)
        );
        let mut cfg = quick_cfg(4, 2);
        cfg.placement = crate::config::Placement::DifferentRegion(cfg.master_zone.region);
        assert_eq!(
            run_cell(cfg, None).err(),
            Some(ConfigError::PlacementRegionIsMasters(
                amdb_cloud::net::Region::UsWest1
            ))
        );
        let mut cfg = quick_cfg(4, 2);
        cfg.faults.push(crate::config::FaultPlan {
            slave: 2,
            fail_at: SimDuration::from_secs(60),
            recover_after: None,
        });
        assert!(matches!(
            run_cell(cfg, None).err(),
            Some(ConfigError::FaultNamesMissingSlave { fault: 0, .. })
        ));
        // A quorum the log service cannot reach used to trip an `assert!`
        // halfway through the build.
        let mut cfg = quick_cfg(4, 2);
        cfg.backend = BackendKind::SharedLog;
        cfg.log_store.quorum = cfg.log_store.replicas + 1;
        assert_eq!(
            run_cell(cfg, None).err(),
            Some(ConfigError::LogQuorumOutOfRange {
                replicas: 3,
                quorum: 4
            })
        );
        // Statement events are apply barriers: extra workers would be a
        // silent no-op, so the pairing is refused.
        let mut cfg = quick_cfg(4, 2);
        cfg.apply_workers = 4;
        assert_eq!(
            run_cell(cfg, None).err(),
            Some(ConfigError::ApplyWorkersNeedRowImages(
                BackendKind::Statement
            ))
        );
    }

    #[test]
    fn small_run_completes_and_reports() {
        let r = run_cluster(quick_cfg(10, 2));
        assert!(r.steady_ops > 0, "ops completed in steady window");
        assert!(r.throughput_ops_s > 0.5, "got {}", r.throughput_ops_s);
        assert_eq!(r.delays.len(), 2);
        assert_eq!(r.n_slaves, 2);
        assert!(r.latency_ms.is_some());
        for d in &r.delays {
            assert!(d.baseline_ms.is_some(), "idle heartbeats measured");
            assert!(d.loaded_ms.is_some(), "steady heartbeats measured");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_cluster(quick_cfg(8, 1));
        let b = run_cluster(quick_cfg(8, 1));
        assert_eq!(a.steady_ops, b.steady_ops);
        assert_eq!(a.sim_events, b.sim_events);
        assert_eq!(
            a.delays[0].loaded_ms.unwrap(),
            b.delays[0].loaded_ms.unwrap()
        );
    }

    #[test]
    fn reads_are_distributed_and_writes_hit_master() {
        let r = run_cluster(quick_cfg(12, 3));
        let total_reads: u64 = r.reads_per_slave.iter().sum();
        assert!(total_reads > 0);
        assert!(
            r.reads_per_slave.iter().all(|&c| c > 0),
            "round-robin spreads reads: {:?}",
            r.reads_per_slave
        );
        assert!(r.steady_writes > 0);
    }

    #[test]
    fn replicas_converge_after_drain() {
        let mut world = Cluster::new(quick_cfg(10, 2));
        world.run_timeline();
        // After drain every relay must be empty and replica row counts match
        // the master exactly (eventual consistency reached).
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
    fn more_users_more_throughput_below_saturation() {
        let lo = run_cluster(quick_cfg(5, 2));
        let hi = run_cluster(quick_cfg(15, 2));
        assert!(
            hi.throughput_ops_s > lo.throughput_ops_s * 1.5,
            "closed loop scales below saturation: {} vs {}",
            lo.throughput_ops_s,
            hi.throughput_ops_s
        );
    }

    #[test]
    fn sync_mode_still_converges() {
        let mut cfg = quick_cfg(6, 2);
        cfg.mode = ReplMode::Sync;
        let r = run_cluster(cfg);
        assert!(r.steady_ops > 0);
        assert!(r.steady_writes > 0, "sync writes completed");
    }

    #[test]
    fn semisync_mode_completes() {
        let mut cfg = quick_cfg(6, 2);
        cfg.mode = ReplMode::SemiSync;
        let r = run_cluster(cfg);
        assert!(r.steady_writes > 0);
    }

    #[test]
    fn zero_slaves_runs_reads_on_master() {
        let r = run_cluster(quick_cfg(5, 0));
        assert!(r.steady_ops > 0);
        assert!(r.delays.is_empty());
    }

    /// The paper's cell runs every plane at its neutral value, and reports
    /// none of them: no consistency or shared-log section, one event per
    /// apply batch, no telemetry.
    #[test]
    fn default_config_keeps_observability_off() {
        let world = Cluster::new(quick_cfg(5, 1));
        assert!(!world.obs().is_enabled(), "obs must be opt-in");
        assert!(world.telemetry().is_none(), "telemetry rides obs");
        let run = run_cell(quick_cfg(5, 1), None).expect("valid config");
        let r = &run.report;
        assert!(r.consistency.is_none(), "{:?}", r.consistency);
        assert!(r.shared_log.is_none(), "{:?}", r.shared_log);
        assert!(r.apply_events > 0);
        assert_eq!(r.apply_batches, r.apply_events, "serial apply");
        assert!(run.telemetry.is_none());
    }

    #[test]
    fn observed_run_traces_all_layers() {
        let CellRun {
            report: r,
            obs,
            bottleneck: bn,
            ..
        } = run_observed(quick_cfg(10, 2));
        assert!(r.steady_ops > 0, "observed run still completes");
        let rec = obs.recorder().expect("recorder present when observed");
        assert!(!rec.is_empty());
        let comps: std::collections::BTreeSet<&str> =
            rec.records().map(|x| x.component().as_str()).collect();
        for c in ["cpu", "proxy", "repl", "sql", "cluster"] {
            let present =
                comps.contains(c) || rec.registry().iter().any(|(k, _)| k.comp.as_str() == c);
            assert!(present, "component {c} missing from trace and registry");
        }
        // master + 2 slaves
        assert_eq!(bn.rows().len(), 3);
        assert!(bn.rows().iter().any(|row| row.label == "master cpu"));
    }

    #[test]
    fn observed_run_matches_unobserved_results() {
        // Observability must not perturb the simulation: same seed, same
        // physics, with and without the recorder, the write waterfall and
        // the SLO engine.
        let plain = run_cluster(quick_cfg(8, 2));
        let observed = run_observed(quick_cfg(8, 2));
        let (r, t) = (observed.report, observed.telemetry.expect("obs on"));
        assert_eq!(plain.steady_ops, r.steady_ops);
        assert_eq!(plain.steady_writes, r.steady_writes);
        assert_eq!(plain.latency_ms, r.latency_ms);
        assert_eq!(
            plain.delays[0].loaded_ms, r.delays[0].loaded_ms,
            "replication delays identical under observation"
        );
        assert!(t.waterfall.committed > 0, "writes were traced");
    }

    #[test]
    fn telemetry_traces_full_write_pipeline() {
        let traced = run_observed(quick_cfg(8, 2));
        let (obs, t) = (traced.obs, traced.telemetry.expect("obs on"));
        // Every leg of the waterfall saw traffic on both slaves.
        assert_eq!(t.waterfall.n_slaves(), 2);
        for leg in t.waterfall.legs() {
            assert!(leg.applied > 0, "writesets applied on each slave");
            assert!(leg.network_ms.count() > 0);
            assert!(leg.queue_ms.count() > 0);
            assert!(leg.apply_ms.count() > 0);
            assert!(leg.e2e_ms.count() > 0);
        }
        assert!(t.waterfall.client().commit_ms.count() > 0);
        // The causal chain reaches the trace as flow records, and the
        // chrome export renders them.
        let rec = obs.recorder().expect("obs on");
        let flows = rec
            .records()
            .filter(|r| matches!(r, amdb_obs::Record::Flow { .. }))
            .count();
        assert!(flows > 0, "flow records present");
        let json = obs.chrome_trace().unwrap();
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        // Sketch registry rows exist for the migrated probes.
        let summary = rec.registry().summary_table().render();
        assert!(summary.contains("client_latency_ms"));
        assert!(summary.contains("demand_write_us"));
    }

    #[test]
    fn telemetry_sketch_agrees_with_exact_percentiles() {
        // The proxy's client-latency sketch and the report's exact sample
        // vector measure different windows (sketch = whole run, report =
        // steady window), so compare the sketch against itself via its
        // error contract: p50 ≤ p95 ≤ p99 ≤ max, and the mean is finite.
        let CellRun { report, obs, .. } = run_observed(quick_cfg(8, 1));
        let rec = obs.recorder().unwrap();
        let mut total = amdb_obs::metrics::QuantileSketch::latency();
        for (key, metric) in rec.registry().iter() {
            if key.name == "client_latency_ms" {
                if let amdb_obs::Metric::Sketch(s) = metric {
                    total.merge(s);
                }
            }
        }
        assert!(total.count() > 0);
        let p50 = total.percentile(50.0).unwrap();
        let p95 = total.percentile(95.0).unwrap();
        let p99 = total.percentile(99.0).unwrap();
        assert!(p50 <= p95 && p95 <= p99 && p99 <= total.max().unwrap());
        // The steady-window exact median lies within the sketch's full-run
        // range — a sanity link between the two measurement paths.
        let exact = report.latency_ms.unwrap();
        assert!(exact.median >= total.min().unwrap() && exact.median <= total.max().unwrap());
    }
}
