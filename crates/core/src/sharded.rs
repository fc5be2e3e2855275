//! Sharded replication trees: N independent master+slaves clusters behind
//! one shard-aware front, all on one simulated clock.
//!
//! The paper's single-master architecture saturates once the write stream
//! fills one CPU (fig2's ceiling). This module goes past that ceiling by
//! partitioning the Cloudstone keyspace across `shards` replication trees
//! with a deterministic [`ShardMap`] (jump consistent hash, see
//! `amdb-shard`) and routing every operation at a front proxy:
//!
//! * **single-shard ops** (the common case — every Cloudstone op carries a
//!   shard key) go to the owning tree alone;
//! * a configurable fraction of reads are **scatter-gathered**: fanned out
//!   to every tree, each leg judged against the front's consistency policy
//!   ([`Gather`]), the op completing when the last leg responds.
//!
//! # One kernel, N trees
//!
//! All trees share one discrete-event kernel: each tree's events are
//! wrapped as [`ShardedEvent::Tree`] and dispatched back through
//! `ClusterEvent::fire_on` with a per-tree `TreeHost`. The front owns
//! the run's users — the same `UserLoop` a standalone cluster drives — and
//! hands each operation to a tree's one `Cluster::dispatch` as that user's
//! op: its [`Origin`] carries the user and issue time, so the tree judges
//! it by the user's own session token. The tree's own user loop has zero
//! users and stays idle; each completed leg reaches the serving tree's
//! `Cluster::note_response`, as a standalone response does. With
//! `shards = 1` and a config whose writes ack at commit, the world is the
//! standalone cluster: same seed, same RNG stream labels, same event order —
//! byte-identical reports, alerts and waterfalls (pinned by a test below).
//!
//! # What a front-issued op does differently
//!
//! Two decisions in `cluster.rs` look at `Origin::front`:
//!
//! * **write ack** — at master commit under every `ReplMode` and backend: a
//!   scatter leg cannot block on per-tree sync or quorum acks without a
//!   front-side ack protocol (DESIGN.md, "Sharding"); pinned by
//!   `front_origin_divergences_are_deliberate` below;
//! * **completion** — reported to the front through
//!   [`ClusterHost::notify_front`] with the serving replica's
//!   heartbeat-observed staleness, instead of a tree-local `Respond`.
//!
//! # Determinism
//!
//! Each tree derives its seed from
//! `(seed, shard_id, placement, slaves, users)`, so a tree's internal
//! randomness is decoupled from its siblings and stable across sweeps. The
//! front draws from its own `"ops"`/`"think"`/`"cross"` streams. No
//! ambient randomness, no wall clock: the same config yields the same
//! report bit-for-bit at any `--jobs` level.

use crate::cluster::{
    load_template, Cluster, ClusterEvent, ClusterHost, InjectedDone, Origin, Template,
};
use crate::config::{ClusterConfig, ConfigError, WorkloadKind};
use crate::report::RunReport;
use crate::users::{UserLoop, WorkGen};
use amdb_cloud::net::Zone;
use amdb_cloudstone::{shard_key_of, DataCounters, OpClass, OpGenerator, Operation};
use amdb_consistency::ConsistencyPolicy;
use amdb_obs::metrics::Summary;
use amdb_obs::telemetry::FleetTelemetry;
use amdb_obs::{Component, FlowPhase, Obs, Tsdb};
use amdb_shard::{Gather, ShardMap};
use amdb_sim::{Event, Rng, Sim, SimTime};
use amdb_sql::Engine;
use std::collections::HashMap;

pub type ShardedSim = Sim<ShardedWorld, ShardedEvent>;

/// Configuration of a sharded run: a per-tree template plus the front's
/// sharding knobs. `base.workload.concurrent_users` is the *total* user
/// count — users live at the front, not in any tree.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of independent replication trees.
    pub shards: u32,
    /// Per-tree template (slaves, placement, data size, phases, seed, …).
    pub base: ClusterConfig,
    /// Fraction of reads scatter-gathered across every shard (writes are
    /// always single-shard; the schema gives every write one owner).
    pub cross_shard_read_fraction: f64,
}

impl ShardedConfig {
    /// A sharded config with no cross-shard reads.
    pub fn new(shards: u32, base: ClusterConfig) -> Self {
        Self {
            shards,
            base,
            cross_shard_read_fraction: 0.0,
        }
    }

    /// Set the scatter-gathered read fraction.
    pub fn cross_shard_read_fraction(mut self, f: f64) -> Self {
        self.cross_shard_read_fraction = f;
        self
    }

    /// Reject a config that cannot be run: the front's own knobs, then the
    /// per-tree template (every tree inherits its placement, autoscale rule
    /// and fault plans).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if !(0.0..=1.0).contains(&self.cross_shard_read_fraction) {
            return Err(ConfigError::CrossShardReadFraction(
                self.cross_shard_read_fraction,
            ));
        }
        if self.base.workload_kind != WorkloadKind::Cloudstone {
            return Err(ConfigError::ShardedWorkload(self.base.workload_kind));
        }
        self.base.validate()
    }
}

/// Tree `k`'s seed: the base seed verbatim for a single shard (bit-identity
/// with the standalone cluster), otherwise a stream derived from the
/// sharding-relevant shape of the run so per-shard randomness is stable
/// under sweeps and decoupled across shards.
fn tree_seed(cfg: &ShardedConfig, k: u32) -> u64 {
    if cfg.shards == 1 {
        return cfg.base.seed;
    }
    Rng::new(cfg.base.seed)
        .derive(&format!(
            "shard/{k}/{:?}/slaves={}/users={}",
            cfg.base.placement, cfg.base.n_slaves, cfg.base.workload.concurrent_users
        ))
        .next_u64()
}

/// Tree `k`'s cluster config: the base template with no users of its own
/// (the front issues every op), its balancer cursor staggered by
/// shard id, and — with more than one shard — its master cycled across zone
/// letters a–d, so shard scale-out also spreads masters across failure
/// domains, while clients (the front) stay in the base master zone.
fn tree_config(cfg: &ShardedConfig, k: u32) -> ClusterConfig {
    let mut c = cfg.base.clone();
    c.workload.concurrent_users = 0;
    c.balancer_start = k as usize;
    c.seed = tree_seed(cfg, k);
    // Stamp the tree's telemetry with its fleet coordinates: alerts fire as
    // `(shard, component, instance)` and the waterfall's inflight cap
    // scales with the fan-out (shards=1 leaves both at their standalone
    // defaults — part of the identity contract).
    c.telemetry.shard = k;
    c.telemetry.shards = cfg.shards;
    if cfg.shards > 1 {
        let letters = ['a', 'b', 'c', 'd'];
        c.master_zone = Zone::new(cfg.base.master_zone.region, letters[k as usize % 4]);
    }
    c.client_zone = Some(cfg.base.master_zone);
    c
}

/// Agenda events of the sharded world.
pub enum ShardedEvent {
    /// An event of tree `k`, dispatched through its `TreeHost`.
    Tree(u32, ClusterEvent),
    /// A front user's think time elapsed; generate the next operation.
    UserNextOp { user: u32 },
    /// Tree `shard` completed one front-issued operation (one scatter leg,
    /// or a whole single-shard op).
    OpDone { shard: u32, done: InjectedDone },
}

impl Event<ShardedWorld> for ShardedEvent {
    fn fire(self, w: &mut ShardedWorld, sim: &mut ShardedSim) {
        match self {
            ShardedEvent::Tree(k, ev) => {
                let mut host = TreeHost { sim, shard: k };
                ev.fire_on(&mut w.trees[k as usize], &mut host);
            }
            ShardedEvent::UserNextOp { user } => w.user_next_op(sim, user),
            ShardedEvent::OpDone { shard, done } => w.op_done(sim, shard, done),
        }
    }
}

/// The [`ClusterHost`] one tree sees: wraps the tree's events with its
/// shard id so N trees multiplex onto one kernel, and routes front-issued
/// ops' completions back to the front.
struct TreeHost<'a> {
    sim: &'a mut ShardedSim,
    shard: u32,
}

impl ClusterHost for TreeHost<'_> {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn schedule_event_at(&mut self, at: SimTime, ev: ClusterEvent) {
        self.sim
            .schedule_event_at(at, ShardedEvent::Tree(self.shard, ev));
    }

    fn notify_front(&mut self, at: SimTime, done: InjectedDone) {
        self.sim.schedule_event_at(
            at,
            ShardedEvent::OpDone {
                shard: self.shard,
                done,
            },
        );
    }
}

/// One in-flight front operation (single-shard: one leg; scattered: one
/// leg per shard under the same id).
struct InFlight {
    /// The op's id, naming its scatter-gather flow in the trace.
    id: u64,
    /// The user and issue time every leg is dispatched with.
    origin: Origin,
    class: OpClass,
    /// Legs still outstanding.
    pending: u32,
    /// True while every completed leg was slave-served (the standalone
    /// `routed_slave.is_some()` slave-read accounting, across legs).
    all_slave: bool,
    /// Scatter legs only: per-leg consistency filter + staleness tracking.
    gather: Option<Gather<()>>,
    /// Scatter legs only: the operation, retained so an all-legs-filtered
    /// gather can re-dispatch it as a master-routed fallback leg.
    op: Option<Operation>,
}

#[derive(Default)]
struct FrontStats {
    scatter_reads: u64,
    scatter_reads_steady: u64,
    scatter_legs: u64,
    /// Scatter legs dropped by the per-leg consistency filter.
    scatter_filtered_legs: u64,
    /// Scattered reads whose legs were *all* filtered and which therefore
    /// re-ran as a master-routed fallback leg.
    scatter_master_fallbacks: u64,
}

/// The shard-aware front: the run's users (the same [`UserLoop`] a
/// standalone `Cluster` drives), the shard map, and the scatter-gather
/// router.
struct Front {
    users: UserLoop,
    map: ShardMap,
    cross_fraction: f64,
    /// Policy scatter legs are judged against (the base consistency
    /// policy; `Eventual` when no consistency layer is configured).
    leg_policy: ConsistencyPolicy,
    rng_cross: Rng,
    next_id: u64,
    /// In-flight ops by user: a closed-loop user has at most one.
    inflight: HashMap<u32, InFlight>,
    stats: FrontStats,
    obs: Obs,
}

/// The sharded simulation world: one front, N trees.
pub struct ShardedWorld {
    front: Front,
    trees: Vec<Cluster>,
}

impl ShardedWorld {
    fn new(cfg: &ShardedConfig, template: &Engine, counters: DataCounters) -> Self {
        let trees: Vec<Cluster> = (0..cfg.shards)
            .map(|k| Cluster::with_template(tree_config(cfg, k), template, counters.clone()))
            .collect();
        let root = Rng::new(cfg.base.seed);
        let gen = WorkGen::Cloudstone(OpGenerator::new(counters, root.derive("ops")));
        let front = Front {
            users: UserLoop::new(&cfg.base, gen, &root),
            map: ShardMap::new(cfg.shards),
            cross_fraction: cfg.cross_shard_read_fraction,
            leg_policy: cfg
                .base
                .consistency
                .as_ref()
                .map_or(ConsistencyPolicy::Eventual, |c| c.policy),
            rng_cross: root.derive("cross"),
            next_id: 1,
            inflight: HashMap::new(),
            stats: FrontStats::default(),
            obs: Obs::from_config(&cfg.base.obs),
        };
        Self { front, trees }
    }

    /// Schedule every tree's timeline, then the front's users. Tree
    /// timelines come first so same-instant control events (heartbeat @ 0,
    /// window markers) keep their standalone seq order; user events are
    /// staggered strictly inside the ramp and never tie with them.
    fn schedule_timeline(&mut self, sim: &mut ShardedSim) {
        for k in 0..self.trees.len() {
            let mut host = TreeHost {
                sim: &mut *sim,
                shard: k as u32,
            };
            self.trees[k].schedule_timeline(&mut host);
        }
        for (at, user) in self.front.users.start_times() {
            sim.schedule_event_at(at, ShardedEvent::UserNextOp { user });
        }
    }

    fn user_next_op(&mut self, sim: &mut ShardedSim, user: u32) {
        let now = sim.now();
        if let Some(op) = self.front.users.next_op(now) {
            self.dispatch_front(sim, user, op, now);
        }
    }

    /// Route one operation: scatter a chosen fraction of reads across every
    /// tree, send everything else to the shard that owns its key.
    fn dispatch_front(&mut self, sim: &mut ShardedSim, user: u32, op: Operation, issued: SimTime) {
        let id = self.front.next_id;
        self.front.next_id += 1;
        let origin = Origin {
            user,
            issued,
            front: true,
        };
        let n = self.trees.len();
        // Gated on `n > 1` so a one-shard run never consults the cross
        // stream — part of the shards=1 identity contract.
        let scatter = n > 1
            && op.class == OpClass::Read
            && self.front.cross_fraction > 0.0
            && self.front.rng_cross.chance(self.front.cross_fraction);
        if scatter {
            self.front.stats.scatter_reads += 1;
            if self.front.users.phases().in_steady(issued) {
                self.front.stats.scatter_reads_steady += 1;
            }
            self.front.stats.scatter_legs += n as u64;
            self.front.obs.flow(
                FlowPhase::Start,
                Component::Proxy,
                0,
                "scatter_gather",
                issued,
                id,
            );
            self.front.inflight.insert(
                user,
                InFlight {
                    id,
                    origin,
                    class: op.class,
                    pending: n as u32,
                    all_slave: true,
                    gather: Some(Gather::new(n, self.front.leg_policy)),
                    op: Some(op.clone()),
                },
            );
            for k in 0..n {
                let mut host = TreeHost {
                    sim: &mut *sim,
                    shard: k as u32,
                };
                self.trees[k].dispatch(&mut host, origin, op.clone(), false);
            }
        } else {
            let shard = self.front.map.shard_of_opt(shard_key_of(&op)) as usize;
            self.front.inflight.insert(
                user,
                InFlight {
                    id,
                    origin,
                    class: op.class,
                    pending: 1,
                    all_slave: true,
                    gather: None,
                    op: None,
                },
            );
            let mut host = TreeHost {
                sim: &mut *sim,
                shard: shard as u32,
            };
            self.trees[shard].dispatch(&mut host, origin, op, false);
        }
    }

    /// One leg of an in-flight op completed on `shard`: gather bookkeeping,
    /// the serving tree's per-leg completion, and — once the last leg is in
    /// — the user loop's completion (stats, think), in the order a
    /// standalone cluster's `respond` runs them.
    fn op_done(&mut self, sim: &mut ShardedSim, shard: u32, done: InjectedDone) {
        let now = sim.now();
        let fl = self
            .front
            .inflight
            .get_mut(&done.user)
            .expect("completion for an unknown op id");
        let (id, issued) = (fl.id, fl.origin.issued);
        let leg_latency_ms = (now - issued).as_millis_f64();
        if done.routed_slave.is_none() {
            fl.all_slave = false;
        }
        let scattered = if let Some(g) = fl.gather.as_mut() {
            g.offer_at(
                shard as usize,
                done.staleness_ms,
                Vec::new(),
                now.as_micros(),
            );
            true
        } else {
            false
        };
        fl.pending -= 1;
        let pending = fl.pending;
        if scattered && self.front.obs.is_enabled() {
            // One span per scatter leg, linked into the op's flow arrow:
            // the waterfall shows which tree each leg ran on and how long
            // the front waited on it.
            self.front
                .obs
                .span(Component::Proxy, shard, "scatter_leg", issued, now);
            self.front.obs.flow(
                FlowPhase::Step,
                Component::Proxy,
                shard,
                "scatter_gather",
                now,
                id,
            );
            self.front.obs.observe_sketch(
                Component::Proxy,
                shard,
                "scatter_leg_ms",
                leg_latency_ms,
            );
        }
        // The serving tree sees the leg complete — balancer feedback,
        // completed-op count, latency sketch — before any user stats, where
        // a standalone cluster's `respond` does it.
        self.trees[shard as usize].note_response(done.routed_slave, leg_latency_ms);
        if pending == 0 {
            // All-legs-filtered fallback: the consistency filter dropped
            // every leg, so completing now would hand the user an empty
            // result that *violates* the staleness bound it was filtered
            // under. Re-run the read as one master-routed leg on its owning
            // shard — deterministic (no RNG, no balancer) and fresh by
            // definition. The entry stays in flight with the gather gone,
            // so the fallback completion takes the plain single-leg path.
            let fallback = {
                let fl = self
                    .front
                    .inflight
                    .get_mut(&done.user)
                    .expect("entry existed above");
                if fl.gather.as_ref().is_some_and(|g| g.all_legs_filtered()) {
                    let g = fl.gather.take().expect("checked above");
                    fl.pending = 1;
                    fl.all_slave = false;
                    let op = fl.op.take().expect("scattered ops retain their op");
                    Some((g, op, fl.origin))
                } else {
                    None
                }
            };
            if let Some((g, op, origin)) = fallback {
                self.front.stats.scatter_filtered_legs += u64::from(g.filtered_legs());
                self.front.stats.scatter_master_fallbacks += 1;
                let home = self.front.map.shard_of_opt(shard_key_of(&op)) as usize;
                self.front
                    .obs
                    .incr(Component::Proxy, home as u32, "scatter_master_fallback", 1);
                self.front.obs.flow(
                    FlowPhase::Step,
                    Component::Proxy,
                    home as u32,
                    "scatter_gather",
                    now,
                    id,
                );
                let mut host = TreeHost {
                    sim: &mut *sim,
                    shard: home as u32,
                };
                self.trees[home].dispatch(&mut host, origin, op, true);
                return;
            }
        }
        if pending > 0 {
            return;
        }
        let fl = self
            .front
            .inflight
            .remove(&done.user)
            .expect("entry existed above");
        if let Some(g) = &fl.gather {
            debug_assert!(g.is_complete(), "final leg completes the gather");
            self.front.stats.scatter_filtered_legs += u64::from(g.filtered_legs());
            self.front.obs.flow(
                FlowPhase::End,
                Component::Proxy,
                0,
                "scatter_gather",
                now,
                id,
            );
            if self.front.obs.is_enabled() {
                // Scatter-gather tax decomposition: name the leg the whole
                // read waited on, and record slowest−fastest arrival — the
                // latency the fan-out cost over a single-shard read.
                if let Some((slowest, _)) = g.slowest_leg() {
                    self.front
                        .obs
                        .incr(Component::Proxy, slowest as u32, "scatter_slowest", 1);
                }
                let tax_ms = g.leg_spread_us() as f64 / 1000.0;
                self.front
                    .obs
                    .observe_sketch(Component::Proxy, 0, "scatter_tax_ms", tax_ms);
                self.front
                    .obs
                    .tsdb_observe(Component::Proxy, 0, "scatter_tax_ms", now, tax_ms);
            }
        }
        let think = self
            .front
            .users
            .complete(now, fl.class, issued, fl.all_slave);
        let user = fl.origin.user;
        sim.schedule_event_at(now + think, ShardedEvent::UserNextOp { user });
    }

    /// Detach every observability artifact of the run into one fleet
    /// bundle: per-tree recorders and time-series stores, the front's
    /// recorder, and the per-shard telemetry rollup. Call after the
    /// simulation has drained (and after [`Self::report`]).
    fn take_fleet_obs(&mut self) -> FleetObsBundle {
        let mut telemetry = FleetTelemetry::new();
        let mut tsdbs = Vec::new();
        let mut trees = Vec::with_capacity(self.trees.len());
        for (k, tree) in self.trees.iter_mut().enumerate() {
            if let Some(t) = tree.take_telemetry() {
                telemetry.absorb(k as u32, t);
            }
            let mut o = tree.take_obs();
            if let Some(db) = o.take_tsdb() {
                tsdbs.push((k as u32, db));
            }
            trees.push(o);
        }
        let mut front = std::mem::take(&mut self.front.obs);
        let front_tsdb = front.take_tsdb();
        FleetObsBundle {
            front,
            trees,
            tsdbs,
            front_tsdb,
            telemetry,
        }
    }

    /// Assemble the sharded report (after the simulation has drained).
    fn report(&mut self, sim_events: u64) -> ShardedReport {
        let phases = self.front.users.phases();
        let steady_secs = (phases.steady_end() - phases.steady_start()).as_secs_f64();
        // Per-tree sim_events are meaningless on a shared kernel: report 0.
        let per_shard: Vec<RunReport> = self.trees.iter_mut().map(|t| t.report(0)).collect();
        let per_shard_bottleneck: Vec<String> = self
            .trees
            .iter()
            .map(|t| {
                t.bottleneck_report()
                    .busiest()
                    .map_or_else(|| "-".to_string(), |r| r.label.clone())
            })
            .collect();
        let s = &self.front.stats;
        let users = self.front.users.stats();
        ShardedReport {
            shards: self.trees.len() as u32,
            users: self.front.users.users(),
            steady_ops: users.steady_ops,
            steady_reads: users.steady_reads,
            steady_writes: users.steady_writes,
            steady_slave_reads: users.steady_slave_reads,
            throughput_ops_s: users.steady_ops as f64 / steady_secs,
            latency_ms: Summary::of(&users.latencies_ms),
            scatter_reads: s.scatter_reads,
            scatter_reads_steady: s.scatter_reads_steady,
            scatter_legs: s.scatter_legs,
            scatter_filtered_legs: s.scatter_filtered_legs,
            scatter_master_fallbacks: s.scatter_master_fallbacks,
            pool_stats: (self.front.users.issued(), 0),
            per_shard,
            per_shard_bottleneck,
            sim_events,
        }
    }
}

/// The report of one sharded run: front-side aggregates plus each tree's
/// full [`RunReport`] and its busiest steady-window resource.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    pub shards: u32,
    pub users: u32,
    pub steady_ops: u64,
    pub steady_reads: u64,
    pub steady_writes: u64,
    pub steady_slave_reads: u64,
    pub throughput_ops_s: f64,
    pub latency_ms: Option<Summary>,
    /// Scatter-gathered reads issued over the whole run / steady window.
    pub scatter_reads: u64,
    pub scatter_reads_steady: u64,
    /// Fan-out legs issued (== scatter_reads × shards).
    pub scatter_legs: u64,
    /// Legs dropped by the per-leg consistency filter.
    pub scatter_filtered_legs: u64,
    /// Scattered reads that re-ran as a master fallback leg because every
    /// scatter leg was filtered.
    pub scatter_master_fallbacks: u64,
    /// (ops the front's users issued, 0). The second half is always 0 and
    /// stays only because the benchmark reads both; the benchmark's
    /// re-freeze shrinks this to the issued count.
    pub pool_stats: (u64, u64),
    /// One standalone-format report per tree (tree `users` is 0 — users
    /// live at the front; steady op counts are front-side).
    pub per_shard: Vec<RunReport>,
    /// Busiest steady-window resource per tree ("master cpu", …).
    pub per_shard_bottleneck: Vec<String>,
    pub sim_events: u64,
}

impl ShardedReport {
    /// Label of the most-loaded tree's busiest resource, prefixed with its
    /// shard index ("s2: master cpu") — the cluster-wide bottleneck name.
    pub fn busiest_shard_label(&self) -> String {
        let mut best: Option<(usize, f64)> = None;
        for (k, r) in self.per_shard.iter().enumerate() {
            let u = r.master_utilization;
            if best.is_none_or(|(_, b)| u > b) {
                best = Some((k, u));
            }
        }
        match best {
            Some((k, _)) => format!("s{k}: {}", self.per_shard_bottleneck[k]),
            None => "-".to_string(),
        }
    }
}

/// Every observability artifact of one sharded run, detached from the
/// (dropped) world: the scatter-gather front's recorder, one recorder per
/// tree, the per-tree time-series stores, and the fleet telemetry rollup.
pub struct FleetObsBundle {
    /// The front's recorder: scatter-gather flows/spans, per-leg latency
    /// sketches and slowest-shard counters.
    pub front: Obs,
    /// Per-tree recorders in shard order (registry + trace events; their
    /// time-series stores are detached into [`Self::tsdbs`]).
    pub trees: Vec<Obs>,
    /// Per-tree time-series stores `(shard, store)` — per-shard series.
    pub tsdbs: Vec<(u32, Tsdb)>,
    /// The front recorder's own store (scatter-tax series), when attached.
    pub front_tsdb: Option<Tsdb>,
    /// Per-shard telemetry bundles (waterfalls + SLO engines) rolled into
    /// the fleet view; empty when observability was off.
    pub telemetry: FleetTelemetry,
}

impl FleetObsBundle {
    /// The fleet-wide rollup store: every per-shard store merged with the
    /// front's. Colliding `(component, instance, metric)` tracks fold —
    /// sketch cells merge, value cells pool their sums — so each track
    /// reads as the fleet aggregate of that metric per interval.
    pub fn fleet_tsdb(&self) -> Option<Tsdb> {
        let mut acc: Option<Tsdb> = None;
        for db in self
            .tsdbs
            .iter()
            .map(|(_, db)| db)
            .chain(self.front_tsdb.iter())
        {
            match acc.as_mut() {
                Some(a) => a.merge(db),
                None => acc = Some(db.clone()),
            }
        }
        acc
    }

    /// Shard `k`'s detached time-series store, if any.
    pub fn shard_tsdb(&self, k: u32) -> Option<&Tsdb> {
        self.tsdbs
            .iter()
            .find_map(|(s, db)| (*s == k).then_some(db))
    }
}

/// The one way to run a sharded world: validate `cfg`, fork every tree off
/// `template` (or load one from `cfg.base.seed` when `None`), run all trees
/// and the front on one kernel until the agenda drains, and detach the
/// report plus every observability artifact. What the bundle holds follows
/// `cfg.base.obs`; with it off the bundle is empty.
pub fn run_sharded_cell(
    cfg: &ShardedConfig,
    template: Option<&Template>,
) -> Result<(ShardedReport, FleetObsBundle), ConfigError> {
    cfg.validate()?;
    let loaded;
    let (engine, counters) = match template {
        Some(t) => t,
        None => {
            loaded = load_template(cfg.base.seed, cfg.base.data_size);
            &loaded
        }
    };
    let mut sim: ShardedSim = Sim::new();
    let mut world = ShardedWorld::new(cfg, engine, counters.clone());
    world.schedule_timeline(&mut sim);
    sim.run(&mut world);
    let report = world.report(sim.events_executed());
    Ok((report, world.take_fleet_obs()))
}

/// [`run_sharded_cell`] with observability forced on in every tree: each
/// runs its own waterfall + shard-stamped SLO engine, rolled into the
/// bundle's [`FleetTelemetry`].
///
/// # Panics
/// Panics when `cfg` does not validate.
pub fn run_sharded_telemetry(mut cfg: ShardedConfig) -> (ShardedReport, FleetObsBundle) {
    cfg.base.obs.enabled = true;
    run_sharded_cell(&cfg, None).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_cluster;
    use crate::config::{FaultPlan, MasterFaultPlan, Placement};
    use amdb_cloud::net::Region;
    use amdb_cloudstone::{DataSize, WorkloadConfig};
    use amdb_consistency::ConsistencyConfig;
    use amdb_repl::{BackendKind, ReplMode};
    use amdb_sim::SimDuration;

    fn quick_cfg(users: u32, slaves: usize, seed: u64) -> ClusterConfig {
        ClusterConfig::builder()
            .slaves(slaves)
            .workload(WorkloadConfig::quick(users))
            .data_size(DataSize { scale: 30 })
            .seed(seed)
            .build()
    }

    fn run_sharded_cluster(cfg: ShardedConfig) -> ShardedReport {
        run_sharded_cell(&cfg, None).expect("valid config").0
    }

    #[test]
    fn validate_checks_the_front_then_the_tree_template() {
        let cfg = |shards| ShardedConfig::new(shards, quick_cfg(8, 1, 3));
        assert_eq!(cfg(2).validate(), Ok(()));
        assert_eq!(cfg(0).validate(), Err(ConfigError::ZeroShards));
        // Users live at the front; the trees' own zero-user configs are
        // never validated.
        let mut idle = cfg(2);
        idle.base.workload.concurrent_users = 0;
        assert_eq!(
            run_sharded_cell(&idle, None).err(),
            Some(ConfigError::ZeroUsers)
        );
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(matches!(
                run_sharded_cell(&cfg(2).cross_shard_read_fraction(bad), None).err(),
                Some(ConfigError::CrossShardReadFraction(_))
            ));
        }
        let mut web10 = cfg(2);
        web10.base.workload_kind = WorkloadKind::Web10;
        assert_eq!(
            run_sharded_cell(&web10, None).err(),
            Some(ConfigError::ShardedWorkload(WorkloadKind::Web10))
        );
        let mut hangs = cfg(2);
        hangs.base.autoscale = Some(crate::config::AutoscaleConfig {
            check_interval: SimDuration::ZERO,
            ..Default::default()
        });
        assert_eq!(hangs.validate(), Err(ConfigError::ZeroAutoscaleInterval));
        let mut mislabelled = cfg(2);
        mislabelled.base.placement = Placement::DifferentRegion(Region::UsWest1);
        assert_eq!(
            run_sharded_cell(&mislabelled, None).err(),
            Some(ConfigError::PlacementRegionIsMasters(Region::UsWest1))
        );
        let mut barriers = cfg(2);
        barriers.base.apply_workers = 4;
        assert_eq!(
            run_sharded_cell(&barriers, None).err(),
            Some(ConfigError::ApplyWorkersNeedRowImages(
                BackendKind::Statement
            ))
        );
    }

    /// The headline identity: one shard replays the standalone cluster's
    /// event sequence bit-for-bit — same ops, same routing, same latencies,
    /// same heartbeat-measured replication delays — on the default config,
    /// through the apply plane and under every read policy (each front user
    /// keeps its own session token), and with observability on: the same alert
    /// timeline and staleness waterfall, a master failover included.
    #[test]
    fn one_shard_is_bit_identical_to_the_standalone_cluster() {
        let quick = || {
            ClusterConfig::builder()
                .slaves(2)
                .workload(WorkloadConfig::quick(40))
                .data_size(DataSize { scale: 30 })
                .seed(7)
        };
        let policy = |p| quick().consistency(ConsistencyConfig::new(p)).build();
        for base in [
            quick().build(),
            quick().backend(BackendKind::Row).apply_workers(4).build(),
            policy(ConsistencyPolicy::BoundedStaleness { max_ms: 250.0 }),
            policy(ConsistencyPolicy::ReadYourWrites),
            policy(ConsistencyPolicy::Monotonic),
        ] {
            let solo = run_cluster(base.clone());
            let sharded = run_sharded_cluster(ShardedConfig::new(1, base));
            assert_eq!(sharded.steady_ops, solo.steady_ops);
            assert_eq!(sharded.steady_reads, solo.steady_reads);
            assert_eq!(sharded.steady_writes, solo.steady_writes);
            assert_eq!(sharded.steady_slave_reads, solo.steady_slave_reads);
            assert_eq!(
                sharded.throughput_ops_s.to_bits(),
                solo.throughput_ops_s.to_bits()
            );
            assert_eq!(
                format!("{:?}", sharded.latency_ms),
                format!("{:?}", solo.latency_ms)
            );
            let tree = &sharded.per_shard[0];
            assert_eq!(
                format!("{:?}", tree.delays),
                format!("{:?}", solo.delays),
                "replication-delay measurements must match"
            );
            assert_eq!(tree.reads_per_slave, solo.reads_per_slave);
            assert_eq!(
                format!("{:?}", tree.consistency),
                format!("{:?}", solo.consistency)
            );
            assert_eq!(sharded.scatter_reads, 0, "one shard never scatters");
            assert_eq!(sharded.pool_stats, solo.pool_stats);
        }
        let failover = quick()
            .master_fault(MasterFaultPlan {
                fail_at: SimDuration::from_secs(90),
                detection_delay: SimDuration::from_secs(2),
            })
            .build();
        for base in [quick().build(), failover] {
            let mut traced = base.clone();
            traced.obs.enabled = true;
            let solo = crate::cluster::run_cell(traced, None).expect("valid config");
            let solo = solo.telemetry.expect("telemetry on");
            let (_, fleet) = run_sharded_telemetry(ShardedConfig::new(1, base));
            let (_, tree) = fleet.telemetry.shards().next().expect("one tree");
            assert_eq!(tree.slo.alerts(), solo.slo.alerts());
            assert_eq!(
                tree.waterfall.table().render(),
                solo.waterfall.table().render()
            );
            // A write parked for the failed master shows the park as its
            // issue → route leg, whoever ran its user.
            let route =
                |t: &amdb_obs::telemetry::Telemetry| format!("{:?}", t.waterfall.client().route_ms);
            assert_eq!(route(tree), route(&solo));
        }
    }

    /// Where a one-shard world is *not* the standalone cluster: the write
    /// ack, the one `Origin::front` decision that changes what a client
    /// sees. It is a documented contract of the front (DESIGN.md,
    /// "Sharding"), pinned here so a refactor of the shared client-operation
    /// path cannot move it.
    #[test]
    fn front_origin_divergences_are_deliberate() {
        let quick = || {
            ClusterConfig::builder()
                .slaves(2)
                .workload(WorkloadConfig::quick(40))
                .data_size(DataSize { scale: 30 })
                .seed(7)
        };
        let both = |base: ClusterConfig| {
            let solo = run_cluster(base.clone());
            (solo, run_sharded_cluster(ShardedConfig::new(1, base)))
        };
        let mean = |s: &Option<Summary>| s.as_ref().expect("latencies recorded").mean;

        // Write ack: front writes respond at master commit, not when every
        // slave has applied them.
        let (solo, sharded) = both(quick().mode(ReplMode::Sync).build());
        assert!(mean(&sharded.latency_ms) < mean(&solo.latency_ms));

        // Write ack under the shared log: at commit, not at the quorum
        // instant — and with no fault planned nothing is lost either way.
        let (solo, sharded) = both(quick().backend(BackendKind::SharedLog).build());
        assert!(mean(&sharded.latency_ms) < mean(&solo.latency_ms));
        assert_eq!(sharded.per_shard[0].lost_writes, 0);
        assert_eq!(solo.lost_writes, 0);
    }

    /// Control-plane events under the sharded host: every tree's planned
    /// slave fault, replacement and master failover ride the shared agenda
    /// as `ShardedEvent::Tree` payloads. Both faults land in the ramp-up,
    /// so steady-window writes prove the promoted masters took over.
    #[test]
    fn planned_faults_and_failover_fire_in_every_tree() {
        let base = ClusterConfig::builder()
            .slaves(3)
            .workload(WorkloadConfig::quick(24))
            .data_size(DataSize { scale: 30 })
            .seed(13)
            .fault(FaultPlan {
                slave: 2,
                fail_at: SimDuration::from_secs(50),
                recover_after: Some(SimDuration::from_secs(20)),
            })
            .master_fault(MasterFaultPlan {
                fail_at: SimDuration::from_secs(60),
                detection_delay: SimDuration::from_secs(5),
            })
            .build();
        let r = run_sharded_cluster(ShardedConfig::new(2, base));
        for (k, tree) in r.per_shard.iter().enumerate() {
            for what in ["failed", "replaced", "promoted"] {
                assert!(
                    tree.membership_events.iter().any(|(_, e)| e.contains(what)),
                    "shard {k} logged no {what:?} event: {:?}",
                    tree.membership_events
                );
            }
            assert!(tree.recovery_ms.is_some(), "shard {k} recovered");
        }
        assert!(r.steady_writes > 0, "writes resumed after the failovers");
    }

    /// With no cross-shard reads every op goes to exactly one tree, and the
    /// shard map spreads the keyspace so every tree serves traffic.
    #[test]
    fn zero_cross_fraction_routes_single_shard_and_spreads_load() {
        let base = quick_cfg(16, 1, 11);
        let r = run_sharded_cluster(ShardedConfig::new(2, base));
        assert_eq!(r.scatter_reads, 0);
        assert_eq!(r.scatter_legs, 0);
        assert_eq!(r.per_shard.len(), 2);
        for (k, tree) in r.per_shard.iter().enumerate() {
            let reads: u64 = tree.reads_per_slave.iter().sum();
            assert!(reads > 0, "shard {k} served no slave reads");
        }
        assert!(r.steady_ops > 0);
    }

    /// Satellite fix: a scattered read whose legs are *all* dropped by the
    /// consistency filter must re-run as one master-routed leg and still
    /// complete — never finish with zero legs. Drives `op_done` directly
    /// with a gather one over-bound leg away from completion.
    #[test]
    fn all_filtered_scatter_falls_back_to_master_leg() {
        let base = quick_cfg(8, 1, 17);
        let cfg = ShardedConfig::new(2, base).cross_shard_read_fraction(1.0);
        let (template, counters) = load_template(cfg.base.seed, cfg.base.data_size);
        let mut sim: ShardedSim = Sim::new();
        let mut world = ShardedWorld::new(&cfg, &template, counters);
        // One scattered read in flight, bound 1 ms; shard 0's leg already
        // arrived 50 ms stale (filtered), shard 1's is about to.
        // The completion path counts the op completed, so the synthetic op
        // is issued like a generated op would be.
        let op = world.front.users.issue_read();
        let mut g = Gather::new(2, ConsistencyPolicy::BoundedStaleness { max_ms: 1.0 });
        g.offer(0, 50.0, Vec::new());
        world.front.inflight.insert(
            0,
            InFlight {
                id: 99,
                origin: Origin {
                    user: 0,
                    issued: sim.now(),
                    front: true,
                },
                class: OpClass::Read,
                pending: 1,
                all_slave: true,
                gather: Some(g),
                op: Some(op),
            },
        );
        world.op_done(
            &mut sim,
            1,
            InjectedDone {
                user: 0,
                // `None` keeps the balancer's outstanding counts honest —
                // this synthetic leg was never routed through the proxy.
                routed_slave: None,
                staleness_ms: 40.0,
            },
        );
        assert_eq!(world.front.stats.scatter_master_fallbacks, 1);
        assert_eq!(world.front.stats.scatter_filtered_legs, 2);
        let fl = world.front.inflight.get(&0).expect("still in flight");
        assert_eq!(fl.pending, 1, "one fallback leg outstanding");
        assert!(fl.gather.is_none(), "fallback completes as a plain read");
        assert!(!fl.all_slave, "fallback leg is master-served");
        // Drain: the fallback leg must complete the op (the user loop it
        // hands off to then runs the rest of the workload).
        sim.run(&mut world);
        assert!(
            !world.front.inflight.contains_key(&0),
            "fallback leg completed the read"
        );
        assert_eq!(world.front.stats.scatter_master_fallbacks, 1);
    }

    /// Scatter-gather fans a read out to every tree under one id, and the
    /// whole sharded world is deterministic run-to-run.
    #[test]
    fn scatter_gather_fans_out_and_is_deterministic() {
        let mk = || ShardedConfig::new(3, quick_cfg(12, 1, 13)).cross_shard_read_fraction(0.3);
        let a = run_sharded_cluster(mk());
        let b = run_sharded_cluster(mk());
        assert!(a.scatter_reads > 0, "30% of reads should scatter");
        assert_eq!(a.scatter_legs, a.scatter_reads * 3);
        assert!(a.scatter_reads_steady <= a.scatter_reads);
        assert_eq!(a.steady_ops, b.steady_ops);
        assert_eq!(a.scatter_reads, b.scatter_reads);
        assert_eq!(a.throughput_ops_s.to_bits(), b.throughput_ops_s.to_bits());
        assert_eq!(format!("{:?}", a.latency_ms), format!("{:?}", b.latency_ms));
    }
}
