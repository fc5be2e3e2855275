//! The four workloads: frozen cell lists, config construction from the
//! seed, one-cell execution with harness spans, the report fingerprint, and
//! the invariant / bypass checks that decide whether a cell failed.
//!
//! A *cell* is one complete Cloudstone run (closed loop of N emulated users
//! with think time, in simulated time). One *rep* runs every cell of the
//! workload once. The lists below were calibrated once on a 2-core host so
//! that a serial rep takes 3.5–4.5 s; `BENCHMARK.json` freezes them by name.

use crate::stats::{cpu_seconds, fnv1a};
use crate::trace::{SpanId, Tracer};
use amdb_cloudstone::{DataCounters, DataSize, MixConfig, Phases, WorkloadConfig};
use amdb_core::{
    run_sharded_telemetry, BackendKind, Cluster, ClusterConfig, ConsistencyConfig,
    ConsistencyPolicy, ObsConfig, Placement, RunReport, ShardedConfig, ShardedReport,
};
use amdb_experiments::calib::paper_cost_model;
use amdb_experiments::exec::{parallel_map, Progress};
use amdb_experiments::sweep::SweepSpec;
use amdb_experiments::Fidelity;
use amdb_net::Region;
use amdb_sim::{Rng, Sim};
use amdb_sql::Engine;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The seed the cell lists were frozen at: `expected_fingerprints.txt`
/// applies to it and to no other.
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper5050,
    Paper8020,
    PlanesOn,
    SweepJobs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper5050,
        Workload::Paper8020,
        Workload::PlanesOn,
        Workload::SweepJobs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper5050 => "paper_5050",
            Workload::Paper8020 => "paper_8020",
            Workload::PlanesOn => "planes_on",
            Workload::SweepJobs => "sweep_jobs",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads of a rep in the workload's own mode: `sweep_jobs` is
    /// how users run `paper --jobs N`, the rest are serial.
    pub fn jobs(self) -> usize {
        match self {
            Workload::SweepJobs => max_jobs(),
            _ => 1,
        }
    }

    /// Read share of the `OpGenerator` stream the layer drives replay.
    pub fn drive_mix(self) -> MixConfig {
        match self {
            Workload::Paper5050 | Workload::PlanesOn => MixConfig::RW_50_50,
            Workload::Paper8020 => MixConfig::RW_80_20,
            // The union of both paper halves.
            Workload::SweepJobs => MixConfig {
                read_fraction: 0.65,
            },
        }
    }

    /// Binlog format (and replication backend) the layer drives use.
    pub fn drive_backend(self) -> BackendKind {
        match self {
            Workload::PlanesOn => BackendKind::SharedLog,
            _ => BackendKind::Statement,
        }
    }

    /// Pending-event depth the agenda drive holds: the largest user count
    /// in the workload's cells (one think-time event per user dominates).
    pub fn agenda_depth(self) -> usize {
        match self {
            Workload::Paper5050 => 200,
            Workload::Paper8020 | Workload::SweepJobs => 450,
            Workload::PlanesOn => 700,
        }
    }
}

/// The generator is this process, with at most `min(nproc, 2)` threads.
pub fn max_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Length of one cell's run. `Paper` is the paper's 35-minute run; `Quick`
/// is the repo's proportionally shrunk one, used for the cells whose paper
/// run alone would take longer than a whole rep may.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Len {
    Paper,
    Quick,
}

impl Len {
    fn phases(self, smoke: bool) -> Phases {
        match self {
            Len::Quick => Phases::quick(),
            Len::Paper if smoke => Phases::quick(),
            Len::Paper => Phases::paper(),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Len::Paper => "paper",
            Len::Quick => "quick",
        }
    }
}

const EU: Placement = Placement::DifferentRegion(Region::EuWest1);

/// `paper_5050`: `SweepSpec::fig2_fig5(Full)` mix/size/phases; placements
/// {same zone, different region} × slaves {1,4} × users {50,200}.
const CELLS_5050: [(Placement, usize, u32); 8] = [
    (Placement::SameZone, 1, 50),
    (Placement::SameZone, 1, 200),
    (Placement::SameZone, 4, 50),
    (Placement::SameZone, 4, 200),
    (EU, 1, 50),
    (EU, 1, 200),
    (EU, 4, 50),
    (EU, 4, 200),
];

/// `paper_8020`: `SweepSpec::fig3_fig6(Full)` mix/size; same zone × slaves
/// {1,5,11} × users {50,450}. The two cells that saturate five and eleven
/// slaves take 2.8 s and 7.1 s of host time at paper length, so they run at
/// quick length; the four others run the paper's 35 minutes.
const CELLS_8020: [(usize, u32, Len); 6] = [
    (1, 50, Len::Paper),
    (1, 450, Len::Paper),
    (5, 50, Len::Paper),
    (5, 450, Len::Quick),
    (11, 50, Len::Paper),
    (11, 450, Len::Quick),
];

/// `planes_on`: every optional plane on in every cell; backends {row,
/// shared-log} × (slaves, users) {(1,175), (3,175), (3,700)}, quick length.
const CELLS_PLANES: [(BackendKind, usize, u32); 6] = [
    (BackendKind::Row, 1, 175),
    (BackendKind::Row, 3, 175),
    (BackendKind::Row, 3, 700),
    (BackendKind::SharedLog, 1, 175),
    (BackendKind::SharedLog, 3, 175),
    (BackendKind::SharedLog, 3, 700),
];

const PLANES_SHARDS: u32 = 4;
const PLANES_CROSS_SHARD_READS: f64 = 0.05;
const PLANES_APPLY_WORKERS: usize = 4;
const PLANES_STALENESS_MS: f64 = 250.0;
const PLANES_SAMPLE_MS: u64 = 250;

/// What one cell runs.
pub enum CellRun {
    /// One replication tree forked off `Prepared::templates[template]`;
    /// every optional plane off.
    Tree {
        cfg: Box<ClusterConfig>,
        template: usize,
    },
    /// Four sharded trees with every optional plane on.
    Fleet { cfg: Box<ShardedConfig> },
}

pub struct Cell {
    pub label: String,
    pub run: CellRun,
}

/// Everything set-up builds before the first rep.
pub struct Prepared {
    pub cells: Vec<Cell>,
    /// Template databases of the data sizes the workload uses.
    pub templates: Vec<(Engine, DataCounters)>,
    /// Frozen fingerprints by cell label (default seed, full length only).
    pub expected: BTreeMap<String, u64>,
}

fn placement_tag(p: Placement) -> &'static str {
    match p {
        Placement::SameZone => "same-zone",
        Placement::DifferentZone => "diff-zone",
        Placement::DifferentRegion(_) => "diff-region",
    }
}

fn parse_expected(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let (label, hex) = line.split_once(' ')?;
            Some((label.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

impl Prepared {
    fn add_sweep_cells(
        &mut self,
        mut spec: SweepSpec,
        tag: &str,
        cells: &[(Placement, usize, u32, Len)],
        smoke: bool,
    ) {
        let template = self.templates.len();
        self.templates.push(spec.template());
        for &(placement, slaves, users, len) in cells {
            spec.phases = len.phases(smoke);
            self.cells.push(Cell {
                label: format!(
                    "{tag}/{}/s{slaves}/u{users}/{}",
                    placement_tag(placement),
                    len.tag()
                ),
                run: CellRun::Tree {
                    cfg: Box::new(spec.cell_config(placement, slaves, users)),
                    template,
                },
            });
        }
    }

    fn add_5050(&mut self, seed: u64, smoke: bool) {
        let mut spec = SweepSpec::fig2_fig5(Fidelity::Full);
        spec.seed = seed;
        let cells: Vec<_> = CELLS_5050
            .iter()
            .map(|&(p, s, u)| (p, s, u, Len::Paper))
            .collect();
        self.add_sweep_cells(spec, "5050", &cells, smoke);
    }

    fn add_8020(&mut self, seed: u64, smoke: bool) {
        let mut spec = SweepSpec::fig3_fig6(Fidelity::Full);
        // The paper run seeds fig3/fig6 one above fig2/fig5 (43 vs 42).
        spec.seed = seed.wrapping_add(1);
        let cells: Vec<_> = CELLS_8020
            .iter()
            .map(|&(s, u, len)| (Placement::SameZone, s, u, len))
            .collect();
        self.add_sweep_cells(spec, "8020", &cells, smoke);
    }

    fn add_planes(&mut self, seed: u64) {
        // `run_sharded_telemetry` loads its own template per cell; this one
        // is the fork source of the layer drives, built here so set-up costs
        // what it costs on the paper workloads.
        let mut load_rng = Rng::new(seed).derive("load");
        self.templates.push(amdb_cloudstone::build_template(
            DataSize::SMALL,
            &mut load_rng,
        ));
        for (backend, slaves, users) in CELLS_PLANES {
            let label = format!("planes/{}/s{slaves}/u{users}/quick", backend.name());
            let mut workload = WorkloadConfig::paper(users);
            workload.phases = Phases::quick();
            let base = ClusterConfig::builder()
                .slaves(slaves)
                .mix(MixConfig::RW_50_50)
                .data_size(DataSize::SMALL)
                .workload(workload)
                .cost(paper_cost_model())
                .backend(backend)
                .apply_workers(PLANES_APPLY_WORKERS)
                .consistency(ConsistencyConfig::new(
                    ConsistencyPolicy::BoundedStaleness {
                        max_ms: PLANES_STALENESS_MS,
                    },
                ))
                .observability(ObsConfig {
                    enabled: true,
                    sample_interval_ms: PLANES_SAMPLE_MS,
                    tsdb: true,
                })
                .telemetry_on(true)
                .seed(Rng::new(seed).derive(&label).next_u64())
                .build();
            let cfg = ShardedConfig::new(PLANES_SHARDS, base)
                .cross_shard_read_fraction(PLANES_CROSS_SHARD_READS);
            self.cells.push(Cell {
                label,
                run: CellRun::Fleet { cfg: Box::new(cfg) },
            });
        }
    }
}

/// Set-up: template builds for the data sizes used, cell list and config
/// construction from `seed`, expected-output load. `smoke` shortens every
/// cell to quick length (fingerprints then differ from the frozen ones).
pub fn prepare(workload: Workload, seed: u64, smoke: bool) -> Prepared {
    let mut p = Prepared {
        cells: Vec::new(),
        templates: Vec::new(),
        expected: parse_expected(include_str!("../expected_fingerprints.txt")),
    };
    match workload {
        Workload::Paper5050 => p.add_5050(seed, smoke),
        Workload::Paper8020 => p.add_8020(seed, smoke),
        Workload::PlanesOn => p.add_planes(seed),
        // The union of both paper halves, in grid order.
        Workload::SweepJobs => {
            p.add_5050(seed, smoke);
            p.add_8020(seed, smoke);
        }
    }
    p
}

/// Simulated counts of one cell, summed over a rep for the *exact*
/// per-layer metrics and the attribution in `core.unattributed_share`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub sim_events: u64,
    pub steady_ops: u64,
    pub steady_reads: u64,
    pub steady_slave_reads: u64,
    pub apply_events: u64,
    pub apply_batches: u64,
    pub pool_acquired: u64,
    pub pool_waited: u64,
    pub peak_relay_backlog: u64,
    pub ack_retries: u64,
    pub quorum_failures: u64,
    pub redirects_master: u64,
    pub scatter_legs: u64,
    pub scatter_filtered_legs: u64,
    pub tsdb_tracks: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.sim_events += o.sim_events;
        self.steady_ops += o.steady_ops;
        self.steady_reads += o.steady_reads;
        self.steady_slave_reads += o.steady_slave_reads;
        self.apply_events += o.apply_events;
        self.apply_batches += o.apply_batches;
        self.pool_acquired += o.pool_acquired;
        self.pool_waited += o.pool_waited;
        self.peak_relay_backlog = self.peak_relay_backlog.max(o.peak_relay_backlog);
        self.ack_retries += o.ack_retries;
        self.quorum_failures += o.quorum_failures;
        self.redirects_master += o.redirects_master;
        self.scatter_legs += o.scatter_legs;
        self.scatter_filtered_legs += o.scatter_filtered_legs;
        self.tsdb_tracks += o.tsdb_tracks;
    }

    fn add_tree(&mut self, r: &RunReport) {
        self.apply_events += r.apply_events;
        self.apply_batches += r.apply_batches;
        self.peak_relay_backlog = self.peak_relay_backlog.max(r.peak_relay_backlog);
        if let Some(sl) = &r.shared_log {
            self.ack_retries += sl.ack_retries;
            self.quorum_failures += sl.quorum_failures;
        }
        if let Some(c) = &r.consistency {
            self.redirects_master += c.redirects_master;
        }
    }
}

/// What one cell produced.
#[derive(Debug, Clone, Default)]
pub struct CellOutcome {
    pub fingerprint: u64,
    pub counts: Counts,
    /// Broken invariants and bypass assertions; non-empty fails the cell.
    pub violations: Vec<String>,
    /// Harness-clock durations of the public calls (ns). A fleet cell is
    /// one call, `run_sharded_telemetry`, so only `run_ns` is set there.
    pub construct_ns: u64,
    pub run_ns: u64,
    pub report_ns: u64,
}

impl CellOutcome {
    /// Host time of the cell's public calls together.
    pub fn total_ns(&self) -> u64 {
        self.construct_ns + self.run_ns + self.report_ns
    }
}

fn bits(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{:016x}", v.to_bits()))
}

/// Canonical rendering of one tree's report: the simulated statistics a
/// host-time optimisation must leave untouched, floats by bit pattern.
pub fn render_tree(r: &RunReport, out: &mut String) {
    let _ = write!(
        out,
        "tput={:016x} ops={} reads={} writes={} events={} apply={}/{} pool={}/{} delays=",
        r.throughput_ops_s.to_bits(),
        r.steady_ops,
        r.steady_reads,
        r.steady_writes,
        r.sim_events,
        r.apply_events,
        r.apply_batches,
        r.pool_stats.0,
        r.pool_stats.1,
    );
    for d in &r.delays {
        let _ = write!(out, "{},", bits(d.relative_ms));
    }
    out.push('\n');
}

/// Canonical rendering of a sharded report: the front's own statistics,
/// then every tree in shard order.
pub fn render_fleet(r: &ShardedReport, out: &mut String) {
    let _ = writeln!(
        out,
        "front tput={:016x} ops={} reads={} writes={} events={} pool={}/{} scatter={}/{}/{}",
        r.throughput_ops_s.to_bits(),
        r.steady_ops,
        r.steady_reads,
        r.steady_writes,
        r.sim_events,
        r.pool_stats.0,
        r.pool_stats.1,
        r.scatter_reads,
        r.scatter_legs,
        r.scatter_filtered_legs,
    );
    for tree in &r.per_shard {
        render_tree(tree, out);
    }
}

fn check_tree_invariants(r: &RunReport, what: &str, v: &mut Vec<String>) {
    if r.lost_writes != 0 {
        v.push(format!(
            "{what}: {} lost writes, no fault planned",
            r.lost_writes
        ));
    }
    if let Some(sl) = &r.shared_log {
        if sl.quorum_failures != 0 {
            v.push(format!("{what}: {} quorum failures", sl.quorum_failures));
        }
    }
}

fn run_tree(
    cfg: &ClusterConfig,
    template: &(Engine, DataCounters),
    tr: &Tracer,
    parent: Option<SpanId>,
) -> CellOutcome {
    let mut out = CellOutcome::default();
    let mut sim = Sim::new();
    let t = Instant::now();
    let mut world = tr.scope("Cluster::with_template", "", parent, |_| {
        Cluster::with_template(cfg.clone(), &template.0, template.1.clone())
    });
    tr.scope("schedule_timeline", "", parent, |_| {
        world.schedule_timeline(&mut sim)
    });
    out.construct_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    tr.scope("Sim::run", "", parent, |_| sim.run(&mut world));
    out.run_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let report = tr.scope("Cluster::report", "", parent, |_| {
        world.report(sim.events_executed())
    });
    out.report_ns = t.elapsed().as_nanos() as u64;

    let mut rendered = String::new();
    render_tree(&report, &mut rendered);
    out.fingerprint = fnv1a(rendered.as_bytes());
    out.counts = Counts {
        sim_events: report.sim_events,
        steady_ops: report.steady_ops,
        steady_reads: report.steady_reads,
        steady_slave_reads: report.steady_slave_reads,
        pool_acquired: report.pool_stats.0,
        pool_waited: report.pool_stats.1,
        ..Counts::default()
    };
    out.counts.add_tree(&report);

    let v = &mut out.violations;
    if report.steady_ops == 0 {
        v.push("no operation completed in the steady window".into());
    }
    check_tree_invariants(&report, "tree", v);
    // Bypass assertions: a paper cell must not touch any optional plane, so
    // a change to one of them predicts no change here — checked, not assumed.
    if report.apply_batches != report.apply_events {
        v.push("amdb-apply batched events with the serial apply thread".into());
    }
    if report.consistency.is_some() {
        v.push("amdb-consistency active on a paper cell".into());
    }
    if report.shared_log.is_some() {
        v.push("log store active on a paper cell".into());
    }
    if world.obs().is_enabled() {
        v.push("obs is not Null on a paper cell".into());
    }
    if world.telemetry().is_some() {
        v.push("amdb-telemetry active on a paper cell".into());
    }
    out
}

fn run_fleet(cfg: &ShardedConfig, tr: &Tracer, parent: Option<SpanId>) -> CellOutcome {
    let mut out = CellOutcome::default();
    let t = Instant::now();
    let (report, bundle) = tr.scope("run_sharded_telemetry", "", parent, |_| {
        run_sharded_telemetry(cfg.clone())
    });
    out.run_ns = t.elapsed().as_nanos() as u64;

    let mut rendered = String::new();
    render_fleet(&report, &mut rendered);
    out.fingerprint = fnv1a(rendered.as_bytes());
    let tsdb_tracks: usize = bundle.tsdbs.iter().map(|(_, db)| db.len()).sum::<usize>()
        + bundle.front_tsdb.as_ref().map_or(0, |db| db.len());
    out.counts = Counts {
        sim_events: report.sim_events,
        steady_ops: report.steady_ops,
        steady_reads: report.steady_reads,
        steady_slave_reads: report.steady_slave_reads,
        pool_acquired: report.pool_stats.0,
        pool_waited: report.pool_stats.1,
        scatter_legs: report.scatter_legs,
        scatter_filtered_legs: report.scatter_filtered_legs,
        tsdb_tracks: tsdb_tracks as u64,
        ..Counts::default()
    };
    for tree in &report.per_shard {
        out.counts.add_tree(tree);
    }

    let v = &mut out.violations;
    if report.steady_ops == 0 {
        v.push("no operation completed in the steady window".into());
    }
    for (k, tree) in report.per_shard.iter().enumerate() {
        check_tree_invariants(tree, &format!("shard {k}"), v);
    }
    // Bypass assertions, the other way round: every optional plane did work.
    let c = &out.counts;
    if c.apply_batches == 0 || c.apply_batches >= c.apply_events {
        v.push("amdb-apply never group-committed a batch".into());
    }
    if c.scatter_legs == 0 {
        v.push("amdb-shard never scattered a read".into());
    }
    let served: u64 = report
        .per_shard
        .iter()
        .filter_map(|t| t.consistency.as_ref())
        .map(|c| c.served_staleness_samples)
        .sum();
    if served == 0 {
        v.push("amdb-consistency judged no read".into());
    }
    if bundle.telemetry.total_committed() == 0 {
        v.push("amdb-telemetry traced no write".into());
    }
    if c.tsdb_tracks == 0 {
        v.push("the tsdb holds no track".into());
    }
    if cfg.base.backend == BackendKind::SharedLog {
        let appends: u64 = report
            .per_shard
            .iter()
            .filter_map(|t| t.shared_log.as_ref())
            .map(|sl| sl.appends)
            .sum();
        if appends == 0 {
            v.push("the log store took no append".into());
        }
    }
    out
}

/// Run one cell under a `cell` span.
pub fn run_cell(p: &Prepared, cell: &Cell, tr: &Tracer, parent: Option<SpanId>) -> CellOutcome {
    tr.scope("cell", &cell.label, parent, |span| match &cell.run {
        CellRun::Tree { cfg, template } => run_tree(cfg, &p.templates[*template], tr, span),
        CellRun::Fleet { cfg } => run_fleet(cfg, tr, span),
    })
}

/// One rep: every cell once. `Err` is a panic message.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub cells: Vec<Result<CellOutcome, String>>,
    /// The rep's `parallel_map` span (the parent of its `cell` spans), when
    /// traced.
    pub span: Option<SpanId>,
}

impl Rep {
    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for c in self.cells.iter().flatten() {
            total.add(&c.counts);
        }
        total
    }
}

/// Run every cell once through the repo's own executor
/// (`amdb_experiments::exec::parallel_map`; `jobs == 1` is its inline
/// serial path), silent progress. A panicking cell is caught and reported,
/// it does not take the rep down.
pub fn run_rep<F>(cells: &[Cell], jobs: usize, tr: &Tracer, runner: F) -> Rep
where
    F: Fn(&Cell, Option<SpanId>) -> CellOutcome + Sync,
{
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let (span, results) = tr.scope("parallel_map", "", None, |span| {
        let results = parallel_map(cells, jobs, &Progress::Silent, |_, cell, _| {
            catch_unwind(AssertUnwindSafe(|| runner(cell, span))).map_err(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string())
            })
        });
        (span, results)
    });
    Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        cells: results,
        span,
    }
}

/// The verdict over all reps of a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Cells attempted (cells × reps).
    pub attempted: u64,
    /// Cells that panicked, broke an invariant, changed fingerprint between
    /// reps, or missed the frozen fingerprint.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Fingerprint per cell label, from the first rep.
    pub fingerprints: BTreeMap<String, u64>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A failed cell fails the run's exit code.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

/// Judge `reps` of `cells`. With `expected`, every cell must also equal its
/// frozen fingerprint (and have one).
pub fn judge(cells: &[Cell], reps: &[Rep], expected: Option<&BTreeMap<String, u64>>) -> Verdict {
    let mut v = Verdict::default();
    for (r, rep) in reps.iter().enumerate() {
        for (cell, result) in cells.iter().zip(&rep.cells) {
            v.attempted += 1;
            let before = v.problems.len();
            let mut fail = |why: String| v.problems.push(format!("rep {r} {}: {why}", cell.label));
            match result {
                Err(panic) => fail(format!("panicked: {panic}")),
                Ok(out) => {
                    for violation in &out.violations {
                        fail(violation.clone());
                    }
                    let first = *v
                        .fingerprints
                        .entry(cell.label.clone())
                        .or_insert(out.fingerprint);
                    if first != out.fingerprint {
                        fail(format!(
                            "fingerprint {:016x} differs from the first rep's {first:016x}",
                            out.fingerprint
                        ));
                    }
                    if let Some(expected) = expected {
                        match expected.get(&cell.label) {
                            Some(&want) if want == out.fingerprint => {}
                            Some(&want) => fail(format!(
                                "fingerprint {:016x} is not the frozen {want:016x}",
                                out.fingerprint
                            )),
                            None => fail("no frozen fingerprint".to_string()),
                        }
                    }
                }
            }
            if v.problems.len() > before {
                v.failed += 1;
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_core::DelayReport;

    fn delay(rel: Option<f64>) -> DelayReport {
        DelayReport {
            baseline_ms: Some(3.0),
            loaded_ms: rel.map(|r| r + 3.0),
            relative_ms: rel,
            loaded_samples: 10,
            missing_samples: 0,
        }
    }

    fn report() -> RunReport {
        RunReport {
            users: 50,
            n_slaves: 2,
            final_slaves: 2,
            membership_events: vec![],
            lost_writes: 0,
            steady_ops: 1000,
            steady_reads: 600,
            steady_writes: 400,
            steady_slave_reads: 590,
            throughput_ops_s: 8.25,
            latency_ms: None,
            master_utilization: 0.4,
            slave_utilizations: vec![0.1, 0.2],
            delays: vec![delay(Some(1.5)), delay(None)],
            reads_per_slave: vec![300, 290],
            peak_relay_backlog: 7,
            apply_batches: 800,
            apply_events: 800,
            pool_stats: (1200, 3),
            consistency: None,
            shared_log: None,
            recovery_ms: None,
            sim_events: 123_456,
        }
    }

    #[test]
    fn fingerprint_rendering_is_canonical_and_pinned() {
        let mut a = String::new();
        render_tree(&report(), &mut a);
        assert_eq!(
            a,
            "tput=4020800000000000 ops=1000 reads=600 writes=400 events=123456 \
             apply=800/800 pool=1200/3 delays=3ff8000000000000,-,\n"
        );
        assert_eq!(fnv1a(a.as_bytes()), 0x73fd_b4f2_fa62_20cc);
        // Fields outside the rendering (host-independent but not pinned:
        // utilizations, latency summary) do not move the fingerprint...
        let mut other = report();
        other.master_utilization = 0.9;
        let mut b = String::new();
        render_tree(&other, &mut b);
        assert_eq!(a, b);
        // ...one ulp of a pinned float does.
        other.throughput_ops_s = f64::from_bits(other.throughput_ops_s.to_bits() + 1);
        let mut c = String::new();
        render_tree(&other, &mut c);
        assert_ne!(a, c);
    }

    fn dummy_cells(labels: &[&str]) -> Vec<Cell> {
        labels
            .iter()
            .map(|l| Cell {
                label: l.to_string(),
                run: CellRun::Tree {
                    cfg: Box::new(ClusterConfig::builder().build()),
                    template: 0,
                },
            })
            .collect()
    }

    fn ok_outcome(fp: u64) -> CellOutcome {
        CellOutcome {
            fingerprint: fp,
            ..CellOutcome::default()
        }
    }

    #[test]
    fn a_panicking_cell_is_counted_and_fails_the_exit_code() {
        let cells = dummy_cells(&["fine", "boom", "also-fine"]);
        let runner = |cell: &Cell, _: Option<SpanId>| {
            if cell.label == "boom" {
                panic!("injected");
            }
            ok_outcome(7)
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let reps = [
            run_rep(&cells, 1, &Tracer::off(), runner),
            run_rep(&cells, 2, &Tracer::off(), runner),
        ];
        std::panic::set_hook(hook);
        let v = judge(&cells, &reps, None);
        assert_eq!((v.attempted, v.failed), (6, 2));
        assert!(!v.correct());
        assert_eq!(v.exit_code(), 1);
        assert!(v.problems[0].contains("boom") && v.problems[0].contains("injected"));
        let share = v.failed as f64 / v.attempted as f64;
        assert!((share - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn judge_flags_drift_violations_and_frozen_mismatches() {
        let cells = dummy_cells(&["a", "b"]);
        let rep = |fps: [u64; 2], violation: Option<&str>| Rep {
            wall_s: 1.0,
            cpu_s: 1.0,
            span: None,
            cells: vec![
                Ok(ok_outcome(fps[0])),
                Ok(CellOutcome {
                    fingerprint: fps[1],
                    violations: violation.iter().map(|s| s.to_string()).collect(),
                    ..CellOutcome::default()
                }),
            ],
        };
        let clean = judge(&cells, &[rep([1, 2], None), rep([1, 2], None)], None);
        assert_eq!(
            (clean.attempted, clean.failed, clean.exit_code()),
            (4, 0, 0)
        );

        let drift = judge(&cells, &[rep([1, 2], None), rep([1, 3], None)], None);
        assert_eq!(drift.failed, 1);

        let broken = judge(&cells, &[rep([1, 2], Some("lost writes"))], None);
        assert_eq!(broken.failed, 1);

        let frozen: BTreeMap<String, u64> = [("a".to_string(), 1)].into();
        let missing = judge(&cells, &[rep([1, 2], None)], Some(&frozen));
        assert_eq!(missing.failed, 1, "b has no frozen fingerprint");
        let frozen: BTreeMap<String, u64> = [("a".to_string(), 9), ("b".to_string(), 2)].into();
        assert_eq!(judge(&cells, &[rep([1, 2], None)], Some(&frozen)).failed, 1);
    }

    #[test]
    fn cell_lists_are_the_frozen_ones_and_seed_drives_every_config() {
        let p = prepare(Workload::SweepJobs, DEFAULT_SEED, true);
        assert_eq!(p.cells.len(), CELLS_5050.len() + CELLS_8020.len());
        assert_eq!(p.templates.len(), 2);
        assert_eq!(p.cells[0].label, "5050/same-zone/s1/u50/paper");
        assert_eq!(p.cells[13].label, "8020/same-zone/s11/u450/quick");
        let seed_of = |p: &Prepared, i: usize| match &p.cells[i].run {
            CellRun::Tree { cfg, .. } => cfg.seed,
            CellRun::Fleet { cfg } => cfg.base.seed,
        };
        let q = prepare(Workload::SweepJobs, 7, true);
        assert_ne!(seed_of(&p, 0), seed_of(&q, 0));
        // The default seed reproduces the paper run's own cell seeds.
        let spec = SweepSpec::fig3_fig6(Fidelity::Full);
        assert_eq!(seed_of(&p, 8), spec.cell_seed(Placement::SameZone, 1, 50));
        let planes = prepare(Workload::PlanesOn, DEFAULT_SEED, true);
        assert_eq!(planes.cells.len(), CELLS_PLANES.len());
        assert_ne!(seed_of(&planes, 0), seed_of(&planes, 1));
    }

    #[test]
    fn expected_file_parses_and_covers_every_cell() {
        let expected = parse_expected(include_str!("../expected_fingerprints.txt"));
        for w in Workload::ALL {
            // Labels do not depend on smoke mode; smoke keeps this test fast.
            for cell in prepare(w, DEFAULT_SEED, true).cells {
                assert!(expected.contains_key(&cell.label), "{}", cell.label);
            }
        }
        assert_eq!(
            parse_expected("# c\n\nx/y 00ff\nbad\n"),
            [("x/y".to_string(), 255)].into()
        );
    }
}
