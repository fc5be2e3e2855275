//! Layer drives: after the traced rep, the harness replays an `OpGenerator`
//! stream under the workload's mix against each crate's public API on a
//! template fork, one span per batch of calls. Each drive yields the median
//! host nanoseconds per call over its batches — the number a later change to
//! that crate should move, and the one it can be held to.
//!
//! A batch is 1 024 calls unless one call is so cheap that 1 024 of them
//! would sit inside the clock's own resolution; those drives say so.

use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::workloads::Workload;
use amdb_apply::{writeset_of, ApplyScheduler, TableInterner};
use amdb_cloudstone::{
    build_template, shard_key_of, DataCounters, DataSize, MixConfig, OpClass, OpGenerator,
    Operation, SCHEMA_SQL,
};
use amdb_consistency::{ConsistencyConfig, ConsistencyPolicy, SessionToken, WatermarkTable};
use amdb_experiments::exec::{parallel_map, Progress};
use amdb_metrics::QuantileSketch;
use amdb_net::{NetModel, Region, Zone};
use amdb_obs::{Component, FlowPhase, Obs, ObsConfig, Tsdb};
use amdb_pool::{PoolConfig, SimPool};
use amdb_proxy::{Proxy, RoundRobin, Route};
use amdb_repl::{LogStore, LogStoreConfig, RelayQueue, ReplicatedDb};
use amdb_shard::{Gather, ShardMap};
use amdb_sim::{Event, FifoCpu, Rng, Sim, SimDuration, SimTime};
use amdb_sql::engine::split_statements;
use amdb_sql::{BinlogEvent, BinlogFormat, Engine, ForkRole, Lsn, Session};
use amdb_telemetry::StalenessWaterfall;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCH: usize = 1024;
/// Batch size for calls of a few nanoseconds.
const CHEAP_BATCH: usize = 16 * BATCH;
/// Upper bound on batches per drive: bounds trace size and drive memory.
const MAX_BATCHES: usize = 64;
const MIN_BATCHES: usize = 3;

/// What the drives measured, by per-layer metric name, plus the two
/// statements-per-operation ratios the attribution needs.
pub struct DriveResults {
    pub metrics: BTreeMap<&'static str, f64>,
    pub read_stmts_per_op: f64,
    pub write_stmts_per_op: f64,
}

/// One timed batch: units of work done, and the interval that did them
/// (generation of inputs stays outside it).
struct Timed {
    units: u64,
    start: Instant,
    end: Instant,
}

fn timed(f: impl FnOnce() -> u64) -> Timed {
    let start = Instant::now();
    let units = f();
    Timed {
        units,
        start,
        end: Instant::now(),
    }
}

struct Driver<'a> {
    tr: &'a Tracer,
    parent: Option<SpanId>,
    /// Host time each drive may spend.
    slice: Duration,
    metrics: BTreeMap<&'static str, f64>,
}

impl Driver<'_> {
    /// Run `batch` until the slice is spent (at least `MIN_BATCHES`, at most
    /// `MAX_BATCHES`, or until it returns `None`: input exhausted) and store
    /// the median of host-ns-per-unit × `scale` under `metric`.
    fn drive(
        &mut self,
        metric: &'static str,
        scale: f64,
        mut batch: impl FnMut() -> Option<Timed>,
    ) {
        let deadline = Instant::now() + self.slice;
        let mut per_unit = Vec::new();
        while per_unit.len() < MAX_BATCHES
            && (per_unit.len() < MIN_BATCHES || Instant::now() < deadline)
        {
            let Some(t) = batch() else { break };
            self.tr.record(metric, "", self.parent, t.start, t.end);
            if t.units > 0 {
                let ns = t.end.duration_since(t.start).as_nanos() as f64;
                per_unit.push(ns / t.units as f64 * scale);
            }
        }
        self.metrics.insert(metric, median(&per_unit));
    }
}

/// Execute every statement of `ops` on `engine`; returns statements run.
fn execute_ops(
    engine: &mut Engine,
    session: &mut Session,
    ops: &[Operation],
    failed: &mut u64,
) -> u64 {
    let mut stmts = 0;
    for op in ops {
        for (sql, params) in &op.statements {
            if black_box(engine.execute(session, sql, params)).is_err() {
                *failed += 1;
            }
            stmts += 1;
        }
    }
    stmts
}

fn gen_ops(n: usize, mut next: impl FnMut() -> Operation) -> Vec<Operation> {
    (0..n).map(|_| next()).collect()
}

struct Noop;
struct Nothing;

impl Event<Nothing> for Noop {
    fn fire(self, _: &mut Nothing, _: &mut Sim<Nothing, Self>) {}
}

/// Cheap deterministic stream for probe arguments and event delays.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

fn probe_volley(obs: &mut Obs, i: u64) {
    let t = SimTime::from_micros(black_box(i));
    obs.counter(Component::Cpu, 0, "queue_depth", t, 4.0);
    obs.flow(FlowPhase::Step, Component::Repl, 0, "apply_batch", t, i);
    obs.observe_sketch(Component::Repl, 0, "apply_commit_wait_ms", 0.5);
    obs.tsdb_observe(Component::Repl, 0, "apply_batch_len", t, 4.0);
}

const PROBES_PER_VOLLEY: u64 = 4;

/// Run every layer drive for `workload` inside about `budget` of host time.
pub fn run_drives(
    workload: Workload,
    template: &Engine,
    counters: &DataCounters,
    seed: u64,
    budget: Duration,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> DriveResults {
    const DRIVES: u32 = 30;
    let mut d = Driver {
        tr,
        parent,
        slice: (budget / DRIVES).clamp(Duration::from_millis(10), Duration::from_millis(200)),
        metrics: BTreeMap::new(),
    };
    let mix: MixConfig = workload.drive_mix();
    let backend = workload.drive_backend();
    let format = backend.format();
    let root = Rng::new(seed).derive("layer-drives");
    let generator = |label: &str| OpGenerator::new(counters.clone(), root.derive(label));
    let mut sql_failed = 0u64;

    // ---- amdb-cloudstone / amdb-net --------------------------------------
    {
        let mut gen = generator("generate");
        d.drive("cloudstone.generate_ns_per_op", 1.0, || {
            Some(timed(|| {
                for _ in 0..BATCH {
                    black_box(gen.generate(mix));
                }
                BATCH as u64
            }))
        });
    }
    for (metric, size) in [
        ("cloudstone.template_build_small_s", DataSize::SMALL),
        ("cloudstone.template_build_large_s", DataSize::LARGE),
    ] {
        let t = timed(|| {
            black_box(build_template(size, &mut Rng::new(seed).derive("load")));
            1
        });
        tr.record(metric, "", parent, t.start, t.end);
        d.metrics
            .insert(metric, t.end.duration_since(t.start).as_secs_f64());
    }
    {
        let mut net = NetModel::with_defaults(root.derive("net"));
        let here = Zone::new(Region::UsWest1, 'a');
        let there = Zone::new(Region::EuWest1, 'a');
        d.drive("net.delay_ns", 1.0, || {
            Some(timed(|| {
                for _ in 0..CHEAP_BATCH {
                    black_box(net.delay(here, there));
                }
                CHEAP_BATCH as u64
            }))
        });
    }

    // ---- amdb-sql: reads and writes under the mix, warm plan cache --------
    let mut read_ops_seen = 0u64;
    let mut read_stmts_seen = 0u64;
    let mut reader = template.fork(ForkRole::Slave);
    {
        let mut gen = generator("reads");
        let mut session = Session::new();
        d.drive("sql.read_ns_per_stmt", 1.0, || {
            let ops = gen_ops(BATCH, || gen.generate_read());
            let t = timed(|| execute_ops(&mut reader, &mut session, &ops, &mut sql_failed));
            read_ops_seen += ops.len() as u64;
            read_stmts_seen += t.units;
            Some(t)
        });
    }
    let mut write_ops_seen = 0u64;
    let mut write_stmts_seen = 0u64;
    let mut writer = template.fork(ForkRole::Master(format));
    {
        let mut gen = generator("writes");
        let mut session = Session::new();
        d.drive("sql.write_ns_per_stmt", 1.0, || {
            let ops = gen_ops(BATCH, || gen.generate_write());
            let t = timed(|| execute_ops(&mut writer, &mut session, &ops, &mut sql_failed));
            write_ops_seen += ops.len() as u64;
            write_stmts_seen += t.units;
            Some(t)
        });
    }
    {
        let (r, w) = (reader.plan_cache_stats(), writer.plan_cache_stats());
        let lookups = r.hits + r.misses + w.hits + w.misses;
        d.metrics.insert(
            "sql.plan_cache_hit_ratio",
            (r.hits + w.hits) as f64 / lookups.max(1) as f64,
        );
    }

    // ---- amdb-sql: prepare, cold and hit ----------------------------------
    let texts: Vec<String> = {
        let mut gen = generator("texts");
        let mut texts: Vec<String> = gen_ops(256, || gen.generate(mix))
            .into_iter()
            .flat_map(|op| op.statements.into_iter().map(|(sql, _)| sql))
            .collect();
        texts.sort();
        texts.dedup();
        texts
    };
    for (metric, capacity) in [
        ("sql.prepare_cold_ns", Some(0)),
        ("sql.prepare_hit_ns", None),
    ] {
        let mut engine = template.fork(ForkRole::Slave);
        if let Some(capacity) = capacity {
            engine.set_plan_cache_capacity(capacity);
        }
        for sql in &texts {
            let _ = engine.prepare(sql);
        }
        d.drive(metric, 1.0, || {
            Some(timed(|| {
                for sql in texts.iter().cycle().take(BATCH) {
                    if black_box(engine.prepare(black_box(sql))).is_err() {
                        sql_failed += 1;
                    }
                }
                BATCH as u64
            }))
        });
    }

    // ---- amdb-sql: fork ----------------------------------------------------
    d.drive("sql.fork_us", 1e-3, || {
        const FORKS: u64 = 32;
        Some(timed(|| {
            for _ in 0..FORKS {
                black_box(template.fork(ForkRole::Slave));
            }
            FORKS
        }))
    });

    // ---- amdb-sql: binlog encode + bytes per event, apply_event ------------
    // One fixed 1 024-operation write stream per format gives the *exact*
    // bytes-per-event; the apply drives then keep extending the same two
    // masters and time a slave fork applying what they logged.
    let mut stmt_events: Vec<BinlogEvent> = Vec::new();
    let mut row_events: Vec<BinlogEvent> = Vec::new();
    for (fmt, bytes_metric, apply_metric, events) in [
        (
            BinlogFormat::Statement,
            "sql.binlog_stmt_bytes_per_event",
            "sql.apply_stmt_ns",
            &mut stmt_events,
        ),
        (
            BinlogFormat::Row,
            "sql.binlog_row_bytes_per_event",
            "sql.apply_row_ns",
            &mut row_events,
        ),
    ] {
        let mut master = template.fork(ForkRole::Master(fmt));
        let mut slave = template.fork(ForkRole::Slave);
        // Same label for both formats: the two masters log the same stream.
        let mut gen = generator("binlog");
        let mut session = Session::new();
        let ops = gen_ops(BATCH, || gen.generate_write());
        execute_ops(&mut master, &mut session, &ops, &mut sql_failed);
        let logged = master.binlog_from(Lsn(0));
        let bytes: usize = logged.iter().map(BinlogEvent::encoded_len).sum();
        d.metrics
            .insert(bytes_metric, bytes as f64 / logged.len().max(1) as f64);

        let mut applied_upto = Lsn(0);
        let mut now_micros = 0i64;
        d.drive(apply_metric, 1.0, || {
            let fresh = master.binlog_from(applied_upto).to_vec();
            let t = timed(|| {
                for ev in &fresh {
                    now_micros += 1;
                    if black_box(slave.apply_event(ev, now_micros)).is_err() {
                        sql_failed += 1;
                    }
                }
                fresh.len() as u64
            });
            applied_upto = master.binlog().head();
            let ops = gen_ops(BATCH, || gen.generate_write());
            execute_ops(&mut master, &mut session, &ops, &mut sql_failed);
            Some(t)
        });
        *events = master.binlog_from(Lsn(0)).to_vec();
    }
    // What the workload's own binlog format logged.
    let logged = match format {
        BinlogFormat::Statement => &stmt_events,
        BinlogFormat::Row => &row_events,
    };
    d.drive("sql.binlog_encode_ns", 1.0, || {
        Some(timed(|| {
            for ev in logged.iter().cycle().take(BATCH) {
                black_box(ev.encode());
            }
            BATCH as u64
        }))
    });

    // ---- amdb-repl ----------------------------------------------------------
    {
        // `ReplicatedDb` has no fork constructor, so this drive loads the
        // schema alone; every Cloudstone write is an INSERT with a fresh id
        // and succeeds on empty tables.
        let mut db = ReplicatedDb::with_backend(backend, 2);
        if backend.format() == BinlogFormat::Row {
            db.set_apply_workers(4);
        }
        for stmt in split_statements(SCHEMA_SQL) {
            if !stmt.trim().is_empty() && db.execute_master(stmt.trim(), &[]).is_err() {
                sql_failed += 1;
            }
        }
        if db.pump().is_err() {
            sql_failed += 1;
        }
        let mut gen = generator("pump");
        d.drive("repl.pump_ns_per_event", 1.0, || {
            for op in gen_ops(BATCH, || gen.generate_write()) {
                for (sql, params) in &op.statements {
                    if db.execute_master(sql, params).is_err() {
                        sql_failed += 1;
                    }
                }
            }
            Some(timed(|| match db.pump() {
                Ok(applied) => applied as u64,
                Err(_) => {
                    sql_failed += 1;
                    0
                }
            }))
        });
    }
    {
        let mut relay = RelayQueue::new();
        let mut chunks = logged.chunks_exact(BATCH);
        d.drive("repl.relay_ns_per_event", 1.0, || {
            let chunk = chunks.next()?.to_vec();
            Some(timed(|| {
                relay.receive(chunk);
                let mut n = 0;
                while let Some(ev) = relay.pop_next() {
                    relay.mark_applied(ev.lsn);
                    n += 1;
                }
                n
            }))
        });
    }
    {
        let mut log = LogStore::new(LogStoreConfig::default());
        let replicas = log.config().replicas;
        d.drive("repl.logstore_ns_per_append", 1.0, || {
            Some(timed(|| {
                for _ in 0..CHEAP_BATCH {
                    let upto = Lsn(log.append(1).0 + 1);
                    for r in 0..replicas {
                        black_box(log.ack(r, upto));
                    }
                    black_box(log.durable_upto());
                }
                CHEAP_BATCH as u64
            }))
        });
    }

    // ---- amdb-apply: planning over the row stream, four workers -----------
    {
        let catalog = template.fork(ForkRole::Slave);
        let pk_of = |t: &str| catalog.pk_index_of(t);
        let mut sched = ApplyScheduler::new(4);
        let mut chunks = row_events.chunks_exact(BATCH).cycle();
        d.drive("apply.plan_batch_ns_per_event", 1.0, || {
            let chunk = chunks.next()?;
            Some(timed(|| {
                let mut head = 0;
                while head < chunk.len() {
                    head += black_box(sched.plan_batch(&chunk[head..], pk_of))
                        .len
                        .max(1);
                }
                chunk.len() as u64
            }))
        });
        let mut interner = TableInterner::new();
        let mut chunks = row_events.chunks_exact(BATCH).cycle();
        d.drive("apply.writeset_ns_per_event", 1.0, || {
            let chunk = chunks.next()?;
            Some(timed(|| {
                for ev in chunk {
                    black_box(writeset_of(ev, &mut interner, pk_of));
                }
                chunk.len() as u64
            }))
        });
    }

    // ---- amdb-pool / amdb-proxy ---------------------------------------------
    {
        let mut pool = SimPool::new(PoolConfig { max_active: 64 });
        d.drive("pool.acquire_release_ns", 1.0, || {
            Some(timed(|| {
                for _ in 0..CHEAP_BATCH {
                    black_box(pool.acquire(SimTime::ZERO));
                    black_box(pool.release(SimTime::ZERO));
                }
                CHEAP_BATCH as u64
            }))
        });
    }
    let mut stream_gen = generator("routing");
    let stream = gen_ops(CHEAP_BATCH, || stream_gen.generate(mix));
    {
        let classes: Vec<amdb_proxy::OpClass> = stream
            .iter()
            .map(|op| match op.class {
                OpClass::Read => amdb_proxy::OpClass::Read,
                OpClass::Write => amdb_proxy::OpClass::Write,
            })
            .collect();
        let mut proxy = Proxy::new(11, Box::new(RoundRobin::default()));
        d.drive("proxy.route_ns", 1.0, || {
            Some(timed(|| {
                for &class in &classes {
                    if let Route::Slave(s) = black_box(proxy.route(class)) {
                        proxy.read_done(s, 1.0);
                    }
                }
                classes.len() as u64
            }))
        });
    }

    // ---- amdb-consistency ------------------------------------------------------
    {
        const SLAVES: usize = 4;
        let mut wm = WatermarkTable::new(SLAVES, 0);
        wm.note_master_seq(1_000, 0.0);
        for s in 0..SLAVES {
            // Half the slaves caught up, half lagging.
            wm.note_applied(s, if s % 2 == 0 { 1_000 } else { 900 }, 1.0, s % 2 != 0);
        }
        let cfg = ConsistencyConfig::new(ConsistencyPolicy::BoundedStaleness { max_ms: 250.0 });
        let session = SessionToken::new();
        let mut proxy = Proxy::new(SLAVES, Box::new(RoundRobin::default()));
        d.drive("consistency.decide_read_ns", 1.0, || {
            Some(timed(|| {
                for _ in 0..BATCH {
                    black_box(cfg.decide_read(&mut proxy, &wm, &session, 5.0, 0.0));
                }
                BATCH as u64
            }))
        });
        let (mut now, mut seq) = (1.0, 1_000u64);
        d.drive("consistency.note_applied_ns", 1.0, || {
            Some(timed(|| {
                for _ in 0..CHEAP_BATCH {
                    now += 0.5;
                    seq += 1;
                    wm.note_master_seq(seq, now);
                    wm.note_applied(1, seq - 50, now, true);
                    black_box(wm.est_staleness_ms(1, now));
                }
                CHEAP_BATCH as u64
            }))
        });
    }

    // ---- amdb-shard ---------------------------------------------------------------
    {
        let keys: Vec<_> = stream.iter().map(shard_key_of).collect();
        let map = ShardMap::new(4);
        d.drive("shard.shard_of_ns", 1.0, || {
            Some(timed(|| {
                for &key in &keys {
                    black_box(map.shard_of_opt(key));
                }
                keys.len() as u64
            }))
        });
        const LEGS: usize = 4;
        let policy = ConsistencyPolicy::BoundedStaleness { max_ms: 250.0 };
        d.drive("shard.gather_ns_per_leg", 1.0, || {
            Some(timed(|| {
                for i in 0..BATCH {
                    let mut g: Gather<u64> = black_box(Gather::new(LEGS, policy));
                    for leg in 0..LEGS {
                        // Every other leg is over the staleness bound.
                        let stale = if (i + leg) % 2 == 0 { 100.0 } else { 400.0 };
                        let at = (i * LEGS + leg) as u64;
                        black_box(g.offer_at(leg, black_box(stale), vec![at], at));
                    }
                    black_box(g.merge_by(|row| *row));
                }
                (BATCH * LEGS) as u64
            }))
        });
    }

    // ---- amdb-obs / amdb-metrics / amdb-telemetry -----------------------------------
    {
        let mut obs = Obs::default();
        d.drive("obs.disabled_probe_ns", 1.0, || {
            Some(timed(|| {
                for i in 0..CHEAP_BATCH as u64 {
                    // Re-read the recorder each volley, as a probe site in
                    // the cluster does: the discriminant test is the cost.
                    probe_volley(black_box(&mut obs), i);
                }
                CHEAP_BATCH as u64 * PROBES_PER_VOLLEY
            }))
        });
        let cfg = ObsConfig {
            enabled: true,
            sample_interval_ms: 250,
            tsdb: true,
        };
        d.drive("obs.enabled_probe_ns", 1.0, || {
            // A fresh recorder per batch: counter and flow probes append
            // records, and the drive must not grow memory with its length.
            let mut obs = Obs::from_config(&cfg);
            let t = timed(|| {
                for i in 0..BATCH as u64 {
                    probe_volley(&mut obs, i * 1_000);
                }
                BATCH as u64 * PROBES_PER_VOLLEY
            });
            black_box(&obs);
            Some(t)
        });
        let mut tsdb = Tsdb::new(250);
        let mut at = 0u64;
        d.drive("obs.tsdb_record_ns", 1.0, || {
            Some(timed(|| {
                for i in 0..BATCH as u32 {
                    at += 50_000;
                    tsdb.record(
                        Component::Repl,
                        i % 4,
                        "relay_backlog",
                        SimTime::from_micros(at),
                        f64::from(i),
                    );
                }
                BATCH as u64
            }))
        });
        let mut sketch = QuantileSketch::latency();
        let mut lcg = Lcg(seed);
        d.drive("metrics.sketch_record_ns", 1.0, || {
            Some(timed(|| {
                for _ in 0..CHEAP_BATCH {
                    sketch.record((lcg.next() % 250_000) as f64 / 1_000.0);
                }
                black_box(sketch.count());
                CHEAP_BATCH as u64
            }))
        });
        const SLAVES: usize = 3;
        let mut wf = StalenessWaterfall::new(SLAVES);
        // A write leaves the waterfall once every slave has applied it and
        // served a read after it; the mix sets how many reads follow a write.
        let reads_per_write = (mix.read_fraction / (1.0 - mix.read_fraction)).round() as u64;
        let (mut lsn, mut now_us, mut reads) = (0u64, 0u64, 0u64);
        d.drive("telemetry.waterfall_ns_per_write", 1.0, || {
            Some(timed(|| {
                for _ in 0..BATCH {
                    now_us += 1_000;
                    let t = SimTime::from_micros(now_us);
                    let trace = wf.begin_write(t, t);
                    wf.on_service_start(trace, t, lsn, lsn + 1);
                    black_box(wf.on_commit(trace, t));
                    lsn += 1;
                    for s in 0..SLAVES {
                        wf.on_deliver(s, lsn, t);
                        wf.on_apply_start(s, lsn, t);
                        black_box(wf.on_applied(s, lsn, t));
                    }
                    for _ in 0..reads_per_write {
                        reads += 1;
                        wf.on_slave_read((reads % SLAVES as u64) as usize, lsn, t);
                    }
                }
                BATCH as u64
            }))
        });
    }

    // ---- amdb-sim -----------------------------------------------------------------------
    {
        let mut sim: Sim<Nothing, Noop> = Sim::new();
        let mut world = Nothing;
        let mut lcg = Lcg(seed ^ 0x5eed);
        let mut delay = move || SimDuration::from_micros(1 + lcg.next() % 6_000_000);
        for _ in 0..workload.agenda_depth() {
            sim.schedule_event_in(delay(), Noop);
        }
        // Schedule one, fire one: the pending depth stays at the workload's.
        d.drive("sim.agenda_ns_per_event", 1.0, || {
            Some(timed(|| {
                for _ in 0..CHEAP_BATCH {
                    sim.schedule_event_in(delay(), Noop);
                    black_box(sim.step(&mut world));
                }
                CHEAP_BATCH as u64
            }))
        });
        let mut cpu = FifoCpu::new(1.0);
        let mut t = SimTime::ZERO;
        d.drive("sim.fifo_submit_ns", 1.0, || {
            Some(timed(|| {
                for _ in 0..CHEAP_BATCH {
                    t += SimDuration::from_micros(7);
                    black_box(cpu.submit(t, SimDuration::from_micros(5)));
                }
                CHEAP_BATCH as u64
            }))
        });
    }

    // ---- amdb-experiments (exec): dispatch of no-op items -------------------------------
    {
        let items = vec![0u32; BATCH];
        let jobs = crate::workloads::max_jobs();
        d.drive("exec.dispatch_overhead_us", 1e-3, || {
            Some(timed(|| {
                black_box(parallel_map(&items, jobs, &Progress::Silent, |_, &x, _| x));
                items.len() as u64
            }))
        });
    }

    d.metrics.insert("sql.failed", sql_failed as f64);
    DriveResults {
        metrics: d.metrics,
        read_stmts_per_op: read_stmts_seen as f64 / read_ops_seen.max(1) as f64,
        write_stmts_per_op: write_stmts_seen as f64 / write_ops_seen.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drives_fill_every_drive_metric_without_a_failed_statement() {
        let mut load = Rng::new(3).derive("load");
        let (template, counters) = build_template(DataSize { scale: 20 }, &mut load);
        let tr = Tracer::on();
        for workload in [Workload::Paper8020, Workload::PlanesOn] {
            let r = run_drives(
                workload,
                &template,
                &counters,
                3,
                Duration::from_millis(30),
                &tr,
                None,
            );
            assert_eq!(r.metrics["sql.failed"], 0.0, "{workload:?}");
            assert!(r.read_stmts_per_op >= 1.0 && r.write_stmts_per_op >= 1.0);
            for (name, value) in &r.metrics {
                assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
                if *name != "sql.failed" {
                    assert!(*value > 0.0, "{name} measured nothing");
                }
            }
            assert!(
                r.metrics["sql.binlog_row_bytes_per_event"]
                    != r.metrics["sql.binlog_stmt_bytes_per_event"]
            );
        }
        assert!(tr.spans().iter().any(|s| s.name == "proxy.route_ns"));
    }
}
