//! Per-shape profile of the Cloudstone reads: what each read statement shape
//! examines and what it costs on the host under `Engine::execute` and
//! `Engine::examine`.
//!
//! ```text
//! cargo run --release --example read_shapes              # DataSize::LARGE (600)
//! cargo run --release --example read_shapes -- 10        # any size, by scale
//! cargo run --release --example read_shapes -- 600 20000 # after 20000 write ops
//! ```
//!
//! Builds the frozen template of the given size, forks a slave from it as a
//! cluster does, applies the given number of generated write operations to
//! the fork (none by default) — so that its delta has grown as a replica's
//! has mid-run — and drives a fixed stream of generated read operations
//! through both entries. For each of the nine read statement shapes
//! (`op#statement`) it prints the statement count, `rows_examined` per
//! statement, and host ns per statement and per examined row under each
//! entry (the fastest of a few passes). It exits 1 if the two entries
//! disagree on any statement's `rows_examined`: the cost model reads that
//! count, so `examine` must reproduce it exactly.

use amdb::cloudstone::{build_template, DataSize, OpGenerator};
use amdb::sim::Rng;
use amdb::sql::{ForkRole, Session, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Read operations generated per run.
const OPS: usize = 20_000;
/// Timed passes per shape and entry; the fastest is reported.
const PASSES: usize = 5;

type Statement = (String, Vec<Value>);

/// One table row: per-statement and per-examined-row means of a shape's
/// (or all reads') totals.
fn print_row(shape: &str, n: usize, examined: u64, exec_ns: u128, exam_ns: u128) {
    let per_row = |ns: u128| ns as f64 / examined.max(1) as f64;
    println!(
        "{:<20} {:>7} {:>14.1} {:>12.0} {:>12.0} {:>8.1} {:>8.1} {:>7.2}x",
        shape,
        n,
        examined as f64 / n as f64,
        exec_ns as f64 / n as f64,
        exam_ns as f64 / n as f64,
        per_row(exec_ns),
        per_row(exam_ns),
        exec_ns as f64 / exam_ns as f64
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: read_shapes [SCALE [WRITES]]  (a positive data size, default 600; \
         write ops applied to the fork before timing, default 0)"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let size = match args.next().map(|arg| arg.parse()) {
        None => DataSize::LARGE,
        Some(Ok(scale)) if scale > 0 => DataSize { scale },
        Some(_) => usage(),
    };
    let writes: usize = match args.next().map(|arg| arg.parse()) {
        None => 0,
        Some(Ok(writes)) => writes,
        Some(Err(_)) => usage(),
    };
    if args.next().is_some() {
        usage();
    }
    let mut rng = Rng::new(42);
    let (template, counters) = build_template(size, &mut rng);
    let mut engine = template.fork(ForkRole::Slave);
    let mut session = Session::new();
    let mut gen = OpGenerator::new(counters, rng.derive("ops"));
    for _ in 0..writes {
        for (sql, params) in gen.generate_write().statements {
            if let Err(e) = engine.execute(&mut session, &sql, &params) {
                panic!("write: {e}\nSQL: {sql}");
            }
        }
    }

    let mut shapes: BTreeMap<String, Vec<Statement>> = BTreeMap::new();
    for _ in 0..OPS {
        let op = gen.generate_read();
        for (i, stmt) in op.statements.into_iter().enumerate() {
            shapes
                .entry(format!("{}#{i}", op.name))
                .or_default()
                .push(stmt);
        }
    }

    println!(
        "read statement shapes at data size {}, {OPS} read ops after {writes} write ops",
        size.scale
    );
    println!(
        "{:<20} {:>7} {:>14} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "shape",
        "stmts",
        "examined/stmt",
        "execute ns",
        "examine ns",
        "exec/row",
        "exam/row",
        "speedup"
    );
    let (mut n_all, mut examined_all, mut exec_all, mut exam_all) = (0usize, 0u64, 0u128, 0u128);
    let mut disagreements = 0;
    for (shape, stmts) in &shapes {
        // The entries take turns, pass by pass, so host noise falls on both.
        let mut counts = [Vec::new(), Vec::new()];
        let mut best = [u128::MAX; 2];
        for _ in 0..PASSES {
            for (entry, examine) in [false, true].into_iter().enumerate() {
                counts[entry].clear();
                let t = Instant::now();
                for (sql, params) in stmts {
                    let res = if examine {
                        engine.examine(&mut session, sql, params)
                    } else {
                        engine.execute(&mut session, sql, params)
                    };
                    let res = res.unwrap_or_else(|e| panic!("{shape}: {e}\nSQL: {sql}"));
                    counts[entry].push(res.rows_examined);
                }
                best[entry] = best[entry].min(t.elapsed().as_nanos());
            }
        }
        let [executed, examined] = &counts;
        let [exec_ns, exam_ns] = best;
        for (i, (a, b)) in executed.iter().zip(examined).enumerate() {
            if a != b {
                eprintln!(
                    "{shape}: statement {i} examines {a} rows under execute, {b} under examine"
                );
                disagreements += 1;
            }
        }
        let total: u64 = executed.iter().sum();
        print_row(shape, stmts.len(), total, exec_ns, exam_ns);
        n_all += stmts.len();
        examined_all += total;
        exec_all += exec_ns;
        exam_all += exam_ns;
    }
    print_row("all reads", n_all, examined_all, exec_all, exam_all);
    if disagreements > 0 {
        eprintln!("{disagreements} statement(s) examined differently under execute and examine");
        std::process::exit(1);
    }
}
