//! Per-shape profile of the Cloudstone reads: what each read statement shape
//! examines and what it costs on the host under `Engine::execute` and
//! `Engine::examine`.
//!
//! ```text
//! cargo run --release --example read_shapes            # DataSize::LARGE (600)
//! cargo run --release --example read_shapes -- 10      # any size, by scale
//! ```
//!
//! Builds the frozen template of the given size, forks a slave from it as a
//! cluster does, and drives a fixed stream of generated read operations
//! through both entries. For each of the nine read statement shapes
//! (`op#statement`) it prints the statement count, `rows_examined` per
//! statement and host ns per statement under each entry (the fastest of a
//! few passes). It exits 1 if the two entries disagree on any statement's
//! `rows_examined`: the cost model reads that count, so `examine` must
//! reproduce it exactly.

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

/// One table row: per-statement means of a shape's (or all reads') totals.
fn print_row(shape: &str, n: usize, examined: u64, exec_ns: u128, exam_ns: u128) {
    println!(
        "{:<20} {:>7} {:>14.1} {:>12.0} {:>12.0} {:>7.2}x",
        shape,
        n,
        examined as f64 / n as f64,
        exec_ns as f64 / n as f64,
        exam_ns as f64 / n as f64,
        exec_ns as f64 / exam_ns as f64
    );
}

fn main() {
    let size = match std::env::args().nth(1) {
        None => DataSize::LARGE,
        Some(arg) => match arg.parse() {
            Ok(scale) if scale > 0 => DataSize { scale },
            _ => {
                eprintln!("usage: read_shapes [SCALE]  (a positive data size; default 600)");
                std::process::exit(2);
            }
        },
    };
    let mut rng = Rng::new(42);
    let (template, counters) = build_template(size, &mut rng);
    let mut engine = template.fork(ForkRole::Slave);
    let mut session = Session::new();
    let mut gen = OpGenerator::new(counters, rng.derive("ops"));

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
        "read statement shapes at data size {}, {OPS} read ops",
        size.scale
    );
    println!(
        "{:<20} {:>7} {:>14} {:>12} {:>12} {:>8}",
        "shape", "stmts", "examined/stmt", "execute ns", "examine ns", "speedup"
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
