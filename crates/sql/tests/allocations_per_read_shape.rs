//! Heap allocations per statement for each of the nine Cloudstone read
//! statement shapes, under `Engine::execute` and `Engine::examine`, on a
//! slave forked from a size-300 template (where `tag_search` fans out past
//! a join batch). The bounds were recorded before the join ran in batches:
//! a join stage may take its batch buffers from one allocation per
//! statement, but no allocation per row.

use amdb_cloudstone::{build_template, DataSize, OpGenerator};
use amdb_sim::Rng;
use amdb_sql::{ForkRole, Session, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// The system allocator, counting allocations per thread: the harness runs
/// tests on parallel threads, and each reads only its own count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still frees (and may allocate).
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its caller's arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Read operations generated per run.
const OPS: usize = 300;

/// `(shape, statements, allocations under execute, under examine)` over the
/// `OPS` read operations of seed 42, recorded before batched joins.
const BOUNDS: [(&str, usize, u64, u64); 9] = [
    ("event_detail#0", 60, 480, 120),
    ("event_detail#1", 60, 660, 120),
    ("event_detail#2", 60, 660, 660),
    ("event_detail#3", 60, 540, 120),
    ("person_detail#0", 57, 456, 114),
    ("person_detail#1", 57, 493, 114),
    ("person_detail#2", 57, 684, 114),
    ("tag_search#0", 98, 6940, 196),
    ("upcoming_by_zip#0", 85, 2484, 170),
];

#[test]
fn allocations_per_read_statement_stay_within_their_bounds() {
    let mut rng = Rng::new(42);
    let (template, counters) = build_template(DataSize::SMALL, &mut rng);
    let mut engine = template.fork(ForkRole::Slave);
    let mut session = Session::new();
    let mut gen = OpGenerator::new(counters, rng.derive("ops"));
    let mut shapes: BTreeMap<String, Vec<(String, Vec<Value>)>> = BTreeMap::new();
    for _ in 0..OPS {
        let op = gen.generate_read();
        for (i, stmt) in op.statements.into_iter().enumerate() {
            shapes
                .entry(format!("{}#{i}", op.name))
                .or_default()
                .push(stmt);
        }
    }
    let mut got = Vec::new();
    for (shape, stmts) in &shapes {
        // Warm the plan cache: a cold prepare allocates, and runs once.
        let (sql, params) = &stmts[0];
        engine.execute(&mut session, sql, params).unwrap();
        let mut counts = [0; 2];
        for (entry, examine) in [false, true].into_iter().enumerate() {
            for (sql, params) in stmts {
                let before = allocations();
                let res = if examine {
                    engine.examine(&mut session, sql, params)
                } else {
                    engine.execute(&mut session, sql, params)
                };
                let after = allocations();
                drop(res.unwrap_or_else(|e| panic!("{shape}: {e}")));
                counts[entry] += after - before;
            }
        }
        got.push((shape.clone(), stmts.len(), counts[0], counts[1]));
    }
    let report = format!("{got:#?}");
    assert_eq!(got.len(), BOUNDS.len(), "nine read statement shapes");
    for ((shape, n, execute, examine), (w_shape, w_n, w_execute, w_examine)) in
        got.iter().zip(BOUNDS)
    {
        assert_eq!((shape.as_str(), *n), (w_shape, w_n), "{report}");
        assert!(
            *execute <= w_execute && *examine <= w_examine,
            "{shape}: {execute} allocations under execute (bound {w_execute}), \
             {examine} under examine (bound {w_examine})\n{report}"
        );
    }
}
