//! Heap allocations for each of the five Cloudstone INSERT statement shapes
//! (one per table written), on forks of a size-300 template: per statement
//! under `Engine::execute` on a statement-format master, and per binlog
//! event the master ships, under `Engine::apply_event` on a slave. The
//! bounds are the counts measured when integer secondary indexes began
//! posting through an `IntMap`: an insert clones no index key, so one more
//! clone of a row or of a text key per insert fails them.

use amdb_cloudstone::{build_template, DataSize, OpGenerator};
use amdb_sim::Rng;
use amdb_sql::{BinlogFormat, ForkRole, Session};
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

/// Write operations run, uncounted, to warm both plan caches: a cold
/// prepare allocates, and runs once per shape.
const WARM_OPS: usize = 40;

/// Write operations counted after the warm-up.
const OPS: usize = 300;

/// `(table, statements, allocations under execute on the master, under
/// apply_event on the slave)` over the `OPS` write operations of seed 42.
const BOUNDS: [(&str, usize, u64, u64); 5] = [
    ("attendees", 87, 532, 358),
    ("comments", 84, 518, 349),
    ("event_tags", 186, 991, 616),
    ("events", 93, 821, 542),
    ("users", 36, 407, 263),
];

/// The table an `INSERT INTO <table> ...` statement writes, or `None` for
/// any other statement (the read a `join_event` issues first).
fn insert_table(sql: &str) -> Option<&str> {
    sql.strip_prefix("INSERT INTO ")?.split_whitespace().next()
}

#[test]
fn allocations_per_write_statement_stay_within_their_bounds() {
    let mut rng = Rng::new(42);
    let (template, counters) = build_template(DataSize::SMALL, &mut rng);
    let mut master = template.fork(ForkRole::Master(BinlogFormat::Statement));
    let mut slave = template.fork(ForkRole::Slave);
    let mut session = Session::new();
    let mut gen = OpGenerator::new(counters, rng.derive("ops"));
    let mut shipped = master.binlog().head();
    let mut counts: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
    for op in 0..WARM_OPS + OPS {
        for (sql, params) in gen.generate_write().statements {
            let before = allocations();
            let res = master.execute(&mut session, &sql, &params);
            let executed = allocations() - before;
            drop(res.unwrap_or_else(|e| panic!("{sql}: {e}")));
            let mut applied = 0;
            for event in master.binlog_from(shipped) {
                let before = allocations();
                let res = slave.apply_event(event, event.commit_ts_micros);
                applied += allocations() - before;
                drop(res.unwrap_or_else(|e| panic!("apply {sql}: {e}")));
            }
            shipped = master.binlog().head();
            let Some(table) = insert_table(&sql) else {
                continue;
            };
            let entry = counts.entry(table.to_string()).or_default();
            if op >= WARM_OPS {
                entry.0 += 1;
                entry.1 += executed;
                entry.2 += applied;
            }
        }
    }
    let got: Vec<(String, usize, u64, u64)> = counts
        .into_iter()
        .map(|(table, (n, executed, applied))| (table, n, executed, applied))
        .collect();
    let report = format!("{got:#?}");
    println!("{report}");
    assert_eq!(got.len(), BOUNDS.len(), "five INSERT shapes\n{report}");
    for ((table, n, executed, applied), (w_table, w_n, w_executed, w_applied)) in
        got.iter().zip(BOUNDS)
    {
        assert_eq!((table.as_str(), *n), (w_table, w_n), "{report}");
        assert!(
            *executed <= w_executed && *applied <= w_applied,
            "{table}: {executed} allocations under execute (bound {w_executed}), \
             {applied} under apply_event (bound {w_applied})\n{report}"
        );
    }
}
