//! What observability costs in heap traffic: bytes allocated per fired
//! simulator event on a small sharded cell with observability on, over the
//! same per-event figure of its observability-off twin, and the bytes the
//! trace log spends per record on the same cell. The ratio is bounded at
//! the value measured once each sample was held once: one encoded trace
//! record per counter sample (no registry copy), 48-B scalar tsdb slots,
//! and a sampling tick that allocates nothing per tick. A sketch that fills
//! a dense counter vector up to each value's bucket, or a counter mirrored
//! into a second store, fails it.

use amdb::cloudstone::{DataSize, MixConfig, WorkloadConfig};
use amdb::core::{
    load_template, run_sharded_cell, BackendKind, ClusterConfig, ObsConfig, ShardedConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting bytes allocated per thread (a realloc
/// counts its new size): the harness runs tests on parallel threads, and
/// each reads only its own count.
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still frees (and may allocate).
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method passes its caller's arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes allocated per fired event by one two-shard cell with the planes
/// that feed tsdb sketches on (shared log, parallel apply, scattered reads),
/// observability on or off, and the encoded trace bytes per record of its
/// recorders (front and trees; 0 with observability off); the template is
/// loaded before counting starts.
fn bytes_per_event(obs: bool) -> (f64, f64) {
    let base = ClusterConfig::builder()
        .slaves(1)
        .mix(MixConfig::RW_50_50)
        .data_size(DataSize { scale: 30 })
        .workload(WorkloadConfig::quick(40))
        .backend(BackendKind::SharedLog)
        .apply_workers(4)
        .observability(ObsConfig {
            enabled: obs,
            sample_interval_ms: 250,
            tsdb: true,
        })
        .seed(42)
        .build();
    let template = load_template(base.seed, base.data_size);
    let cfg = ShardedConfig::new(2, base).cross_shard_read_fraction(0.05);
    let before = bytes();
    let (report, bundle) = run_sharded_cell(&cfg, Some(&template)).expect("the config validates");
    let per_event = (bytes() - before) as f64 / report.sim_events as f64;
    let recorders = std::iter::once(&bundle.front)
        .chain(&bundle.trees)
        .filter_map(|o| o.recorder());
    let (encoded, records) =
        recorders.fold((0, 0), |(b, n), r| (b + r.encoded_bytes(), n + r.len()));
    (per_event, encoded as f64 / records.max(1) as f64)
}

/// Measured at 1.589 (503 B per event on, 316 off), since a sketch's bucket
/// layout is constants rather than a 24-B field of every sketch (1.612 and
/// 510 B with the field). Earlier figures on the same cell: 3.244 while every counter sample was held twice (a 40-B
/// trace record and a registry series point), 104-B scalar tsdb slots and
/// a per-tick label per node; 4.99 with a dense counter vector per tsdb
/// sketch cell.
const MAX_OBS_RATIO: f64 = 1.6;

/// Measured at 6.823 encoded bytes per record, since a whole counter value
/// below 2^53 is a varint (10.886 while every counter value took 8 raw
/// bytes); a decoded `Record`, which the trace held per record before, is
/// 40 B.
const MAX_TRACE_BYTES_PER_RECORD: f64 = 6.83;

#[test]
fn observability_allocates_within_its_budget_per_event() {
    let (on, per_record) = bytes_per_event(true);
    let (off, _) = bytes_per_event(false);
    let ratio = on / off;
    println!(
        "bytes per event: obs on {on:.0}, off {off:.0}, ratio {ratio:.3}; \
         trace bytes per record {per_record:.3}"
    );
    assert!(
        ratio <= MAX_OBS_RATIO,
        "observability allocates {ratio:.3}x the bytes per event of its off twin \
         ({on:.0} vs {off:.0} B), over the {MAX_OBS_RATIO} budget"
    );
    assert!(
        per_record <= MAX_TRACE_BYTES_PER_RECORD,
        "the trace log spends {per_record:.3} B per record, over the \
         {MAX_TRACE_BYTES_PER_RECORD} budget"
    );
}
