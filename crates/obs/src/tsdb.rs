//! Deterministic in-sim time-series store.
//!
//! The metrics registry keeps *cumulative* state (counters, gauges,
//! sketches) and the trace log every counter sample. Fleet-scope rollups
//! need the opposite shape: **fixed-interval** samples with bounded memory
//! that can be merged across shard trees after a run. This module provides
//! that plane:
//!
//! * every track is a ring of per-interval cells keyed by slot index
//!   (`sim_time / interval`), so two stores sampled on the same interval
//!   align slot-for-slot regardless of which tree produced them;
//! * a cell is either a scalar aggregate (`sum/count/min/max` — gauges,
//!   utilizations, rates) or a [`QuantileSketch`] (latencies, leg times),
//!   both mergeable, both bounded;
//! * the ring evicts its oldest slots beyond a fixed capacity and counts
//!   the evictions — silent data loss is visible, memory cannot grow with
//!   run length;
//! * tracks sit behind the registry's key index (by name address, by text
//!   on a miss) and iterate in `(component, instance, name)` key order, so
//!   every export is byte-deterministic.
//!
//! Timestamps are **simulated** time, so a store's contents are a pure
//! function of the seed — merging per-shard stores in any order yields the
//! same fleet rollup.

use crate::index::KeyIndex;
use crate::metrics::{QuantileSketch, Table};
use crate::{Component, MetricKey};
use amdb_sim::SimTime;
use std::collections::VecDeque;

/// Default ring capacity per track: at the default 250 ms interval this
/// covers ~17 minutes of simulated time, far beyond any paper-scale run.
pub const DEFAULT_SLOTS_PER_TRACK: usize = 4096;

/// One fixed-interval cell of a track.
#[derive(Debug, Clone)]
pub enum TsdbCell {
    /// Scalar aggregate of every value recorded in the interval.
    Value {
        sum: f64,
        count: u64,
        min: f64,
        max: f64,
    },
    /// Bounded quantile sketch of every observation in the interval, boxed
    /// so that a scalar cell is not sized by it.
    Sketch(Box<QuantileSketch>),
}

impl TsdbCell {
    fn value(v: f64) -> Self {
        TsdbCell::Value {
            sum: v,
            count: 1,
            min: v,
            max: v,
        }
    }

    fn sketch(v: f64) -> Self {
        let mut s = QuantileSketch::latency();
        s.record(v);
        TsdbCell::Sketch(Box::new(s))
    }

    /// Observations folded into this cell.
    pub fn count(&self) -> u64 {
        match self {
            TsdbCell::Value { count, .. } => *count,
            TsdbCell::Sketch(s) => s.count(),
        }
    }

    /// Mean of the cell's observations (0 when empty).
    pub fn mean(&self) -> f64 {
        match self {
            TsdbCell::Value { sum, count, .. } => {
                if *count == 0 {
                    0.0
                } else {
                    sum / *count as f64
                }
            }
            TsdbCell::Sketch(s) => s.mean().unwrap_or(0.0),
        }
    }

    /// Largest observation in the cell (0 when empty).
    pub fn max(&self) -> f64 {
        match self {
            TsdbCell::Value { max, count, .. } => {
                if *count == 0 {
                    0.0
                } else {
                    *max
                }
            }
            TsdbCell::Sketch(s) => s.max().unwrap_or(0.0),
        }
    }

    /// Estimated quantile — sketch cells only.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        match self {
            TsdbCell::Sketch(s) => s.quantile(q),
            TsdbCell::Value { .. } => None,
        }
    }

    fn record(&mut self, v: f64) {
        match self {
            TsdbCell::Value {
                sum,
                count,
                min,
                max,
            } => {
                *sum += v;
                *count += 1;
                *min = min.min(v);
                *max = max.max(v);
            }
            TsdbCell::Sketch(s) => s.record(v),
        }
    }

    /// Fold another cell in.
    ///
    /// # Panics
    /// Panics on a kind mismatch — one track name, one cell kind, the same
    /// policy the registry applies to metric kinds.
    fn merge(&mut self, other: &TsdbCell) {
        match (self, other) {
            (
                TsdbCell::Value {
                    sum,
                    count,
                    min,
                    max,
                },
                TsdbCell::Value {
                    sum: os,
                    count: oc,
                    min: omin,
                    max: omax,
                },
            ) => {
                *sum += os;
                *count += oc;
                *min = min.min(*omin);
                *max = max.max(*omax);
            }
            (TsdbCell::Sketch(a), TsdbCell::Sketch(b)) => a.merge(b),
            _ => panic!("tsdb cell kind mismatch on merge"),
        }
    }
}

/// One metric's ring of interval cells, ordered by slot index.
#[derive(Debug, Clone, Default)]
pub struct TsdbTrack {
    /// `(slot index, cell)`, ascending by slot; gaps are simply absent.
    slots: VecDeque<(u64, TsdbCell)>,
    /// Slots dropped off the front by the ring capacity.
    evicted: u64,
}

impl TsdbTrack {
    /// Live slots in the ring.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate `(slot index, cell)` in ascending slot order.
    pub fn samples(&self) -> impl Iterator<Item = (u64, &TsdbCell)> {
        self.slots.iter().map(|(s, c)| (*s, c))
    }

    /// Record `v` into `slot`, creating the cell with `mk` on first touch.
    /// Recording is O(1) for in-order (monotone) timestamps — the sim's
    /// case — and O(log n) + shift for out-of-order merges.
    fn upsert(&mut self, slot: u64, v: f64, mk: fn(f64) -> TsdbCell) {
        match self.slots.back_mut() {
            None => self.slots.push_back((slot, mk(v))),
            Some((last, cell)) if *last == slot => cell.record(v),
            Some((last, _)) if slot > *last => self.slots.push_back((slot, mk(v))),
            _ => {
                let i = self.slots.partition_point(|(s, _)| *s < slot);
                match self.slots.get_mut(i) {
                    Some((s, cell)) if *s == slot => cell.record(v),
                    _ => self.slots.insert(i, (slot, mk(v))),
                }
            }
        }
    }

    fn merge_cell(&mut self, slot: u64, cell: &TsdbCell) {
        let i = self.slots.partition_point(|(s, _)| *s < slot);
        match self.slots.get_mut(i) {
            Some((s, mine)) if *s == slot => mine.merge(cell),
            _ => self.slots.insert(i, (slot, cell.clone())),
        }
    }

    fn trim(&mut self, cap: usize) {
        while self.slots.len() > cap {
            self.slots.pop_front();
            self.evicted += 1;
        }
    }

    /// Bytes of cell state currently held: every slot, plus each sketch
    /// cell's boxed sketch and its counters.
    pub fn state_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|(_, c)| {
                std::mem::size_of::<(u64, TsdbCell)>()
                    + match c {
                        TsdbCell::Value { .. } => 0,
                        TsdbCell::Sketch(s) => {
                            std::mem::size_of::<QuantileSketch>() + s.state_bytes()
                        }
                    }
            })
            .sum()
    }
}

/// The store: fixed-interval tracks keyed like registry metrics.
///
/// Tracks live in dense slots behind the crate's one key index, as registry
/// metrics do: the record path runs at probe rate and finds its track by
/// the name's address, and every read path that iterates (export, merge)
/// visits tracks in key order, so exports stay byte-deterministic and float
/// folds always sum in key order.
#[derive(Debug, Clone)]
pub struct Tsdb {
    interval_us: u64,
    cap: usize,
    tracks: KeyIndex<TsdbTrack>,
}

impl Tsdb {
    /// Store sampling on `interval_ms` with the default ring capacity.
    pub fn new(interval_ms: u64) -> Self {
        Self::with_capacity(interval_ms, DEFAULT_SLOTS_PER_TRACK)
    }

    /// Store with an explicit per-track ring capacity.
    pub fn with_capacity(interval_ms: u64, slots_per_track: usize) -> Self {
        assert!(slots_per_track > 0, "a track needs at least one slot");
        Self {
            interval_us: interval_ms.max(1) * 1_000,
            cap: slots_per_track,
            tracks: KeyIndex::default(),
        }
    }

    /// The fixed sampling interval (ms).
    pub fn interval_ms(&self) -> u64 {
        self.interval_us / 1_000
    }

    /// Slot index covering `at`.
    pub fn slot_of(&self, at: SimTime) -> u64 {
        at.as_micros() / self.interval_us
    }

    /// Start of `slot` in seconds of simulated time.
    pub fn slot_start_secs(&self, slot: u64) -> f64 {
        (slot * self.interval_us) as f64 / 1e6
    }

    /// Record a scalar sample (gauge, utilization, rate) at `at`.
    pub fn record(&mut self, comp: Component, inst: u32, name: &'static str, at: SimTime, v: f64) {
        let slot = self.slot_of(at);
        let track = self
            .tracks
            .get_or_insert_with(comp, inst, name, TsdbTrack::default);
        track.upsert(slot, v, TsdbCell::value);
        track.trim(self.cap);
    }

    /// Record a distribution observation (latency, leg time) at `at`.
    pub fn observe(&mut self, comp: Component, inst: u32, name: &'static str, at: SimTime, v: f64) {
        let slot = self.slot_of(at);
        let track = self
            .tracks
            .get_or_insert_with(comp, inst, name, TsdbTrack::default);
        track.upsert(slot, v, TsdbCell::sketch);
        track.trim(self.cap);
    }

    /// One track, when present.
    pub fn track(&self, comp: Component, inst: u32, name: &'static str) -> Option<&TsdbTrack> {
        self.tracks.get(comp, inst, name)
    }

    /// All tracks in key order.
    pub fn tracks(&self) -> impl Iterator<Item = (&MetricKey, &TsdbTrack)> {
        self.tracks.iter()
    }

    /// Number of tracks.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.tracks.len() == 0
    }

    /// Total slots evicted across all tracks (0 means no data was lost).
    pub fn total_evicted(&self) -> u64 {
        self.tracks.iter().map(|(_, t)| t.evicted).sum()
    }

    /// Bytes of cell state held across all tracks.
    pub fn state_bytes(&self) -> usize {
        self.tracks.iter().map(|(_, t)| t.state_bytes()).sum()
    }

    /// Fold another store in, aligning tracks by key and cells by slot.
    ///
    /// # Panics
    /// Panics if the intervals differ — stores sampled on different
    /// cadences do not align and merging them is a wiring bug.
    pub fn merge(&mut self, other: &Tsdb) {
        assert_eq!(
            self.interval_us, other.interval_us,
            "cannot merge tsdbs with different intervals"
        );
        for (key, track) in other.tracks() {
            let mine =
                self.tracks
                    .get_or_insert_with(key.comp, key.inst, key.name, TsdbTrack::default);
            for (slot, cell) in track.samples() {
                mine.merge_cell(slot, cell);
            }
            mine.evicted += track.evicted;
            mine.trim(self.cap);
        }
    }

    /// Long-format table: one row per live slot per track, in key order.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "tsdb",
            vec![
                "component".into(),
                "instance".into(),
                "metric".into(),
                "t_seconds".into(),
                "count".into(),
                "mean".into(),
                "p95".into(),
            ],
        );
        for (k, track) in self.tracks() {
            for (slot, cell) in track.samples() {
                t.push_row(vec![
                    k.comp.as_str().to_string(),
                    k.inst.to_string(),
                    k.name.to_string(),
                    format!("{:.6}", self.slot_start_secs(slot)),
                    cell.count().to_string(),
                    format!("{:.6}", cell.mean()),
                    match cell.quantile(0.95) {
                        Some(q) => format!("{q:.6}"),
                        None => "-".into(),
                    },
                ]);
            }
        }
        t
    }

    /// CSV of [`Self::table`].
    pub fn csv(&self) -> String {
        self.table().to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn scalar_samples_aggregate_per_slot() {
        let mut db = Tsdb::new(250);
        db.record(Component::Cpu, 0, "util", at(0), 0.5);
        db.record(Component::Cpu, 0, "util", at(100), 0.7);
        db.record(Component::Cpu, 0, "util", at(300), 0.9);
        let track = db.track(Component::Cpu, 0, "util").unwrap();
        assert_eq!(track.len(), 2, "two 250 ms slots touched");
        let series: Vec<_> = track
            .samples()
            .map(|(s, c)| (db.slot_start_secs(s), c.mean()))
            .collect();
        assert_eq!(series, [(0.0, 0.6), (0.25, 0.9)]);
    }

    #[test]
    fn sketch_tracks_expose_quantiles_per_slot() {
        let mut db = Tsdb::new(1000);
        for i in 0..100 {
            db.observe(Component::Repl, 1, "apply_ms", at(10 * i), (i + 1) as f64);
        }
        let track = db.track(Component::Repl, 1, "apply_ms").unwrap();
        assert_eq!(track.len(), 1);
        let (_, cell) = track.samples().next().unwrap();
        assert_eq!(cell.count(), 100);
        let p95 = cell.quantile(0.95).unwrap();
        assert!((p95 - 95.0).abs() < 6.0, "p95 ≈ 95, got {p95}");
    }

    #[test]
    fn ring_capacity_evicts_oldest_and_counts() {
        let mut db = Tsdb::with_capacity(100, 4);
        for i in 0..10u64 {
            db.record(Component::Proxy, 0, "waiting", at(i * 100), i as f64);
        }
        let track = db.track(Component::Proxy, 0, "waiting").unwrap();
        assert_eq!(track.len(), 4);
        assert_eq!(db.total_evicted(), 6);
        let first_live = track.samples().next().unwrap().0;
        assert_eq!(first_live, 6, "oldest slots were evicted first");
    }

    #[test]
    fn merge_aligns_slots_and_matches_single_store() {
        let mut a = Tsdb::new(250);
        let mut b = Tsdb::new(250);
        let mut whole = Tsdb::new(250);
        for i in 0..8u64 {
            let v = i as f64 * 1.5;
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.record(Component::Proxy, 0, "ops", at(i * 125), v);
            target.observe(Component::Proxy, 0, "lat_ms", at(i * 125), v + 1.0);
            whole.record(Component::Proxy, 0, "ops", at(i * 125), v);
            whole.observe(Component::Proxy, 0, "lat_ms", at(i * 125), v + 1.0);
        }
        a.merge(&b);
        assert_eq!(a.csv(), whole.csv(), "merge order-independent of source");
    }

    #[test]
    #[should_panic(expected = "different intervals")]
    fn merging_mismatched_intervals_panics() {
        let mut a = Tsdb::new(250);
        a.merge(&Tsdb::new(500));
    }

    #[test]
    fn memory_is_bounded() {
        let mut db = Tsdb::with_capacity(100, 8);
        for i in 0..100_000u64 {
            db.observe(Component::Sql, 0, "demand", at(i), (i % 977) as f64);
        }
        let track = db.track(Component::Sql, 0, "demand").unwrap();
        assert_eq!(track.len(), 8);
        assert!(db.state_bytes() < 8 * 7000, "8 sketches, bounded buckets");
    }

    #[test]
    fn a_scalar_slot_is_not_sized_by_a_sketch() {
        assert_eq!(std::mem::size_of::<(u64, TsdbCell)>(), 48);
        let mut db = Tsdb::new(100);
        db.record(Component::Cpu, 0, "util", at(0), 0.5);
        assert_eq!(db.state_bytes(), 48);
        db.observe(Component::Repl, 0, "lat_ms", at(0), 4.0);
        let sketch = db
            .track(Component::Repl, 0, "lat_ms")
            .unwrap()
            .state_bytes();
        assert_eq!(
            sketch,
            48 + std::mem::size_of::<QuantileSketch>() + std::mem::size_of::<u64>(),
            "a sketch cell holds its slot, its boxed sketch and one counter"
        );
    }

    /// `text` at an address of its own, never a literal's.
    fn leaked(text: &str) -> &'static str {
        Box::leak(text.to_owned().into_boxed_str())
    }

    #[test]
    fn a_name_at_a_second_address_is_the_same_track() {
        let backlog = leaked("backlog");
        let mut db = Tsdb::new(250);
        db.record(Component::Repl, 1, "backlog", at(0), 2.0);
        db.record(Component::Repl, 1, backlog, at(100), 4.0);
        db.record(Component::Repl, 1, backlog, at(300), 6.0);
        assert_eq!(db.len(), 1);
        let track = db.track(Component::Repl, 1, leaked("backlog")).unwrap();
        let means: Vec<_> = track.samples().map(|(s, c)| (s, c.mean())).collect();
        assert_eq!(means, [(0, 3.0), (1, 6.0)]);
    }

    /// Two stores whose names live at different addresses — two trees
    /// merged by another crate — fold into one track per name.
    #[test]
    fn stores_whose_names_differ_in_address_merge_track_for_track() {
        let mut a = Tsdb::new(250);
        let mut b = Tsdb::new(250);
        a.record(Component::Cpu, 0, "util", at(0), 0.5);
        a.observe(Component::Repl, 2, "lat_ms", at(0), 3.0);
        b.record(Component::Cpu, 0, leaked("util"), at(0), 0.7);
        b.observe(Component::Repl, 2, leaked("lat_ms"), at(300), 5.0);
        let mut merged = Tsdb::new(250);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.len(), 2);
        let util = merged.track(Component::Cpu, 0, "util").unwrap();
        let (_, cell) = util.samples().next().unwrap();
        assert_eq!((util.len(), cell.count()), (1, 2));
        let lat = merged.track(Component::Repl, 2, "lat_ms").unwrap();
        assert_eq!(lat.len(), 2);
        assert_eq!(
            merged.csv().lines().count(),
            1 + 3,
            "one header, one row per slot of each of the two tracks"
        );
    }

    #[test]
    fn out_of_order_records_land_in_their_slot() {
        let mut db = Tsdb::new(100);
        db.record(Component::Cluster, 0, "x", at(500), 1.0);
        db.record(Component::Cluster, 0, "x", at(100), 2.0);
        db.record(Component::Cluster, 0, "x", at(300), 3.0);
        let slots: Vec<u64> = db
            .track(Component::Cluster, 0, "x")
            .unwrap()
            .samples()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(slots, vec![1, 3, 5]);
    }
}
