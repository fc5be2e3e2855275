//! The event loop: a time-ordered agenda of typed events over a world `W`.
//!
//! The agenda is a slab of pending events indexed by a 4-ary implicit
//! min-heap of packed `(time, seq)` keys, plus a same-instant batch buffer.
//! The schedule→pop→execute cycle allocates nothing: slab slots and heap
//! entries are recycled, and events scheduled *at* the current instant while
//! a batch is draining append to the batch directly without touching the
//! heap at all.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::marker::PhantomData;

/// A typed simulation event: fired once with the world and the kernel (so it
/// can schedule follow-ups). A world crate defines one `enum` naming every
/// event it can schedule; the payload lives inline in the agenda's slab.
pub trait Event<W>: Sized {
    /// Execute the event.
    fn fire(self, world: &mut W, sim: &mut Sim<W, Self>);
}

/// Heap key: `(time, seq)` packed so one `u128` compare orders the agenda.
/// `seq` is monotone per kernel, which makes same-instant ordering FIFO.
#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_micros() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> u64 {
    (key >> 64) as u64
}

/// Discrete-event simulation kernel.
///
/// The kernel owns *only* the agenda and the clock; all domain state lives in
/// the caller's world `W`. Events at the same instant run in scheduling order
/// (FIFO tie-break via a monotonically increasing sequence number), which
/// keeps runs deterministic.
///
/// ```
/// use amdb_sim::{Event, Sim, SimDuration, SimTime};
///
/// struct World { ticks: u32 }
/// struct Tick;
/// impl Event<World> for Tick {
///     fn fire(self, w: &mut World, sim: &mut Sim<World, Tick>) {
///         w.ticks += 1;
///         assert_eq!(sim.now(), SimTime::from_secs(1));
///     }
/// }
/// let mut sim: Sim<World, Tick> = Sim::new();
/// let mut world = World { ticks: 0 };
/// sim.schedule_event_in(SimDuration::from_secs(1), Tick);
/// sim.run(&mut world);
/// assert_eq!(world.ticks, 1);
/// ```
pub struct Sim<W, E> {
    now: SimTime,
    seq: u64,
    executed: u64,
    /// 4-ary implicit min-heap of `(packed key, slab slot)`. Entries are two
    /// machine words, so sifts move no event payloads.
    heap: Vec<(u128, u32)>,
    /// Event payloads, addressed by heap entries. `None` slots are free.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused LIFO.
    free: Vec<u32>,
    /// Events at the *current* instant, drained front-to-back. Filling it
    /// pops the heap in `(at, seq)` order, and any event scheduled at the
    /// current instant while the batch is non-empty has a larger `seq` than
    /// everything in it — so appending preserves the exact global order the
    /// heap alone would have produced, minus the heap traffic.
    batch: VecDeque<E>,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: Event<W>> Default for Sim<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: Event<W>> Sim<W, E> {
    /// A kernel at time zero with an empty agenda.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            batch: VecDeque::new(),
            _world: PhantomData,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.heap.len() + self.batch.len()
    }

    /// Schedule a typed event at an absolute instant.
    ///
    /// # Panics
    /// Panics when `at` is in the past — scheduling into the past would make
    /// the run order undefined.
    pub fn schedule_event_at(&mut self, at: SimTime, ev: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        if at == self.now && !self.batch.is_empty() {
            // Same-instant fast path: the batch already holds every pending
            // event at `now` in seq order, all with smaller seqs.
            self.batch.push_back(ev);
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(ev);
                s
            }
            None => {
                self.slab.push(Some(ev));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push((pack(at, seq), slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedule a typed event after a relative delay.
    pub fn schedule_event_in(&mut self, delay: SimDuration, ev: E) {
        self.schedule_event_at(self.now + delay, ev);
    }

    /// Run one event if any is pending; returns whether one ran.
    pub fn step(&mut self, world: &mut W) -> bool {
        let ev = match self.batch.pop_front() {
            Some(ev) => ev,
            None => {
                let Some((at, ev)) = self.pop_min() else {
                    return false;
                };
                debug_assert!(at >= self.now);
                self.now = at;
                // Move every other event at this instant into the batch;
                // they pop in seq order, so the batch is FIFO-correct.
                while let Some(&(key, _)) = self.heap.first() {
                    if key_time(key) != at.as_micros() {
                        break;
                    }
                    let (_, e) = self.pop_min().expect("peeked entry");
                    self.batch.push_back(e);
                }
                ev
            }
        };
        self.executed += 1;
        ev.fire(world, self);
        true
    }

    /// Run until the agenda is empty.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run events with timestamps `<= end`, then set the clock to `end`.
    /// Events scheduled beyond `end` remain pending.
    pub fn run_until(&mut self, world: &mut W, end: SimTime) {
        loop {
            match self.next_at() {
                Some(at) if at <= end => {
                    self.step(world);
                }
                _ => break,
            }
        }
        if end > self.now {
            self.now = end;
        }
    }

    /// Instant of the next pending event, if any.
    fn next_at(&self) -> Option<SimTime> {
        if !self.batch.is_empty() {
            return Some(self.now);
        }
        self.heap
            .first()
            .map(|&(key, _)| SimTime::from_micros(key_time(key)))
    }

    fn pop_min(&mut self) -> Option<(SimTime, E)> {
        let &(key, slot) = self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let ev = self.slab[slot as usize].take().expect("live slot");
        self.free.push(slot);
        Some((SimTime::from_micros(key_time(key)), ev))
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[parent].0 <= item.0 {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = item;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let item = self.heap[i];
        loop {
            let first = i * 4 + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let mut best_key = self.heap[first].0;
            for c in first + 1..(first + 4).min(len) {
                if self.heap[c].0 < best_key {
                    best = c;
                    best_key = self.heap[c].0;
                }
            }
            if item.0 <= best_key {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = item;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    /// Test-only event: a boxed one-shot closure, so each test states its
    /// events inline.
    struct Call(Box<CallFn>);
    type CallFn = dyn FnOnce(&mut W, &mut Sim<W, Call>);

    impl Event<W> for Call {
        fn fire(self, w: &mut W, sim: &mut Sim<W, Call>) {
            (self.0)(w, sim)
        }
    }

    fn call(f: impl FnOnce(&mut W, &mut Sim<W, Call>) + 'static) -> Call {
        Call(Box::new(f))
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<W, Call> = Sim::new();
        let mut w = W::default();
        sim.schedule_event_at(
            SimTime::from_secs(2),
            call(|w, s| w.log.push((s.now().as_micros(), "b"))),
        );
        sim.schedule_event_at(
            SimTime::from_secs(1),
            call(|w, s| w.log.push((s.now().as_micros(), "a"))),
        );
        sim.run(&mut w);
        assert_eq!(
            w.log,
            vec![(1_000_000, "a"), (2_000_000, "b")],
            "time order respected"
        );
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn same_time_fifo_order() {
        let mut sim: Sim<W, Call> = Sim::new();
        let mut w = W::default();
        for name in ["first", "second", "third"] {
            sim.schedule_event_at(
                SimTime::from_secs(1),
                call(move |w, _| w.log.push((0, name))),
            );
        }
        sim.run(&mut w);
        let names: Vec<_> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<W, Call> = Sim::new();
        let mut w = W::default();
        sim.schedule_event_in(
            SimDuration::from_secs(1),
            call(|_, s| {
                s.schedule_event_in(
                    SimDuration::from_secs(1),
                    call(|w, s| w.log.push((s.now().as_micros(), "nested"))),
                );
            }),
        );
        sim.run(&mut w);
        assert_eq!(w.log, vec![(2_000_000, "nested")]);
    }

    #[test]
    fn same_instant_scheduling_appends_to_batch() {
        // Three events at t=1; the first schedules a fourth *at* t=1 while
        // the batch holds the other two — it must run last, after them.
        let mut sim: Sim<W, Call> = Sim::new();
        let mut w = W::default();
        let t1 = SimTime::from_secs(1);
        sim.schedule_event_at(
            t1,
            call(move |w, s| {
                w.log.push((0, "a"));
                s.schedule_event_at(t1, call(|w, _| w.log.push((0, "late"))));
            }),
        );
        sim.schedule_event_at(t1, call(|w, _| w.log.push((0, "b"))));
        sim.schedule_event_at(t1, call(|w, _| w.log.push((0, "c"))));
        sim.run(&mut w);
        let names: Vec<_> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c", "late"]);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim: Sim<W, Call> = Sim::new();
        let mut w = W::default();
        sim.schedule_event_at(SimTime::from_secs(1), call(|w, _| w.log.push((0, "in"))));
        sim.schedule_event_at(SimTime::from_secs(10), call(|w, _| w.log.push((0, "out"))));
        sim.run_until(&mut w, SimTime::from_secs(5));
        assert_eq!(w.log.len(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(w.log.len(), 2);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim: Sim<W, Call> = Sim::new();
        let mut w = W::default();
        sim.schedule_event_at(
            SimTime::from_secs(1),
            call(|_, s| s.schedule_event_at(SimTime::ZERO, call(|_, _| {}))),
        );
        sim.run(&mut w);
    }

    #[test]
    fn step_on_empty_returns_false() {
        let mut sim: Sim<W, Call> = Sim::new();
        let mut w = W::default();
        assert!(!sim.step(&mut w));
    }

    #[test]
    fn typed_events_fire_without_boxing() {
        enum Tick {
            Once(&'static str),
            Chain(u32),
        }
        #[derive(Default)]
        struct Counter {
            fired: Vec<String>,
        }
        impl Event<Counter> for Tick {
            fn fire(self, w: &mut Counter, sim: &mut Sim<Counter, Tick>) {
                match self {
                    Tick::Once(name) => w.fired.push(name.to_string()),
                    Tick::Chain(n) => {
                        w.fired.push(format!("chain{n}"));
                        if n > 0 {
                            sim.schedule_event_in(SimDuration::from_micros(10), Tick::Chain(n - 1));
                        }
                    }
                }
            }
        }
        let mut sim: Sim<Counter, Tick> = Sim::new();
        let mut w = Counter::default();
        sim.schedule_event_at(SimTime::from_micros(5), Tick::Once("a"));
        sim.schedule_event_at(SimTime::from_micros(1), Tick::Chain(2));
        sim.run(&mut w);
        assert_eq!(w.fired, vec!["chain2", "a", "chain1", "chain0"]);
        assert_eq!(sim.events_executed(), 4);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut sim: Sim<W, Call> = Sim::new();
        let mut w = W::default();
        for round in 0..100u64 {
            sim.schedule_event_at(
                SimTime::from_micros(round + 1),
                call(|w, _| w.log.push((0, "e"))),
            );
            sim.step(&mut w);
        }
        assert!(
            sim.slab.len() <= 2,
            "slab grew to {} slots for a 1-deep agenda",
            sim.slab.len()
        );
    }

    #[test]
    fn heavy_interleaving_is_deterministic() {
        // Two identical runs produce identical logs.
        fn run_once() -> Vec<(u64, &'static str)> {
            let mut sim: Sim<W, Call> = Sim::new();
            let mut w = W::default();
            for i in 0..100u64 {
                let at = SimTime::from_micros((i * 37) % 500);
                sim.schedule_event_at(
                    at,
                    call(|w, s| {
                        w.log.push((s.now().as_micros(), "e"));
                        if s.now() < SimTime::from_micros(400) {
                            s.schedule_event_in(
                                SimDuration::from_micros(13),
                                call(|w, s| w.log.push((s.now().as_micros(), "n"))),
                            );
                        }
                    }),
                );
            }
            sim.run(&mut w);
            w.log
        }
        assert_eq!(run_once(), run_once());
    }
}
