//! Property tests for the DES kernel, CPU model, and RNG.

use amdb_sim::{Event, FifoCpu, Rng, Sim, SimDuration, SimTime};
use proptest::prelude::*;

/// The world of the kernel tests: a log of `(fire time µs, event id)`.
#[derive(Default)]
struct Log(Vec<(u64, u32)>);

/// The one event shape they need: log itself, then optionally schedule a
/// child `(delay µs, id)` — possibly at the current tick (delay 0).
struct Emit {
    id: u32,
    child: Option<(u64, u32)>,
}

impl Event<Log> for Emit {
    fn fire(self, w: &mut Log, sim: &mut Sim<Log, Emit>) {
        w.0.push((sim.now().as_micros(), self.id));
        if let Some((delay, id)) = self.child {
            sim.schedule_event_in(SimDuration::from_micros(delay), Emit { id, child: None });
        }
    }
}

proptest! {
    /// Events always fire in non-decreasing timestamp order, whatever the
    /// scheduling order was.
    #[test]
    fn events_fire_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim: Sim<Log, Emit> = Sim::new();
        let mut w = Log::default();
        for &t in &times {
            sim.schedule_event_at(SimTime::from_micros(t), Emit { id: 0, child: None });
        }
        sim.run(&mut w);
        let fired: Vec<u64> = w.0.iter().map(|&(at, _)| at).collect();
        prop_assert_eq!(fired.len(), times.len());
        prop_assert!(fired.windows(2).all(|p| p[0] <= p[1]));
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired, sorted);
    }

    /// run_until never executes events beyond the horizon, and resuming
    /// executes exactly the remainder.
    #[test]
    fn run_until_partitions_execution(
        times in prop::collection::vec(0u64..1_000_000, 1..100),
        horizon in 0u64..1_000_000,
    ) {
        let mut sim: Sim<Log, Emit> = Sim::new();
        let mut w = Log::default();
        for &t in &times {
            sim.schedule_event_at(SimTime::from_micros(t), Emit { id: 0, child: None });
        }
        sim.run_until(&mut w, SimTime::from_micros(horizon));
        let expected_before = times.iter().filter(|&&t| t <= horizon).count();
        prop_assert_eq!(w.0.len(), expected_before);
        prop_assert!(w.0.iter().all(|&(at, _)| at <= horizon));
        sim.run(&mut w);
        prop_assert_eq!(w.0.len(), times.len());
    }

    /// FIFO CPU: completions are non-decreasing, each job takes at least its
    /// service time, and total busy time equals the sum of service times.
    #[test]
    fn fifo_cpu_conservation(
        jobs in prop::collection::vec((0u64..100_000, 1u64..10_000), 1..100),
        speed in 0.25f64..4.0,
    ) {
        let mut cpu = FifoCpu::new(speed);
        let mut jobs = jobs;
        jobs.sort_by_key(|&(at, _)| at);
        let mut last_done = SimTime::ZERO;
        let mut total_service = 0.0;
        for &(at, demand) in &jobs {
            let at = SimTime::from_micros(at);
            let demand = SimDuration::from_micros(demand);
            let done = cpu.submit(at, demand);
            let service_s = demand.as_secs_f64() / speed;
            total_service += service_s;
            prop_assert!(done >= last_done, "completions monotone");
            prop_assert!(
                (done - at).as_secs_f64() >= service_s - 2e-6,
                "job cannot finish faster than its service time"
            );
            last_done = done;
        }
        // Utilization over a window covering everything equals total service.
        let horizon = SimTime::from_micros(last_done.as_micros() + 1);
        let measured = cpu.utilization(horizon) * horizon.as_secs_f64();
        prop_assert!((measured - total_service).abs() < 1e-3,
            "busy-time conservation: measured {} vs {}", measured, total_service);
    }

    /// The slab agenda fires equal-timestamp events in FIFO schedule order —
    /// exactly the order a reference `(time, seq)` binary heap produces,
    /// including children scheduled mid-batch at the current tick. Times are
    /// drawn from a tiny range so nearly every step has ties.
    #[test]
    fn agenda_matches_reference_heap_with_fifo_ties(
        times in prop::collection::vec(0u64..40, 1..120),
        delays in prop::collection::vec(0u64..5, 1..120),
    ) {
        let n = times.len() as u32;
        let delay = |i: usize| delays[i % delays.len()];

        // Real kernel: every event logs (now, payload); every third payload
        // schedules one child, possibly at the current tick (delay 0).
        let mut sim: Sim<Log, Emit> = Sim::new();
        let mut w = Log::default();
        for (i, &t) in times.iter().enumerate() {
            let p = i as u32;
            let child = p.is_multiple_of(3).then(|| (delay(i), n + p));
            sim.schedule_event_at(SimTime::from_micros(t), Emit { id: p, child });
        }
        sim.run(&mut w);
        let real = w.0;

        // Reference model: min-heap keyed (time, seq) with seq assigned in
        // the same order the kernel saw the schedule calls.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, &t) in times.iter().enumerate() {
            heap.push(Reverse((t, seq, i as u32)));
            seq += 1;
        }
        let mut model = Vec::new();
        while let Some(Reverse((t, _, p))) = heap.pop() {
            model.push((t, p));
            if p < n && p % 3 == 0 {
                heap.push(Reverse((t + delay(p as usize), seq, n + p)));
                seq += 1;
            }
        }
        prop_assert_eq!(real, model);
    }

    /// The RNG's uniform integer generator is unbiased enough to hit every
    /// bucket of a small range, and never exceeds the bound.
    #[test]
    fn rng_below_in_bounds(seed in any::<u64>(), n in 1u64..64) {
        let mut rng = Rng::new(seed);
        for _ in 0..500 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// Derived streams with different labels differ; same label matches.
    #[test]
    fn rng_derivation_stable(seed in any::<u64>()) {
        let root = Rng::new(seed);
        let mut a1 = root.derive("alpha");
        let mut a2 = root.derive("alpha");
        let mut b = root.derive("beta");
        let xs1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&xs1, &xs2);
        prop_assert_ne!(&xs1, &ys);
    }
}

/// Non-proptest sanity: nested event scheduling is deterministic.
#[test]
fn nested_scheduling_deterministic() {
    fn run() -> Vec<(u64, u32)> {
        let mut sim: Sim<Log, Emit> = Sim::new();
        let mut w = Log::default();
        for i in 0..50u32 {
            let child = (i % 3 == 0).then_some((11, 1000 + i));
            sim.schedule_event_at(
                SimTime::from_micros((i as u64 * 131) % 997),
                Emit { id: i, child },
            );
        }
        sim.run(&mut w);
        w.0
    }
    assert_eq!(run(), run());
}
