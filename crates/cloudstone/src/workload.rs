//! Closed-loop workload configuration and run phases.

use amdb_sim::{SimDuration, SimTime};

/// Run phases. The paper: "Every run lasts 35 minutes, including 10-minute
/// ramp-up, 20-minute steady stage and 5-minute ramp down" (§III-B). We
/// prepend an idle stage during which only heartbeats flow — it supplies the
/// no-load baseline for *relative* replication delay (§IV-B.1) — and append
/// a drain stage so saturated apply backlogs finish applying and their
/// delays become measurable.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub idle: SimDuration,
    pub ramp_up: SimDuration,
    pub steady: SimDuration,
    pub ramp_down: SimDuration,
    /// Maximum extra time to let relays drain after ramp-down.
    pub drain_cap: SimDuration,
}

impl Phases {
    /// The paper's 35-minute run (plus idle baseline and drain cap).
    pub fn paper() -> Self {
        Self {
            idle: SimDuration::from_secs(120),
            ramp_up: SimDuration::from_secs(600),
            steady: SimDuration::from_secs(1200),
            ramp_down: SimDuration::from_secs(300),
            drain_cap: SimDuration::from_secs(1800),
        }
    }

    /// A proportionally shrunk run for fast tests (shapes survive; absolute
    /// counts shrink).
    pub fn quick() -> Self {
        Self {
            idle: SimDuration::from_secs(40),
            ramp_up: SimDuration::from_secs(60),
            steady: SimDuration::from_secs(240),
            ramp_down: SimDuration::from_secs(30),
            drain_cap: SimDuration::from_secs(600),
        }
    }

    /// When user ramp-up starts (idle ends).
    pub fn load_start(&self) -> SimTime {
        SimTime::ZERO + self.idle
    }

    /// When the measured steady stage starts.
    pub fn steady_start(&self) -> SimTime {
        self.load_start() + self.ramp_up
    }

    /// When the measured steady stage ends.
    pub fn steady_end(&self) -> SimTime {
        self.steady_start() + self.steady
    }

    /// When users stop issuing new operations.
    pub fn load_end(&self) -> SimTime {
        self.steady_end() + self.ramp_down
    }

    /// Hard stop for the whole simulation (drain cap included).
    pub fn hard_end(&self) -> SimTime {
        self.load_end() + self.drain_cap
    }

    /// Is `t` within the measured steady window?
    pub fn in_steady(&self, t: SimTime) -> bool {
        t >= self.steady_start() && t < self.steady_end()
    }

    /// Is `t` within the idle (no-load baseline) window?
    pub fn in_idle(&self, t: SimTime) -> bool {
        t < self.load_start()
    }
}

/// Closed-loop workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of emulated concurrent users (the x-axis of Figs 2/3/5/6).
    pub concurrent_users: u32,
    /// Mean think time between a response and the next request. Calibrated
    /// at 6 s so the closed-loop low-load throughput matches the figures'
    /// starting points (≈8 ops/s at 50 users); see EXPERIMENTS.md.
    pub think_time: SimDuration,
    /// Run phases.
    pub phases: Phases,
}

impl WorkloadConfig {
    /// Paper-shaped workload with `users` concurrent users.
    pub fn paper(users: u32) -> Self {
        Self {
            concurrent_users: users,
            think_time: SimDuration::from_secs(6),
            phases: Phases::paper(),
        }
    }

    /// Quick variant for tests/benches.
    pub fn quick(users: u32) -> Self {
        Self {
            concurrent_users: users,
            think_time: SimDuration::from_secs(6),
            phases: Phases::quick(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_phases_sum_to_35_minutes_plus_extras() {
        let p = Phases::paper();
        let load = (p.load_end() - p.load_start()).as_secs_f64();
        assert_eq!(load, 35.0 * 60.0, "10 + 20 + 5 minutes of load");
    }

    #[test]
    fn boundaries_are_ordered() {
        for p in [Phases::paper(), Phases::quick()] {
            assert!(p.load_start() < p.steady_start());
            assert!(p.steady_start() < p.steady_end());
            assert!(p.steady_end() < p.load_end());
            assert!(p.load_end() < p.hard_end());
        }
    }

    #[test]
    fn window_classification() {
        let p = Phases::paper();
        assert!(p.in_idle(SimTime::from_secs(10)));
        assert!(!p.in_idle(p.load_start()));
        assert!(p.in_steady(p.steady_start()));
        assert!(!p.in_steady(p.steady_end()));
        let mid_ramp = p.load_start() + SimDuration::from_secs(60);
        assert!(!p.in_steady(mid_ramp) && !p.in_idle(mid_ramp));
    }
}
