//! The closed-loop user half of the client path: think → generate an
//! operation → (the owner dispatches it) → completion → steady-window stats
//! → think again.
//!
//! A standalone [`Cluster`](crate::cluster::Cluster) and the sharded
//! front each own one [`UserLoop`] and supply only their own dispatch and
//! their own agenda event for "think time elapsed". A tree under a front
//! owns one too, with zero users: it never issues an op, so everything read
//! off it (steady ops, ops issued) is 0 there.

use crate::config::ClusterConfig;
use amdb_cloudstone::{MixConfig, OpClass, OpGenerator, Operation, Phases, Web10Generator};
use amdb_sim::{Rng, SimDuration, SimTime};

/// The active operation generator (the two workload classes).
pub(crate) enum WorkGen {
    Cloudstone(OpGenerator),
    Web10(Web10Generator),
}

impl WorkGen {
    fn generate(&mut self, mix: MixConfig) -> Operation {
        match self {
            WorkGen::Cloudstone(g) => g.generate(mix),
            WorkGen::Web10(g) => g.generate(),
        }
    }
}

/// Client-side results over the steady window.
#[derive(Default)]
pub(crate) struct UserStats {
    pub steady_ops: u64,
    pub steady_reads: u64,
    pub steady_writes: u64,
    pub steady_slave_reads: u64,
    pub latencies_ms: Vec<f64>,
}

pub(crate) struct UserLoop {
    phases: Phases,
    mix: MixConfig,
    think_time: SimDuration,
    users: u32,
    gen: WorkGen,
    /// Operations issued and completed so far; their difference is the
    /// number in flight, at most one per user.
    issued: u64,
    completed: u64,
    rng_think: Rng,
    stats: UserStats,
}

impl UserLoop {
    /// `cfg.workload.concurrent_users` users over `gen`; the think stream
    /// derives from `root`.
    pub(crate) fn new(cfg: &ClusterConfig, gen: WorkGen, root: &Rng) -> Self {
        let users = cfg.workload.concurrent_users;
        Self {
            phases: cfg.workload.phases,
            mix: cfg.mix,
            think_time: cfg.workload.think_time,
            users,
            gen,
            issued: 0,
            completed: 0,
            rng_think: root.derive("think"),
            stats: UserStats::default(),
        }
    }

    pub(crate) fn phases(&self) -> Phases {
        self.phases
    }

    pub(crate) fn users(&self) -> u32 {
        self.users
    }

    /// Operations issued over the whole run.
    pub(crate) fn issued(&self) -> u64 {
        self.issued
    }

    pub(crate) fn stats(&self) -> &UserStats {
        &self.stats
    }

    /// Each user's first think-elapsed instant, staggered linearly over the
    /// ramp-up.
    pub(crate) fn start_times(&self) -> impl Iterator<Item = (SimTime, u32)> {
        let (users, ramp, start) = (self.users, self.phases.ramp_up, self.phases.load_start());
        (0..users).map(move |u| {
            let offset = ramp.as_micros() * u as u64 / users as u64;
            (start + SimDuration::from_micros(offset), u)
        })
    }

    /// A user's think time elapsed at `now`: generate and issue its next
    /// operation. Returns the operation to dispatch; `None` when the user
    /// retired (ramp-down).
    pub(crate) fn next_op(&mut self, now: SimTime) -> Option<Operation> {
        if now >= self.phases.load_end() {
            return None;
        }
        let op = self.gen.generate(self.mix);
        self.issue();
        Some(op)
    }

    /// Count one more operation in flight.
    ///
    /// # Panics
    /// Panics if `users` operations are already in flight: a closed-loop
    /// user has at most one.
    fn issue(&mut self) {
        assert!(
            self.issued - self.completed < u64::from(self.users),
            "a closed-loop user issued with its last operation in flight"
        );
        self.issued += 1;
    }

    /// An operation issued at `issued` completed at `now`: record it and
    /// draw the user's next think time.
    pub(crate) fn complete(
        &mut self,
        now: SimTime,
        class: OpClass,
        issued: SimTime,
        slave_served: bool,
    ) -> SimDuration {
        if self.phases.in_steady(now) {
            self.stats.steady_ops += 1;
            match class {
                OpClass::Read => {
                    self.stats.steady_reads += 1;
                    if slave_served {
                        self.stats.steady_slave_reads += 1;
                    }
                }
                OpClass::Write => self.stats.steady_writes += 1,
            }
            self.stats.latencies_ms.push((now - issued).as_millis_f64());
        }
        self.completed += 1;
        SimDuration::from_secs_f64(self.rng_think.exp(self.think_time.as_secs_f64()))
    }

    /// Issue a hand-built read, as [`Self::next_op`] would a generated one.
    #[cfg(test)]
    pub(crate) fn issue_read(&mut self) -> Operation {
        self.issue();
        match &mut self.gen {
            WorkGen::Cloudstone(g) => g.generate_read(),
            WorkGen::Web10(_) => unreachable!("the sharded front is Cloudstone-only"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_cloudstone::WorkloadConfig;

    fn two_users() -> UserLoop {
        let cfg = ClusterConfig::builder()
            .workload(WorkloadConfig::quick(2))
            .build();
        let gen = WorkGen::Web10(Web10Generator::new(10, Rng::new(1)));
        UserLoop::new(&cfg, gen, &Rng::new(1))
    }

    #[test]
    fn a_completion_frees_its_users_slot() {
        let mut u = two_users();
        let now = u.phases().load_start();
        let op = u.next_op(now).expect("the load is on");
        u.next_op(now).expect("the load is on");
        u.complete(now, op.class, now, false);
        assert!(u.next_op(now).is_some());
        assert_eq!(u.issued(), 3);
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn issuing_while_every_user_is_in_flight_panics() {
        let mut u = two_users();
        let now = u.phases().load_start();
        for _ in 0..3 {
            u.next_op(now);
        }
    }
}
