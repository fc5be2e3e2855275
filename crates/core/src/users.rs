//! The closed-loop user half of the client path: think → generate an
//! operation → check out a pooled connection → (the owner dispatches it) →
//! completion → steady-window stats → return the connection → think again.
//!
//! A standalone [`Cluster`](crate::cluster::Cluster) and the sharded
//! front each own one [`UserLoop`] and supply only their own dispatch and
//! their own agenda event for "think time elapsed". A tree under a front
//! owns one too, with zero users: it never issues an op, so everything read
//! off it (steady ops, pool checkouts) is 0 there.

use crate::config::ClusterConfig;
use amdb_cloudstone::{MixConfig, OpClass, OpGenerator, Operation, Phases, Web10Generator};
use amdb_pool::{Acquire, PoolConfig, SimPool};
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
    /// Sized one connection per user (the paper's DBCP sized to the
    /// workload), so a checkout never queues.
    pool: SimPool,
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
            pool: SimPool::new(PoolConfig {
                max_active: users as usize,
            }),
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

    pub(crate) fn pool(&self) -> &SimPool {
        &self.pool
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

    /// A user's think time elapsed at `now`: generate its next operation and
    /// check out a connection. Returns the operation to dispatch; `None` when
    /// the user retired (ramp-down).
    ///
    /// # Panics
    /// Panics if the checkout queues. It cannot: the pool holds one
    /// connection per user, and a closed-loop user has at most one
    /// operation in flight.
    pub(crate) fn next_op(&mut self, now: SimTime) -> Option<Operation> {
        if now >= self.phases.load_end() {
            return None;
        }
        let op = self.gen.generate(self.mix);
        assert_eq!(
            self.pool.acquire(now),
            Acquire::Ready,
            "one connection per user never queues"
        );
        Some(op)
    }

    /// An operation issued at `issued` completed at `now`: record it, return
    /// its connection, and draw the user's next think time.
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
        self.pool.release(now);
        SimDuration::from_secs_f64(self.rng_think.exp(self.think_time.as_secs_f64()))
    }

    /// Check out a connection for a hand-built read, as [`Self::next_op`]
    /// would have for a generated one.
    #[cfg(test)]
    pub(crate) fn checkout_read(&mut self, now: SimTime) -> Operation {
        assert!(matches!(self.pool.acquire(now), Acquire::Ready));
        match &mut self.gen {
            WorkGen::Cloudstone(g) => g.generate_read(),
            WorkGen::Web10(_) => unreachable!("the sharded front is Cloudstone-only"),
        }
    }
}
