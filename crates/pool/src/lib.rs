//! # amdb-pool — database connection pooling (DBCP model)
//!
//! The paper's customized Cloudstone places a connection pool (Apache DBCP)
//! between the emulated users and the database tier so that "users reuse the
//! connections that have been released by other users ... to save the
//! overhead of creating a new connection for each operation" (§III-A).
//!
//! [`SimPool`] is a deterministic, event-loop-friendly pool used inside the
//! discrete-event simulation: acquisition either succeeds immediately or
//! returns a ticket that the caller parks until a release wakes it. The
//! cluster sizes it one connection per closed-loop user, so there it always
//! succeeds immediately.

use amdb_sim::SimTime;
use std::collections::VecDeque;

/// Pool sizing configuration (DBCP-style).
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum connections checked out simultaneously.
    pub max_active: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // DBCP's classic default of 8 is far too small for hundreds of
        // emulated users; the paper sized the pool to the workload. We
        // default generously and let experiments set it explicitly.
        Self { max_active: 512 }
    }
}

/// A waiter ticket handed out when the pool is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(pub u64);

/// Outcome of a [`SimPool::acquire`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// A connection was checked out immediately.
    Ready,
    /// Pool exhausted; the caller is queued and will be woken FIFO.
    Queued(Ticket),
}

/// Deterministic pool for the simulation: pure accounting, no real sockets.
#[derive(Debug)]
pub struct SimPool {
    cfg: PoolConfig,
    active: usize,
    waiters: VecDeque<Ticket>,
    next_ticket: u64,
    // statistics
    total_acquired: u64,
    total_waited: u64,
    peak_active: usize,
    peak_waiting: usize,
}

impl SimPool {
    /// Create a pool.
    pub fn new(cfg: PoolConfig) -> Self {
        Self {
            cfg,
            active: 0,
            waiters: VecDeque::new(),
            next_ticket: 0,
            total_acquired: 0,
            total_waited: 0,
            peak_active: 0,
            peak_waiting: 0,
        }
    }

    /// Connections currently checked out.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Callers currently parked.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// Total successful checkouts so far.
    pub fn total_acquired(&self) -> u64 {
        self.total_acquired
    }

    /// Total acquisitions that had to wait.
    pub fn total_waited(&self) -> u64 {
        self.total_waited
    }

    /// High-water marks `(active, waiting)`.
    pub fn peaks(&self) -> (usize, usize) {
        (self.peak_active, self.peak_waiting)
    }

    /// Try to check out a connection at `_now`; FIFO-queues on exhaustion.
    pub fn acquire(&mut self, _now: SimTime) -> Acquire {
        if self.active < self.cfg.max_active && self.waiters.is_empty() {
            self.active += 1;
            self.peak_active = self.peak_active.max(self.active);
            self.total_acquired += 1;
            Acquire::Ready
        } else {
            let t = Ticket(self.next_ticket);
            self.next_ticket += 1;
            self.waiters.push_back(t);
            self.peak_waiting = self.peak_waiting.max(self.waiters.len());
            self.total_waited += 1;
            Acquire::Queued(t)
        }
    }

    /// Return a connection. If a waiter exists, the connection is handed to
    /// it directly and its ticket is returned so the harness can resume it.
    pub fn release(&mut self, _now: SimTime) -> Option<Ticket> {
        debug_assert!(self.active > 0, "release without acquire");
        match self.waiters.pop_front() {
            Some(t) => {
                // Connection transfers to the waiter: `active` is unchanged.
                self.total_acquired += 1;
                Some(t)
            }
            None => {
                self.active -= 1;
                None
            }
        }
    }

    /// Remove a parked waiter (e.g. client timeout/abandon). Returns whether
    /// the ticket was still queued.
    pub fn cancel(&mut self, ticket: Ticket) -> bool {
        let before = self.waiters.len();
        self.waiters.retain(|&t| t != ticket);
        before != self.waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn acquire_up_to_max_then_queue() {
        let mut p = SimPool::new(PoolConfig { max_active: 2 });
        assert_eq!(p.acquire(t0()), Acquire::Ready);
        assert_eq!(p.acquire(t0()), Acquire::Ready);
        let q = p.acquire(t0());
        assert!(matches!(q, Acquire::Queued(_)));
        assert_eq!(p.active(), 2);
        assert_eq!(p.waiting(), 1);
    }

    #[test]
    fn release_hands_connection_to_waiter_fifo() {
        let mut p = SimPool::new(PoolConfig { max_active: 1 });
        assert_eq!(p.acquire(t0()), Acquire::Ready);
        let Acquire::Queued(t1) = p.acquire(t0()) else {
            panic!()
        };
        let Acquire::Queued(t2) = p.acquire(t0()) else {
            panic!()
        };
        assert_eq!(p.release(t0()), Some(t1), "FIFO order");
        assert_eq!(p.active(), 1, "connection transferred, not freed");
        assert_eq!(p.release(t0()), Some(t2));
        assert_eq!(p.release(t0()), None);
        assert_eq!(p.active(), 0);
    }

    #[test]
    fn cancel_removes_waiter() {
        let mut p = SimPool::new(PoolConfig { max_active: 1 });
        p.acquire(t0());
        let Acquire::Queued(t) = p.acquire(t0()) else {
            panic!()
        };
        assert!(p.cancel(t));
        assert!(!p.cancel(t), "second cancel is a no-op");
        assert_eq!(p.release(t0()), None, "no waiter left to wake");
    }

    #[test]
    fn accounting_invariant_under_churn() {
        let mut p = SimPool::new(PoolConfig { max_active: 4 });
        let mut queued = VecDeque::new();
        let mut held = 0usize;
        for i in 0..1000u64 {
            if i % 3 != 0 {
                match p.acquire(t0()) {
                    Acquire::Ready => held += 1,
                    Acquire::Queued(t) => queued.push_back(t),
                }
            } else if held > 0 {
                if let Some(woken) = p.release(t0()) {
                    assert_eq!(queued.pop_front(), Some(woken));
                    // the woken waiter now holds the connection: held stays
                } else {
                    held -= 1;
                }
            }
            assert!(p.active() <= 4, "never exceeds max_active");
            assert_eq!(p.waiting(), queued.len());
        }
        let (peak_active, _) = p.peaks();
        assert!(peak_active <= 4);
    }
}
