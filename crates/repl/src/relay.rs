//! The slave-side relay log.

use amdb_sql::{BinlogEvent, Lsn};
use std::collections::VecDeque;

/// Relay queue between a slave's I/O thread (which receives shipped events)
/// and its single SQL apply thread (which drains them in LSN order).
///
/// `received_upto` / `applied_upto` are *head* positions: the next LSN the
/// I/O thread expects, and the next LSN the apply thread will apply. The gap
/// `received_upto - applied_upto` is the apply backlog — the quantity whose
/// growth under load produces the paper's replication-delay surge (Figs 5-6).
#[derive(Debug, Clone, Default)]
pub struct RelayQueue {
    queue: VecDeque<BinlogEvent>,
    received_upto: Lsn,
    applied_upto: Lsn,
    total_received: u64,
    total_applied: u64,
}

impl RelayQueue {
    /// Empty relay positioned at the log start.
    pub fn new() -> Self {
        Self::starting_at(Lsn(0))
    }

    /// Empty relay positioned at `lsn` — for a slave bootstrapped from a
    /// snapshot that already contains everything before `lsn` (how a new or
    /// recovering replica joins a running master).
    pub fn starting_at(lsn: Lsn) -> Self {
        Self {
            queue: VecDeque::new(),
            received_upto: lsn,
            applied_upto: lsn,
            total_received: 0,
            total_applied: 0,
        }
    }

    /// Next LSN the I/O thread expects from the master.
    pub fn received_upto(&self) -> Lsn {
        self.received_upto
    }

    /// Next LSN the apply thread will execute.
    pub fn applied_upto(&self) -> Lsn {
        self.applied_upto
    }

    /// Events queued but not yet applied.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime counters `(received, applied)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.total_received, self.total_applied)
    }

    /// Receive shipped events. Events below `received_upto` (duplicates from
    /// a re-ship) are discarded; events must otherwise arrive in LSN order.
    ///
    /// # Panics
    /// Panics on a gap — in every build profile: a relay that skipped an
    /// event would apply the rest and silently diverge from the master.
    pub fn receive(&mut self, events: impl IntoIterator<Item = BinlogEvent>) {
        for ev in events {
            if ev.lsn < self.received_upto {
                continue; // duplicate delivery
            }
            assert_eq!(
                ev.lsn, self.received_upto,
                "relay gap: got {:?}, expected {:?}",
                ev.lsn, self.received_upto
            );
            self.received_upto = Lsn(ev.lsn.0 + 1);
            self.total_received += 1;
            self.queue.push_back(ev);
        }
    }

    /// Take the next event for the apply thread (call [`Self::mark_applied`]
    /// once it has been executed).
    pub fn pop_next(&mut self) -> Option<BinlogEvent> {
        self.queue.pop_front()
    }

    /// Peek the next event without consuming it.
    pub fn peek_next(&self) -> Option<&BinlogEvent> {
        self.queue.front()
    }

    /// Iterate queued events oldest-first without consuming them — the
    /// parallel-apply scheduler's planning view of the queue head.
    pub fn iter(&self) -> impl Iterator<Item = &BinlogEvent> {
        self.queue.iter()
    }

    /// Record that `lsn` has been applied.
    pub fn mark_applied(&mut self, lsn: Lsn) {
        debug_assert_eq!(lsn, self.applied_upto, "applies must be in order");
        self.applied_upto = Lsn(lsn.0 + 1);
        self.total_applied += 1;
    }

    /// Apply backlog in events.
    pub fn backlog(&self) -> u64 {
        self.received_upto.0 - self.applied_upto.0
    }

    /// Master commit timestamp (µs) of the oldest still-queued event —
    /// `now − oldest_commit_ts` is the head-of-queue relay age, the
    /// fleet-telemetry gauge for "how stale is the work this slave has
    /// not even started". `None` when the queue is drained.
    pub fn oldest_commit_ts_micros(&self) -> Option<i64> {
        self.queue.front().map(|ev| ev.commit_ts_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_sql::binlog::EventPayload;

    fn ev(lsn: u64) -> BinlogEvent {
        BinlogEvent {
            lsn: Lsn(lsn),
            commit_ts_micros: lsn as i64,
            payload: EventPayload::Statement {
                sql: format!("-- {lsn}"),
                params: vec![],
            },
        }
    }

    #[test]
    fn oldest_commit_ts_tracks_queue_head() {
        let mut r = RelayQueue::new();
        assert_eq!(r.oldest_commit_ts_micros(), None);
        r.receive([ev(0), ev(1)]);
        assert_eq!(r.oldest_commit_ts_micros(), Some(0));
        let popped = r.pop_next().unwrap();
        r.mark_applied(popped.lsn);
        assert_eq!(r.oldest_commit_ts_micros(), Some(1));
    }

    #[test]
    fn receive_and_apply_in_order() {
        let mut r = RelayQueue::new();
        r.receive([ev(0), ev(1), ev(2)]);
        assert_eq!(r.queued(), 3);
        assert_eq!(r.backlog(), 3);
        let e = r.pop_next().unwrap();
        assert_eq!(e.lsn, Lsn(0));
        r.mark_applied(e.lsn);
        assert_eq!(r.backlog(), 2);
        assert_eq!(r.applied_upto(), Lsn(1));
    }

    #[test]
    fn duplicate_deliveries_discarded() {
        let mut r = RelayQueue::new();
        r.receive([ev(0), ev(1)]);
        r.receive([ev(0), ev(1)]); // duplicate ship
        assert_eq!(r.queued(), 2);
        assert_eq!(r.totals().0, 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = RelayQueue::new();
        r.receive([ev(0)]);
        assert_eq!(r.peek_next().unwrap().lsn, Lsn(0));
        assert_eq!(r.queued(), 1);
    }

    #[test]
    fn starting_at_snapshot_position() {
        let mut r = RelayQueue::starting_at(Lsn(5));
        assert_eq!(r.received_upto(), Lsn(5));
        assert_eq!(r.applied_upto(), Lsn(5));
        // Events before the snapshot are duplicates and ignored.
        r.receive([ev(3), ev(4), ev(5)]);
        assert_eq!(r.queued(), 1);
        assert_eq!(r.peek_next().unwrap().lsn, Lsn(5));
    }

    #[test]
    fn totals_track_lifetime() {
        let mut r = RelayQueue::new();
        r.receive([ev(0), ev(1), ev(2)]);
        while let Some(e) = r.pop_next() {
            r.mark_applied(e.lsn);
        }
        assert_eq!(r.totals(), (3, 3));
        assert_eq!(r.backlog(), 0);
    }
}
