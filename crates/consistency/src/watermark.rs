//! GTID-style watermark tracking: per-slave apply progress plus estimated
//! staleness, maintained entirely at the proxy tier.

use std::collections::VecDeque;

/// How many commit stamps the ring retains. Beyond this, the oldest known
/// stamp lower-bounds the age of evicted sequences (a slave that far behind
/// is ineligible under any realistic bound anyway).
const STAMP_RING_CAP: usize = 4096;

/// Per-slave apply progress and staleness estimation.
///
/// The master side stamps each committed writeset sequence with its commit
/// time ([`Self::note_master_seq`]); each slave's apply thread advances its
/// watermark ([`Self::note_applied`]). From those two signals the table
/// derives each slave's **estimated staleness**: how old the slave's view
/// is, the age of the first *unapplied* writeset's commit stamp. Zero when
/// fully caught up.
#[derive(Debug, Clone)]
pub struct WatermarkTable {
    master_seq: u64,
    /// Sequence number of `stamps[0]` (stamps hold consecutive sequences).
    first_stamped: u64,
    /// Commit stamp (ms) per sequence, oldest first.
    stamps: VecDeque<f64>,
    /// Highest applied sequence per slave (sequence numbers are 1-based
    /// counts, so this is also the number of writesets applied).
    applied: Vec<u64>,
}

impl WatermarkTable {
    /// Table for `n_slaves` replicas that are current as of sequence
    /// `start_seq` (non-zero when the replicas were pre-loaded).
    pub fn new(n_slaves: usize, start_seq: u64) -> Self {
        Self {
            master_seq: start_seq,
            first_stamped: start_seq + 1,
            stamps: VecDeque::new(),
            applied: vec![start_seq; n_slaves],
        }
    }

    /// Number of tracked slaves.
    pub fn n_slaves(&self) -> usize {
        self.applied.len()
    }

    /// Highest stamped (committed) sequence on the master.
    pub fn master_seq(&self) -> u64 {
        self.master_seq
    }

    /// Highest sequence slave `s` has applied.
    pub fn applied_seq(&self, s: usize) -> u64 {
        self.applied[s]
    }

    /// Sequence lag of slave `s` (events committed but not yet applied).
    /// Saturating: a freshly resynced slave can briefly be *ahead* of the
    /// last stamped commit.
    pub fn lag(&self, s: usize) -> u64 {
        self.master_seq.saturating_sub(self.applied[s])
    }

    /// The master committed up to `seq` at time `now_ms`: stamp every new
    /// sequence with this commit time. Monotone; stale calls are no-ops.
    pub fn note_master_seq(&mut self, seq: u64, now_ms: f64) {
        while self.master_seq < seq {
            self.master_seq += 1;
            self.stamps.push_back(now_ms);
            if self.stamps.len() > STAMP_RING_CAP {
                self.stamps.pop_front();
                self.first_stamped += 1;
            }
        }
    }

    /// Slave `s` has applied up to `seq`. Monotone: a stale (backward)
    /// report is a no-op. `_now_ms` and `_backlogged` are unused; they keep
    /// the arity the repo benchmark's layer drive calls this with.
    pub fn note_applied(&mut self, s: usize, seq: u64, _now_ms: f64, _backlogged: bool) {
        let a = &mut self.applied[s];
        *a = (*a).max(seq);
    }

    /// Estimated staleness of slave `s` at `now_ms` (ms): the age of the
    /// first unapplied writeset's commit stamp, zero when caught up. For
    /// sequences older than the stamp ring the oldest retained stamp is
    /// used (a lower bound — such a slave is already hopelessly behind).
    pub fn est_staleness_ms(&self, s: usize, now_ms: f64) -> f64 {
        if self.lag(s) == 0 {
            return 0.0;
        }
        let first_unapplied = self.applied[s] + 1;
        let stamp = if first_unapplied < self.first_stamped {
            self.stamps.front().copied()
        } else {
            self.stamps
                .get((first_unapplied - self.first_stamped) as usize)
                .copied()
        };
        match stamp {
            Some(t) => (now_ms - t).max(0.0),
            None => 0.0, // lag > 0 with no stamps: nothing committed since construction
        }
    }

    /// Slave `s` was replaced by a replica current as of `seq` (snapshot
    /// resync): its watermark restarts there.
    pub fn reset_slave(&mut self, s: usize, seq: u64) {
        self.applied[s] = seq;
    }

    /// A new slave joined, current as of `seq`. Returns its index.
    pub fn push_slave(&mut self, seq: u64) -> usize {
        self.applied.push(seq);
        self.applied.len() - 1
    }

    /// Failover: the new master starts a fresh sequence space at
    /// `start_seq`, and every slave was just resynced from its snapshot.
    ///
    /// Only valid when the old sequence space actually dies with the old
    /// master (binlog backends, whose LSNs restart from the promoted
    /// node's fresh log). A shared-log reattach **must not** call this:
    /// the log outlives the master, the LSN space continues, and the tail
    /// may be re-delivered — resetting to 0 would let a `Monotonic` or
    /// `ReadYourWrites` session token (holding a pre-failover sequence)
    /// compare against rewound watermarks and route a read to a replica
    /// that has not actually caught up to what the session already saw.
    pub fn reset_all(&mut self, start_seq: u64) {
        self.master_seq = start_seq;
        self.first_stamped = start_seq + 1;
        self.stamps.clear();
        self.applied.fill(start_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caught_up_slave_has_zero_staleness_and_lag() {
        let mut wm = WatermarkTable::new(2, 0);
        wm.note_master_seq(3, 100.0);
        wm.note_applied(0, 3, 120.0, false);
        assert_eq!(wm.lag(0), 0);
        assert_eq!(wm.est_staleness_ms(0, 500.0), 0.0);
        assert_eq!(wm.lag(1), 3);
    }

    #[test]
    fn staleness_is_age_of_first_unapplied_commit() {
        let mut wm = WatermarkTable::new(1, 0);
        wm.note_master_seq(1, 100.0);
        wm.note_master_seq(2, 250.0);
        // Nothing applied: first unapplied is seq 1, committed at t=100.
        assert_eq!(wm.est_staleness_ms(0, 300.0), 200.0);
        wm.note_applied(0, 1, 300.0, true);
        // Now seq 2 (t=250) is the frontier.
        assert_eq!(wm.est_staleness_ms(0, 300.0), 50.0);
    }

    #[test]
    fn master_seq_is_monotone_and_batch_stamps() {
        let mut wm = WatermarkTable::new(1, 0);
        wm.note_master_seq(5, 10.0);
        wm.note_master_seq(3, 99.0); // stale: no-op
        assert_eq!(wm.master_seq(), 5);
        // All five sequences stamped at t=10.
        assert_eq!(wm.est_staleness_ms(0, 110.0), 100.0);
    }

    #[test]
    fn reset_and_push_track_membership() {
        let mut wm = WatermarkTable::new(1, 0);
        wm.note_master_seq(7, 1.0);
        let s = wm.push_slave(7);
        assert_eq!(s, 1);
        assert_eq!(wm.lag(1), 0);
        wm.reset_slave(0, 7);
        assert_eq!(wm.lag(0), 0);
        wm.reset_all(0);
        assert_eq!(wm.master_seq(), 0);
        assert_eq!(wm.lag(0), 0);
        assert_eq!(wm.est_staleness_ms(1, 100.0), 0.0);
    }

    #[test]
    fn resynced_slave_ahead_of_stamps_saturates() {
        let mut wm = WatermarkTable::new(1, 0);
        wm.note_master_seq(2, 1.0);
        // Snapshot resync to a head (5) beyond the last stamped commit (2).
        wm.reset_slave(0, 5);
        assert_eq!(wm.lag(0), 0);
        assert_eq!(wm.est_staleness_ms(0, 100.0), 0.0);
    }

    #[test]
    fn stamp_ring_eviction_falls_back_to_oldest_stamp() {
        let mut wm = WatermarkTable::new(1, 0);
        for i in 0..(STAMP_RING_CAP as u64 + 100) {
            wm.note_master_seq(i + 1, i as f64);
        }
        // Seq 1's stamp (t=0) was evicted; the oldest retained stamp
        // lower-bounds the age.
        let st = wm.est_staleness_ms(0, 10_000.0);
        assert!(st > 0.0 && st <= 10_000.0, "got {st}");
    }

    #[test]
    fn nonzero_start_seq_counts_as_current() {
        let wm = WatermarkTable::new(2, 42);
        assert_eq!(wm.master_seq(), 42);
        assert_eq!(wm.lag(0), 0);
        assert_eq!(wm.est_staleness_ms(0, 9.0), 0.0);
    }
}
