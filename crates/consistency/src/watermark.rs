//! GTID-style watermark tracking: per-slave apply progress plus estimated
//! staleness, maintained entirely at the proxy tier.

use std::collections::VecDeque;

/// EWMA smoothing factor for the observed per-event apply interval.
const APPLY_EWMA_ALPHA: f64 = 0.2;

/// How many commit stamps the ring retains. Beyond this, the oldest known
/// stamp lower-bounds the age of evicted sequences (a slave that far behind
/// is ineligible under any realistic bound anyway).
const STAMP_RING_CAP: usize = 4096;

#[derive(Debug, Clone)]
struct SlaveWatermark {
    /// Writesets applied so far (sequence numbers are 1-based counts, so
    /// this is also the highest applied sequence).
    applied_seq: u64,
    /// When the last apply was observed (ms).
    last_apply_ms: f64,
    /// Whether `last_apply_ms` is meaningful yet.
    seen_apply: bool,
    /// EWMA of the per-event apply interval (ms/event), sampled only from
    /// busy periods (see [`WatermarkTable::note_applied`]).
    ewma_interval_ms: f64,
    /// Samples feeding the EWMA.
    samples: u64,
}

impl SlaveWatermark {
    fn at(seq: u64) -> Self {
        Self {
            applied_seq: seq,
            last_apply_ms: 0.0,
            seen_apply: false,
            ewma_interval_ms: 0.0,
            samples: 0,
        }
    }
}

/// Per-slave apply progress and staleness estimation.
///
/// The master side stamps each committed writeset sequence with its commit
/// time ([`Self::note_master_seq`]); each slave's apply thread advances its
/// watermark ([`Self::note_applied`]). From those two signals the table
/// derives, per slave:
///
/// * **estimated staleness** — how old the slave's view is: the age of the
///   first *unapplied* writeset's commit stamp ("seq lag × observed apply
///   rate" is what closes the gap; the stamp ring is what anchors it to
///   wall-clock age). Zero when fully caught up.
/// * **catch-up ETA** — sequence lag × the observed per-event apply
///   interval, used to schedule wait-for-catchup retries.
#[derive(Debug, Clone)]
pub struct WatermarkTable {
    master_seq: u64,
    /// Sequence number of `stamps[0]` (stamps hold consecutive sequences).
    first_stamped: u64,
    /// Commit stamp (ms) per sequence, oldest first.
    stamps: VecDeque<f64>,
    slaves: Vec<SlaveWatermark>,
    /// Cold-start per-event apply interval (ms) used until a slave has
    /// produced at least one busy-period sample.
    default_interval_ms: f64,
}

impl WatermarkTable {
    /// Table for `n_slaves` replicas that are current as of sequence
    /// `start_seq` (non-zero when the replicas were pre-loaded).
    pub fn new(n_slaves: usize, start_seq: u64) -> Self {
        Self {
            master_seq: start_seq,
            first_stamped: start_seq + 1,
            stamps: VecDeque::new(),
            slaves: (0..n_slaves)
                .map(|_| SlaveWatermark::at(start_seq))
                .collect(),
            default_interval_ms: 1.0,
        }
    }

    /// Override the cold-start apply interval (ms/event).
    pub fn set_default_interval_ms(&mut self, ms: f64) {
        self.default_interval_ms = ms.max(0.0);
    }

    /// Number of tracked slaves.
    pub fn n_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// Highest stamped (committed) sequence on the master.
    pub fn master_seq(&self) -> u64 {
        self.master_seq
    }

    /// Highest sequence slave `s` has applied.
    pub fn applied_seq(&self, s: usize) -> u64 {
        self.slaves[s].applied_seq
    }

    /// Sequence lag of slave `s` (events committed but not yet applied).
    /// Saturating: a freshly resynced slave can briefly be *ahead* of the
    /// last stamped commit.
    pub fn lag(&self, s: usize) -> u64 {
        self.master_seq.saturating_sub(self.slaves[s].applied_seq)
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

    /// Slave `s` has applied up to `seq` at `now_ms`. `backlogged` reports
    /// whether the slave still has queued writesets *after* this apply: only
    /// busy-period intervals feed the apply-rate EWMA, so think-time gaps
    /// between writes don't masquerade as slow applies.
    pub fn note_applied(&mut self, s: usize, seq: u64, now_ms: f64, backlogged: bool) {
        let w = &mut self.slaves[s];
        if seq <= w.applied_seq {
            return;
        }
        let events = seq - w.applied_seq;
        if w.seen_apply && (backlogged || events > 1) {
            let per_event = (now_ms - w.last_apply_ms).max(0.0) / events as f64;
            w.ewma_interval_ms = if w.samples == 0 {
                per_event
            } else {
                APPLY_EWMA_ALPHA * per_event + (1.0 - APPLY_EWMA_ALPHA) * w.ewma_interval_ms
            };
            w.samples += 1;
        }
        w.applied_seq = seq;
        w.last_apply_ms = now_ms;
        w.seen_apply = true;
    }

    /// Estimated staleness of slave `s` at `now_ms` (ms): the age of the
    /// first unapplied writeset's commit stamp, zero when caught up. For
    /// sequences older than the stamp ring the oldest retained stamp is
    /// used (a lower bound — such a slave is already hopelessly behind).
    pub fn est_staleness_ms(&self, s: usize, now_ms: f64) -> f64 {
        if self.lag(s) == 0 {
            return 0.0;
        }
        let first_unapplied = self.slaves[s].applied_seq + 1;
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

    /// Observed per-event apply interval for slave `s` (ms/event), falling
    /// back to the cold-start default before any busy-period sample.
    pub fn apply_interval_ms(&self, s: usize) -> f64 {
        let w = &self.slaves[s];
        if w.samples > 0 {
            w.ewma_interval_ms
        } else {
            self.default_interval_ms
        }
    }

    /// Estimated time (ms) for slave `s` to apply everything committed so
    /// far: sequence lag × observed apply rate.
    pub fn eta_catchup_ms(&self, s: usize) -> f64 {
        self.eta_to_seq_ms(s, self.master_seq)
    }

    /// Estimated time (ms) for slave `s` to reach `target_seq`.
    pub fn eta_to_seq_ms(&self, s: usize, target_seq: u64) -> f64 {
        let needed = target_seq.saturating_sub(self.slaves[s].applied_seq);
        needed as f64 * self.apply_interval_ms(s)
    }

    /// Slave `s` was replaced by a replica current as of `seq` (snapshot
    /// resync): its watermark restarts there with a cold apply history.
    pub fn reset_slave(&mut self, s: usize, seq: u64) {
        self.slaves[s] = SlaveWatermark::at(seq);
    }

    /// A new slave joined, current as of `seq`. Returns its index.
    pub fn push_slave(&mut self, seq: u64) -> usize {
        self.slaves.push(SlaveWatermark::at(seq));
        self.slaves.len() - 1
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
        for w in &mut self.slaves {
            *w = SlaveWatermark::at(start_seq);
        }
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
    fn apply_rate_ewma_only_samples_busy_periods() {
        let mut wm = WatermarkTable::new(1, 0);
        wm.note_master_seq(10, 0.0);
        wm.note_applied(0, 1, 0.0, true);
        // 2 ms per event while backlogged.
        wm.note_applied(0, 2, 2.0, true);
        assert_eq!(wm.apply_interval_ms(0), 2.0);
        // A 5-second idle gap then one apply that fully catches up must NOT
        // feed the EWMA (it would look like a 5000 ms apply).
        wm.note_applied(0, 3, 5002.0, false);
        assert_eq!(wm.apply_interval_ms(0), 2.0);
        // Multi-event applies count even if they end caught-up.
        wm.note_applied(0, 10, 5016.0, false);
        let e = wm.apply_interval_ms(0);
        assert!((e - (0.2 * 2.0 + 0.8 * 2.0)).abs() < 1e-12, "got {e}");
    }

    #[test]
    fn eta_scales_with_lag() {
        let mut wm = WatermarkTable::new(1, 0);
        wm.set_default_interval_ms(3.0);
        wm.note_master_seq(4, 0.0);
        assert_eq!(wm.eta_catchup_ms(0), 12.0);
        wm.note_applied(0, 2, 1.0, true);
        assert_eq!(wm.eta_to_seq_ms(0, 3), 3.0);
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
