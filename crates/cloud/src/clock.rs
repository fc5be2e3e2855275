//! Per-VM clocks, drift, and NTP synchronization
//!
//! §IV-B.1 of the paper is entirely about clocks: the replication delay is
//! computed as the difference between a timestamp committed on the master and
//! a timestamp committed on a slave, so any skew between the two VMs' clocks
//! pollutes the measurement. The authors observed (Fig. 4) that
//!
//! * without periodic synchronization, the offset between two instances grows
//!   linearly (≈7 ms → ≈50 ms over 20 minutes) due to clock drift, because
//!   Amazon only disciplines instance clocks "every couple of hours";
//! * with NTP applied every second, the offset stays between ≈1 and ≈8 ms
//!   (median 3.30 ms, σ 1.19 ms).
//!
//! This module models exactly those mechanics: a [`DriftingClock`] with a
//! per-instance frequency error (drift, in parts-per-million) and an
//! [`NtpClient`] that periodically snaps the offset to a residual error drawn
//! from a per-instance bias plus sync noise (the bias models the asymmetric
//! network path to the time servers, which is why two "synchronized" VMs
//! still disagree by a few milliseconds).

use amdb_sim::{Rng, SimDuration, SimTime};

/// A local wall-clock reading in microseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WallMicros(pub i64);

impl WallMicros {
    /// Signed difference `self - other` in microseconds.
    pub fn delta_micros(self, other: WallMicros) -> i64 {
        self.0 - other.0
    }

    /// Signed difference in milliseconds as a float.
    pub fn delta_millis_f64(self, other: WallMicros) -> f64 {
        self.delta_micros(other) as f64 / 1e3
    }
}

/// Wall-clock time corresponding to simulated time zero.
///
/// Chosen so heartbeat timestamps look like real epoch microseconds
/// (2012-02-01T00:00:00Z, the paper's submission era).
pub const WALL_EPOCH_MICROS: i64 = 1_328_054_400_000_000;

/// A VM's local clock: true time plus a piecewise-linear offset.
///
/// `offset(t) = offset_at_base + drift_ppm · (t - base)` until the next
/// correction resets the base. All quantities are in microseconds.
#[derive(Debug, Clone)]
pub struct DriftingClock {
    base: SimTime,
    offset_at_base_us: f64,
    drift_ppm: f64,
}

impl DriftingClock {
    /// A perfect clock: zero offset, zero drift.
    pub fn perfect() -> Self {
        Self::new(0.0, 0.0)
    }

    /// Clock with an initial offset (µs) and a frequency error (ppm; 1 ppm =
    /// 1 µs of error accumulated per true second).
    pub fn new(initial_offset_us: f64, drift_ppm: f64) -> Self {
        Self {
            base: SimTime::ZERO,
            offset_at_base_us: initial_offset_us,
            drift_ppm,
        }
    }

    /// The configured frequency error in ppm.
    pub fn drift_ppm(&self) -> f64 {
        self.drift_ppm
    }

    /// Current offset (local − true) in microseconds at true time `now`.
    pub fn offset_us(&self, now: SimTime) -> f64 {
        let dt_s = (now - self.base).as_secs_f64();
        self.offset_at_base_us + self.drift_ppm * dt_s
    }

    /// Read the local wall clock at true time `now`.
    pub fn read(&self, now: SimTime) -> WallMicros {
        WallMicros(WALL_EPOCH_MICROS + now.as_micros() as i64 + self.offset_us(now).round() as i64)
    }

    /// Step the clock so its offset at `now` becomes `offset_us` (what an NTP
    /// correction does). Drift is unaffected: frequency error persists.
    pub fn set_offset(&mut self, now: SimTime, offset_us: f64) {
        self.base = now;
        self.offset_at_base_us = offset_us;
    }
}

/// NTP client model: periodic corrections leave a residual offset equal to a
/// fixed per-instance bias plus zero-mean per-sync noise.
#[derive(Debug, Clone)]
pub struct NtpClient {
    bias_us: f64,
    noise_sigma_us: f64,
    syncs: u64,
}

/// Parameters for sampling NTP clients. Defaults are calibrated so that two
/// per-second-synced instances typically disagree by 1–8 ms (Fig. 4).
#[derive(Debug, Clone)]
pub struct NtpConfig {
    /// Std-dev of the per-instance path bias (µs). Default 2000 µs.
    pub bias_sigma_us: f64,
    /// Std-dev of per-sync noise (µs). Default 800 µs.
    pub noise_sigma_us: f64,
}

impl Default for NtpConfig {
    fn default() -> Self {
        Self {
            bias_sigma_us: 2_000.0,
            noise_sigma_us: 800.0,
        }
    }
}

impl NtpClient {
    /// Deterministic client with explicit bias/noise (µs).
    pub fn with_bias(bias_us: f64, noise_sigma_us: f64) -> Self {
        Self {
            bias_us,
            noise_sigma_us,
            syncs: 0,
        }
    }

    /// Sample a client for one instance: its path bias is drawn once and then
    /// fixed for the instance's lifetime.
    pub fn sample(cfg: &NtpConfig, rng: &mut Rng) -> Self {
        Self::with_bias(rng.normal(0.0, cfg.bias_sigma_us), cfg.noise_sigma_us)
    }

    /// The fixed per-instance bias in microseconds.
    pub fn bias_us(&self) -> f64 {
        self.bias_us
    }

    /// Number of corrections applied so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Apply one correction: the clock's offset becomes bias + noise.
    pub fn sync(&mut self, clock: &mut DriftingClock, now: SimTime, rng: &mut Rng) {
        let residual = self.bias_us + rng.normal(0.0, self.noise_sigma_us);
        clock.set_offset(now, residual);
        self.syncs += 1;
    }
}

/// Convenience: the true interval between the paper's per-second NTP syncs.
pub const NTP_SYNC_INTERVAL: SimDuration = SimDuration::from_secs(1);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_tracks_true_time() {
        let c = DriftingClock::perfect();
        let t = SimTime::from_secs(100);
        assert_eq!(
            c.read(t).0,
            WALL_EPOCH_MICROS + 100_000_000,
            "no offset, no drift"
        );
    }

    #[test]
    fn drift_accumulates_linearly() {
        // 36 ppm ~= the pair drift implied by Fig. 4 (43 ms over 20 min).
        let c = DriftingClock::new(7_000.0, 36.0);
        assert!((c.offset_us(SimTime::ZERO) - 7_000.0).abs() < 1e-9);
        let at_20min = c.offset_us(SimTime::from_secs(1200));
        assert!(
            (at_20min - (7_000.0 + 36.0 * 1200.0)).abs() < 1e-6,
            "got {at_20min}"
        );
        // ~50.2 ms — matches the paper's end-of-run observation.
        assert!((at_20min / 1000.0 - 50.2).abs() < 0.1);
    }

    #[test]
    fn two_clock_difference_matches_fig4_shape() {
        let a = DriftingClock::new(7_000.0, 20.0);
        let b = DriftingClock::new(0.0, -16.0);
        let t = SimTime::from_secs(1200);
        let diff_ms = a.read(t).delta_millis_f64(b.read(t));
        assert!((diff_ms - 50.2).abs() < 0.2, "got {diff_ms}");
    }

    #[test]
    fn set_offset_rebases() {
        let mut c = DriftingClock::new(10_000.0, 100.0);
        c.set_offset(SimTime::from_secs(10), 500.0);
        assert!((c.offset_us(SimTime::from_secs(10)) - 500.0).abs() < 1e-9);
        // Drift continues from the new base.
        assert!((c.offset_us(SimTime::from_secs(11)) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn ntp_sync_bounds_offset() {
        let mut rng = Rng::new(42);
        let mut clock = DriftingClock::new(25_000.0, 30.0);
        let mut ntp = NtpClient::with_bias(3_000.0, 800.0);
        let mut t = SimTime::ZERO;
        let mut worst: f64 = 0.0;
        for _ in 0..1200 {
            ntp.sync(&mut clock, t, &mut rng);
            t += NTP_SYNC_INTERVAL;
            worst = worst.max(clock.offset_us(t).abs());
        }
        assert_eq!(ntp.syncs(), 1200);
        // bias 3ms + noise 0.8ms σ + 30µs of drift per second: stays well
        // under the 8ms envelope the paper observed.
        assert!(worst < 8_000.0, "worst offset {worst}µs");
    }

    #[test]
    fn sampled_clients_have_distinct_biases() {
        let cfg = NtpConfig::default();
        let mut rng = Rng::new(7);
        let a = NtpClient::sample(&cfg, &mut rng);
        let b = NtpClient::sample(&cfg, &mut rng);
        assert_ne!(a.bias_us(), b.bias_us());
    }

    #[test]
    fn wall_micros_delta() {
        let a = WallMicros(1_000_500);
        let b = WallMicros(1_000_000);
        assert_eq!(a.delta_micros(b), 500);
        assert_eq!(b.delta_micros(a), -500);
        assert!((a.delta_millis_f64(b) - 0.5).abs() < 1e-12);
    }
}
