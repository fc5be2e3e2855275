//! Cloud network topology and latency model.
//!
//! The paper places replicas in three geographic configurations (§III-A):
//! *same zone* (slaves share the master's availability zone), *different
//! zone* (same region, different AZ), and *different region*. It measured the
//! resulting one-way (½-RTT) latencies with per-second pings over 20 minutes:
//! **16 ms / 21 ms / 173 ms** respectively (§IV-B.2).
//!
//! This module models regions, availability zones, and a latency matrix with
//! lognormal jitter calibrated to those measurements. Messages are simulated
//! as point-to-point delays sampled per message; the experiment harness uses
//! [`NetModel::delay`] both for client→replica requests and for binlog
//! writeset shipping.

use amdb_sim::{Rng, SimDuration};

/// An EC2-style region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    UsEast1,
    UsWest1,
    EuWest1,
    ApSoutheast1,
    ApNortheast1,
}

impl Region {
    /// The region's API name (`us-east-1`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Region::UsEast1 => "us-east-1",
            Region::UsWest1 => "us-west-1",
            Region::EuWest1 => "eu-west-1",
            Region::ApSoutheast1 => "ap-southeast-1",
            Region::ApNortheast1 => "ap-northeast-1",
        }
    }
}

/// An availability zone: a region plus a zone letter (`us-east-1a`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Zone {
    pub region: Region,
    pub letter: char,
}

impl Zone {
    /// Construct a zone.
    pub const fn new(region: Region, letter: char) -> Self {
        Self { region, letter }
    }

    /// `us-east-1a`-style display name.
    pub fn name(self) -> String {
        format!("{}{}", self.region.name(), self.letter)
    }
}

impl std::fmt::Display for Zone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Relative placement of two endpoints, which determines base latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proximity {
    /// Same availability zone.
    SameZone,
    /// Same region, different availability zone.
    DifferentZone,
    /// Different regions.
    DifferentRegion,
}

impl Proximity {
    /// Classify a pair of zones.
    pub fn of(a: Zone, b: Zone) -> Proximity {
        if a.region != b.region {
            Proximity::DifferentRegion
        } else if a.letter != b.letter {
            Proximity::DifferentZone
        } else {
            Proximity::SameZone
        }
    }
}

// The paper's measured one-way (½-RTT) delays, 16 / 21 / 173 ms, with
// modest lognormal jitter: "network fluctuation" is why the paper trims
// 5 % tails.

/// Mean one-way delay within an availability zone (ms).
const SAME_ZONE_MS: f64 = 16.0;
/// Mean one-way delay across the zones of one region (ms).
const DIFFERENT_ZONE_MS: f64 = 21.0;
/// Mean one-way delay across regions (ms). The paper measured us-east ↔
/// eu-west; one value serves any region pair.
const DIFFERENT_REGION_MS: f64 = 173.0;
/// Coefficient of variation of per-message jitter.
const JITTER_COV: f64 = 0.08;
/// Fixed per-message overhead (ms) added on top: NIC and virtualization.
const OVERHEAD_MS: f64 = 0.3;

/// Samples message delays between zones.
#[derive(Debug, Clone)]
pub struct NetModel {
    rng: Rng,
}

impl NetModel {
    /// Model with the paper's measured latencies, drawing jitter from a
    /// dedicated RNG stream.
    pub fn with_defaults(rng: Rng) -> Self {
        Self { rng }
    }

    /// Mean one-way delay for a proximity class (no jitter).
    pub fn base_one_way(&self, p: Proximity) -> SimDuration {
        let ms = match p {
            Proximity::SameZone => SAME_ZONE_MS,
            Proximity::DifferentZone => DIFFERENT_ZONE_MS,
            Proximity::DifferentRegion => DIFFERENT_REGION_MS,
        };
        SimDuration::from_millis_f64(ms + OVERHEAD_MS)
    }

    /// Sample the one-way delay for one message from `from` to `to`.
    pub fn delay(&mut self, from: Zone, to: Zone) -> SimDuration {
        let base = self.base_one_way(Proximity::of(from, to)).as_millis_f64();
        SimDuration::from_millis_f64(self.rng.lognormal_mean_cov(base, JITTER_COV))
    }

    /// Sample a full round-trip time (two independent one-way samples), i.e.
    /// what `ping` would report.
    pub fn rtt(&mut self, from: Zone, to: Zone) -> SimDuration {
        self.delay(from, to) + self.delay(to, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zones() -> (Zone, Zone, Zone, Zone) {
        let a = Zone::new(Region::UsEast1, 'a');
        let same = Zone::new(Region::UsEast1, 'a');
        let diff_zone = Zone::new(Region::UsEast1, 'b');
        let diff_region = Zone::new(Region::EuWest1, 'a');
        (a, same, diff_zone, diff_region)
    }

    #[test]
    fn proximity_classification() {
        let (a, same, dz, dr) = zones();
        assert_eq!(Proximity::of(a, same), Proximity::SameZone);
        assert_eq!(Proximity::of(a, dz), Proximity::DifferentZone);
        assert_eq!(Proximity::of(a, dr), Proximity::DifferentRegion);
        assert_eq!(Proximity::of(dr, a), Proximity::DifferentRegion);
    }

    #[test]
    fn zone_names() {
        assert_eq!(Zone::new(Region::UsWest1, 'a').name(), "us-west-1a");
        assert_eq!(Region::ApNortheast1.name(), "ap-northeast-1");
    }

    #[test]
    fn mean_delays_match_paper_calibration() {
        let (a, _, dz, dr) = zones();
        let mut net = NetModel::with_defaults(Rng::new(1));
        let n = 20_000;
        let avg = |net: &mut NetModel, to: Zone| -> f64 {
            (0..n)
                .map(|_| net.delay(a, to).as_millis_f64())
                .sum::<f64>()
                / n as f64
        };
        let same = avg(&mut net, a);
        let zone = avg(&mut net, dz);
        let region = avg(&mut net, dr);
        assert!((same - 16.3).abs() < 0.5, "same-zone mean {same}");
        assert!((zone - 21.3).abs() < 0.5, "diff-zone mean {zone}");
        assert!((region - 173.3).abs() < 2.0, "diff-region mean {region}");
        assert!(same < zone && zone < region, "ordering preserved");
    }

    #[test]
    fn jitter_produces_variation_but_no_negatives() {
        let (a, _, _, dr) = zones();
        let mut net = NetModel::with_defaults(Rng::new(2));
        let xs: Vec<f64> = (0..1000)
            .map(|_| net.delay(a, dr).as_millis_f64())
            .collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min > 0.0);
        assert!(max > min, "jitter present");
    }

    #[test]
    fn base_delays_are_the_paper_means_plus_overhead() {
        let net = NetModel::with_defaults(Rng::new(3));
        let base = |p| net.base_one_way(p).as_millis_f64();
        assert_eq!(base(Proximity::SameZone), 16.3);
        assert_eq!(base(Proximity::DifferentZone), 21.3);
        assert_eq!(base(Proximity::DifferentRegion), 173.3);
    }

    #[test]
    fn rtt_is_roughly_twice_one_way() {
        let (a, _, _, dr) = zones();
        let mut net = NetModel::with_defaults(Rng::new(4));
        let n = 5_000;
        let avg_rtt: f64 = (0..n).map(|_| net.rtt(a, dr).as_millis_f64()).sum::<f64>() / n as f64;
        assert!((avg_rtt - 2.0 * 173.3).abs() < 4.0, "rtt {avg_rtt}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _, _, dr) = zones();
        let mut n1 = NetModel::with_defaults(Rng::new(9));
        let mut n2 = NetModel::with_defaults(Rng::new(9));
        for _ in 0..100 {
            assert_eq!(n1.delay(a, dr), n2.delay(a, dr));
        }
    }
}
