//! The provider: launching instances with calibrated performance variation.

use crate::clock::{DriftingClock, NtpClient, NtpConfig};
use crate::instance::{CpuModel, Instance, InstanceId, InstanceType};
use crate::net::Zone;
use amdb_sim::{FifoCpu, Rng};

/// Provider-level knobs.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// Residual multiplicative speed noise per instance (lognormal CoV) on
    /// top of the discrete host-model mix — models noisy neighbours, steal
    /// time, cache pressure. The combination with the host catalog yields the
    /// ≈21 % small-instance CoV reported by Schad et al. and cited in §IV-A.
    pub residual_speed_cov: f64,
    /// Initial clock offset std-dev (µs) for a freshly launched instance.
    pub initial_clock_offset_sigma_us: f64,
    /// Clock frequency-error std-dev (ppm). Pairs of instances then drift
    /// apart at up to a few tens of ppm, matching Fig. 4's ≈36 ppm pair.
    pub clock_drift_sigma_ppm: f64,
    /// NTP residual model.
    pub ntp: NtpConfig,
}

impl Default for ProviderConfig {
    fn default() -> Self {
        Self {
            residual_speed_cov: 0.165,
            initial_clock_offset_sigma_us: 10_000.0,
            clock_drift_sigma_ppm: 18.0,
            ntp: NtpConfig::default(),
        }
    }
}

/// The virtual cloud provider. Launching is deterministic given the seed of
/// the RNG handed to [`Provider::new`]: the i-th launch always lands on the
/// same host model with the same residual noise, clock and NTP bias.
#[derive(Debug)]
pub struct Provider {
    cfg: ProviderConfig,
    rng: Rng,
    next_id: u32,
}

impl Provider {
    /// Create a provider with the given configuration and RNG stream.
    pub fn new(cfg: ProviderConfig, rng: Rng) -> Self {
        Self {
            cfg,
            rng,
            next_id: 0,
        }
    }

    /// Provider with default (paper-calibrated) configuration.
    pub fn with_defaults(rng: Rng) -> Self {
        Self::new(ProviderConfig::default(), rng)
    }

    /// The active configuration.
    pub fn config(&self) -> &ProviderConfig {
        &self.cfg
    }

    /// Number of instances launched so far.
    pub fn launched(&self) -> u32 {
        self.next_id
    }

    /// Launch an instance of `itype` in `zone`.
    ///
    /// Per the paper's observation (via Ristenpart et al.) that instances of
    /// one account never share a physical host, every launch draws an
    /// independent host model — so two slaves can differ by the full
    /// fast-host/slow-host gap even in the same zone.
    pub fn launch(&mut self, zone: Zone, itype: InstanceType) -> Instance {
        let id = InstanceId(self.next_id);
        self.next_id += 1;

        let catalog = CpuModel::catalog();
        let weights: Vec<f64> = catalog.iter().map(|&(_, w)| w).collect();
        let model = catalog[self.rng.pick_weighted(&weights)].0;
        let residual = if self.cfg.residual_speed_cov > 0.0 {
            self.rng
                .lognormal_mean_cov(1.0, self.cfg.residual_speed_cov)
        } else {
            1.0
        };
        let speed = itype.ecu() * model.speed_factor() * residual;

        let clock = DriftingClock::new(
            self.rng.normal(0.0, self.cfg.initial_clock_offset_sigma_us),
            self.rng.normal(0.0, self.cfg.clock_drift_sigma_ppm),
        );
        let ntp = NtpClient::sample(&self.cfg.ntp, &mut self.rng);

        Instance::new(id, zone, model, FifoCpu::new(speed), clock, ntp)
    }

    /// Launch an instance pinned to a specific host CPU model (used by the
    /// §IV-A performance-variation experiment, which contrasts a slave on an
    /// E5430 host against one on an E5507 host).
    pub fn launch_on_host(&mut self, zone: Zone, itype: InstanceType, model: CpuModel) -> Instance {
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        let clock = DriftingClock::new(
            self.rng.normal(0.0, self.cfg.initial_clock_offset_sigma_us),
            self.rng.normal(0.0, self.cfg.clock_drift_sigma_ppm),
        );
        let ntp = NtpClient::sample(&self.cfg.ntp, &mut self.rng);
        Instance::new(
            id,
            zone,
            model,
            FifoCpu::new(itype.ecu() * model.speed_factor()),
            clock,
            ntp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Region;

    fn zone() -> Zone {
        Zone::new(Region::UsEast1, 'a')
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let mut p = Provider::with_defaults(Rng::new(1));
        let a = p.launch(zone(), InstanceType::Small);
        let b = p.launch(zone(), InstanceType::Small);
        assert_ne!(a.id(), b.id());
        assert_eq!(p.launched(), 2);
    }

    #[test]
    fn deterministic_fleet_for_seed() {
        let mut p1 = Provider::with_defaults(Rng::new(42));
        let mut p2 = Provider::with_defaults(Rng::new(42));
        for _ in 0..20 {
            let a = p1.launch(zone(), InstanceType::Small);
            let b = p2.launch(zone(), InstanceType::Small);
            assert_eq!(a.speed(), b.speed());
            assert_eq!(a.cpu_model(), b.cpu_model());
        }
    }

    #[test]
    fn small_instance_speed_cov_matches_schad_et_al() {
        // §IV-A cites a 21 % coefficient of variation for small instances.
        let mut p = Provider::with_defaults(Rng::new(7));
        let speeds: Vec<f64> = (0..4000)
            .map(|_| p.launch(zone(), InstanceType::Small).speed())
            .collect();
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        let var =
            speeds.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (speeds.len() - 1) as f64;
        let cov = var.sqrt() / mean;
        assert!(
            (cov - 0.21).abs() < 0.04,
            "fleet CoV {cov:.3} should be near 0.21"
        );
    }

    #[test]
    fn large_instances_are_faster() {
        let mut p = Provider::with_defaults(Rng::new(3));
        let avg = |p: &mut Provider, t: InstanceType| -> f64 {
            (0..500).map(|_| p.launch(zone(), t).speed()).sum::<f64>() / 500.0
        };
        let small = avg(&mut p, InstanceType::Small);
        let large = avg(&mut p, InstanceType::Large);
        assert!(
            large / small > 3.0,
            "large ({large:.2}) ≈ 4× small ({small:.2})"
        );
    }

    #[test]
    fn pinned_host_has_exact_speed() {
        let mut p = Provider::with_defaults(Rng::new(4));
        let fast = p.launch_on_host(zone(), InstanceType::Small, CpuModel::XeonE5430);
        let slow = p.launch_on_host(zone(), InstanceType::Small, CpuModel::XeonE5507);
        assert_eq!(fast.speed(), 1.0);
        assert_eq!(slow.speed(), 0.85);
    }

    #[test]
    fn launches_carry_distinct_clocks() {
        let mut p = Provider::with_defaults(Rng::new(5));
        let a = p.launch(zone(), InstanceType::Small);
        let b = p.launch(zone(), InstanceType::Small);
        assert_ne!(
            a.clock.drift_ppm(),
            b.clock.drift_ppm(),
            "clock parameters are per-instance"
        );
        assert_ne!(a.ntp.bias_us(), b.ntp.bias_us());
    }
}
