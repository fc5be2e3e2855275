//! Instance types, physical CPU models, and the launched-instance handle.

use crate::clock::{DriftingClock, NtpClient};
use crate::net::Zone;
use amdb_sim::FifoCpu;

/// Opaque identifier for a launched instance, unique per provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i-{:08x}", self.0)
    }
}

/// EC2-style instance size. The paper uses `Small` for all database servers
/// ("so that saturation is expected to be observed early") and `Large` for
/// the benchmark driver ("to avoid any overload on the application tier").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceType {
    /// m1.small: 1 ECU.
    Small,
    /// m1.large: 4 ECU.
    Large,
    /// m1.xlarge: 8 ECU.
    ExtraLarge,
}

impl InstanceType {
    /// Nominal compute capacity in EC2 Compute Units.
    pub fn ecu(self) -> f64 {
        match self {
            InstanceType::Small => 1.0,
            InstanceType::Large => 4.0,
            InstanceType::ExtraLarge => 8.0,
        }
    }

    /// API name.
    pub fn name(self) -> &'static str {
        match self {
            InstanceType::Small => "m1.small",
            InstanceType::Large => "m1.large",
            InstanceType::ExtraLarge => "m1.xlarge",
        }
    }
}

/// A physical host CPU model that an instance can land on.
///
/// The two named models are the ones the paper observed hosting its slaves
/// (§IV-A); the others pad the catalog so the overall small-instance speed
/// distribution reaches the reported ≈21 % CoV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuModel {
    /// Intel Xeon E5430 2.66 GHz — the paper's fast host.
    XeonE5430,
    /// Intel Xeon E5507 2.27 GHz — the paper's slow host.
    XeonE5507,
    /// Intel Xeon E5645 2.40 GHz.
    XeonE5645,
    /// AMD Opteron 2218 2.6 GHz (older generation, markedly slower per core).
    Opteron2218,
}

impl CpuModel {
    /// Relative per-ECU speed of the host model (E5430 ≡ 1.0). The E5507
    /// ratio follows the paper's clock ratio (2.27 / 2.66 ≈ 0.85).
    pub fn speed_factor(self) -> f64 {
        match self {
            CpuModel::XeonE5430 => 1.00,
            CpuModel::XeonE5507 => 0.85,
            CpuModel::XeonE5645 => 0.95,
            CpuModel::Opteron2218 => 0.62,
        }
    }

    /// Marketing name.
    pub fn name(self) -> &'static str {
        match self {
            CpuModel::XeonE5430 => "Intel Xeon E5430 2.66GHz",
            CpuModel::XeonE5507 => "Intel Xeon E5507 2.27GHz",
            CpuModel::XeonE5645 => "Intel Xeon E5645 2.40GHz",
            CpuModel::Opteron2218 => "AMD Opteron 2218 2.6GHz",
        }
    }

    /// The catalog with launch weights (share of the provider's fleet).
    pub fn catalog() -> &'static [(CpuModel, f64)] {
        &[
            (CpuModel::XeonE5430, 0.40),
            (CpuModel::XeonE5507, 0.30),
            (CpuModel::XeonE5645, 0.20),
            (CpuModel::Opteron2218, 0.10),
        ]
    }
}

/// A launched virtual machine: placement, host hardware, effective CPU,
/// local clock, and NTP client.
#[derive(Debug, Clone)]
pub struct Instance {
    id: InstanceId,
    zone: Zone,
    cpu_model: CpuModel,
    /// The instance's FIFO CPU; its speed folds together ECU, host model and
    /// residual noisy-neighbour noise.
    pub cpu: FifoCpu,
    /// The instance's drifting local clock.
    pub clock: DriftingClock,
    /// The instance's NTP client (fixed path bias, per-sync noise).
    pub ntp: NtpClient,
}

impl Instance {
    pub(crate) fn new(
        id: InstanceId,
        zone: Zone,
        cpu_model: CpuModel,
        cpu: FifoCpu,
        clock: DriftingClock,
        ntp: NtpClient,
    ) -> Self {
        Self {
            id,
            zone,
            cpu_model,
            cpu,
            clock,
            ntp,
        }
    }

    /// The instance identifier.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// Placement zone.
    pub fn zone(&self) -> Zone {
        self.zone
    }

    /// Physical host CPU model this VM landed on.
    pub fn cpu_model(&self) -> CpuModel {
        self.cpu_model
    }

    /// Effective speed factor (ECU × host model × residual noise).
    pub fn speed(&self) -> f64 {
        self.cpu.speed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecu_ordering() {
        assert!(InstanceType::Small.ecu() < InstanceType::Large.ecu());
        assert!(InstanceType::Large.ecu() < InstanceType::ExtraLarge.ecu());
    }

    #[test]
    fn e5507_slower_than_e5430_by_clock_ratio() {
        let ratio = CpuModel::XeonE5507.speed_factor() / CpuModel::XeonE5430.speed_factor();
        assert!((ratio - 2.27 / 2.66).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn catalog_weights_sum_to_one() {
        let total: f64 = CpuModel::catalog().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn instance_id_display() {
        assert_eq!(InstanceId(255).to_string(), "i-000000ff");
    }
}
