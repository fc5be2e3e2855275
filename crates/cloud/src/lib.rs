//! # amdb-cloud — virtual cloud provider (EC2 model)
//!
//! The paper runs its master and slaves in EC2 *small* instances (so
//! saturation is observed early) and the benchmark driver in a *large*
//! instance (§III-B). It highlights two provider-level phenomena:
//!
//! 1. **Instance performance variation** (§IV-A): nominally identical small
//!    instances land on heterogeneous physical hosts — the paper names an
//!    Intel Xeon E5430 2.66 GHz and an E5507 2.27 GHz — and cites Schad et
//!    al.'s 21 % coefficient of variation for small-instance CPU performance.
//!    A slow host can dominate placement effects.
//! 2. **Placement** across availability zones and regions, which drives
//!    network latency ([`net`]: regions, zones and the ½-RTT model).
//!
//! [`Provider::launch`] reproduces both: each launched instance draws a
//! physical CPU model from a weighted catalog plus residual multiplicative
//! noise, giving a calibrated speed distribution; it also gets its own
//! drifting clock and NTP client (see [`clock`]).

pub mod clock;
pub mod instance;
pub mod net;
pub mod provider;

pub use instance::{CpuModel, Instance, InstanceId, InstanceType};
pub use provider::{Provider, ProviderConfig};
