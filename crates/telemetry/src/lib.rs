//! Re-export shim: the code lives in `amdb_obs::telemetry`. The crate stays
//! only while `benchmark/` names it; no workspace crate depends on it.

pub use amdb_obs::telemetry::StalenessWaterfall;
