//! Re-export shim: the code lives in `amdb_obs::metrics`. The crate stays
//! only while `benchmark/` names it; no workspace crate depends on it.

pub use amdb_obs::metrics::QuantileSketch;
