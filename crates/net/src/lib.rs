//! Re-export shim: the code lives in `amdb_cloud::net`. The crate stays
//! only while `benchmark/` names it; no workspace crate depends on it.

pub use amdb_cloud::net::{NetModel, Region, Zone};
