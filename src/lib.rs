//! # amdb — Application-Managed Database Replication, simulated
//!
//! Umbrella crate re-exporting the full workspace. See the `amdb-core` crate
//! for the high-level API and `DESIGN.md` for the architecture.

pub use amdb_apply as apply;
pub use amdb_cloud as cloud;
pub use amdb_cloud::clock;
pub use amdb_cloud::net;
pub use amdb_cloudstone as cloudstone;
pub use amdb_consistency as consistency;
pub use amdb_core as core;
pub use amdb_experiments as experiments;
pub use amdb_obs as obs;
pub use amdb_obs::metrics;
pub use amdb_obs::telemetry;
pub use amdb_proxy as proxy;
pub use amdb_repl as repl;
pub use amdb_sim as sim;
pub use amdb_sql as sql;
