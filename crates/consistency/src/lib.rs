//! # amdb-consistency — application-managed staleness bounds & session guarantees
//!
//! The paper *measures* the replication-delay window (Figs. 5–6) but routes
//! reads obliviously: every read risks the full staleness window. This crate
//! is the layer that *acts* on the measurement — the client-centric
//! guarantees of the replica-consistency survey literature (read-your-writes,
//! monotonic reads, bounded staleness) built on exactly the signals an
//! application-managed deployment already owns:
//!
//! * [`WatermarkTable`] — GTID-style watermark tracking. The replication
//!   tier stamps every shipped writeset with a monotone sequence (the binlog
//!   LSN *is* that sequence); each slave's SQL thread advances an
//!   `applied_seq` as it drains its relay log. The proxy tier keeps, per
//!   slave, the apply progress, an EWMA of the observed apply rate, and a
//!   ring of commit stamps, from which it estimates each slave's staleness
//!   without touching the slave.
//! * [`SessionToken`] — per-user session state (`last_write_seq`,
//!   `last_read_seq`) giving Cloudstone users read-your-writes and monotonic
//!   reads over an eventually-consistent slave tier.
//! * [`ConsistencyPolicy`] + [`FallbackPolicy`] — freshness-bounded routing:
//!   a policy filter that wraps *any* existing balancer, restricting its
//!   choice to the eligible slaves and, when none qualify, either redirecting
//!   to the master or waiting (with a deadline) for a slave to catch up.
//!
//! The decision procedure ([`ConsistencyConfig::decide_read`]) is pure
//! bookkeeping over [`amdb_proxy::Proxy`] state: it schedules nothing and consumes no
//! randomness beyond the one balancer pick the unfiltered proxy would make,
//! so wiring it into a deterministic simulation cannot perturb runs that do
//! not opt in — and `Eventual` is byte-identical to no policy at all.

mod router;
mod session;
mod watermark;

pub use router::{ConsistencyConfig, ConsistencyPolicy, FallbackPolicy, ReadDecision};
pub use session::SessionToken;
pub use watermark::{SeqSource, WatermarkTable};

// Re-exported so policy-layer callers don't need a separate amdb-proxy dep
// just to match on the decision.
pub use amdb_proxy::Route;
