//! # amdb-shard — deterministic shard map + scatter-gather merge
//!
//! The paper's fig2 curve flattens because a single master absorbs every
//! write. This crate holds the *pure* machinery for going past that ceiling
//! by partitioning the Cloudstone schema across N independent replication
//! trees (ROADMAP item 2):
//!
//! * [`ShardMap`] — consistent-hash placement (Lamping–Veach jump hash, so
//!   growing the shard count remaps only ~1/n of the keyspace) over
//!   [`ShardKey`]s;
//! * [`Gather`] — the scatter-gather merge buffer: one slot per shard,
//!   per-leg [`ConsistencyPolicy`] filtering (a `BoundedStaleness` bound
//!   drops legs that served too stale) and a deterministic ordered merge of
//!   the surviving partial results.
//!
//! Everything here is deterministic and side-effect free; the event-driven
//! front that drives these types lives in `amdb-core::sharded`.

pub mod gather;
pub mod map;

pub use amdb_cloudstone::{shard_key_of, ShardKey};
pub use amdb_consistency::ConsistencyPolicy;
pub use gather::Gather;
pub use map::{jump_hash, key_hash, ShardMap};
