//! # amdb-apply — row writesets and deterministic parallel slave apply
//!
//! The paper's replication-delay surge (Figs 5–6) is queueing at the *single*
//! slave SQL thread: once offered apply demand exceeds one core's capacity,
//! the relay backlog — and with it staleness — grows without bound (§IV-A).
//! Production MySQL attacked exactly this with row-based logging plus
//! multi-threaded, dependency-aware apply (`replica_parallel_workers` with
//! `WRITESET` tracking); log-replicated cloud databases such as Taurus push
//! the same idea further. This crate is that mechanism for amdb:
//!
//! * [`writeset`] — extracts the *conflict footprint* of a binlog event:
//!   interned table ids plus primary-key-keyed before/after row images
//!   ([`RowEvent`]). Statement events (including all DDL) have no computable
//!   footprint and act as full barriers.
//! * [`scheduler`] — the deterministic group-commit planner:
//!   [`ApplyScheduler`] forms batches of up to N pairwise-non-conflicting
//!   transactions from the head of the relay queue, dispatches them to N
//!   simulated workers, and commits **in LSN order** so externally visible
//!   state and replication watermarks stay sequential. With `workers = 1`
//!   every batch has size 1 and the pipeline is byte-identical to the classic
//!   serial apply thread.
//!
//! Determinism contract: planning consumes no randomness and no host state —
//! the batch boundaries are a pure function of the event sequence and the
//! schema's primary keys, so a simulation replaying the same binlog always
//! applies in the same groups, regardless of `--jobs` or wall-clock.

pub mod scheduler;
pub mod writeset;

pub use scheduler::{simulate, ApplyPlan, ApplyScheduler, BatchBound};
pub use writeset::{writeset_of, RowEvent, RowKey, TableId, TableInterner, Writeset};
