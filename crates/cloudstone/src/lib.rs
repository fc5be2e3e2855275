//! # amdb-cloudstone — the paper's modified Cloudstone benchmark
//!
//! Cloudstone models a Web 2.0 *social events calendar*: users browse,
//! search, and create events, join them, tag them and comment on them. The
//! paper's key modification (§III-A) removed the web/application tier — "we
//! re-implemented the business logic of the application in a way that a
//! user's operation can be processed directly at the database tier without
//! any intermediate interpretation at the web server tier" — so the load
//! generator speaks SQL straight at the replicated database. This crate
//! implements that modified benchmark:
//!
//! * [`schema`] — the events-calendar schema (users, events, tags,
//!   event_tags, attendees, comments) with the indexes the operations use;
//! * [`load`] — the deterministic pre-loader, parameterized by the paper's
//!   "initial data size" (300 for the 50/50 runs, 600 for 80/20);
//! * [`ops`] — the operation mix: read operations (event detail, tag search,
//!   upcoming-by-zip, person detail) and write operations (add event, join
//!   event, add comment, add person), each a short SQL transaction; the
//!   read/write ratio is a parameter (50/50 and 80/20 in the paper);
//! * [`web10`] — a TPC-W-flavoured read-mostly contrast workload (the
//!   Web 1.0 class of application §III-A distinguishes Cloudstone from);
//! * [`workload`] — closed-loop emulated users with exponential think times
//!   and the paper's run phases: "Every run lasts 35 minutes, including
//!   10-minute ramp-up, 20-minute steady stage and 5-minute ramp down"
//!   (§III-B), preceded here by an idle stage that provides the no-load
//!   baseline used for relative replication delay (§IV-B.1).

pub mod load;
pub mod ops;
pub mod schema;
pub mod shardkey;
pub mod web10;
pub mod workload;

pub use load::{build_template, DataCounters};
pub use ops::{MixConfig, OpClass, OpGenerator, Operation};
pub use schema::{DataSize, SCHEMA_SQL};
pub use shardkey::{shard_key_of, ShardKey};
pub use web10::{load_web10, Web10Generator, WEB10_SCHEMA};
pub use workload::{Phases, WorkloadConfig};
