//! # amdb-sql — in-memory relational engine with a binary log
//!
//! The reproduction's stand-in for MySQL. The paper's database tier is a set
//! of MySQL replicas kept in sync by shipping the master's binary log —
//! statement-based, which is why its heartbeat trick works: the replicated
//! `INSERT` re-evaluates the timestamp function *on each slave*, committing
//! the slave's local time next to the master-assigned global id (§III-A).
//!
//! This crate implements the pieces of MySQL the paper's setup exercises:
//!
//! * a SQL subset — `CREATE TABLE` / `CREATE INDEX` / `DROP TABLE`,
//!   `INSERT`, `SELECT` (joins, `WHERE`, `GROUP BY`, aggregates, `ORDER BY`,
//!   `LIMIT`), `UPDATE`, `DELETE`, and transaction control;
//! * an execution pipeline: lexer → recursive-descent parser → AST →
//!   heuristic planner (index selection) → executor over in-memory tables
//!   with B-tree primary and secondary indexes, fronted by a per-engine
//!   statement→plan [`cache`] so repeated statement texts (including every
//!   statement-format binlog event a slave re-applies) skip the parser;
//! * sessions with autocommit or explicit transactions, over one write
//!   record per session that undoes a failed statement or a ROLLBACK and
//!   becomes the row binlog's event at commit;
//! * a binary log with **statement-based** and **row-based** event formats,
//!   binary-encoded (see [`binlog`]), consumed by `amdb-repl`;
//! * a microsecond `NOW_MICROS()` function bound to the *session clock* —
//!   the engine itself has no ambient time source, mirroring the paper's
//!   user-defined microsecond timestamp UDF (their fix for MySQL bug #8523,
//!   whose built-in `NOW()` only resolves to seconds);
//! * a [`cost`] model reporting the CPU demand of each executed statement so
//!   the simulation can charge the owning VM.
//!
//! Execution is *functionally real*: replicas genuinely diverge until
//! writesets are applied, so staleness measured by the heartbeat experiment
//! is measured from actual table contents, not a model.

pub mod ast;
pub mod binlog;
pub mod cache;
pub mod cost;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod schema;
pub mod storage;
pub mod value;

pub use binlog::{Binlog, BinlogEvent, BinlogFormat, EventPayload, Lsn};
pub use cache::{CacheStats, CachedPlan, PlanCache};
pub use engine::{Engine, ForkRole, Session};
pub use error::SqlError;
pub use exec::QueryResult;
pub use schema::{Column, TableSchema};
pub use value::{DataType, Value};

/// Shorthand result type for engine operations.
pub type Result<T> = std::result::Result<T, SqlError>;
