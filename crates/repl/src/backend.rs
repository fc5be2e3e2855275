//! Which replication backend a cluster runs: *how* committed writesets
//! become durable and reach the replicas.
//!
//! The paper's design (and this repo's original pipeline) is binlog fan-out:
//! the master's binlog is the only durable copy, slaves pull from it, and
//! losing the master loses its unshipped tail. The modern alternative is a
//! Taurus-style shared log ([`crate::logstore`]): the durable copy lives in a
//! quorum-replicated log service, replicas tail the durable prefix, and
//! failover reattaches to the log instead of rebuilding.
//!
//! Either way the master's binlog is the one copy of the events. The untimed
//! [`crate::ReplicatedDb`] tails it directly (below the log's durable prefix
//! under the shared log); the timed `amdb_core::Cluster` ships from it at
//! commit, or at quorum.

use amdb_sql::BinlogFormat;

/// Which replication backend a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Statement-shipping binlog fan-out — the paper's setup and this
    /// repo's baseline.
    #[default]
    Statement,
    /// Row-image binlog fan-out (ablation A3's format, same fan-out plane).
    Row,
    /// Quorum-replicated shared log; replicas tail the durable prefix.
    SharedLog,
}

impl BackendKind {
    /// Display / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Statement => "statement",
            BackendKind::Row => "row",
            BackendKind::SharedLog => "shared-log",
        }
    }

    /// Parse a CLI spelling (`--backend <name>`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "statement" | "stmt" => Some(BackendKind::Statement),
            "row" => Some(BackendKind::Row),
            "shared-log" | "shared_log" | "sharedlog" => Some(BackendKind::SharedLog),
            _ => None,
        }
    }

    /// The binlog format this backend ships. The shared log carries row
    /// images: log records are physical, replica apply is deterministic
    /// per-row — statement re-execution has no place in a log-is-the-
    /// database design.
    pub fn format(self) -> BinlogFormat {
        match self {
            BackendKind::Statement => BinlogFormat::Statement,
            BackendKind::Row | BackendKind::SharedLog => BinlogFormat::Row,
        }
    }

    /// All backends, in comparison-table order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Statement,
        BackendKind::Row,
        BackendKind::SharedLog,
    ];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(
            BackendKind::parse("shared_log"),
            Some(BackendKind::SharedLog)
        );
        assert_eq!(BackendKind::parse("bogus"), None);
    }
}
