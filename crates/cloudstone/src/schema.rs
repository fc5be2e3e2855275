//! The events-calendar schema and data-size parameterization.

/// DDL for the Cloudstone social-events schema, plus the replication
/// heartbeat table (the paper keeps it in a separate "Heartbeats database";
//  here it lives alongside, which changes nothing observable).
pub const SCHEMA_SQL: &str = "
CREATE TABLE users (
    id INT PRIMARY KEY,
    username VARCHAR(64) NOT NULL,
    email VARCHAR(128),
    created_at TIMESTAMP NOT NULL
);
CREATE UNIQUE INDEX uq_username ON users (username);

CREATE TABLE events (
    id INT PRIMARY KEY,
    title VARCHAR(128) NOT NULL,
    description TEXT,
    created_by INT NOT NULL,
    event_ts TIMESTAMP NOT NULL,
    zip INT NOT NULL,
    created_at TIMESTAMP NOT NULL
);
CREATE INDEX idx_events_created_by ON events (created_by);
CREATE INDEX idx_events_zip ON events (zip);

CREATE TABLE tags (
    id INT PRIMARY KEY,
    name VARCHAR(32) NOT NULL
);
CREATE UNIQUE INDEX uq_tag_name ON tags (name);

CREATE TABLE event_tags (
    id INT PRIMARY KEY,
    event_id INT NOT NULL,
    tag_id INT NOT NULL
);
CREATE INDEX idx_et_event ON event_tags (event_id);
CREATE INDEX idx_et_tag ON event_tags (tag_id);

CREATE TABLE attendees (
    id INT PRIMARY KEY,
    event_id INT NOT NULL,
    user_id INT NOT NULL,
    created_at TIMESTAMP NOT NULL
);
CREATE INDEX idx_att_event ON attendees (event_id);
CREATE INDEX idx_att_user ON attendees (user_id);

CREATE TABLE comments (
    id INT PRIMARY KEY,
    event_id INT NOT NULL,
    user_id INT NOT NULL,
    rating INT,
    body TEXT,
    created_at TIMESTAMP NOT NULL
);
CREATE INDEX idx_com_event ON comments (event_id);

CREATE TABLE heartbeat (
    id INT PRIMARY KEY,
    ts TIMESTAMP NOT NULL
)
";

/// The paper's "initial data size" knob (300 for the 50/50 experiments, 600
/// for 80/20), expanded into per-table row counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSize {
    /// The scale parameter as the paper quotes it.
    pub scale: u32,
}

impl DataSize {
    /// The 50/50-experiment size (Figs 2 and 5).
    pub const SMALL: DataSize = DataSize { scale: 300 };
    /// The 80/20-experiment size (Figs 3 and 6).
    pub const LARGE: DataSize = DataSize { scale: 600 };

    /// Registered users.
    pub fn users(self) -> u32 {
        self.scale * 10
    }

    /// Seed events.
    pub fn events(self) -> u32 {
        self.scale * 20
    }

    /// Distinct tags. Sub-linear in scale so that tag-search cost grows
    /// with data size but slower than event count (popular tags accrete
    /// more events on a bigger site).
    pub fn tags(self) -> u32 {
        100 + self.scale / 2
    }

    /// Tags attached per event.
    pub fn tags_per_event(self) -> u32 {
        2
    }

    /// Attendance records per user.
    pub fn attendances_per_user(self) -> u32 {
        3
    }

    /// Comments per event.
    pub fn comments_per_event(self) -> u32 {
        2
    }

    /// Distinct zip codes events are spread over.
    pub fn zips(self) -> u32 {
        100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_linearly() {
        assert_eq!(DataSize::SMALL.users() * 2, DataSize::LARGE.users());
        assert_eq!(DataSize::SMALL.events() * 2, DataSize::LARGE.events());
    }

    #[test]
    fn schema_has_all_tables() {
        for t in [
            "users",
            "events",
            "tags",
            "event_tags",
            "attendees",
            "comments",
            "heartbeat",
        ] {
            assert!(
                SCHEMA_SQL.contains(&format!("CREATE TABLE {t}")),
                "missing {t}"
            );
        }
    }

    #[test]
    fn paper_scales() {
        assert_eq!(DataSize::SMALL.scale, 300);
        assert_eq!(DataSize::LARGE.scale, 600);
    }
}
