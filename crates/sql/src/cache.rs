//! Statement→plan cache: parse and bind once per distinct SQL text.
//!
//! Keyed by the raw SQL string. Each entry holds the [`Plan`] the binder
//! (`exec::bind`) made of the statement: SELECT, EXPLAIN, INSERT,
//! UPDATE and DELETE with every column bound to a position and every access
//! path chosen, DDL and transaction control as parsed. Parameters bind at
//! execute time, so one entry serves every execution of a parameterized
//! statement. This is what makes the statement-based replication redo path
//! cheap: a slave re-applying the workload's handful of distinct statement
//! shapes pays one parse+bind per shape, then a hash lookup per event.
//!
//! Entries are validated against the owning engine's DDL serial before
//! reuse. Any schema-affecting DDL bumps the serial; an entry whose last
//! validation is older re-checks its table dependencies (table still
//! present, schema serial unmoved) and is evicted when one moved — the same
//! check for every statement that binds a table.
//! Eviction is LRU over a fixed capacity, driven by an explicit clock tick —
//! never by hash iteration order or wall time — so cache behaviour is fully
//! deterministic.

use crate::exec::{Deps, Plan};
use std::collections::HashMap;
use std::sync::Arc;

/// A prepared statement: its bound plan and the tables the plan depends on.
/// Shared via `Arc` so the borrow on the cache ends before execution begins.
#[derive(Debug)]
pub struct CachedPlan {
    /// The statement as the binder left it.
    pub plan: Plan,
    /// Every table the plan binds, with its schema serial at bind time;
    /// empty for DDL and transaction control, which cannot go stale.
    pub deps: Deps,
    /// Number of `?` placeholders, checked against the bound parameters
    /// when the statement is binlogged.
    pub param_count: usize,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    /// Engine DDL serial at the last successful validation. While it still
    /// matches the engine's counter the entry is fresh with no further
    /// checks; otherwise the dependency serials are re-checked.
    validated_serial: u64,
    /// LRU clock tick of the last hit or insertion.
    last_used: u64,
}

/// Hit/miss counters and current size, exposed for tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

/// LRU statement→plan cache.
#[derive(Debug)]
pub struct PlanCache {
    map: HashMap<String, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans; zero disables caching.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum number of entries (zero = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Change the capacity, evicting LRU entries that no longer fit.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Look up `sql`. An entry validated at the current `ddl_serial` is
    /// returned directly; an older entry is returned only if `still_valid`
    /// confirms its dependencies, and is evicted (and counted as a miss)
    /// otherwise.
    pub fn get_validated<F>(
        &mut self,
        sql: &str,
        ddl_serial: u64,
        still_valid: F,
    ) -> Option<Arc<CachedPlan>>
    where
        F: FnOnce(&CachedPlan) -> bool,
    {
        let fresh = match self.map.get(sql) {
            Some(e) => e.validated_serial == ddl_serial || still_valid(&e.plan),
            None => {
                self.misses += 1;
                return None;
            }
        };
        if fresh {
            self.tick += 1;
            let e = self.map.get_mut(sql).expect("entry just found");
            e.validated_serial = ddl_serial;
            e.last_used = self.tick;
            self.hits += 1;
            Some(Arc::clone(&e.plan))
        } else {
            self.map.remove(sql);
            self.misses += 1;
            None
        }
    }

    /// Insert a freshly built plan validated at `ddl_serial`. No-op when
    /// the cache is disabled. Callers must not insert failed plans — a
    /// statement that cannot be planned is never pinned as an entry.
    pub fn insert(&mut self, sql: String, plan: Arc<CachedPlan>, ddl_serial: u64) {
        if self.capacity == 0 {
            return;
        }
        while self.map.len() >= self.capacity && !self.map.contains_key(&sql) {
            self.evict_lru();
        }
        self.tick += 1;
        self.map.insert(
            sql,
            Entry {
                plan,
                validated_serial: ddl_serial,
                last_used: self.tick,
            },
        );
    }

    /// Evict the least-recently-used entry. O(n) scan; at the default
    /// capacity of a few hundred entries this is cheaper than keeping an
    /// ordered side structure coherent on every hit.
    fn evict_lru(&mut self) {
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            self.map.remove(&k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;

    fn plan() -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            plan: Plan::Unbound(Statement::Begin),
            deps: Deps::new(),
            param_count: 0,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = PlanCache::new(4);
        assert!(c.get_validated("BEGIN", 0, |_| true).is_none());
        c.insert("BEGIN".into(), plan(), 0);
        assert!(c.get_validated("BEGIN", 0, |_| true).is_some());
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn stale_entry_revalidates_or_evicts() {
        let mut c = PlanCache::new(4);
        c.insert("BEGIN".into(), plan(), 0);
        // Serial moved but dependencies still check out: hit, re-stamped.
        assert!(c.get_validated("BEGIN", 5, |_| true).is_some());
        // Serial matches the re-stamp now, validator must not even run.
        assert!(c.get_validated("BEGIN", 5, |_| false).is_some());
        // Serial moves again and dependencies fail: evicted.
        assert!(c.get_validated("BEGIN", 6, |_| false).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PlanCache::new(2);
        c.insert("a".into(), plan(), 0);
        c.insert("b".into(), plan(), 0);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get_validated("a", 0, |_| true).is_some());
        c.insert("c".into(), plan(), 0);
        assert!(c.get_validated("a", 0, |_| true).is_some());
        assert!(c.get_validated("b", 0, |_| true).is_none());
        assert!(c.get_validated("c", 0, |_| true).is_some());
    }

    #[test]
    fn capacity_zero_disables() {
        let mut c = PlanCache::new(0);
        c.insert("a".into(), plan(), 0);
        assert!(c.get_validated("a", 0, |_| true).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let mut c = PlanCache::new(4);
        for k in ["a", "b", "c", "d"] {
            c.insert(k.into(), plan(), 0);
        }
        c.set_capacity(1);
        assert_eq!(c.stats().entries, 1);
        // The survivor is the most recently inserted.
        assert!(c.get_validated("d", 0, |_| true).is_some());
    }
}
