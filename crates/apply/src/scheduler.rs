//! Deterministic group-commit batch planner for parallel slave apply.
//!
//! The scheduler looks at the head of a slave's relay queue and carves off
//! the longest *contiguous* prefix of at most `workers` events whose
//! writesets are pairwise disjoint. That batch is handed to the apply
//! workers together and **commits together, in LSN order** — later events
//! never become visible before earlier ones, so watermarks, session
//! guarantees, and read-your-writes checks built on "applied up to LSN x"
//! stay correct without knowing parallel apply exists.
//!
//! Three properties make this safe and deterministic:
//!
//! 1. **Contiguity.** Only a prefix is batched; the planner never skips over
//!    a conflicting event to reach a later compatible one. Out-of-order
//!    pickup would require tracking gaps in the applied-LSN watermark — the
//!    complexity MySQL's `slave_preserve_commit_order` exists to hide.
//! 2. **Barriers.** Statement/DDL events and keyless-table changes conflict
//!    with everything: they close the current batch and run alone.
//! 3. **Purity.** Planning reads only the event sequence and the schema's
//!    primary keys. No clocks, no randomness, no worker state — replaying
//!    the same binlog always yields the same batch boundaries.
//!
//! With `workers = 1` every batch is the head event alone, planned without
//! a writeset (bound `Capacity` or `Drained`, never `Barrier`), reproducing
//! the classic single-threaded SQL apply thread byte-for-byte.

use amdb_sql::{BinlogEvent, Lsn};

use crate::writeset::{writeset_of, TableInterner, Writeset};

/// Why the planner closed a batch where it did — the per-batch
/// attribution the apply tracing pipeline records, separating "the queue
/// ran dry" from the two real parallelism limits (writeset conflicts and
/// worker capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchBound {
    /// The relay queue ran out before any limit was hit.
    Drained,
    /// A writeset conflict with the next queued event closed the batch.
    Conflict,
    /// The batch filled every worker while more events were waiting.
    Capacity,
    /// The batch is a lone serial barrier event (statement/DDL or a
    /// keyless-table change).
    Barrier,
}

impl BatchBound {
    /// Stable lowercase label for metrics and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            BatchBound::Drained => "drained",
            BatchBound::Conflict => "conflict",
            BatchBound::Capacity => "capacity",
            BatchBound::Barrier => "barrier",
        }
    }
}

/// One planned apply batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyPlan {
    /// Number of events in the batch (0 only when the queue was empty).
    pub len: usize,
    /// What closed the batch.
    pub bound: BatchBound,
}

/// Writeset-dependency batch planner for one slave.
///
/// Holds only the worker count and the table-name interner; batch
/// boundaries are a pure function of the queue contents, so the scheduler
/// needs no reset on failover or epoch change.
#[derive(Debug)]
pub struct ApplyScheduler {
    workers: usize,
    interner: TableInterner,
}

impl ApplyScheduler {
    /// Planner dispatching to `workers` simulated apply workers.
    ///
    /// # Panics
    /// Panics when `workers == 0` — a slave always has at least the classic
    /// serial apply thread.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "apply requires at least one worker");
        Self {
            workers,
            interner: TableInterner::new(),
        }
    }

    /// Plan the next batch from the head of the relay queue.
    ///
    /// `pending` iterates queued events oldest-first; `pk_of` maps a table
    /// name to its primary-key column index in the slave's current catalog.
    /// Returns how many events from the head form the batch — the caller
    /// pops exactly that many. An empty queue yields `len == 0`.
    pub fn plan_batch<'a>(
        &mut self,
        pending: impl IntoIterator<Item = &'a BinlogEvent>,
        pk_of: impl Fn(&str) -> Option<usize>,
    ) -> ApplyPlan {
        let mut iter = pending.into_iter();
        let Some(first) = iter.next() else {
            return ApplyPlan {
                len: 0,
                bound: BatchBound::Drained,
            };
        };
        if self.workers == 1 {
            let bound = if iter.next().is_some() {
                BatchBound::Capacity
            } else {
                BatchBound::Drained
            };
            return ApplyPlan { len: 1, bound };
        }
        let first_ws = writeset_of(first, &mut self.interner, &pk_of);
        if first_ws.is_barrier() {
            return ApplyPlan {
                len: 1,
                bound: BatchBound::Barrier,
            };
        }

        let mut batch: Vec<Writeset> = vec![first_ws];
        let mut bounded_by_conflict = false;
        let mut saw_more = false;
        for event in iter {
            if batch.len() >= self.workers {
                saw_more = true;
                break;
            }
            let ws = writeset_of(event, &mut self.interner, &pk_of);
            // A barrier ahead conflicts with every in-flight event; it also
            // closes the batch, but is charged as its own batch next round.
            if batch.iter().any(|b| b.conflicts_with(&ws)) {
                bounded_by_conflict = true;
                break;
            }
            batch.push(ws);
        }

        let len = batch.len();
        let bound = if bounded_by_conflict {
            BatchBound::Conflict
        } else if len >= self.workers && saw_more {
            BatchBound::Capacity
        } else {
            BatchBound::Drained
        };
        ApplyPlan { len, bound }
    }
}

/// Drive a full event sequence through a fresh [`ApplyScheduler`] and
/// return the planned batches as LSN groups in commit order, plus what
/// closed each one.
///
/// The flattened group sequence is always the input LSN order — the
/// in-order-commit invariant — which `commit_order_is_lsn_order` asserts
/// rather than assumes.
pub fn simulate(
    events: &[BinlogEvent],
    workers: usize,
    pk_of: impl Fn(&str) -> Option<usize>,
) -> (Vec<Vec<Lsn>>, Vec<BatchBound>) {
    let mut sched = ApplyScheduler::new(workers);
    let mut batches = Vec::new();
    let mut bounds = Vec::new();
    let mut head = 0usize;
    while head < events.len() {
        let plan = sched.plan_batch(events[head..].iter(), &pk_of);
        debug_assert!(plan.len >= 1, "non-empty queue must yield a batch");
        let group: Vec<Lsn> = events[head..head + plan.len]
            .iter()
            .map(|e| e.lsn)
            .collect();
        head += plan.len;
        batches.push(group);
        bounds.push(plan.bound);
    }
    (batches, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_sql::exec::{RowChange, RowChangeKind};
    use amdb_sql::{EventPayload, Value};

    fn row_event(lsn: u64, table: &str, pk: i64) -> BinlogEvent {
        BinlogEvent {
            lsn: Lsn(lsn),
            commit_ts_micros: 0,
            payload: EventPayload::Rows {
                changes: vec![RowChange {
                    table: table.into(),
                    kind: RowChangeKind::Insert {
                        row: vec![Value::Int(pk), Value::Text("x".into())].into(),
                    },
                }],
            },
        }
    }

    fn stmt_event(lsn: u64, sql: &str) -> BinlogEvent {
        BinlogEvent {
            lsn: Lsn(lsn),
            commit_ts_micros: 0,
            payload: EventPayload::Statement {
                sql: sql.to_string(),
                params: vec![],
            },
        }
    }

    fn pk0(_: &str) -> Option<usize> {
        Some(0)
    }

    #[test]
    fn empty_queue_plans_nothing() {
        let mut s = ApplyScheduler::new(4);
        let plan = s.plan_batch(std::iter::empty(), pk0);
        assert_eq!(
            plan,
            ApplyPlan {
                len: 0,
                bound: BatchBound::Drained,
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ApplyScheduler::new(0);
    }

    #[test]
    fn workers_one_always_singleton() {
        let events: Vec<_> = (0..20).map(|i| row_event(i, "t", i as i64)).collect();
        let (batches, bounds) = simulate(&events, 1, pk0);
        assert_eq!(batches.len(), 20);
        assert!(batches.iter().all(|b| b.len() == 1));
        assert!(!bounds.contains(&BatchBound::Conflict));
    }

    #[test]
    fn workers_one_computes_no_writeset() {
        // The serial planner never looks up a primary key, so `pk_of` may
        // panic; the statement event is not labelled a barrier either.
        let events = [stmt_event(0, "UPDATE t SET v = 0"), row_event(1, "t", 1)];
        let mut s = ApplyScheduler::new(1);
        let no_pk = |_: &str| -> Option<usize> { panic!("serial plan looked up a key") };
        let first = s.plan_batch(events.iter(), no_pk);
        assert_eq!((first.len, first.bound), (1, BatchBound::Capacity));
        let last = s.plan_batch(events[1..].iter(), no_pk);
        assert_eq!((last.len, last.bound), (1, BatchBound::Drained));
        assert_eq!(s.plan_batch(events[2..].iter(), no_pk).len, 0);
    }

    #[test]
    fn disjoint_events_fill_to_worker_count() {
        let events: Vec<_> = (0..8).map(|i| row_event(i, "t", i as i64)).collect();
        let (batches, bounds) = simulate(&events, 4, pk0);
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 4],
            "capacity-bounded batches of exactly `workers` events"
        );
        assert_eq!(
            bounds,
            vec![BatchBound::Capacity, BatchBound::Drained],
            "only the first batch saw a successor"
        );
    }

    #[test]
    fn conflict_closes_batch() {
        let events = vec![
            row_event(0, "t", 1),
            row_event(1, "t", 2),
            row_event(2, "t", 1), // conflicts with lsn 0
            row_event(3, "t", 3),
        ];
        let (batches, bounds) = simulate(&events, 4, pk0);
        assert_eq!(
            batches,
            vec![vec![Lsn(0), Lsn(1)], vec![Lsn(2), Lsn(3)]],
            "planner never skips a conflicting event to batch a later one"
        );
        assert_eq!(bounds, vec![BatchBound::Conflict, BatchBound::Drained]);
    }

    #[test]
    fn ddl_is_a_full_barrier() {
        let events = vec![
            row_event(0, "t", 1),
            row_event(1, "t", 2),
            stmt_event(2, "CREATE INDEX i ON t (v)"),
            row_event(3, "t", 3),
            row_event(4, "t", 4),
        ];
        let (batches, bounds) = simulate(&events, 8, pk0);
        assert_eq!(
            batches,
            vec![vec![Lsn(0), Lsn(1)], vec![Lsn(2)], vec![Lsn(3), Lsn(4)],],
            "DDL runs alone: drains the batch before it, blocks the one after"
        );
        assert_eq!(
            bounds,
            vec![
                BatchBound::Conflict,
                BatchBound::Barrier,
                BatchBound::Drained
            ]
        );
    }

    #[test]
    fn statement_format_stream_degenerates_to_serial() {
        let events: Vec<_> = (0..6)
            .map(|i| stmt_event(i, "UPDATE t SET v = 1 WHERE id = 2"))
            .collect();
        let (batches, bounds) = simulate(&events, 8, pk0);
        assert!(batches.iter().all(|b| b.len() == 1));
        assert_eq!(bounds, vec![BatchBound::Barrier; 6]);
    }

    #[test]
    fn commit_order_is_lsn_order() {
        // Adversarial mix: conflicts, barriers, keyless tables.
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(match i % 7 {
                3 => stmt_event(i, "UPDATE t SET v = 0"),
                5 => row_event(i, "heap", i as i64),
                _ => row_event(i, "t", (i % 5) as i64),
            });
        }
        let pk = |t: &str| if t == "heap" { None } else { Some(0) };
        for workers in [1usize, 2, 4, 8] {
            let (batches, bounds) = simulate(&events, workers, pk);
            let flat: Vec<Lsn> = batches.iter().flatten().copied().collect();
            assert_eq!(
                flat,
                (0..40).map(Lsn).collect::<Vec<_>>(),
                "workers={workers}: flattened batches must be the LSN sequence"
            );
            assert_eq!(bounds.len(), batches.len());
            assert!(batches.iter().all(|b| b.len() <= workers));
        }
    }

    #[test]
    fn plans_name_what_closed_the_batch() {
        let mut s = ApplyScheduler::new(2);
        let events = [
            row_event(0, "t", 1),
            row_event(1, "t", 2),
            row_event(2, "t", 1),
        ];
        // Filled both workers with lsn 2 still waiting: capacity.
        assert_eq!(s.plan_batch(events.iter(), pk0).bound, BatchBound::Capacity);
        // Conflict with the in-flight pk closes the next batch.
        let conflicted = [row_event(0, "t", 5), row_event(1, "t", 5)];
        assert_eq!(
            s.plan_batch(conflicted.iter(), pk0).bound,
            BatchBound::Conflict
        );
        // Queue shorter than the worker count: drained.
        assert_eq!(
            s.plan_batch(events[..1].iter(), pk0).bound,
            BatchBound::Drained
        );
        // Lone barrier event.
        let ddl = [stmt_event(0, "CREATE INDEX i ON t (v)")];
        assert_eq!(s.plan_batch(ddl.iter(), pk0).bound, BatchBound::Barrier);
        assert_eq!(BatchBound::Conflict.as_str(), "conflict");
    }

    #[test]
    fn planning_is_deterministic() {
        let events: Vec<_> = (0..64).map(|i| row_event(i, "t", (i % 9) as i64)).collect();
        let (a, ba) = simulate(&events, 4, pk0);
        let (b, bb) = simulate(&events, 4, pk0);
        assert_eq!(a, b);
        assert_eq!(ba, bb);
    }
}
