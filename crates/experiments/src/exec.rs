//! Deterministic parallel sweep executor.
//!
//! The paper's figures are full grids of {placement × slaves × users} runs;
//! every grid cell is an independent deterministic simulation, so the sweep
//! is embarrassingly parallel. This module provides the worker pool that
//! exploits that — dependency-free (`std::thread::scope`, offline-buildable)
//! and **order-invariant**: results are gathered back in item order and each
//! cell's randomness derives from its own configuration, so every table,
//! CSV, and trace is byte-identical for any `--jobs` count, including
//! `--jobs 1` versus the old serial loop.
//!
//! Progress lines travel a channel to a single printer thread instead of a
//! shared `FnMut(&str)` callback, so worker threads never contend for (or
//! interleave on) stderr.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Worker count the executor defaults to: `AMDB_JOBS` if set and positive,
/// otherwise the host's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("AMDB_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Where progress lines go.
#[derive(Debug, Clone)]
pub enum Progress {
    /// Drop progress lines.
    Silent,
    /// Prefix each line and print it to stderr (via the printer thread).
    Stderr(&'static str),
}

/// Handed to each work item so it can report a status line. Lines are sent
/// over a channel and written by one printer, so concurrent workers never
/// interleave output. Emission order follows completion order (it is *not*
/// part of the deterministic contract — results are; progress goes to
/// stderr, results to stdout/CSV).
pub struct ProgressSink {
    tx: Option<Mutex<mpsc::Sender<String>>>,
}

impl ProgressSink {
    fn silent() -> Self {
        Self { tx: None }
    }

    /// Report one status line.
    pub fn emit(&self, line: String) {
        if let Some(tx) = &self.tx {
            // A send can only fail if the printer is gone; progress is
            // best-effort either way.
            let _ = tx.lock().expect("progress sender lock").send(line);
        }
    }
}

/// Map `f` over `items` on `jobs` worker threads, returning the results in
/// item order regardless of completion order.
///
/// Work is handed out through a shared atomic cursor (self-balancing: a slow
/// cell never stalls the queue behind it), and each result lands in its own
/// pre-allocated slot, so the output is a pure function of `items` and `f`
/// — never of thread scheduling. `f` gets the item index, the item, and a
/// [`ProgressSink`] for status lines.
///
/// `jobs <= 1` runs inline on the calling thread (no pool), which is also
/// the path the determinism tests compare against.
///
/// The worker count is additionally capped at the host's available
/// parallelism: threads beyond the core count cannot overlap any work, they
/// only add scheduling and synchronization overhead (on a single-core host,
/// `--jobs 2` measured *slower* than serial — speedup 0.67×). Results are
/// byte-identical either way, so the clamp is purely a wall-clock fix.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, progress: &Progress, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &ProgressSink) -> R + Sync,
{
    let cap = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    parallel_map_capped(items, jobs.min(cap), progress, f)
}

/// [`parallel_map`] without the host-parallelism clamp. Load-bearing as the
/// single-core test hook: on a one-core host [`parallel_map`] always takes
/// the inline path, so the order and serial/parallel-agreement tests below
/// call this to put real worker threads behind the result slots.
fn parallel_map_capped<T, R, F>(items: &[T], jobs: usize, progress: &Progress, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &ProgressSink) -> R + Sync,
{
    let (sink, printer) = match progress {
        Progress::Silent => (ProgressSink::silent(), None),
        Progress::Stderr(prefix) => {
            let (tx, rx) = mpsc::channel::<String>();
            let prefix = *prefix;
            let printer = std::thread::spawn(move || {
                for line in rx {
                    eprintln!("{prefix}{line}");
                }
            });
            (
                ProgressSink {
                    tx: Some(Mutex::new(tx)),
                },
                Some(printer),
            )
        }
    };

    let jobs = jobs.max(1).min(items.len().max(1));
    let results: Vec<R> = if jobs <= 1 {
        items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item, &sink))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(i, &items[i], &sink);
                    *slots[i].lock().expect("result slot lock") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot lock")
                    .expect("every slot filled once the scope joins")
            })
            .collect()
    };

    // Close the channel so the printer drains and exits before we return —
    // progress lines never trail the results they describe.
    drop(sink);
    if let Some(p) = printer {
        let _ = p.join();
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map_capped(&items, 8, &Progress::Silent, |i, &x, _| {
            // Stagger completion: later items finish earlier.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u32> = (0..37).collect();
        let f = |_: usize, &x: &u32, _: &ProgressSink| x.wrapping_mul(2654435761) >> 3;
        let serial = parallel_map_capped(&items, 1, &Progress::Silent, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(
                parallel_map_capped(&items, jobs, &Progress::Silent, f),
                serial,
                "jobs={jobs} must match serial"
            );
        }
    }

    #[test]
    fn empty_input_and_oversubscription() {
        let none: Vec<u8> = Vec::new();
        assert!(parallel_map_capped(&none, 4, &Progress::Silent, |_, &x, _| x).is_empty());
        let one = [7u8];
        assert_eq!(
            parallel_map_capped(&one, 999, &Progress::Silent, |_, &x, _| x),
            vec![7]
        );
    }

    #[test]
    fn progress_lines_are_emitted_without_panicking() {
        let items: Vec<u32> = (0..10).collect();
        let out = parallel_map_capped(
            &items,
            4,
            &Progress::Stderr("[exec-test] "),
            |i, &x, sink| {
                sink.emit(format!("item {i}"));
                x + 1
            },
        );
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn public_entry_clamps_to_host_parallelism_without_changing_results() {
        let items: Vec<u32> = (0..25).collect();
        let f = |_: usize, &x: &u32, _: &ProgressSink| x.wrapping_mul(3);
        assert_eq!(
            parallel_map(&items, usize::MAX, &Progress::Silent, f),
            parallel_map_capped(&items, 1, &Progress::Silent, f),
        );
    }

    #[test]
    fn jobs_env_parsing_prefers_positive_values() {
        // default_jobs falls back to host parallelism when unset; we only
        // assert it is positive (the env var itself is exercised by
        // tests/cli.rs in a child process, to keep tests hermetic under
        // parallel test runners).
        assert!(default_jobs() >= 1);
    }
}
