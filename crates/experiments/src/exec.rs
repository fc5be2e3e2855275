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

/// The value of flag `name` in `args`, given as `--k v` or `--k=v`; `None`
/// when the flag is absent. A trailing `--k` reads as the empty value,
/// which no flag accepts.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return Some(it.next().map_or("", String::as_str));
        }
        if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            return Some(v);
        }
    }
    None
}

/// Flag `name` parsed by `parse`: `Ok(None)` when absent, `Err` with a
/// one-line message naming what was `expected` when the value is not one.
fn parse_flag<T>(
    args: &[String],
    name: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    flag_value(args, name)
        .map(|v| parse(v).ok_or_else(|| format!("{name}: expected {expected}, got '{v}'")))
        .transpose()
}

/// This process's flag `name`; a value that does not parse is a usage
/// error: one line on stderr, exit status 2.
fn flag_from_argv<T>(name: &str, expected: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flag(&args, name, expected, parse).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Resolve the job count for a binary: an explicit `--jobs N` (or
/// `--jobs=N`) on the command line beats `AMDB_JOBS` beats available
/// parallelism.
pub fn jobs_from_args() -> usize {
    flag_from_argv("--jobs", "a job count", |v| v.parse::<usize>().ok())
        .map_or_else(default_jobs, |n| n.max(1))
}

/// `--shards N` / `--shards=N` from argv: binaries that support a sharded
/// front use it to pick (or restrict to) one shard count. `None` when the
/// flag is absent — the binary's flat/default path.
pub fn shards_from_args() -> Option<u32> {
    flag_from_argv("--shards", "a shard count", |v| v.parse::<u32>().ok()).map(|n| n.max(1))
}

/// `--backend statement|row|shared-log` (or `--backend=<name>`) from argv:
/// binaries that support the replication-backend knob use it to re-run
/// their grid under a different backend. `None` when absent — the binary's
/// default (statement) path, byte-identical to pre-knob output.
pub fn backend_from_args() -> Option<amdb_repl::BackendKind> {
    flag_from_argv(
        "--backend",
        "statement, row or shared-log",
        amdb_repl::BackendKind::parse,
    )
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

/// [`parallel_map`] without the host-parallelism clamp — the test hook that
/// keeps the pool path exercised even on single-core hosts.
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
    fn flags_parse_both_spellings_and_reject_bad_values() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let jobs = |s: &str| {
            parse_flag(&argv(s), "--jobs", "a job count", |v| {
                v.parse::<usize>().ok()
            })
        };
        assert_eq!(jobs("--full"), Ok(None), "absent flag");
        assert_eq!(jobs("--full --jobs 3"), Ok(Some(3)));
        assert_eq!(jobs("--jobs=4 --full"), Ok(Some(4)));
        assert_eq!(jobs("--jobsx 4"), Ok(None), "a longer flag is another flag");
        assert_eq!(
            jobs("--jobs x"),
            Err("--jobs: expected a job count, got 'x'".to_string())
        );
        assert!(jobs("--jobs=").is_err());
        assert!(jobs("--full --jobs").is_err(), "flag without a value");
        let backend = |s: &str| {
            parse_flag(
                &argv(s),
                "--backend",
                "a backend",
                amdb_repl::BackendKind::parse,
            )
        };
        assert_eq!(
            backend("--backend shared-log"),
            Ok(Some(amdb_repl::BackendKind::SharedLog))
        );
        assert!(backend("--backend shard-log").is_err());
    }

    #[test]
    fn jobs_env_parsing_prefers_positive_values() {
        // default_jobs falls back to host parallelism when unset; we only
        // assert it is positive (the env var itself is exercised in ci.sh,
        // not here, to keep tests hermetic under parallel test runners).
        assert!(default_jobs() >= 1);
    }
}
