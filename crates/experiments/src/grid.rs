//! The one grid runner behind every experiment.
//!
//! The paper's evaluation (§IV) is one procedure repeated over a grid: fork
//! a pre-loaded, synchronized database, run the timeline, report. A module
//! therefore only says what its axes are ([`cross2`] / [`cross3`] flatten
//! them in render order), which template its cells fork (`load_template`,
//! once, borrowed by every worker — the pool is `thread::scope`d), and how
//! one key becomes one finished cell ([`run_tree`] or [`run_fleet`] inside
//! the closure handed to [`run_grid`]). Results come back in key order, so
//! every table built from them is byte-identical for any `--jobs` count.

use crate::exec::{parallel_map, Progress};
use amdb_core::{
    run_cell, run_sharded_cell, CellRun, ClusterConfig, FleetObsBundle, ShardedConfig,
    ShardedReport, Template,
};
use amdb_metrics::Table;

/// How a grid executes: worker count and progress reporting. The result is
/// identical for every `jobs` value — options only affect wall-clock and
/// stderr chatter.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    pub jobs: usize,
    pub progress: Progress,
}

impl SweepOptions {
    /// Single-threaded, silent — the baseline the determinism tests compare
    /// against.
    pub fn serial() -> SweepOptions {
        SweepOptions::silent(1)
    }

    /// `jobs` workers, silent.
    pub fn silent(jobs: usize) -> SweepOptions {
        SweepOptions {
            jobs,
            progress: Progress::Silent,
        }
    }

    /// `jobs` workers, progress lines prefixed with `prefix` on stderr.
    pub fn with_progress(jobs: usize, prefix: &'static str) -> SweepOptions {
        SweepOptions {
            jobs,
            progress: Progress::Stderr(prefix),
        }
    }
}

/// Every pair of two axes, the first outermost.
pub fn cross2<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|&a| b.iter().map(move |&b| (a, b)))
        .collect()
}

/// Every triple of three axes, the first outermost.
pub fn cross3<A: Copy, B: Copy, C: Copy>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    a.iter()
        .flat_map(|&a| cross2(b, c).into_iter().map(move |(b, c)| (a, b, c)))
        .collect()
}

/// Run `cell` once per key on `opts.jobs` workers. It returns the finished
/// cell and its progress line; cells come back in key order.
pub fn run_grid<K: Sync, C: Send>(
    keys: &[K],
    opts: &SweepOptions,
    cell: impl Fn(&K) -> (C, String) + Sync,
) -> Vec<C> {
    parallel_map(keys, opts.jobs, &opts.progress, |_, key, sink| {
        let (cell, line) = cell(key);
        sink.emit(line);
        cell
    })
}

/// One standalone cell. Experiment configs are program constants, so one
/// that does not validate is a bug here, not an input error.
pub fn run_tree(cfg: ClusterConfig, template: Option<&Template>) -> CellRun {
    run_cell(cfg, template).unwrap_or_else(|e| panic!("{e}"))
}

/// One sharded cell; see [`run_tree`].
pub fn run_fleet(
    cfg: &ShardedConfig,
    template: Option<&Template>,
) -> (ShardedReport, FleetObsBundle) {
    run_sharded_cell(cfg, template).unwrap_or_else(|e| panic!("{e}"))
}

/// `"1 slave"`, `"4 slaves"`.
pub fn counted(n: usize, noun: &str) -> String {
    format!("{n} {noun}{}", if n == 1 { "" } else { "s" })
}

/// A users × column table with one decimal: one row per user count, one
/// column per entry of `columns`, cells from `value(column, user)` (both
/// indexes).
pub fn pivot_table(
    title: String,
    columns: impl IntoIterator<Item = String>,
    users: &[u32],
    value: impl Fn(usize, usize) -> Option<f64>,
) -> Table {
    let mut header = vec!["users".to_string()];
    header.extend(columns);
    let width = header.len() - 1;
    let mut t = Table::new(title, header);
    for (ui, &u) in users.iter().enumerate() {
        let cells: Vec<Option<f64>> = (0..width).map(|ci| value(ci, ui)).collect();
        t.push_float_row(u.to_string(), &cells, 1);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_flatten_first_axis_outermost() {
        assert_eq!(
            cross2(&[1, 2], &['a', 'b']),
            vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]
        );
        let triples = cross3(&[1, 2], &['a'], &[true, false]);
        assert_eq!(
            triples,
            vec![
                (1, 'a', true),
                (1, 'a', false),
                (2, 'a', true),
                (2, 'a', false)
            ]
        );
    }

    #[test]
    fn pivot_puts_users_down_and_columns_across() {
        let t = pivot_table(
            "t".into(),
            [counted(1, "slave"), counted(2, "slave")],
            &[50, 100],
            |col, user| (col + user < 2).then_some((10 * col + user) as f64),
        );
        assert_eq!(t.header(), ["users", "1 slave", "2 slaves"]);
        assert_eq!(t.rows()[0], ["50", "0.0", "10.0"]);
        assert_eq!(t.rows()[1], ["100", "1.0", "-"]);
    }
}
