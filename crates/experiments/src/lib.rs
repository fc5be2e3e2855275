//! # amdb-experiments — one runner per paper figure/table
//!
//! Each module regenerates one experiment from the paper's evaluation
//! (§IV); the binaries in `src/bin/` print the same rows/series the paper
//! plots. See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`sweep`]   | Figs 2 & 3 (throughput) and 5 & 6 (relative delay) |
//! | [`fig4`]    | Fig 4 (clock sync / NTP) |
//! | [`rtt`]     | §IV-B.2 in-text ½-RTT table |
//! | [`perfvar`] | §IV-A instance performance variation |
//! | [`ablations`] | A1 sync modes, A2 balancers, A3 binlog formats |
//! | [`extensions`] | E-F failover, E-A staleness-SLO autoscaling |
//! | [`consistency`] | E-C throughput vs staleness bound (amdb-consistency) |
//! | [`parallel_apply`] | E-PA staleness vs apply workers (amdb-apply) |
//! | [`sharded`] | fig2_sharded scale-out past the single-master ceiling (amdb-shard) |
//! | [`shared_log`] | E-SL backend comparison + fault-injected quorum recovery (amdb-repl) |
//! | [`calib`]   | calibration constants + their derivation checks |
//! | [`obs_report`] | observed run + steady-window bottleneck attribution |
//! | [`obs_slo`] | online SLO/alert sweep with delay-surge attribution |
//! | [`fleet`] | fleet_report: per-shard top table + OpenMetrics dump |
//! | [`exec`]    | deterministic parallel executor behind the sweeps |

pub mod ablations;
pub mod calib;
pub mod consistency;
pub mod exec;
pub mod extensions;
pub mod fig4;
pub mod fleet;
pub mod obs_report;
pub mod obs_slo;
pub mod parallel_apply;
pub mod perfvar;
pub mod rtt;
pub mod sharded;
pub mod shared_log;
pub mod sweep;

/// Write a results table as CSV under `results/` (best-effort: failures to
/// create the directory or file are reported to stderr, not fatal — the
/// rendered table already went to stdout).
pub fn write_results_csv(figure: &str, label: &str, table: &amdb_metrics::Table) {
    let slug: String = label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("results/: {e}");
        return;
    }
    let path = dir.join(format!("{figure}_{slug}.csv"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Err(e) = amdb_metrics::write_csv(table, &mut f) {
                eprintln!("{}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("{}: {e}", path.display()),
    }
}

/// Fidelity of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The paper's full 35-minute runs and full sweep grids. Minutes of host
    /// time per figure.
    Full,
    /// Shrunk phases and thinned grids; shapes survive, absolute sample
    /// counts shrink. Used by tests and the bins' default grids.
    Quick,
}

impl Fidelity {
    /// Parse from a CLI flag (`--full` anywhere in args → Full).
    pub fn from_args() -> Fidelity {
        if std::env::args().any(|a| a == "--full") {
            Fidelity::Full
        } else {
            Fidelity::Quick
        }
    }
}
