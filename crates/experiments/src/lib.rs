//! # amdb-experiments — the paper's evaluation, one way to run it
//!
//! Each module regenerates one experiment from the paper's evaluation (§IV)
//! or one extension; [`cli::COMMANDS`] is the experiment table (subcommand,
//! module, what it regenerates — `amdb --list` prints it) and the `amdb`
//! binary runs a row of it. Every module builds configs, hands its cells to
//! the one grid runner in [`grid`] (which runs each through
//! `amdb_core::run_cell` / `run_sharded_cell` on the [`exec`] worker pool)
//! and renders tables; [`emit`] and [`write_artifact`] put them on stdout
//! and under `results/`. [`calib`] holds the calibration constants and
//! their derivation checks. EXPERIMENTS.md compares paper and measured
//! results.

pub mod ablations;
pub mod calib;
pub mod cli;
pub mod consistency;
pub mod exec;
pub mod extensions;
pub mod fig4;
pub mod fleet;
pub mod grid;
pub mod obs_report;
pub mod obs_slo;
pub mod parallel_apply;
pub mod perfvar;
pub mod rtt;
pub mod sharded;
pub mod shared_log;
pub mod sweep;

use amdb_metrics::Table;
use std::path::{Path, PathBuf};

/// Write `bytes` to `results/<name>` (relative to cwd), creating the
/// directory. Best-effort: a failure is reported on stderr, not fatal —
/// whatever was rendered already went to stdout.
fn write_result_file(name: &str, bytes: &[u8]) -> Option<PathBuf> {
    let path = Path::new("results").join(name);
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, bytes)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            None
        }
    }
}

/// Write a table to `results/<figure>_<label>.csv`, the label slugged to
/// alphanumerics and `_`.
pub fn write_results_csv(figure: &str, label: &str, table: &Table) {
    let slug: String = label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    write_result_file(&format!("{figure}_{slug}.csv"), table.to_csv().as_bytes());
}

/// Print a table and write it to `results/<figure>_<label>.csv`.
pub fn emit(figure: &str, label: &str, table: &Table) {
    println!("{}", table.render());
    write_results_csv(figure, label, table);
}

/// Write a non-table artifact to `results/<name>` and report its size on
/// stdout, `note` appended to the line.
pub fn write_artifact(name: &str, contents: &str, note: &str) {
    if let Some(path) = write_result_file(name, contents.as_bytes()) {
        println!("wrote {} ({} bytes){note}", path.display(), contents.len());
    }
}

/// Fidelity of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The paper's full 35-minute runs and full sweep grids. Minutes of host
    /// time per figure.
    Full,
    /// Shrunk phases and thinned grids; shapes survive, absolute sample
    /// counts shrink. Used by tests and as the `amdb` default.
    Quick,
}

impl Fidelity {
    /// `users` closed-loop users over the paper's 10/20/5-minute phases, or
    /// over the shrunk quick ones.
    pub fn workload(self, users: u32) -> amdb_cloudstone::WorkloadConfig {
        match self {
            Fidelity::Full => amdb_cloudstone::WorkloadConfig::paper(users),
            Fidelity::Quick => amdb_cloudstone::WorkloadConfig::quick(users),
        }
    }
}
