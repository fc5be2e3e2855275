//! The `amdb` command line: argv parsed once into [`Args`], one subcommand
//! per row of [`COMMANDS`].
//!
//! ```text
//! amdb <subcommand> [--full] [--jobs N] [--shards N] [--backend statement|row|shared-log]
//! amdb --list
//! ```
//!
//! Each row declares which flags it accepts; an unknown subcommand, a flag
//! the row does not accept, or a value that does not parse is one line on
//! stderr and exit status 2. Tables go to stdout and, with the other
//! artifacts, under `results/` relative to cwd; progress goes to stderr.
//! Stdout and every artifact are byte-identical for any `--jobs` count.

use crate::grid::{counted, SweepOptions};
use crate::sweep::{run_sweep, SweepSpec};
use crate::{
    ablations, consistency, emit, exec, extensions, fig4, fleet, obs_report, obs_slo,
    parallel_apply, perfvar, rtt, sharded, shared_log, write_artifact, write_results_csv, Fidelity,
};
use amdb_repl::BackendKind;

/// The parsed command line of one subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// `--full`: the paper-scale grid instead of the thinned quick one.
    pub fidelity: Fidelity,
    /// `--jobs N`: worker threads; beats `AMDB_JOBS`, which beats the host's
    /// available parallelism.
    pub jobs: usize,
    /// `--shards N`: run behind (or restrict the grid to) an N-tree front.
    pub shards: Option<u32>,
    /// `--backend NAME`: re-run the grid under that replication backend.
    pub backend: Option<BackendKind>,
}

/// One `amdb` subcommand.
pub struct Command {
    pub name: &'static str,
    /// The library module that holds the experiment.
    pub module: &'static str,
    /// The flags it accepts, as its usage line spells them.
    pub flags: &'static [&'static str],
    pub run: fn(&Args),
    pub about: &'static str,
}

const FULL: &str = "--full";
const JOBS: &str = "--jobs N";
const SHARDS: &str = "--shards N";
const BACKEND: &str = "--backend statement|row|shared-log";
const GRID: &[&str] = &[FULL, JOBS];
const SWEEP: &[&str] = &[FULL, JOBS, BACKEND];
const FLEET: &[&str] = &[FULL, JOBS, SHARDS];

const fn cmd(
    name: &'static str,
    module: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args),
    about: &'static str,
) -> Command {
    Command {
        name,
        module,
        flags,
        run,
        about,
    }
}

/// The experiment table. Subcommand names are the names the per-figure
/// binaries had.
#[rustfmt::skip]
pub static COMMANDS: [Command; 17] = [
    cmd("paper", "cli", &[JOBS], paper, "fig4, rtt, perfvar, figs 2+5 and 3+6, ablations — always at full fidelity"),
    cmd("fig2", "sweep", SWEEP, fig2, "Fig 2: end-to-end throughput, 50/50 mix, data size 300"),
    cmd("fig3", "sweep", SWEEP, fig3, "Fig 3: end-to-end throughput, 80/20 mix, data size 600"),
    cmd("fig4", "fig4", &[], fig4_series, "Fig 4: two-instance clock difference with and without per-second NTP"),
    cmd("fig5", "sweep", SWEEP, fig5, "Fig 5: average relative replication delay, 50/50 mix"),
    cmd("fig6", "sweep", SWEEP, fig6, "Fig 6: average relative replication delay, 80/20 mix"),
    cmd("rtt", "rtt", &[], half_rtt, "§IV-B.2 in-text ½-RTT table (ping every second, 20 min)"),
    cmd("perfvar", "perfvar", GRID, perfvar_summary, "§IV-A instance performance variation"),
    cmd("ablations", "ablations", GRID, ablations_all, "A1 sync modes, A2 balancers, A3 binlog formats"),
    cmd("extensions", "extensions", GRID, extensions_all, "E-F failover, E-A autoscaling, E-M master failover, E-W workload classes"),
    cmd("extensions_consistency", "consistency", GRID, extensions_consistency, "E-C: throughput and violation rate vs the staleness bound"),
    cmd("extensions_parallel_apply", "parallel_apply", GRID, extensions_parallel_apply, "E-PA: true read staleness vs apply workers, row binlog"),
    cmd("extensions_shared_log", "shared_log", GRID, extensions_shared_log, "E-SL: backend grid, per-backend master failover, log-replica fault grid"),
    cmd("fig2_sharded", "sharded", FLEET, fig2_sharded, "scale-out past the single-master ceiling, plus the cross-shard read ablation"),
    cmd("obs_report", "obs_report", &[FULL, SHARDS], obs_report_cells, "where each cell saturates; exports the last cell's Chrome trace and time series"),
    cmd("obs_slo", "obs_slo", FLEET, obs_slo_alerts, "online SLO/alert timeline per cell with delay-surge attribution"),
    cmd("fleet_report", "fleet", FLEET, fleet_report, "per-shard top tables, fleet alert timeline, OpenMetrics dump"),
];

/// What a command line asks for.
pub enum Invocation {
    /// `amdb --list`: print [`COMMANDS`].
    List,
    Run(&'static Command, Args),
}

/// Parse everything after the program name. `Err` is the one line to print
/// on stderr before exiting with status 2.
pub fn parse(argv: &[String]) -> Result<Invocation, String> {
    const USAGE: &str = "usage: amdb <subcommand> [flags] | amdb --list";
    let (name, rest) = argv.split_first().ok_or(USAGE)?;
    if name == "--list" && rest.is_empty() {
        return Ok(Invocation::List);
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("amdb: unknown subcommand '{name}'; {USAGE}"))?;
    let (mut fidelity, mut jobs, mut shards, mut backend) = (Fidelity::Quick, None, None, None);
    let mut words = rest.iter();
    while let Some(word) = words.next() {
        let (name, inline) = match word.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (word.as_str(), None),
        };
        let accepted = cmd.flags.iter().any(|f| f.split(' ').next() == Some(name));
        // A trailing `--k` reads as the empty value, which no flag accepts.
        let mut value = || inline.unwrap_or_else(|| words.next().map_or("", String::as_str));
        let bad = |what: &str, v: &str| format!("{name}: expected {what}, got '{v}'");
        // A count of zero would run nothing; it is refused, not clamped.
        let count = |what: &str, v: &str| match v.parse::<std::num::NonZeroU32>() {
            Ok(n) => Ok(n.get()),
            Err(_) => Err(bad(what, v)),
        };
        match name {
            "--full" if accepted && inline.is_none() => fidelity = Fidelity::Full,
            "--jobs" if accepted => jobs = Some(count("a job count", value())? as usize),
            "--shards" if accepted => shards = Some(count("a shard count", value())?),
            "--backend" if accepted => {
                let v = value();
                let b = BackendKind::parse(v);
                backend = Some(b.ok_or_else(|| bad("statement, row or shared-log", v))?);
            }
            _ => {
                let flags: String = cmd.flags.iter().map(|f| format!(" [{f}]")).collect();
                return Err(format!(
                    "amdb {}: unexpected '{word}'; usage: amdb {}{flags}",
                    cmd.name, cmd.name
                ));
            }
        }
    }
    let args = Args {
        fidelity,
        jobs: jobs.unwrap_or_else(exec::default_jobs),
        shards,
        backend,
    };
    Ok(Invocation::Run(cmd, args))
}

/// Run the command line `argv` (program name already stripped); returns the
/// process exit status.
pub fn main(argv: &[String]) -> i32 {
    match parse(argv) {
        Ok(Invocation::List) => {
            for c in &COMMANDS {
                println!("{:<26} {:<15} {}", c.name, c.module, c.about);
            }
            0
        }
        Ok(Invocation::Run(cmd, args)) => {
            (cmd.run)(&args);
            0
        }
        Err(line) => {
            eprintln!("{line}");
            2
        }
    }
}

// ----------------------------------------------------------------------
// Subcommands
// ----------------------------------------------------------------------

/// One sweep feeding one or two figures (throughput and delay come from the
/// same runs): per placement, the throughput table as `throughput_fig`, then
/// the delay table as `delay_fig`.
fn sweep_figures(
    mut spec: SweepSpec,
    a: &Args,
    prefix: &'static str,
    throughput_fig: Option<&str>,
    delay_fig: Option<&str>,
) {
    if let Some(b) = a.backend {
        spec.backend = b;
    }
    for r in run_sweep(&spec, &SweepOptions::with_progress(a.jobs, prefix)) {
        if let Some(figure) = throughput_fig {
            emit(figure, &r.label, &r.throughput);
        }
        if let Some(figure) = delay_fig {
            emit(figure, &r.label, &r.delay);
        }
    }
}

fn fig2(a: &Args) {
    let spec = SweepSpec::fig2_fig5(a.fidelity);
    sweep_figures(spec, a, "[fig2] ", Some("fig2"), None);
}

fn fig3(a: &Args) {
    let spec = SweepSpec::fig3_fig6(a.fidelity);
    sweep_figures(spec, a, "[fig3] ", Some("fig3"), None);
}

fn fig5(a: &Args) {
    let spec = SweepSpec::fig2_fig5(a.fidelity);
    sweep_figures(spec, a, "[fig5] ", None, Some("fig5"));
}

fn fig6(a: &Args) {
    let spec = SweepSpec::fig3_fig6(a.fidelity);
    sweep_figures(spec, a, "[fig6] ", None, Some("fig6"));
}

fn fig4_series(_: &Args) {
    let r = fig4::run(&fig4::Fig4Spec::default());
    println!("{}", fig4::summary_table(&r).render());
    write_results_csv("fig4", "series", &fig4::series_table(&r));
    println!("(series CSV written to results/)");
}

fn half_rtt(_: &Args) {
    emit("rtt", "half_rtt", &rtt::table(&rtt::run(1200, 7)));
}

fn perfvar_summary(a: &Args) {
    emit("perfvar", "summary", &perfvar::table(a.fidelity, a.jobs));
}

fn ablations_all(a: &Args) {
    let (f, jobs) = (a.fidelity, a.jobs);
    let a1 = ablations::sync_modes_table(&ablations::sync_modes(f, jobs));
    emit("ablations", "a1_sync_modes", &a1);
    let a2 = ablations::balancers_table(&ablations::balancers(f, jobs));
    emit("ablations", "a2_balancers", &a2);
    let a3 = ablations::binlog_formats_table(&ablations::binlog_formats(f, jobs));
    emit("ablations", "a3_binlog_formats", &a3);
}

fn extensions_all(a: &Args) {
    let (f, jobs) = (a.fidelity, a.jobs);
    let fo = extensions::failover(f);
    emit("extensions", "failover", &extensions::failover_table(&fo));
    let (st, auto) = extensions::autoscale(f, jobs);
    let t = extensions::autoscale_table(&st, &auto);
    emit("extensions", "autoscale", &t);
    let (healthy, lagging) = extensions::master_failover(f, jobs);
    let t = extensions::master_failover_table(&healthy, &lagging);
    emit("extensions", "master_failover", &t);
    let wc = extensions::workload_classes(f, jobs);
    let t = extensions::workload_classes_table(&wc);
    emit("extensions", "workload_classes", &t);
}

fn extensions_consistency(a: &Args) {
    let spec = consistency::ConsistencySpec::paper_set(a.fidelity);
    let cells = consistency::run(&spec, &SweepOptions::with_progress(a.jobs, "[E-C] "));
    let t = consistency::table(&spec, &cells);
    emit("extensions", "consistency", &t);
}

fn extensions_parallel_apply(a: &Args) {
    let spec = parallel_apply::ParallelApplySpec::paper_set(a.fidelity);
    let cells = parallel_apply::run(&spec, &SweepOptions::with_progress(a.jobs, "[E-PA] "));
    let t = parallel_apply::table(&spec, &cells);
    emit("extensions", "parallel_apply", &t);
}

fn extensions_shared_log(a: &Args) {
    let (f, jobs) = (a.fidelity, a.jobs);
    let t = shared_log::backends_table(&shared_log::backends(f, jobs));
    emit("extensions_shared_log", "backends", &t);
    let t = shared_log::failover_table(&shared_log::failover(f, jobs));
    emit("extensions_shared_log", "failover", &t);
    let t = shared_log::fault_grid_table(&shared_log::fault_grid(f, jobs));
    emit("extensions_shared_log", "faults", &t);
}

fn fig2_sharded(a: &Args) {
    // `--shards N` restricts the scale-out grid to one shard count; cell
    // bytes are unchanged, per-cell seeds do not depend on which rows run.
    let mut spec = sharded::ShardedSweepSpec::scaleout(a.fidelity);
    if let Some(n) = a.shards {
        spec.shards = vec![n];
    }
    let opts = SweepOptions::with_progress(a.jobs, "[fig2_sharded] ");
    let r = sharded::run_sharded_sweep(&spec, &opts);
    println!("{}", r.throughput.render());
    println!("{}", r.latency_p95.render());
    write_results_csv("fig2", "sharded", &r.throughput);
    write_results_csv("fig2", "sharded_p95", &r.latency_p95);

    let opts = SweepOptions::with_progress(a.jobs, "[fig2_sharded ablation] ");
    let arms = sharded::run_cross_ablation(a.fidelity, &opts);
    let (tput, p95) = sharded::cross_ablation_tables(a.fidelity, &arms);
    println!("{}", tput.render());
    println!("{}", p95.render());
    write_results_csv("fig2_sharded", "cross_ablation", &tput);
    write_results_csv("fig2_sharded", "cross_ablation_p95", &p95);
    // Scatter accounting per arm.
    for (cross, r) in &arms {
        let (reads, legs, filtered) = r.reports[0].iter().fold((0, 0, 0), |acc, rep| {
            (
                acc.0 + rep.scatter_reads,
                acc.1 + rep.scatter_legs,
                acc.2 + rep.scatter_filtered_legs,
            )
        });
        println!(
            "ablation cross={:.0}%: {reads} scattered reads, {legs} legs, {filtered} filtered",
            cross * 100.0
        );
    }
}

const TRACE_NOTE: &str = " — load in chrome://tracing or Perfetto";

fn obs_report_cells(a: &Args) {
    let users = 175;
    let slave_counts: &[usize] = match a.fidelity {
        Fidelity::Full => &[1, 2, 3, 4],
        Fidelity::Quick => &[1, 4],
    };
    if let Some(shards) = a.shards.filter(|&n| n > 1) {
        return obs_report_sharded(shards, users, slave_counts);
    }
    let mut last = None;
    for &slaves in slave_counts {
        eprintln!("obs_report: running slaves={slaves} users={users} ...");
        let cell = obs_report::run_observed_cell(slaves, users, 42);
        println!(
            "== {}, {users} users ({:.1} ops/s steady) ==",
            counted(slaves, "slave"),
            cell.report.throughput_ops_s
        );
        println!("{}", cell.bottleneck.render());
        println!();
        last = Some(cell);
    }
    // Export the trace of the last (largest) cell.
    let obs = last.expect("at least one cell ran").obs;
    if let Some(json) = obs.chrome_trace() {
        write_artifact("obs_trace.json", &json, TRACE_NOTE);
    }
    if let Some(rec) = obs.recorder() {
        write_artifact("obs_series.csv", &rec.registry().series_csv(), "");
        println!();
        println!("{}", rec.registry().summary_table().render());
    }
}

/// `obs_report --shards N`: each cell behind an N-tree front — per-shard
/// bottlenecks, the fleet time-series rollup, the front's scatter-gather
/// trace.
fn obs_report_sharded(shards: u32, users: u32, slave_counts: &[usize]) {
    let mut last = None;
    for &slaves in slave_counts {
        eprintln!("obs_report: running shards={shards} slaves={slaves} users={users} ...");
        let (report, bundle) = obs_report::run_observed_sharded_cell(shards, slaves, users, 42);
        println!(
            "== {shards} shards × {}, {users} users ({:.1} ops/s steady) ==",
            counted(slaves, "slave"),
            report.throughput_ops_s
        );
        for (k, label) in report.per_shard_bottleneck.iter().enumerate() {
            println!("  shard {k}: bottleneck {label}");
        }
        println!(
            "  cluster-wide: {} ({} scatter reads, {} legs)",
            report.busiest_shard_label(),
            report.scatter_reads,
            report.scatter_legs
        );
        println!();
        last = Some(bundle);
    }
    let bundle = last.expect("at least one cell ran");
    if let Some(fleet) = bundle.fleet_tsdb() {
        let name = format!("obs_series_shards{shards}.csv");
        write_artifact(&name, &fleet.csv(), "");
    }
    if let Some(json) = bundle.front.chrome_trace() {
        let name = format!("obs_trace_shards{shards}.json");
        write_artifact(&name, &json, TRACE_NOTE);
    }
}

fn obs_slo_alerts(a: &Args) {
    let spec = obs_slo::ObsSloSpec::paper_set(a.fidelity);
    let opts = SweepOptions::with_progress(a.jobs, "[obs_slo] ");
    let shards = a.shards.unwrap_or(1);
    let cells = obs_slo::run(&spec, shards, &opts);
    let t = obs_slo::table(&spec, &cells);
    println!("{}", t.render());
    // The waterfalls of the last (largest same-grid) cell show where the
    // replication delay the alerts watch actually accrues.
    if let Some(last) = cells.last() {
        for (k, tree) in last.fleet.shards() {
            let shard = (shards > 1).then(|| format!(", shard {k}"));
            let shard = shard.unwrap_or_default();
            println!(
                "staleness waterfall — {} slaves, {} users{shard}:",
                last.slaves, last.users
            );
            println!("{}", tree.waterfall.table().render());
        }
    }
    // Sharded alerts carry `(shard, component, instance)` and land in a CSV
    // of their own.
    let suffix = (shards > 1).then(|| format!("_shards{shards}"));
    let label = format!("alerts{}", suffix.unwrap_or_default());
    write_results_csv("obs_slo", &label, &t);
}

fn fleet_report(a: &Args) {
    let mut spec = fleet::FleetSpec::paper_set(a.fidelity);
    if let Some(n) = a.shards {
        spec.shards = n;
    }
    let opts = SweepOptions::with_progress(a.jobs, "[fleet_report] ");
    let cells = fleet::run(&spec, &opts);
    for cell in &cells {
        println!("{}", fleet::top_table(&spec, cell).render());
    }
    write_results_csv("fleet", "report", &fleet::combined_table(&spec, &cells));

    // The alert timeline and the OpenMetrics dump are the last cell's.
    let last = cells.last().expect("the grid has at least one cell");
    emit("fleet", "alerts", &last.bundle.telemetry.alert_table());
    if let Some(db) = last.bundle.fleet_tsdb() {
        println!(
            "fleet tsdb: {} tracks, {} slot(s) evicted, ~{} KiB",
            db.len(),
            db.total_evicted(),
            db.state_bytes() / 1024
        );
    }
    write_artifact("fleet_metrics.prom", &fleet::openmetrics_dump(last), "");
}

/// Always full fidelity. Figs 2+5 and 3+6 share their sweeps, as in the
/// paper; the cheap ones go first.
fn paper(a: &Args) {
    let t0 = std::time::Instant::now();
    let full = Args {
        fidelity: Fidelity::Full,
        ..*a
    };
    eprintln!("[paper] running with {}", counted(a.jobs, "worker thread"));

    let f4 = fig4::summary_table(&fig4::run(&fig4::Fig4Spec::default()));
    emit("fig4", "summary", &f4);
    half_rtt(&full);
    perfvar_summary(&full);

    let spec = SweepSpec::fig2_fig5(Fidelity::Full);
    sweep_figures(spec, &full, "[fig2/5] ", Some("fig2"), Some("fig5"));
    eprintln!("figs 2/5 done at {:?}", t0.elapsed());
    let spec = SweepSpec::fig3_fig6(Fidelity::Full);
    sweep_figures(spec, &full, "[fig3/6] ", Some("fig3"), Some("fig6"));
    eprintln!("figs 3/6 done at {:?}", t0.elapsed());

    ablations_all(&full);
    eprintln!("all figures regenerated in {:?}", t0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        match parse(&argv)? {
            Invocation::Run(_, args) => Ok(args),
            Invocation::List => Err("--list".into()),
        }
    }

    #[test]
    fn flags_parse_both_spellings_and_reject_bad_values() {
        let jobs = |line: &str| parsed(line).map(|a| a.jobs);
        assert_eq!(jobs("fig2 --full --jobs 3"), Ok(3));
        assert_eq!(jobs("fig2 --jobs=4 --full"), Ok(4));
        assert_eq!(
            jobs("fig2 --jobs 0"),
            Err("--jobs: expected a job count, got '0'".to_string())
        );
        assert_eq!(
            jobs("fig2 --jobs x"),
            Err("--jobs: expected a job count, got 'x'".to_string())
        );
        assert!(jobs("fig2 --jobs=").is_err());
        assert!(jobs("fig2 --full --jobs").is_err(), "flag without a value");
        assert!(jobs("fig2 --full=yes").is_err(), "--full takes no value");
        let a = parsed("fig2 --backend shared-log").expect("parses");
        assert_eq!(a.backend, Some(BackendKind::SharedLog));
        assert_eq!(a.fidelity, Fidelity::Quick);
        assert!(parsed("fig2 --backend shard-log").is_err());
        let a = parsed("obs_slo --shards=3 --full").expect("parses");
        assert_eq!((a.shards, a.fidelity), (Some(3), Fidelity::Full));
        assert!(
            parsed("obs_slo --shards 0").is_err(),
            "zero shards run nothing"
        );
    }

    #[test]
    fn a_word_the_subcommand_does_not_accept_is_a_usage_error() {
        assert_eq!(
            parsed("fig2 --job 2").unwrap_err(),
            "amdb fig2: unexpected '--job'; usage: amdb fig2 [--full] [--jobs N] \
             [--backend statement|row|shared-log]"
        );
        assert!(
            parsed("fig2 --jobsx 4").is_err(),
            "a longer flag is another flag"
        );
        assert_eq!(
            parsed("rtt --backend row").unwrap_err(),
            "amdb rtt: unexpected '--backend'; usage: amdb rtt"
        );
        assert!(parsed("paper --full").is_err(), "paper is always full");
        assert!(parsed("--list --full").is_err());
    }
}
