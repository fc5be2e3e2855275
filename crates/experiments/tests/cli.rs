//! The `amdb` binary from the outside: what it prints is what the library
//! renders, `--list` is the experiment table, bad command lines exit 2 with
//! one line, and the three ways to pick a job count agree.

use amdb_experiments::cli::COMMANDS;
use amdb_experiments::{fig4, rtt};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn amdb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_amdb"))
}

/// Run `amdb <args>` in a scratch directory of its own (subcommands write
/// `results/` relative to cwd).
fn run_in_scratch(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = amdb()
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("amdb runs");
    (out, dir)
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

#[test]
fn rtt_and_fig4_print_the_library_tables() {
    let (out, dir) = run_in_scratch("rtt", &["rtt"]);
    assert!(out.status.success());
    let table = rtt::table(&rtt::run(1200, 7));
    assert_eq!(text(&out.stdout), format!("{}\n", table.render()));
    let csv = std::fs::read_to_string(dir.join("results/rtt_half_rtt.csv")).expect("CSV written");
    assert_eq!(csv, table.to_csv());

    let (out, dir) = run_in_scratch("fig4", &["fig4"]);
    assert!(out.status.success());
    let r = fig4::run(&fig4::Fig4Spec::default());
    assert_eq!(
        text(&out.stdout),
        format!(
            "{}\n(series CSV written to results/)\n",
            fig4::summary_table(&r).render()
        )
    );
    let csv = std::fs::read_to_string(dir.join("results/fig4_series.csv")).expect("CSV written");
    assert_eq!(csv, fig4::series_table(&r).to_csv());
}

#[test]
fn list_names_every_subcommand_and_module() {
    let out = amdb().arg("--list").output().expect("amdb runs");
    assert!(out.status.success());
    let listing = text(&out.stdout);
    assert_eq!(listing.lines().count(), COMMANDS.len());
    for (line, c) in listing.lines().zip(&COMMANDS) {
        let mut words = line.split_whitespace();
        assert_eq!(words.next(), Some(c.name));
        assert_eq!(words.next(), Some(c.module));
    }
    // Every experiment module of the library is reachable from the table.
    for module in [
        "sweep",
        "fig4",
        "rtt",
        "perfvar",
        "ablations",
        "extensions",
        "consistency",
        "parallel_apply",
        "shared_log",
        "sharded",
        "obs_report",
        "obs_slo",
        "fleet",
    ] {
        assert!(
            COMMANDS.iter().any(|c| c.module == module),
            "no subcommand runs {module}"
        );
    }
}

#[test]
fn bad_command_lines_exit_2_with_one_line_and_run_nothing() {
    for (tag, args) in [
        ("nosuch", &["nosuch"][..]),
        ("job", &["fig2", "--job", "2"]),
        ("ful", &["fig2", "--ful"]),
        ("backend", &["rtt", "--backend", "row"]),
        ("value", &["fig2", "--jobs", "many"]),
        ("empty", &[]),
    ] {
        let (out, dir) = run_in_scratch(tag, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        assert_eq!(text(&out.stderr).lines().count(), 1, "{args:?}");
        assert!(!dir.join("results").exists(), "{args:?} ran the grid");
    }
}

/// `paper` announces its worker count on stderr before it runs anything;
/// read that line, then stop it.
fn announced_jobs(args: &[&str], env_jobs: Option<&str>) -> String {
    let mut cmd = amdb();
    cmd.arg("paper").args(args).env_remove("AMDB_JOBS");
    if let Some(n) = env_jobs {
        cmd.env("AMDB_JOBS", n);
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-jobs");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut child = cmd
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("amdb runs");
    let mut line = String::new();
    BufReader::new(child.stderr.take().expect("piped"))
        .read_line(&mut line)
        .expect("first stderr line");
    // Already gone only if the whole paper run finished first.
    let _ = child.kill();
    child.wait().expect("reaped");
    line
}

#[test]
fn jobs_flag_spellings_and_env_resolve_alike() {
    let want = "[paper] running with 3 worker threads\n";
    assert_eq!(announced_jobs(&["--jobs=3"], None), want);
    assert_eq!(announced_jobs(&["--jobs", "3"], None), want);
    assert_eq!(announced_jobs(&[], Some("3")), want);
    assert_eq!(
        announced_jobs(&["--jobs", "3"], Some("5")),
        want,
        "the flag beats the environment"
    );
}
