//! `--compare DIR_A DIR_B`: two suites of runs of the same code must agree
//! within the benchmark's own bounds (`benchmark/check.sh`).

use crate::metrics::{Better, END_TO_END};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One parsed result file: end-to-end / timing values, exact counts,
/// fingerprints.
#[derive(Default)]
pub struct ResultFile {
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub exact: BTreeMap<String, String>,
    pub fingerprints: BTreeMap<String, String>,
}

pub fn parse_result_file(text: &str) -> ResultFile {
    let mut r = ResultFile::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["failed", n] => r.failed = n.parse().unwrap_or(u64::MAX),
            ["metric", name, value, _unit] => {
                r.metrics
                    .insert(name.to_string(), value.parse().unwrap_or(f64::NAN));
            }
            ["exact", name, value, _unit] => {
                r.exact.insert(name.to_string(), value.to_string());
            }
            ["fp", label, hex] => {
                r.fingerprints.insert(label.to_string(), hex.to_string());
            }
            _ => {}
        }
    }
    r
}

/// Differences between two runs of the same code that the benchmark's own
/// bounds do not allow: an end-to-end metric further apart than its bound,
/// or any exact count or fingerprint that is not identical.
fn compare_results(file: &str, a: &ResultFile, b: &ResultFile) -> Vec<String> {
    let mut bad = Vec::new();
    if a.failed != 0 || b.failed != 0 {
        bad.push(format!(
            "{file}: failed cells ({} / {})",
            a.failed, b.failed
        ));
    }
    for e in END_TO_END {
        let bound = e.bound.expect("end-to-end metrics carry a bound");
        if let (Some(&x), Some(&y)) = (a.metrics.get(e.name), b.metrics.get(e.name)) {
            let (worse, base) = match e.better {
                Better::Lower => (x.max(y), x.min(y)),
                Better::Higher => (x.min(y), x.max(y)),
            };
            let apart = ((worse - base) / base).abs();
            if apart.is_nan() || apart > bound {
                bad.push(format!(
                    "{file}: {} {x} vs {y} is {apart:.3} apart, bound {bound}",
                    e.name
                ));
            }
        }
    }
    let names: BTreeSet<&String> = a.exact.keys().chain(b.exact.keys()).collect();
    for name in names {
        let (x, y) = (a.exact.get(name), b.exact.get(name));
        if x != y {
            bad.push(format!("{file}: exact {name} {x:?} vs {y:?}"));
        }
    }
    if a.fingerprints != b.fingerprints {
        bad.push(format!("{file}: fingerprints differ"));
    }
    bad
}

/// Fingerprints of one cell must also agree *across* files of one run:
/// `sweep_jobs` runs the paper workloads' cells through the pool.
fn cross_file_fingerprints(files: &BTreeMap<String, ResultFile>) -> Vec<String> {
    let mut seen: BTreeMap<&str, (&str, &str)> = BTreeMap::new();
    let mut bad = Vec::new();
    for (file, r) in files {
        for (label, fp) in &r.fingerprints {
            match seen.get(label.as_str()) {
                Some((other, want)) if want != fp => {
                    bad.push(format!("{label}: {fp} in {file}, {want} in {other}"))
                }
                Some(_) => {}
                None => {
                    seen.insert(label, (file, fp));
                }
            }
        }
    }
    bad
}

fn read_results(dir: &Path) -> BTreeMap<String, ResultFile> {
    let mut out = BTreeMap::new();
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        eprintln!("{}: {e}", dir.display());
        std::process::exit(2);
    });
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".txt") {
            let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
            out.insert(name, parse_result_file(&text));
        }
    }
    out
}

pub fn compare(dir_a: &Path, dir_b: &Path) -> ! {
    let (a, b) = (read_results(dir_a), read_results(dir_b));
    let mut bad = Vec::new();
    if a.is_empty() || a.keys().ne(b.keys()) {
        bad.push("the two directories do not hold the same result files".to_string());
    }
    for (file, ra) in &a {
        if let Some(rb) = b.get(file) {
            bad.extend(compare_results(file, ra, rb));
        }
    }
    bad.extend(cross_file_fingerprints(&a));
    bad.extend(cross_file_fingerprints(&b));
    for line in &bad {
        eprintln!("MISMATCH {line}");
    }
    println!(
        "compared {} result files: {}",
        a.len(),
        if bad.is_empty() { "agree" } else { "DISAGREE" }
    );
    std::process::exit(i32::from(!bad.is_empty()));
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESULT: &str = "attempted 6\nfailed 0\nmetric wall_s 4.25 s\n\
                          exact sim.events 1234 count\nfp 5050/x 0000000000000abc\n";

    #[test]
    fn compare_applies_the_bounds_and_demands_identity_of_exact_values() {
        let a = parse_result_file(RESULT);
        assert_eq!(a.metrics["wall_s"], 4.25);
        assert_eq!(a.exact["sim.events"], "1234");
        assert_eq!(a.fingerprints["5050/x"], "0000000000000abc");
        assert!(compare_results("f", &a, &a).is_empty());

        let mut near = parse_result_file(RESULT);
        near.metrics.insert("wall_s".into(), 4.25 * 1.24);
        assert!(compare_results("f", &a, &near).is_empty(), "inside 0.25");
        near.metrics.insert("wall_s".into(), 4.25 * 1.26);
        assert_eq!(compare_results("f", &a, &near).len(), 1, "outside 0.25");

        let mut drift = parse_result_file(RESULT);
        drift.exact.insert("sim.events".into(), "1235".into());
        drift.fingerprints.insert("5050/x".into(), "0".into());
        assert_eq!(compare_results("f", &a, &drift).len(), 2);
        let failed = parse_result_file(&RESULT.replace("failed 0", "failed 1"));
        assert_eq!(compare_results("f", &a, &failed).len(), 1);

        let files: BTreeMap<String, ResultFile> =
            [("a.txt".to_string(), a), ("b.txt".to_string(), drift)].into();
        assert_eq!(cross_file_fingerprints(&files).len(), 1);
    }
}
