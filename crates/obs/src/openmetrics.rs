//! OpenMetrics / Prometheus text exposition for the metrics registry.
//!
//! Renders a [`MetricsRegistry`] — or several, e.g. one per shard tree —
//! into the OpenMetrics text format: one `# TYPE` line per metric family,
//! family samples contiguous (the format forbids interleaving), a final
//! `# EOF` terminator. Families are emitted in lexicographic name order
//! and samples within a family in part order then registry key order, so
//! the output is byte-deterministic for a given fleet state.
//!
//! Mapping from registry metrics:
//!
//! | registry kind | OpenMetrics family                                  |
//! |---------------|-----------------------------------------------------|
//! | `Counter`     | `counter` — sample `<fam>_total`                    |
//! | `Gauge`       | `gauge` — last value, plus a `<fam>_max` gauge      |
//! | `Sketch`      | `summary` — q 0.5/0.9/0.95/0.99 + `_count`/`_sum`   |
//! | `Series`      | `gauge` — last sample, with its sim timestamp       |
//!
//! Family names are `amdb_<component>_<metric>`; every sample carries
//! `component` and `instance` labels, and multi-part exports add a
//! `shard` label from the part's tag.

use crate::registry::{Metric, MetricsRegistry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Quantiles exposed for sketch-backed summaries.
const SUMMARY_QUANTILES: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

/// Clamp a metric name to the OpenMetrics charset `[a-zA-Z0-9_:]`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// One family being assembled: its advertised type and its sample lines.
struct Family {
    mtype: &'static str,
    lines: Vec<String>,
}

fn family<'a>(
    fams: &'a mut BTreeMap<String, Family>,
    name: String,
    mtype: &'static str,
) -> &'a mut Family {
    let f = fams.entry(name.clone()).or_insert(Family {
        mtype,
        lines: Vec::new(),
    });
    assert_eq!(
        f.mtype, mtype,
        "metric family {name} exported with two types ({} vs {mtype})",
        f.mtype
    );
    f
}

/// Render one registry. Equivalent to a single-part
/// [`openmetrics_text_multi`] without the `shard` label.
pub fn openmetrics_text(reg: &MetricsRegistry) -> String {
    openmetrics_text_multi(&[("", reg)])
}

/// Render several registries into one exposition. Each part is
/// `(shard tag, registry)`; a non-empty tag becomes a `shard="<tag>"`
/// label on every sample from that part, letting per-tree registries and
/// the front's registry share one dump without name collisions.
///
/// # Panics
/// Panics if two parts register the same family name with different
/// metric kinds — one name, one kind, fleet-wide (the same contract the
/// registry enforces per tree).
pub fn openmetrics_text_multi(parts: &[(&str, &MetricsRegistry)]) -> String {
    let mut fams: BTreeMap<String, Family> = BTreeMap::new();
    for (tag, reg) in parts {
        let shard_label = if tag.is_empty() {
            String::new()
        } else {
            format!(",shard=\"{tag}\"")
        };
        for (k, m) in reg.iter() {
            let base = format!("amdb_{}_{}", k.comp.as_str(), sanitize(k.name));
            let labels = format!(
                "component=\"{}\",instance=\"{}\"{shard_label}",
                k.comp.as_str(),
                k.inst
            );
            match m {
                Metric::Counter(c) => {
                    family(&mut fams, base.clone(), "counter")
                        .lines
                        .push(format!("{base}_total{{{labels}}} {c}"));
                }
                Metric::Gauge { last, max } => {
                    family(&mut fams, base.clone(), "gauge")
                        .lines
                        .push(format!("{base}{{{labels}}} {last}"));
                    let fam_max = format!("{base}_max");
                    family(&mut fams, fam_max.clone(), "gauge")
                        .lines
                        .push(format!("{fam_max}{{{labels}}} {max}"));
                }
                Metric::Sketch(s) => {
                    let f = family(&mut fams, base.clone(), "summary");
                    for q in SUMMARY_QUANTILES {
                        if let Some(v) = s.quantile(q) {
                            f.lines
                                .push(format!("{base}{{{labels},quantile=\"{q}\"}} {v}"));
                        }
                    }
                    f.lines
                        .push(format!("{base}_count{{{labels}}} {}", s.count()));
                    f.lines.push(format!("{base}_sum{{{labels}}} {}", s.sum()));
                }
                Metric::Series(ts) => {
                    // The registry's unbounded series are sampled gauges;
                    // expose the most recent sample with its simulated
                    // timestamp (seconds).
                    if let Some(&(t, v)) = ts.points().last() {
                        family(&mut fams, base.clone(), "gauge")
                            .lines
                            .push(format!("{base}{{{labels}}} {v} {t}"));
                    }
                }
            }
        }
    }
    let mut out = String::new();
    for (name, fam) in &fams {
        let _ = writeln!(out, "# TYPE {name} {}", fam.mtype);
        for line in &fam.lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Component;

    fn seeded() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.incr(Component::Proxy, 0, "routed_reads", 7);
        r.gauge(Component::Pool, 0, "active", 3.0);
        r.gauge(Component::Pool, 0, "active", 2.0);
        for i in 0..50 {
            r.observe_sketch(Component::Repl, 1, "apply_ms", (i + 1) as f64);
        }
        r.sample(Component::Cpu, 0, "util", 0.5, 0.25);
        r.sample(Component::Cpu, 0, "util", 1.0, 0.75);
        r
    }

    #[test]
    fn exposition_is_terminated_and_deterministic() {
        let r = seeded();
        let a = openmetrics_text(&r);
        let b = openmetrics_text(&r);
        assert_eq!(a, b);
        assert!(a.ends_with("# EOF\n"));
        assert_eq!(a.matches("# EOF").count(), 1);
    }

    #[test]
    fn families_are_typed_once_and_never_interleaved() {
        let text = openmetrics_text(&seeded());
        let mut seen = std::collections::BTreeSet::new();
        let mut current: Option<String> = None;
        for line in text.lines() {
            if line == "# EOF" {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let fam = rest.split(' ').next().unwrap().to_string();
                assert!(seen.insert(fam.clone()), "family {fam} typed twice");
                current = Some(fam);
            } else {
                let fam = current.as_ref().expect("sample before any TYPE line");
                let metric = line.split(&['{', ' '][..]).next().unwrap();
                assert!(
                    metric.starts_with(fam.as_str()),
                    "sample {metric} outside its family block {fam}"
                );
            }
        }
    }

    #[test]
    fn kinds_map_to_openmetrics_types() {
        let text = openmetrics_text(&seeded());
        assert!(text.contains("# TYPE amdb_proxy_routed_reads counter"));
        assert!(
            text.contains("amdb_proxy_routed_reads_total{component=\"proxy\",instance=\"0\"} 7")
        );
        assert!(text.contains("# TYPE amdb_pool_active gauge"));
        assert!(text.contains("amdb_pool_active{component=\"pool\",instance=\"0\"} 2"));
        assert!(text.contains("amdb_pool_active_max{component=\"pool\",instance=\"0\"} 3"));
        assert!(text.contains("# TYPE amdb_repl_apply_ms summary"));
        assert!(text.contains("quantile=\"0.95\""));
        assert!(text.contains("amdb_repl_apply_ms_count{component=\"repl\",instance=\"1\"} 50"));
        // Series: last sample with its simulated timestamp.
        assert!(text.contains("amdb_cpu_util{component=\"cpu\",instance=\"0\"} 0.75 1"));
    }

    #[test]
    fn multi_part_export_labels_shards() {
        let mut s0 = MetricsRegistry::new();
        s0.incr(Component::Proxy, 0, "ops", 10);
        let mut s1 = MetricsRegistry::new();
        s1.incr(Component::Proxy, 0, "ops", 20);
        let text = openmetrics_text_multi(&[("0", &s0), ("1", &s1)]);
        assert_eq!(text.matches("# TYPE amdb_proxy_ops counter").count(), 1);
        assert!(text
            .contains("amdb_proxy_ops_total{component=\"proxy\",instance=\"0\",shard=\"0\"} 10"));
        assert!(text
            .contains("amdb_proxy_ops_total{component=\"proxy\",instance=\"0\",shard=\"1\"} 20"));
    }

    #[test]
    #[should_panic(expected = "two types")]
    fn cross_part_kind_conflict_panics() {
        let mut a = MetricsRegistry::new();
        a.gauge(Component::Cpu, 0, "x", 1.0);
        let mut b = MetricsRegistry::new();
        b.observe_sketch(Component::Cpu, 0, "x", 1.0);
        openmetrics_text_multi(&[("0", &a), ("1", &b)]);
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("apply worker.util"), "apply_worker_util");
        assert_eq!(sanitize("ok_name:sub"), "ok_name:sub");
    }
}
