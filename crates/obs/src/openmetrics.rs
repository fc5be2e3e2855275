//! OpenMetrics / Prometheus text exposition of a trace recorder's metrics.
//!
//! Renders a [`TraceRecorder`]'s registry and counter tracks — or several
//! recorders', e.g. one per shard tree — into the OpenMetrics text format:
//! one `# TYPE` line per metric family, family samples contiguous (the
//! format forbids interleaving), a final `# EOF` terminator. Families are emitted in lexicographic name order
//! and samples within a family in part order then `(component, instance,
//! name)` key order, so the output is byte-deterministic for a given fleet
//! state.
//!
//! Mapping:
//!
//! | source                    | OpenMetrics family                                |
//! |---------------------------|---------------------------------------------------|
//! | registry `Counter`        | `counter` — sample `<fam>_total`                  |
//! | registry `Gauge`          | `gauge` — last value, plus a `<fam>_max` gauge    |
//! | registry `Sketch`         | `summary` — q 0.5/0.9/0.95/0.99 + `_count`/`_sum` |
//! | counter-track records     | `gauge` — last sample, with its sim timestamp     |
//!
//! A counter track's last sample is derived from the recorder's counter
//! records at export; the registry does not hold a copy of them.
//!
//! Family names are `amdb_<component>_<metric>`; every sample carries
//! `component` and `instance` labels, and multi-part exports add a
//! `shard` label from the part's tag.

use crate::registry::Metric;
use crate::trace::TraceRecorder;
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

/// What one key exports: a registry metric, or a counter track's last
/// `(t_seconds, value)` sample.
enum Source<'a> {
    Metric(&'a Metric),
    LastSample(f64, f64),
}

/// Render one recorder. Equivalent to a single-part
/// [`openmetrics_text_multi`] without the `shard` label.
pub fn openmetrics_text(rec: &TraceRecorder) -> String {
    openmetrics_text_multi(&[("", rec)])
}

/// Render several recorders into one exposition. Each part is
/// `(shard tag, recorder)`; a non-empty tag becomes a `shard="<tag>"`
/// label on every sample from that part, letting per-tree recorders and
/// the front's recorder share one dump without name collisions.
///
/// # Panics
/// Panics if two parts register the same family name with different
/// metric kinds — one name, one kind, fleet-wide (the same contract the
/// registry enforces per tree).
pub fn openmetrics_text_multi(parts: &[(&str, &TraceRecorder)]) -> String {
    let mut fams: BTreeMap<String, Family> = BTreeMap::new();
    for (tag, rec) in parts {
        let shard_label = if tag.is_empty() {
            String::new()
        } else {
            format!(",shard=\"{tag}\"")
        };
        // Registry metrics and counter tracks, merged in key order.
        let mut sources: Vec<_> = rec
            .registry()
            .iter()
            .map(|(k, m)| (*k, Source::Metric(m)))
            .chain(rec.counter_series().into_iter().filter_map(|(k, points)| {
                let &(t, v) = points.last()?;
                Some((k, Source::LastSample(t, v)))
            }))
            .collect();
        sources.sort_by_key(|(k, _)| *k);
        for (k, source) in sources {
            let base = format!("amdb_{}_{}", k.comp.as_str(), sanitize(k.name));
            let labels = format!(
                "component=\"{}\",instance=\"{}\"{shard_label}",
                k.comp.as_str(),
                k.inst
            );
            match source {
                Source::Metric(Metric::Counter(c)) => {
                    family(&mut fams, base.clone(), "counter")
                        .lines
                        .push(format!("{base}_total{{{labels}}} {c}"));
                }
                Source::Metric(Metric::Gauge { last, max }) => {
                    family(&mut fams, base.clone(), "gauge")
                        .lines
                        .push(format!("{base}{{{labels}}} {last}"));
                    let fam_max = format!("{base}_max");
                    family(&mut fams, fam_max.clone(), "gauge")
                        .lines
                        .push(format!("{fam_max}{{{labels}}} {max}"));
                }
                Source::Metric(Metric::Sketch(s)) => {
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
                Source::LastSample(t, v) => {
                    // A counter track is a sampled gauge: expose its most
                    // recent sample with its simulated timestamp (seconds).
                    family(&mut fams, base.clone(), "gauge")
                        .lines
                        .push(format!("{base}{{{labels}}} {v} {t}"));
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
    use amdb_sim::SimTime;

    fn seeded() -> TraceRecorder {
        let mut t = TraceRecorder::new();
        let r = t.registry_mut();
        r.incr(Component::Proxy, 0, "routed_reads", 7);
        r.gauge(Component::Pool, 0, "active", 3.0);
        r.gauge(Component::Pool, 0, "active", 2.0);
        for i in 0..50 {
            r.observe_sketch(Component::Repl, 1, "apply_ms", (i + 1) as f64);
        }
        t.counter(Component::Cpu, 0, "util", SimTime::from_millis(500), 0.25);
        t.counter(Component::Cpu, 0, "util", SimTime::from_millis(1_000), 0.75);
        t
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
        // Counter track: last sample with its simulated timestamp.
        assert!(text.contains("amdb_cpu_util{component=\"cpu\",instance=\"0\"} 0.75 1"));
    }

    #[test]
    fn multi_part_export_labels_shards() {
        let mut s0 = TraceRecorder::new();
        s0.registry_mut().incr(Component::Proxy, 0, "ops", 10);
        let mut s1 = TraceRecorder::new();
        s1.registry_mut().incr(Component::Proxy, 0, "ops", 20);
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
        let mut a = TraceRecorder::new();
        a.registry_mut().gauge(Component::Cpu, 0, "x", 1.0);
        let mut b = TraceRecorder::new();
        b.registry_mut().observe_sketch(Component::Cpu, 0, "x", 1.0);
        openmetrics_text_multi(&[("0", &a), ("1", &b)]);
    }

    #[test]
    fn counter_tracks_and_registry_metrics_merge_in_key_order() {
        let mut t = TraceRecorder::new();
        t.counter(Component::Cpu, 2, "util", SimTime::from_secs(1), 0.5);
        t.registry_mut().gauge(Component::Cpu, 1, "util", 0.25);
        t.counter(Component::Cpu, 0, "util", SimTime::from_secs(2), 0.75);
        let text = openmetrics_text(&t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[..4],
            [
                "# TYPE amdb_cpu_util gauge",
                "amdb_cpu_util{component=\"cpu\",instance=\"0\"} 0.75 2",
                "amdb_cpu_util{component=\"cpu\",instance=\"1\"} 0.25",
                "amdb_cpu_util{component=\"cpu\",instance=\"2\"} 0.5 1",
            ]
        );
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("apply worker.util"), "apply_worker_util");
        assert_eq!(sanitize("ok_name:sub"), "ok_name:sub");
    }
}
