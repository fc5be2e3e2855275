//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names in the same order (a
//! unit test compares them), so a later PR quotes these names and no others.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. End-to-end metrics (host clock, tracing off, one value
/// per workload per run) carry a `bound`: the share by which they may
/// worsen. Per-layer metrics (`<crate>.<metric>`, from the `--trace 1`
/// pass) carry none; those marked `exact` are simulated counts and must
/// repeat bit-for-bit at one seed, the rest are host timings of one layer.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

const fn end_to_end(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact,
    }
}

const fn timing(name: &'static str, unit: &'static str) -> Metric {
    layer(name, unit, Better::Lower, false)
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    layer(name, unit, better, true)
}

/// The three timing bounds are as wide as the contract allows because the
/// calibration host is that noisy: ten 30 s runs of unchanged code spread
/// (q3 − q1) ÷ median = 0.04–0.14 on them, and a bound has to clear that
/// with room to spare.
pub const END_TO_END: &[Metric] = &[
    end_to_end("wall_s", "s", Better::Lower, 0.25),
    end_to_end("cpu_s", "s", Better::Lower, 0.25),
    end_to_end("ops_per_s", "1/s", Better::Higher, 0.25),
    end_to_end("peak_rss_mb", "MiB", Better::Lower, 0.10),
    end_to_end("setup_s", "s", Better::Lower, 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    // amdb-sim
    exact("sim.events", "count", Better::Lower),
    timing("sim.host_ns_per_event", "ns"),
    timing("sim.agenda_ns_per_event", "ns"),
    timing("sim.fifo_submit_ns", "ns"),
    // amdb-sql
    timing("sql.read_ns_per_stmt", "ns"),
    timing("sql.write_ns_per_stmt", "ns"),
    timing("sql.prepare_cold_ns", "ns"),
    timing("sql.prepare_hit_ns", "ns"),
    layer("sql.plan_cache_hit_ratio", "ratio", Better::Higher, false),
    timing("sql.fork_us", "us"),
    timing("sql.binlog_encode_ns", "ns"),
    exact("sql.binlog_stmt_bytes_per_event", "B", Better::Lower),
    exact("sql.binlog_row_bytes_per_event", "B", Better::Lower),
    timing("sql.apply_stmt_ns", "ns"),
    timing("sql.apply_row_ns", "ns"),
    timing("sql.failed", "count"),
    // amdb-repl
    timing("repl.pump_ns_per_event", "ns"),
    timing("repl.relay_ns_per_event", "ns"),
    timing("repl.logstore_ns_per_append", "ns"),
    exact("repl.apply_events", "count", Better::Lower),
    exact("repl.peak_relay_backlog", "count", Better::Lower),
    exact("repl.ack_retries", "count", Better::Lower),
    exact("repl.quorum_failures", "count", Better::Lower),
    // amdb-apply
    timing("apply.plan_batch_ns_per_event", "ns"),
    timing("apply.writeset_ns_per_event", "ns"),
    exact("apply.mean_batch", "ratio", Better::Higher),
    // amdb-pool / amdb-proxy
    timing("pool.acquire_release_ns", "ns"),
    exact("pool.waited_share", "ratio", Better::Lower),
    timing("proxy.route_ns", "ns"),
    exact("proxy.master_fallback_share", "ratio", Better::Lower),
    // amdb-consistency
    timing("consistency.decide_read_ns", "ns"),
    timing("consistency.note_applied_ns", "ns"),
    exact("consistency.redirect_share", "ratio", Better::Lower),
    // amdb-shard
    timing("shard.shard_of_ns", "ns"),
    timing("shard.gather_ns_per_leg", "ns"),
    exact("shard.filtered_leg_share", "ratio", Better::Lower),
    // amdb-obs / amdb-metrics / amdb-telemetry
    timing("obs.disabled_probe_ns", "ns"),
    timing("obs.enabled_probe_ns", "ns"),
    timing("obs.tsdb_record_ns", "ns"),
    exact("obs.tsdb_tracks", "count", Better::Lower),
    timing("metrics.sketch_record_ns", "ns"),
    timing("telemetry.waterfall_ns_per_write", "ns"),
    // amdb-cloudstone / amdb-net
    timing("cloudstone.generate_ns_per_op", "ns"),
    timing("cloudstone.template_build_small_s", "s"),
    timing("cloudstone.template_build_large_s", "s"),
    timing("net.delay_ns", "ns"),
    // amdb-core (per-cell harness spans)
    timing("core.construct_us_median", "us"),
    timing("core.construct_us_max", "us"),
    timing("core.run_s_median", "s"),
    timing("core.run_s_max", "s"),
    timing("core.report_us_median", "us"),
    timing("core.report_us_max", "us"),
    timing("core.cell_max_s", "s"),
    timing("core.unattributed_share", "ratio"),
    // amdb-experiments (exec)
    layer("exec.speedup", "x", Better::Higher, false),
    timing("exec.cpu_inflation", "x"),
    timing("exec.imbalance", "x"),
    timing("exec.dispatch_overhead_us", "us"),
    // the harness itself
    timing("trace_overhead_x", "x"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The `{...}` objects of the top-level array `section`, as text.
    fn objects_in<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split('{')
            .skip(1)
            .map(|obj| &obj[..obj.find('}').expect("object closes")])
            .collect()
    }

    /// The value of `"key": ...` in one object's text, quotes stripped.
    fn field<'a>(obj: &'a str, key: &str) -> &'a str {
        let at = obj
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in {obj}"));
        let value = obj[at + key.len() + 2..].trim_start_matches([':', ' ']);
        match value.strip_prefix('"') {
            Some(quoted) => &quoted[..quoted.find('"').expect("string closes")],
            None => value.split([',', ' ']).next().expect("a number"),
        }
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&crate::workloads::Workload::ALL.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(
                crate::workloads::Workload::ALL
                    .iter()
                    .map(|w| (w.name(), "x")),
            )
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        let bound = |m: &Metric| m.bound.expect("end-to-end metrics carry a bound");
        for m in END_TO_END {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{} bound", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| bound(m) <= bound(setup)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        assert!(json.len() <= 64 * 1024);

        let listed = objects_in(json, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (obj, m) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(obj, "name"), m.name);
            assert_eq!(field(obj, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(obj, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(field(obj, "bound").parse().ok(), m.bound, "{}", m.name);
        }
        let listed = objects_in(json, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (obj, m) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(obj, "name"), m.name);
            assert_eq!(field(obj, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(obj, "better"), m.better.as_str(), "{}", m.name);
        }
        let listed = objects_in(json, "workloads");
        let names: Vec<&str> = listed.iter().map(|obj| field(obj, "name")).collect();
        assert_eq!(names, crate::workloads::Workload::ALL.map(|w| w.name()));
        for obj in listed {
            let why = field(obj, "why");
            assert!(!why.is_empty() && why.len() <= 200, "{why}");
        }
    }
}
