//! Bottleneck attribution over the measured steady window.
//!
//! The paper attributes throughput ceilings to whichever resource saturates
//! first: *"the bottleneck switches between the snapshots (a) and (c) [slave
//! CPU vs. master CPU] along with the growth of the workload"* (§IV-A).
//! This module turns per-instance steady-window utilizations and queue
//! depths into a small report that names that resource.

use crate::metrics::Table;
use crate::Component;

/// One resource's steady-window usage.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUsage {
    /// Owning component.
    pub comp: Component,
    /// Instance index.
    pub inst: u32,
    /// Human label, e.g. `"master cpu"` or `"slave2 cpu"`.
    pub label: String,
    /// Utilization over the steady window. For a `FifoCpu` this may exceed
    /// 1.0 when offered load outruns capacity — the saturation signature.
    pub utilization: f64,
    /// Peak queue depth observed during the window.
    pub peak_queue: usize,
}

/// Per-instance usage rows plus a saturation threshold.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    rows: Vec<ResourceUsage>,
    threshold: f64,
}

/// Default saturation threshold: a resource busy ≥ 90 % of the steady
/// window is considered saturated.
pub const DEFAULT_SATURATION_THRESHOLD: f64 = 0.9;

impl BottleneckReport {
    /// Empty report with the given saturation threshold.
    pub fn new(threshold: f64) -> Self {
        Self {
            rows: Vec::new(),
            threshold,
        }
    }

    /// Empty report with [`DEFAULT_SATURATION_THRESHOLD`].
    pub fn with_default_threshold() -> Self {
        Self::new(DEFAULT_SATURATION_THRESHOLD)
    }

    /// Add one resource row.
    pub fn push(&mut self, usage: ResourceUsage) {
        self.rows.push(usage);
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> &[ResourceUsage] {
        &self.rows
    }

    /// The saturation threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The busiest resource, whether or not it crosses the threshold.
    ///
    /// Tie-breaking is pinned — the surge attributor names resources off
    /// this row, so two resources parked at the same utilization must
    /// resolve identically on every run and for any row order: highest
    /// utilization first, then smallest `(component, instance)` key, then
    /// insertion order. NaN utilizations never win.
    pub fn busiest(&self) -> Option<&ResourceUsage> {
        let mut best: Option<&ResourceUsage> = None;
        for r in &self.rows {
            if r.utilization.is_nan() {
                continue;
            }
            best = match best {
                None => Some(r),
                Some(b) => {
                    let wins = r.utilization > b.utilization
                        || (r.utilization == b.utilization && (r.comp, r.inst) < (b.comp, b.inst));
                    if wins {
                        Some(r)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    /// The saturated resource: the busiest row if it crosses the threshold.
    pub fn bottleneck(&self) -> Option<&ResourceUsage> {
        self.busiest().filter(|r| r.utilization >= self.threshold)
    }

    /// Rows at or above the threshold, in insertion order.
    pub fn saturated(&self) -> Vec<&ResourceUsage> {
        self.rows
            .iter()
            .filter(|r| r.utilization >= self.threshold)
            .collect()
    }

    /// The report as a table (one row per resource, busiest flagged).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "steady-window resource usage",
            vec![
                "resource".into(),
                "component".into(),
                "utilization".into(),
                "peak queue".into(),
                "saturated".into(),
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.label.clone(),
                r.comp.as_str().to_string(),
                format!("{:.3}", r.utilization),
                r.peak_queue.to_string(),
                if r.utilization >= self.threshold {
                    "yes".into()
                } else {
                    "-".into()
                },
            ]);
        }
        t
    }

    /// Terminal rendering: the table plus a one-line verdict.
    pub fn render(&self) -> String {
        let mut out = self.table().render();
        match self.bottleneck() {
            Some(b) => out.push_str(&format!(
                "bottleneck: {} (utilization {:.3} >= {:.2})\n",
                b.label, b.utilization, self.threshold
            )),
            None => {
                let verdict = match self.busiest() {
                    Some(b) => format!(
                        "no saturated resource (busiest: {} at {:.3})\n",
                        b.label, b.utilization
                    ),
                    None => "no resources reported\n".to_string(),
                };
                out.push_str(&verdict);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(label: &str, util: f64, queue: usize) -> ResourceUsage {
        ResourceUsage {
            comp: Component::Cpu,
            inst: 0,
            label: label.to_string(),
            utilization: util,
            peak_queue: queue,
        }
    }

    #[test]
    fn names_the_saturated_resource() {
        let mut r = BottleneckReport::with_default_threshold();
        r.push(usage("master cpu", 0.42, 1));
        r.push(usage("slave0 cpu", 1.31, 57));
        let b = r.bottleneck().expect("slave is saturated");
        assert_eq!(b.label, "slave0 cpu");
        assert!(r.render().contains("bottleneck: slave0 cpu"));
    }

    #[test]
    fn below_threshold_reports_busiest_only() {
        let mut r = BottleneckReport::new(0.9);
        r.push(usage("master cpu", 0.6, 0));
        r.push(usage("slave0 cpu", 0.3, 0));
        assert!(r.bottleneck().is_none());
        assert_eq!(r.busiest().unwrap().label, "master cpu");
        assert!(r.render().contains("no saturated resource"));
    }

    #[test]
    fn ties_resolve_to_first_row() {
        let mut r = BottleneckReport::new(0.5);
        r.push(usage("a", 1.0, 0));
        r.push(usage("b", 1.0, 0));
        assert_eq!(r.bottleneck().unwrap().label, "a");
    }

    #[test]
    fn ties_resolve_by_component_instance_key_not_insertion_order() {
        // Two resources pinned at identical utilization (both ≥ threshold):
        // the winner is the smallest (component, instance) key, however the
        // rows were pushed. The surge attributor depends on this.
        let keyed = |comp, inst, label: &str, util| ResourceUsage {
            comp,
            inst,
            label: label.to_string(),
            utilization: util,
            peak_queue: 0,
        };
        let mut fwd = BottleneckReport::new(0.9);
        fwd.push(keyed(Component::Cpu, 0, "master cpu", 1.0));
        fwd.push(keyed(Component::Cpu, 3, "slave2 cpu", 1.0));
        fwd.push(keyed(Component::Proxy, 0, "proxy", 1.0));
        let mut rev = BottleneckReport::new(0.9);
        rev.push(keyed(Component::Proxy, 0, "proxy", 1.0));
        rev.push(keyed(Component::Cpu, 3, "slave2 cpu", 1.0));
        rev.push(keyed(Component::Cpu, 0, "master cpu", 1.0));
        assert_eq!(fwd.bottleneck().unwrap().label, "master cpu");
        assert_eq!(rev.bottleneck().unwrap().label, "master cpu");
        // Higher utilization still beats a smaller key.
        rev.push(keyed(Component::Sql, 9, "late riser", 1.2));
        assert_eq!(rev.bottleneck().unwrap().label, "late riser");
    }

    #[test]
    fn nan_utilization_never_wins() {
        let mut r = BottleneckReport::new(0.9);
        r.push(usage("broken", f64::NAN, 0));
        r.push(usage("real", 0.95, 1));
        assert_eq!(r.bottleneck().unwrap().label, "real");
    }

    #[test]
    fn saturated_lists_all_over_threshold() {
        let mut r = BottleneckReport::new(0.9);
        r.push(usage("a", 0.95, 2));
        r.push(usage("b", 0.2, 0));
        r.push(usage("c", 1.4, 9));
        let s = r.saturated();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].label, "a");
        assert_eq!(s[1].label, "c");
    }

    #[test]
    fn empty_report_renders() {
        let r = BottleneckReport::with_default_threshold();
        assert!(r.bottleneck().is_none());
        assert!(r.render().contains("no resources reported"));
    }

    #[test]
    fn table_flags_saturation() {
        let mut r = BottleneckReport::new(0.9);
        r.push(usage("hot", 1.2, 3));
        let csv = r.table().to_csv();
        assert!(csv.contains("hot,cpu,1.200,3,yes"));
    }
}
