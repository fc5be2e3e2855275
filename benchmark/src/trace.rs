//! Harness-side spans (choosing-metrics §4): recorded from the benchmark's
//! own files around the public calls into each crate, kept in memory, and
//! written out when the run ends. Spans inside the program are a later PR.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Cell label (or empty): distinguishes spans of one name.
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Small per-thread number (the executor's workers differ).
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink. `off()` records nothing and never reads the clock, so the
/// untraced reps run the exact code path of the traced one minus the spans.
pub struct Tracer {
    t0: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            t0: Instant::now(),
            spans: None,
        }
    }

    pub fn on() -> Self {
        Self {
            t0: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished interval the caller timed itself.
    pub fn record(
        &self,
        name: &'static str,
        detail: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("no span writer panics mid-push");
        spans.push(Span {
            name,
            detail: detail.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            tid: thread_number(),
        });
        Some(spans.len() - 1)
    }

    /// Run `f` inside a span; `f` gets the span's id to parent children on.
    /// The span is opened before `f` so children can name it, and closed
    /// after — a panic in `f` leaves it zero-length, which is harmless.
    pub fn scope<R>(
        &self,
        name: &'static str,
        detail: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(spans) = self.spans.as_ref() else {
            return f(None);
        };
        let start = Instant::now();
        let id = self.record(name, detail, parent, start, start);
        let out = f(id);
        let end = self.ns(Instant::now());
        if let Some(id) = id {
            spans.lock().expect("no span writer panics mid-push")[id].end_ns = end;
        }
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(s) => s.lock().expect("no span writer panics mid-push").clone(),
            None => Vec::new(),
        }
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// covered by the *union* of its children (children of a parallel section
/// overlap each other; counting them twice would make self time negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// `(count, total ns, self ns)` per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Chrome trace (`chrome://tracing`, Perfetto): one complete event per span.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\",\"detail\":\"{}\"}}}}",
            json_escape(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            json_escape(workload),
            json_escape(&s.detail),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            detail: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover [10, 60); a third is disjoint.
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 70, 80, Some(0)),
            // A child that spills past its parent is clipped to it.
            span("d", 90, 140, Some(0)),
            // Grandchild only affects its own parent.
            span("e", 12, 20, Some(1)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - (50 + 10 + 10));
        assert_eq!(selfs[1], 40 - 8);
        assert_eq!(selfs[2], 30);
        let agg = by_name(&spans);
        assert_eq!(agg["root"], (1, 100, 30));
        assert_eq!(agg["a"], (1, 40, 32));
    }

    #[test]
    fn off_tracer_records_nothing_and_on_tracer_nests() {
        let off = Tracer::off();
        assert_eq!(off.scope("x", "", None, |id| id), None);
        assert!(off.spans().is_empty());

        let on = Tracer::on();
        on.scope("outer", "cell", None, |outer| {
            on.scope("inner", "", outer, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_json(&spans, "w");
        assert!(json.contains("\"name\":\"outer\"") && json.contains("\"detail\":\"cell\""));
    }
}
