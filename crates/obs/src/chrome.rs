//! Chrome trace-format (Trace Event Format) JSON export.
//!
//! Emits the `{"traceEvents": [...]}` object understood by
//! `chrome://tracing` and Perfetto. Spans become complete events (`"ph":
//! "X"`), markers become instants (`"ph": "i"`), counters become counter
//! tracks (`"ph": "C"`). `pid` is the component id, `tid` the instance, so
//! the viewer groups tracks by component and then by node.
//!
//! Serialization is hand-rolled (no serde in the dependency graph) and
//! deterministic: records are emitted in recording order and floats use
//! Rust's shortest round-trip `Display`, which is a pure function of the
//! value.

use crate::trace::{FlowPhase, Record};

/// Escape a string for inclusion in a JSON string literal.
///
/// Beyond the mandatory set (quote, backslash, C0 controls), this also
/// escapes DEL and the U+2028/U+2029 line separators: both are legal in
/// JSON strings but break when the document is pasted into a JavaScript
/// context (as trace JSON routinely is), so emitting them raw would make
/// the export viewer-hostile for names containing them.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a counter value: finite floats via `Display` (shortest
/// round-trip), non-finite as 0 — Chrome's JSON parser rejects `NaN`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Serialize records (a recorder's decoded log, or any record sequence)
/// to a Chrome trace-format JSON document.
pub fn chrome_trace_json(records: impl IntoIterator<Item = Record>) -> String {
    let records = records.into_iter();
    let mut out = String::with_capacity(64 + records.size_hint().0 * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in records.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        match r {
            Record::Span {
                comp,
                inst,
                name,
                start,
                dur,
            } => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
                    escape(name),
                    comp.as_str(),
                    start.as_micros(),
                    dur.as_micros(),
                    comp.id(),
                    inst,
                ));
            }
            Record::Instant {
                comp,
                inst,
                name,
                at,
            } => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"p\"}}",
                    escape(name),
                    comp.as_str(),
                    at.as_micros(),
                    comp.id(),
                    inst,
                ));
            }
            Record::Counter {
                comp,
                inst,
                name,
                at,
                value,
            } => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"{}\":{}}}}}",
                    escape(name),
                    comp.as_str(),
                    at.as_micros(),
                    comp.id(),
                    inst,
                    escape(name),
                    num(value),
                ));
            }
            Record::Flow {
                comp,
                inst,
                name,
                at,
                id,
                phase,
            } => {
                // Flow arrows: "s" starts a chain, "t" continues it, "f"
                // ends it; `bp:"e"` binds the terminus to the enclosing
                // slice so the arrow lands on the apply span rather than
                // the next event on that track.
                let (ph, bp) = match phase {
                    FlowPhase::Start => ("s", ""),
                    FlowPhase::Step => ("t", ""),
                    FlowPhase::End => ("f", ",\"bp\":\"e\""),
                };
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{},\"id\":{}{}}}",
                    escape(name),
                    comp.as_str(),
                    ph,
                    at.as_micros(),
                    comp.id(),
                    inst,
                    id,
                    bp,
                ));
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Component;
    use amdb_sim::{SimDuration, SimTime};

    fn sample() -> Vec<Record> {
        vec![
            Record::Span {
                comp: Component::Cpu,
                inst: 1,
                name: "serve_read",
                start: SimTime::from_micros(100),
                dur: SimDuration::from_micros(250),
            },
            Record::Instant {
                comp: Component::Cluster,
                inst: 0,
                name: "steady_start",
                at: SimTime::from_micros(500),
            },
            Record::Counter {
                comp: Component::Repl,
                inst: 2,
                name: "relay_depth",
                at: SimTime::from_micros(600),
                value: 3.5,
            },
        ]
    }

    #[test]
    fn emits_all_phases() {
        let j = chrome_trace_json(sample());
        assert!(j.contains("\"ph\":\"X\",\"ts\":100,\"dur\":250,\"pid\":1,\"tid\":1"));
        assert!(j.contains("\"ph\":\"i\",\"ts\":500"));
        assert!(j.contains("\"args\":{\"relay_depth\":3.5}"));
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn output_is_reproducible() {
        assert_eq!(chrome_trace_json(sample()), chrome_trace_json(sample()));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn hostile_names_stay_inside_their_json_string() {
        // A name crafted to break out of the JSON string literal: embedded
        // quote + key/value forgery, raw backslash, every short-form
        // control, DEL, and the JS line separators.
        let hostile = "x\",\"pid\":666,\"y\":\"\\ \n\r\t\u{8}\u{c}\u{0}\u{7f}\u{2028}\u{2029}z";
        let escaped = escape(hostile);
        assert_eq!(
            escaped,
            "x\\\",\\\"pid\\\":666,\\\"y\\\":\\\"\\\\ \\n\\r\\t\\b\\f\\u0000\\u007f\\u2028\\u2029z"
        );
        // No unescaped quote or control survives: the literal cannot be
        // terminated early and the document stays on one line per record.
        let mut prev_backslash = false;
        for c in escaped.chars() {
            assert!(!c.is_control() && c != '\u{2028}' && c != '\u{2029}');
            if c == '"' {
                assert!(prev_backslash, "bare quote escaped the string literal");
            }
            prev_backslash = c == '\\' && !prev_backslash;
        }
        // And the full record round-trips structurally: one "pid" key only.
        let r = [Record::Instant {
            comp: Component::Cluster,
            inst: 0,
            name: Box::leak(hostile.to_string().into_boxed_str()),
            at: SimTime::ZERO,
        }];
        let j = chrome_trace_json(r);
        assert_eq!(j.matches("\"pid\":").count(), 1);
    }

    #[test]
    fn flow_records_export_as_arrow_chain() {
        let r = [
            Record::Flow {
                comp: Component::Cpu,
                inst: 0,
                name: "writeset",
                at: SimTime::from_micros(10),
                id: 42,
                phase: FlowPhase::Start,
            },
            Record::Flow {
                comp: Component::Repl,
                inst: 1,
                name: "writeset",
                at: SimTime::from_micros(30),
                id: 42,
                phase: FlowPhase::Step,
            },
            Record::Flow {
                comp: Component::Repl,
                inst: 1,
                name: "writeset",
                at: SimTime::from_micros(55),
                id: 42,
                phase: FlowPhase::End,
            },
        ];
        let j = chrome_trace_json(r);
        assert!(j.contains("\"ph\":\"s\",\"ts\":10,\"pid\":1,\"tid\":0,\"id\":42"));
        assert!(j.contains("\"ph\":\"t\",\"ts\":30,\"pid\":4,\"tid\":1,\"id\":42"));
        assert!(j.contains("\"ph\":\"f\",\"ts\":55,\"pid\":4,\"tid\":1,\"id\":42,\"bp\":\"e\""));
    }

    #[test]
    fn non_finite_counters_sanitized() {
        let r = [Record::Counter {
            comp: Component::Pool,
            inst: 0,
            name: "x",
            at: SimTime::ZERO,
            value: f64::NAN,
        }];
        let j = chrome_trace_json(r);
        assert!(j.contains("\"args\":{\"x\":0}"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let j = chrome_trace_json(std::iter::empty());
        assert!(j.contains("\"traceEvents\":["));
    }
}
