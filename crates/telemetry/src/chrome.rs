//! Chrome trace-event export.
//!
//! Emits the JSON array flavor of the trace-event format — loadable in
//! Perfetto and `chrome://tracing` — with one process per world (pid 0 =
//! simulation ranks, pid 1 = endpoint ranks) and one thread track per
//! rank. Stamps are virtual seconds converted to integer microseconds.
//! Written through [`crate::json`], one event a line.

use crate::json::{self, Obj};
use trace::{RankTrace, Span};

fn micros(t: f64) -> u64 {
    (t.max(0.0) * 1e6).round() as u64
}

fn process_name(pid: u32) -> &'static str {
    match pid {
        0 => "simulation",
        1 => "endpoint",
        _ => "aux",
    }
}

/// One trace event.
enum Record<'a> {
    Process(u32),
    Thread(&'a RankTrace),
    Span(&'a RankTrace, &'a Span),
}

/// A `"M"` (metadata) event naming track `(pid, tid)`.
fn metadata(o: &mut Obj<'_>, what: &str, pid: u32, tid: usize, label: &str) {
    o.text("name", what)
        .text("ph", "M")
        .uint("pid", pid.into())
        .uint("tid", tid as u64)
        .obj("args", |o| {
            o.text("name", label);
        });
}

/// Render `traces` as a Chrome trace-event JSON array: `"M"` metadata
/// naming each process and rank track, then one `"X"` (complete) event
/// per span.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let mut pids: Vec<u32> = traces.iter().map(|t| t.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    let mut ordered: Vec<&RankTrace> = traces.iter().collect();
    ordered.sort_by_key(|t| (t.pid, t.rank));

    let records = pids
        .into_iter()
        .map(Record::Process)
        .chain(ordered.iter().map(|t| Record::Thread(t)))
        .chain(
            ordered
                .iter()
                .flat_map(|t| t.spans.iter().map(move |s| Record::Span(t, s))),
        );
    json::array(records, |o, record| match record {
        Record::Process(pid) => metadata(o, "process_name", pid, 0, process_name(pid)),
        Record::Thread(t) => metadata(o, "thread_name", t.pid, t.rank, &format!("rank {}", t.rank)),
        Record::Span(t, s) => {
            o.text("name", &s.name)
                .text("cat", s.name.split('/').next().unwrap_or("span"))
                .text("ph", "X")
                .uint("ts", micros(s.start))
                .uint("dur", micros(s.duration()))
                .uint("pid", t.pid.into())
                .uint("tid", t.rank as u64);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(pid: u32, rank: usize) -> RankTrace {
        RankTrace {
            pid,
            rank,
            end: 2.0,
            spans: vec![Span {
                id: 0,
                name: "sem/pressure".to_string(),
                start: 0.5,
                end: 1.5,
                depth: 0,
                self_time: 1.0,
            }],
            edges: vec![],
        }
    }

    #[test]
    fn emits_metadata_and_complete_events() {
        let json = chrome_trace_json(&[trace(0, 0), trace(0, 1), trace(1, 0)]);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches(r#""ph":"X""#).count(), 3);
        assert_eq!(json.matches(r#""name":"thread_name""#).count(), 3);
        assert_eq!(json.matches(r#""name":"process_name""#).count(), 2);
        assert!(json.contains(r#""ts":500000"#));
        assert!(json.contains(r#""dur":1000000"#));
        // Balanced braces — cheap structural sanity for the hand-rolled JSON.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn escapes_special_characters() {
        let mut t = trace(0, 0);
        t.spans[0].name = "weird\"name\\with\ncontrol\u{1}".to_string();
        let json = chrome_trace_json(&[t]);
        assert!(json.contains(r#"weird\"name\\with\ncontrol"#));
        assert!(json.contains(r#"control\u0001"#));
    }

    #[test]
    fn empty_input_is_valid_array() {
        assert_eq!(chrome_trace_json(&[]), "[\n]");
    }
}
