//! Benchmark-owned wall-clock spans around calls into the product.
//!
//! A span is opened where nekbench calls into a layer (crate) and closed
//! when the call returns; its name is `<layer>.<call>`. Spans are kept in
//! memory and written out once, at exit. A span's parent is the span open
//! on the same thread when it started, so a layer's self time is its
//! span minus its children.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open: `end_us == start_us`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created.
    pub end_us: f64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Simulation step the call served (0 outside the step loop).
    pub step: u64,
}

impl Span {
    /// Wall time between start and end, in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The layer (crate) the call went into: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Innermost open span on this thread.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Collects spans from any thread; `off()` records nothing, so the same
/// loop can be timed with and without tracing.
pub struct Recorder {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Self {
            origin: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// A recorder whose spans cost one branch and record nothing.
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            spans: None,
        }
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, step: u64) -> SpanGuard<'_> {
        let Some(spans) = &self.spans else {
            return SpanGuard {
                recorder: self,
                index: None,
                parent: None,
            };
        };
        let parent = CURRENT.with(Cell::get);
        let now = self.now_us();
        let mut spans = spans.lock().expect("a span holder panicked");
        spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            step,
        });
        let index = spans.len() - 1;
        CURRENT.with(|c| c.set(Some(index)));
        SpanGuard {
            recorder: self,
            index: Some(index),
            parent,
        }
    }

    /// Every span recorded so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        match &self.spans {
            Some(spans) => std::mem::take(&mut *spans.lock().expect("a span holder panicked")),
            None => Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    index: Option<usize>,
    parent: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(spans)) = (self.index, &self.recorder.spans) else {
            return;
        };
        let now = self.recorder.now_us();
        // A poisoned lock means a span holder already panicked; the trace
        // is lost either way and Drop must not panic on top of it.
        if let Ok(mut spans) = spans.lock() {
            if let Some(span) = spans.get_mut(index) {
                span.end_us = now;
            }
        }
        CURRENT.with(|c| c.set(self.parent));
    }
}

/// Self time of every span, in microseconds: its duration minus the
/// durations of its direct children.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.duration_us();
        }
    }
    own
}

/// Count, total and self time (ms) per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ms.
    pub total_ms: f64,
    /// Summed self times, ms.
    pub self_ms: f64,
}

/// Aggregate `spans` by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times_us(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, own_us) in spans.iter().zip(own) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ms += span.duration_us() / 1e3;
        t.self_ms += own_us / 1e3;
    }
    out
}

/// Summed self time (ms) per layer.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times_us(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, own_us) in spans.iter().zip(own) {
        *out.entry(span.layer()).or_default() += own_us / 1e3;
    }
    out
}

/// Durations (ms) of every span called `name`, in start order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_us() / 1e3)
        .collect()
}

/// The trace document written at exit.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    use crate::surface::json::{push_f64, push_str};
    let mut out = String::from("{\"workload\": ");
    push_str(&mut out, workload);
    out.push_str(", \"unit\": \"us\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str("  {\"id\": ");
        out.push_str(&i.to_string());
        out.push_str(", \"name\": ");
        push_str(&mut out, s.name);
        out.push_str(", \"start\": ");
        push_f64(&mut out, s.start_us);
        out.push_str(", \"end\": ");
        push_f64(&mut out, s.end_us);
        out.push_str(", \"parent\": ");
        match s.parent {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(", \"step\": ");
        out.push_str(&s.step.to_string());
        out.push_str(if i + 1 < spans.len() { "},\n" } else { "}\n" });
    }
    out.push_str("]}\n");
    out
}

/// Write a traced run's spans to `.nekbench/<workload>.trace.json`.
pub fn write_trace(workload: &str, spans: &[Span]) {
    if spans.is_empty() {
        return;
    }
    let path = crate::host::work_dir().join(format!("{workload}.trace.json"));
    match std::fs::write(&path, to_json(workload, spans)) {
        Ok(()) => println!("  wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => println!("  note: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("bench.loop", 0.0, 100.0, None),
            span("insitu.update", 10.0, 70.0, Some(0)),
            span("render.execute", 20.0, 60.0, Some(1)),
            span("sem.step", 70.0, 95.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![15.0, 20.0, 40.0, 25.0]);
        let layers = self_ms_by_layer(&spans);
        assert_eq!(layers["render"], 0.04);
        // Self times partition the root: nothing is counted twice.
        let sum: f64 = self_times_us(&spans).iter().sum();
        assert_eq!(sum, 100.0);
    }

    #[test]
    fn recorder_nests_spans_per_thread_and_off_records_nothing() {
        let rec = Recorder::on();
        {
            let _root = rec.span("bench.loop", 0);
            {
                let _a = rec.span("sem.step", 1);
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _other = rec.span("transport.endpoint_run", 0);
                });
            });
            let _b = rec.span("sem.step", 2);
        }
        let spans = rec.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None, "another thread starts its own tree");
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[3].step, 2);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        assert_eq!(totals_by_name(&spans)["sem.step"].count, 2);

        let off = Recorder::off();
        drop(off.span("sem.step", 1));
        assert!(off.take().is_empty());
    }

    #[test]
    fn trace_document_parses() {
        let spans = vec![
            span("bench.loop", 0.0, 9.5, None),
            span("sem.step", 1.0, 2.0, Some(0)),
        ];
        let doc = crate::surface::json::parse(&to_json("insitu_sync", &spans)).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("insitu_sync"));
        let arr = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(arr[1].get("end").unwrap().as_f64(), Some(2.0));
    }
}
