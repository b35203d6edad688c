//! Per-rank span tracer for the simulated NekRS/SENSEI stack.
//!
//! Instrumented code opens named, nestable spans (`sem/pressure`,
//! `transport/send`, `render/composite`, ...) whose start/end stamps are
//! read from the owning rank's **virtual clock**, never a wall clock.
//! Spans feed two sinks:
//!
//! * [`crate::chrome::chrome_trace_json`] — a Chrome trace-event array
//!   loadable in Perfetto / `chrome://tracing`, one track per rank;
//! * [`PhaseBreakdown`] — an in-memory per-rank aggregation
//!   (count / total / max per span name) used by the figure harnesses to
//!   attribute virtual wall time to pipeline phases.
//!
//! Design constraints honored here:
//!
//! * **Near-zero overhead when disabled.** A disabled [`Tracer`] is a
//!   `None`; `span()` is a branch and returns an inert guard.
//! * **Unwind safety.** Spans close from RAII guards. Fault-injected
//!   runs unwind rank threads mid-span, so guards may drop in any order
//!   and with the tracer's lock poisoned; `SpanGuard::drop` must never
//!   panic or deadlock. Closing a span force-closes any still-open
//!   descendants, and a second close of the same id is a no-op.

use crate::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Trace-context words (cross-rank causality)
// ---------------------------------------------------------------------------

/// Bit layout of a packed trace-context word (`0` = no context):
///
/// ```text
/// [63]    present flag (1)
/// [60:63] pid (3 bits: 0 = simulation world, 1 = endpoint world, …)
/// [40:60] rank (20 bits, up to ~1M virtual ranks)
/// [0:40]  span id within that rank's tracer (40 bits)
/// ```
///
/// The word rides on every commsim message/collective and on transport
/// wire frames; it never feeds any clock computation, so carrying it is
/// bitwise-invisible to the simulation.
const CTX_PRESENT: u64 = 1 << 63;
const CTX_PID_SHIFT: u32 = 60;
const CTX_PID_MASK: u64 = 0x7;
const CTX_RANK_SHIFT: u32 = 40;
const CTX_RANK_MASK: u64 = 0xf_ffff;
const CTX_SPAN_MASK: u64 = (1 << 40) - 1;

/// Pack a (pid, rank, span id) triple into a context word.
pub fn pack_ctx(pid: u32, rank: usize, span: u64) -> u64 {
    CTX_PRESENT
        | ((pid as u64 & CTX_PID_MASK) << CTX_PID_SHIFT)
        | ((rank as u64 & CTX_RANK_MASK) << CTX_RANK_SHIFT)
        | (span & CTX_SPAN_MASK)
}

/// Unpack a context word into (pid, rank, span id); `None` when the
/// word is 0 (sender untraced).
pub fn unpack_ctx(ctx: u64) -> Option<(u32, usize, u64)> {
    if ctx & CTX_PRESENT == 0 {
        return None;
    }
    Some((
        ((ctx >> CTX_PID_SHIFT) & CTX_PID_MASK) as u32,
        ((ctx >> CTX_RANK_SHIFT) & CTX_RANK_MASK) as usize,
        ctx & CTX_SPAN_MASK,
    ))
}

/// What kind of channel carried a happens-before edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// In-world point-to-point message (`Comm::send` → `Comm::recv`).
    Message,
    /// In-world collective: the edge points at the critical contributor
    /// (the last rank to arrive, lowest rank among ties).
    Collective,
    /// Cross-world staged wire frame (the SST-analogue transport).
    Wire,
}

impl EdgeKind {
    /// Stable label used by the JSON serializations.
    pub fn label(&self) -> &'static str {
        match self {
            EdgeKind::Message => "message",
            EdgeKind::Collective => "collective",
            EdgeKind::Wire => "wire",
        }
    }
}

/// One happens-before edge, recorded on the **receiving** rank.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalEdge {
    /// Sender context word ([`pack_ctx`]); 0 when the sender was
    /// untraced.
    pub src: u64,
    /// Innermost span open on the receiver when the edge landed (its
    /// local id), or `u64::MAX` when none was open.
    pub dst_span: u64,
    /// Sender's virtual clock when the payload left it.
    pub t_send: f64,
    /// Virtual time the payload became available (the receiver resumed
    /// here when the edge is binding).
    pub t_ready: f64,
    /// Receiver's virtual clock when it matched the payload (before any
    /// advance).
    pub t_recv: f64,
    /// True when `t_ready > t_recv`: the edge advanced the receiver's
    /// clock, i.e. the receiver genuinely waited on the sender.
    pub binding: bool,
    /// Channel that carried the edge.
    pub kind: EdgeKind,
}

/// A span still on the stack.
struct OpenSpan {
    id: u64,
    name: String,
    start: f64,
    /// Inclusive time of already-closed direct children, used to compute
    /// this span's exclusive (self) time at close.
    child_time: f64,
}

/// A completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Id unique within this rank's tracer (referenced by context words
    /// and [`CausalEdge::dst_span`]).
    pub id: u64,
    /// Taxonomy name, e.g. `"transport/send"`.
    pub name: String,
    /// Start stamp (virtual seconds).
    pub start: f64,
    /// End stamp.
    pub end: f64,
    /// Nesting depth at open time (0 = root).
    pub depth: u32,
    /// Exclusive time: duration minus time spent in direct children.
    pub self_time: f64,
}

impl Span {
    /// Inclusive duration.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Everything one rank recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// Process id for grouping tracks (0 = simulation world,
    /// 1 = endpoint world in in-transit runs).
    pub pid: u32,
    /// Rank within that world.
    pub rank: usize,
    /// Stamp at which the trace was taken (virtual wall time of the rank).
    pub end: f64,
    /// Completed spans in close order.
    pub spans: Vec<Span>,
    /// Happens-before edges observed by this rank as a receiver, in the
    /// order they were recorded (chronological in virtual time).
    pub edges: Vec<CausalEdge>,
}

struct TracerState {
    next_id: u64,
    open: Vec<OpenSpan>,
    closed: Vec<Span>,
    edges: Vec<CausalEdge>,
}

struct Inner {
    pid: u32,
    rank: usize,
    /// Bits of an `f64` published by the owning rank's virtual clock
    /// after every clock mutation.
    clock: Arc<AtomicU64>,
    /// Taken through [`lock`], which swallows poison: a rank thread that
    /// unwinds while holding it must not wedge the guards that drop next.
    state: Mutex<TracerState>,
}

impl Inner {
    fn now(&self) -> f64 {
        f64::from_bits(self.clock.load(Ordering::Relaxed))
    }
}

impl TracerState {
    /// Close every open span from stack position `pos` up at `now`:
    /// descendants first (deeper entries sit above `pos`), then the span
    /// at `pos`, charging each closed child's inclusive time to its
    /// parent so self-time stays exclusive.
    fn close_from(&mut self, pos: usize, now: f64) {
        while self.open.len() > pos {
            let span = self.open.pop().expect("len > pos >= 0");
            let depth = self.open.len() as u32;
            let inclusive = (now - span.start).max(0.0);
            if let Some(parent) = self.open.last_mut() {
                parent.child_time += inclusive;
            }
            let self_time = (inclusive - span.child_time).max(0.0);
            self.closed.push(Span {
                id: span.id,
                name: span.name,
                start: span.start,
                end: now,
                depth,
                self_time,
            });
        }
    }
}

/// Handle for opening spans. Cheap to clone (an `Arc` when enabled, a
/// `None` when disabled); guards hold a clone, so they outlive any
/// borrow of the structure that owns the tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Tracer")
                .field("pid", &inner.pid)
                .field("rank", &inner.rank)
                .finish(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing; `span()` is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A tracer reading stamps from `time_cell` (f64 bits, published by
    /// the rank's virtual clock).
    pub fn virtual_clock(pid: u32, rank: usize, time_cell: Arc<AtomicU64>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                pid,
                rank,
                clock: time_cell,
                state: Mutex::new(TracerState {
                    next_id: 0,
                    open: Vec::new(),
                    closed: Vec::new(),
                    edges: Vec::new(),
                }),
            })),
        }
    }

    /// The packed context word identifying this rank's innermost open
    /// span ([`pack_ctx`]); 0 when disabled. Senders stamp this onto
    /// outgoing messages so receivers can record happens-before edges.
    pub fn ctx_word(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let st = lock(&inner.state);
        let span = st.open.last().map(|s| s.id).unwrap_or(CTX_SPAN_MASK);
        pack_ctx(inner.pid, inner.rank, span)
    }

    /// Record a happens-before edge observed by this rank as a receiver.
    /// `src` is the sender's context word (0 when untraced), `t_send`
    /// the sender's clock at send, `t_ready` when the payload became
    /// available, and `t_recv` the receiver's clock at match time
    /// (before any advance). No-op when the tracer is disabled; never
    /// touches any clock.
    pub fn record_edge(&self, src: u64, t_send: f64, t_ready: f64, t_recv: f64, kind: EdgeKind) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        let dst_span = st.open.last().map(|s| s.id).unwrap_or(u64::MAX);
        st.edges.push(CausalEdge {
            src,
            dst_span,
            t_send,
            t_ready,
            t_recv,
            binding: t_ready > t_recv,
            kind,
        });
    }

    /// Open a span; it closes when the returned guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: Tracer::disabled(),
                id: 0,
            };
        };
        let id = {
            let mut st = lock(&inner.state);
            let id = st.next_id;
            st.next_id += 1;
            let start = inner.now();
            st.open.push(OpenSpan {
                id,
                name: name.to_string(),
                start,
                child_time: 0.0,
            });
            id
        };
        SpanGuard {
            tracer: self.clone(),
            id,
        }
    }

    /// Close `id` and any still-open spans nested inside it. A stale id
    /// (already closed by an ancestor's out-of-order drop) is a no-op.
    fn close(&self, id: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        let Some(pos) = st.open.iter().position(|s| s.id == id) else {
            return;
        };
        st.close_from(pos, inner.now());
    }

    /// Force-close any open spans and return everything recorded so far,
    /// or `None` for a disabled tracer. The tracer is left empty and
    /// reusable.
    pub fn take(&self) -> Option<RankTrace> {
        let inner = self.inner.as_ref()?;
        let mut st = lock(&inner.state);
        let now = inner.now();
        st.close_from(0, now);
        let spans = std::mem::take(&mut st.closed);
        let edges = std::mem::take(&mut st.edges);
        Some(RankTrace {
            pid: inner.pid,
            rank: inner.rank,
            end: now,
            spans,
            edges,
        })
    }
}

/// RAII handle closing its span on drop. Dropping out of order is safe:
/// an outer guard dropped first closes the inner spans too, and the
/// inner guards' later drops are no-ops.
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    tracer: Tracer,
    id: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.tracer.close(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(t: f64) -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(t.to_bits()))
    }

    fn set(c: &Arc<AtomicU64>, t: f64) {
        c.store(t.to_bits(), Ordering::Relaxed);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _g = t.span("a");
            let _h = t.span("b");
        }
        assert!(t.take().is_none());
    }

    #[test]
    fn nested_spans_get_depth_and_self_time() {
        let c = cell(0.0);
        let t = Tracer::virtual_clock(0, 3, Arc::clone(&c));
        {
            let _outer = t.span("outer");
            set(&c, 1.0);
            {
                let _inner = t.span("inner");
                set(&c, 4.0);
            }
            set(&c, 5.0);
        }
        let trace = t.take().unwrap();
        assert_eq!(trace.rank, 3);
        assert_eq!(trace.spans.len(), 2);
        let inner = &trace.spans[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.depth, 1);
        assert!((inner.self_time - 3.0).abs() < 1e-12);
        let outer = &trace.spans[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert!((outer.duration() - 5.0).abs() < 1e-12);
        // 5.0 total minus 3.0 in the child.
        assert!((outer.self_time - 2.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_drop_is_safe_and_idempotent() {
        let c = cell(0.0);
        let t = Tracer::virtual_clock(0, 0, Arc::clone(&c));
        let outer = t.span("outer");
        set(&c, 1.0);
        let inner = t.span("inner");
        set(&c, 2.0);
        // Outer drops first (simulates unwind reordering / mem::forget
        // patterns); it must close inner too.
        drop(outer);
        set(&c, 9.0);
        drop(inner); // stale id: no-op, must not panic
        let trace = t.take().unwrap();
        assert_eq!(trace.spans.len(), 2);
        for s in &trace.spans {
            assert!(s.end <= 2.0 + 1e-12, "{} closed late: {}", s.name, s.end);
        }
    }

    #[test]
    fn take_force_closes_open_spans() {
        let c = cell(0.0);
        let t = Tracer::virtual_clock(0, 0, Arc::clone(&c));
        let g = t.span("leaked");
        set(&c, 2.5);
        let trace = t.take().unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert!((trace.spans[0].duration() - 2.5).abs() < 1e-12);
        assert!((trace.end - 2.5).abs() < 1e-12);
        drop(g); // closes an id that no longer exists: no-op
        assert!(t.take().unwrap().spans.is_empty());
    }

    #[test]
    fn drop_survives_poisoned_lock() {
        let c = cell(0.0);
        let t = Tracer::virtual_clock(0, 0, Arc::clone(&c));
        let t2 = t.clone();
        // Poison the state mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _g = t2.inner.as_ref().unwrap().state.lock().unwrap();
            panic!("poison the tracer lock");
        })
        .join();
        {
            let _g = t.span("after-poison");
            set(&c, 1.0);
        }
        let trace = t.take().unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "after-poison");
    }

    #[test]
    fn ctx_words_round_trip_and_identify_the_open_span() {
        assert_eq!(unpack_ctx(0), None);
        let (pid, rank, span) = unpack_ctx(pack_ctx(1, 1119, 7)).unwrap();
        assert_eq!((pid, rank, span), (1, 1119, 7));

        let c = cell(0.0);
        let t = Tracer::virtual_clock(1, 5, Arc::clone(&c));
        assert!(Tracer::disabled().ctx_word() == 0);
        {
            let _a = t.span("a");
            let (pid, rank, span) = unpack_ctx(t.ctx_word()).unwrap();
            assert_eq!((pid, rank), (1, 5));
            let trace_span = {
                set(&c, 1.0);
                span
            };
            drop(_a);
            let trace = t.take().unwrap();
            assert_eq!(trace.spans[0].id, trace_span);
        }
    }

    #[test]
    fn edges_capture_binding_and_reset_on_take() {
        let c = cell(2.0);
        let t = Tracer::virtual_clock(0, 1, Arc::clone(&c));
        let g = t.span("recv");
        // Binding: payload ready after the receiver started waiting.
        t.record_edge(pack_ctx(0, 0, 9), 1.0, 3.0, 2.0, EdgeKind::Message);
        // Non-binding: payload was already waiting.
        t.record_edge(pack_ctx(0, 0, 10), 0.5, 1.5, 2.0, EdgeKind::Message);
        drop(g);
        let trace = t.take().unwrap();
        assert_eq!(trace.edges.len(), 2);
        assert!(trace.edges[0].binding);
        assert_eq!(trace.edges[0].dst_span, trace.spans[0].id);
        assert_eq!(unpack_ctx(trace.edges[0].src), Some((0, 0, 9)));
        assert!(!trace.edges[1].binding);
        assert!(t.take().unwrap().edges.is_empty(), "take drains edges");
        // Disabled tracers ignore edges entirely.
        Tracer::disabled().record_edge(0, 0.0, 1.0, 0.0, EdgeKind::Wire);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let c = cell(0.0);
        let t = Tracer::virtual_clock(0, 0, Arc::clone(&c));
        {
            let _a = t.span("a");
            set(&c, 1.0);
        }
        {
            let _b = t.span("b");
            set(&c, 3.0);
        }
        let trace = t.take().unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert!(trace.spans.iter().all(|s| s.depth == 0));
        let b = trace.spans.iter().find(|s| s.name == "b").unwrap();
        assert!((b.self_time - 2.0).abs() < 1e-12);
    }
}
