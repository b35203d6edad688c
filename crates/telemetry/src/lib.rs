//! The observability plane of the NekRS-SENSEI reproduction: one crate,
//! one path per type.
//!
//! Four layers, all driven by the **virtual clock** (never the wall
//! clock, so observation can never perturb the deterministic timings it
//! observes):
//!
//! 1. **Typed instruments** ([`Counter`], [`Gauge`], [`Histogram`])
//!    registered under hierarchical names (`rank3/transport/retries`)
//!    on a shared [`TelemetryHub`]. Handles are cheap clones of atomics:
//!    registration takes a short mutex once, every subsequent update is
//!    a lock-free atomic op. A handle obtained from a disabled
//!    [`RankTelemetry`] is a no-op, so producer code stays branch-free.
//! 2. **Flight recorder**: a fixed-capacity ring buffer of per-step
//!    [`StepSample`]s (what simulation rank 0 reads on its own clock:
//!    step window, snapshot-pool bytes, backpressure wait) plus a
//!    structured [`Event`] log (fault injections, circuit-breaker opens,
//!    engine switches, checkpoint writes) with virtual timestamps.
//! 3. **[`RunReport`]**: one serializable artifact per run — manifest,
//!    final metric values, the time series, and the event log — written
//!    by `--report-out` on the figure harnesses and read back by the
//!    `nekstat` bin.
//! 4. **Spans and causal edges**: a per-rank [`Tracer`] of nested spans
//!    and happens-before edges, aggregated into a [`PhaseBreakdown`]
//!    and walked by [`critical::analyze`] into the per-step critical
//!    path.
//!
//! [`json`] is the workspace's one JSON reader and writer (it has no
//! serde): every `nekstat/*/v1` document is written through it, and so is
//! the Chrome trace-event export in [`chrome`].
//!
//! The crate is substrate-free (std only): `commsim` carries a
//! [`RankTelemetry`] and a [`Tracer`] per rank and stamps both with its
//! clock, while `core::workflow` owns the hub and collects the report.

mod breakdown;
mod instruments;
mod recorder;
mod report;
mod tracer;

pub mod chrome;
pub mod critical;
pub mod json;

pub use breakdown::{PhaseBreakdown, PhaseStat, RankPhases};
pub use instruments::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, TelemetryHub};
pub use recorder::{Event, EventKind, FlightRecorder, StepSample};
pub use report::{Manifest, MemorySummary, RunReport, REPORT_SCHEMA};
pub use tracer::{pack_ctx, unpack_ctx, CausalEdge, EdgeKind, RankTrace, Span, SpanGuard, Tracer};

use std::sync::{Arc, Mutex, MutexGuard};

/// Lock `m` whether or not a holder panicked: observation must never
/// abort or wedge a run that a panicking rank already aborted.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sum from `+0.0`: `f64`'s `Sum` starts at `-0.0`, so a sum of nothing
/// would reach a report as `-0.0`.
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |acc, v| acc + v)
}

/// Per-rank handle onto a [`TelemetryHub`]: prefixes instrument names
/// with the rank scope and stamps events with pid/rank identity.
///
/// `Default` is the **disabled** handle: every method is a no-op and
/// every instrument it hands out is a no-op, so instrumented code paths
/// need no `if telemetry_enabled` branches.
#[derive(Clone, Default)]
pub struct RankTelemetry {
    inner: Option<Arc<RankScope>>,
}

struct RankScope {
    hub: TelemetryHub,
    prefix: String,
    pid: u32,
    rank: usize,
}

impl RankTelemetry {
    /// An enabled handle scoped to `rank` of world `pid`. Pid 0 (the
    /// simulation world) scopes names under `rank{r}/`; any other pid
    /// (the in-transit endpoint world) under `endpoint{r}/`, so the two
    /// worlds — which both number their ranks from zero — cannot
    /// collide in the hub's namespace.
    pub fn new(hub: &TelemetryHub, pid: u32, rank: usize) -> Self {
        let prefix = if pid == 0 {
            format!("rank{rank}/")
        } else {
            format!("endpoint{rank}/")
        };
        Self {
            inner: Some(Arc::new(RankScope {
                hub: hub.clone(),
                prefix,
                pid,
                rank,
            })),
        }
    }

    /// True when this handle feeds a live hub.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Monotonic counter `prefix + name` (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(s) => s.hub.counter(&format!("{}{name}", s.prefix)),
            None => Counter::disabled(),
        }
    }

    /// Gauge `prefix + name` (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(s) => s.hub.gauge(&format!("{}{name}", s.prefix)),
            None => Gauge::disabled(),
        }
    }

    /// Log-linear histogram `prefix + name` (no-op when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(s) => s.hub.histogram(&format!("{}{name}", s.prefix)),
            None => Histogram::disabled(),
        }
    }

    /// Append a structured event at virtual time `at`.
    pub fn event(&self, at: f64, kind: EventKind, step: Option<u64>, detail: impl Into<String>) {
        if let Some(s) = &self.inner {
            s.hub.push_event(Event {
                at,
                pid: s.pid,
                rank: s.rank,
                step,
                kind,
                detail: detail.into(),
            });
        }
    }

    /// The hub behind this handle, if enabled.
    pub fn hub(&self) -> Option<&TelemetryHub> {
        self.inner.as_ref().map(|s| &s.hub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = RankTelemetry::default();
        assert!(!t.enabled());
        let c = t.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = t.gauge("y");
        g.set(3.0);
        assert_eq!(g.get(), 0.0);
        let h = t.histogram("z");
        h.observe(1.0);
        assert_eq!(h.snapshot().count, 0);
        t.event(1.0, EventKind::FaultInjected, None, "ignored");
    }

    #[test]
    fn rank_scope_prefixes_names_by_world() {
        let hub = TelemetryHub::default();
        let sim = RankTelemetry::new(&hub, 0, 3);
        let ep = RankTelemetry::new(&hub, 1, 3);
        sim.counter("transport/retries").add(2);
        ep.counter("transport/retries").add(7);
        let metrics = hub.metrics_snapshot();
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["endpoint3/transport/retries", "rank3/transport/retries"]
        );
        assert_eq!(hub.counter("rank3/transport/retries").get(), 2);
        assert_eq!(hub.counter("endpoint3/transport/retries").get(), 7);
    }

    #[test]
    fn events_carry_identity_and_sort_by_time() {
        let hub = TelemetryHub::default();
        let t0 = RankTelemetry::new(&hub, 0, 0);
        let t1 = RankTelemetry::new(&hub, 1, 2);
        t1.event(2.5, EventKind::EndpointCrash, Some(4), "crash");
        t0.event(1.0, EventKind::CheckpointWrite, Some(2), "fld");
        let events = hub.take_events_sorted();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, 1.0);
        assert_eq!(events[0].kind, EventKind::CheckpointWrite);
        assert_eq!(events[1].pid, 1);
        assert_eq!(events[1].rank, 2);
    }
}
