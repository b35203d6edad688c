//! Typed instruments and the hub that registers them.
//!
//! Lock discipline: the hub's name→instrument map is behind a mutex,
//! taken once per `counter()`/`gauge()`/`histogram()` lookup. The
//! returned handles share atomics with the hub, so the hot path
//! (increment / set / observe) never touches a lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{Obj, Value};
use crate::lock;
use crate::recorder::{Event, FlightRecorder, StepSample};

/// Monotonic counter. Cloning shares the underlying atomic; the
/// `disabled` variant ignores updates and reads zero.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Self { cell: Some(cell) }
    }

    /// A no-op counter (what disabled telemetry hands out).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (zero when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Last-write-wins gauge holding an `f64` (stored as bits in an
/// `AtomicU64`). Cloning shares the cell.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Self { cell: Some(cell) }
    }

    /// A no-op gauge.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.cell {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (zero when disabled).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Sub-buckets per power of two. The bucket representative (geometric
/// midpoint of a 1/16-wide bucket) is at most `1/32` away in relative
/// terms from any value in the bucket, so quantile readout has a
/// relative error bound of `1/16` with margin.
const SUBS: usize = 16;
/// Smallest tracked exponent: values below `2^-40` (~1e-12 — far below
/// any virtual-clock latency) land in the underflow bucket.
const E_MIN: i32 = -40;
/// Largest tracked exponent: values at or above `2^24` (~1.7e7 — bytes
/// counts and queue depths stay below this) land in the overflow bucket.
const E_MAX: i32 = 24;
const N_BUCKETS: usize = ((E_MAX - E_MIN) as usize) * SUBS;

pub(crate) struct HistogramState {
    /// `[underflow, bucket 0 .. N-1, overflow]`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, f64 bits updated by CAS.
    sum_bits: AtomicU64,
    /// Exact min/max of observed values (f64 bits; observations are
    /// clamped to `>= 0`, where the bit pattern orders like the value).
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistogramState {
    fn new() -> Self {
        Self {
            buckets: (0..N_BUCKETS + 2).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0),
        }
    }
}

/// Bucket index (into the `N_BUCKETS + 2` array) for a non-negative
/// value, via exponent/mantissa extraction — exact, no float log.
fn bucket_index(v: f64) -> usize {
    if !(v.is_finite() && v > 0.0) {
        return 0; // underflow (0 and junk)
    }
    let bits = v.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if e < E_MIN {
        return 0;
    }
    if e >= E_MAX {
        return N_BUCKETS + 1;
    }
    let sub = ((bits >> 48) & 0xf) as usize; // top 4 mantissa bits
    1 + ((e - E_MIN) as usize) * SUBS + sub
}

/// Lower bound of linear bucket `i` (1-based within the linear range):
/// `2^e (1 + s/16)`.
fn bucket_lo(i: usize) -> f64 {
    let lin = i - 1;
    let e = E_MIN + (lin / SUBS) as i32;
    let s = (lin % SUBS) as f64;
    (2.0f64).powi(e) * (1.0 + s / SUBS as f64)
}

/// Upper bound of linear bucket `i`: the next bucket's lower bound
/// (`2^e (1 + (s+1)/16)`, which for `s = 15` is exactly `2^(e+1)`).
fn bucket_hi(i: usize) -> f64 {
    let lin = i - 1;
    let e = E_MIN + (lin / SUBS) as i32;
    let s = (lin % SUBS) as f64 + 1.0;
    (2.0f64).powi(e) * (1.0 + s / SUBS as f64)
}

/// Log-linear histogram with quantile readout. Cloning shares state;
/// `observe` is lock-free.
#[derive(Clone, Default)]
pub struct Histogram {
    state: Option<Arc<HistogramState>>,
}

/// Point-in-time readout of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Median (geometric in-bucket interpolation, relative error ≤ 1/16).
    pub p50: f64,
    /// 90th percentile (same error bound).
    pub p90: f64,
    /// 95th percentile (same error bound).
    pub p95: f64,
    /// 99th percentile (same error bound).
    pub p99: f64,
    /// Exact minimum observed.
    pub min: f64,
    /// Exact maximum observed.
    pub max: f64,
}

impl Histogram {
    pub(crate) fn live(state: Arc<HistogramState>) -> Self {
        Self { state: Some(state) }
    }

    /// A no-op histogram.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Record one observation (negatives clamp to zero).
    pub fn observe(&self, v: f64) {
        let Some(s) = &self.state else { return };
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = s.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match s
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        s.min_bits.fetch_min(v.to_bits(), Ordering::Relaxed);
        s.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Estimate the `q`-quantile (`0 ≤ q ≤ 1`) from bucket counts,
    /// interpolating geometrically *within* the landing bucket by rank
    /// fraction (a flat bucket-midpoint answer is discontinuous at
    /// bucket boundaries: p50 and p90 of a bucket holding both would
    /// read identical). Results are clamped to the exact observed
    /// `[min, max]`; zero when empty or disabled.
    pub fn quantile(&self, q: f64) -> f64 {
        let Some(s) = &self.state else { return 0.0 };
        let count = s.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let min = f64::from_bits(s.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(s.max_bits.load(Ordering::Relaxed));
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in s.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            seen += in_bucket;
            if seen >= target {
                let est = if i == 0 {
                    min
                } else if i == N_BUCKETS + 1 {
                    max
                } else {
                    // Rank of the target within this bucket (1-based),
                    // mapped to the bucket's geometric span.
                    let rank = target - (seen - in_bucket);
                    let frac = (rank as f64 - 0.5) / in_bucket as f64;
                    let lo = bucket_lo(i);
                    let hi = bucket_hi(i);
                    lo * (hi / lo).powf(frac)
                };
                return est.clamp(min, max);
            }
        }
        max
    }

    /// Full readout: count/sum exact, p50/p90/p95/p99 bucket estimates,
    /// min/max exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(s) = &self.state else {
            return HistogramSnapshot::default();
        };
        let count = s.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSnapshot::default();
        }
        HistogramSnapshot {
            count,
            sum: f64::from_bits(s.sum_bits.load(Ordering::Relaxed)),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            min: f64::from_bits(s.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(s.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Final value of one named instrument, as it appears in a
/// [`crate::RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last gauge value.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Write the value's members into `o`, naming its kind under `tag`:
    /// the RunReport says `type`, a live snapshot `kind`.
    pub fn write(&self, o: &mut Obj<'_>, tag: &str) {
        match self {
            Self::Counter(c) => o.text(tag, "counter").uint("value", *c),
            Self::Gauge(g) => o.text(tag, "gauge").num("value", *g),
            Self::Histogram(h) => o
                .text(tag, "histogram")
                .uint("count", h.count)
                .num("sum", h.sum)
                .num("p50", h.p50)
                .num("p90", h.p90)
                .num("p95", h.p95)
                .num("p99", h.p99)
                .num("min", h.min)
                .num("max", h.max),
        };
    }

    /// Read a value [`MetricValue::write`] wrote with `tag`.
    ///
    /// # Errors
    /// An unknown kind.
    pub(crate) fn read(v: &Value, tag: &str) -> Result<Self, String> {
        Ok(match v.text(tag) {
            "counter" => Self::Counter(v.uint("value")),
            "gauge" => Self::Gauge(v.num("value")),
            "histogram" => Self::Histogram(HistogramSnapshot {
                count: v.uint("count"),
                sum: v.num("sum"),
                p50: v.num("p50"),
                p90: v.num("p90"),
                p95: v.num("p95"),
                p99: v.num("p99"),
                min: v.num("min"),
                max: v.num("max"),
            }),
            other => return Err(format!("unknown metric type {other:?}")),
        })
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramState>),
}

#[derive(Default)]
struct HubInner {
    instruments: Mutex<BTreeMap<String, Slot>>,
    events: Mutex<Vec<Event>>,
    recorder: Mutex<FlightRecorder>,
}

/// The shared bus: instrument registry + event log + flight recorder.
/// Cloning shares the underlying state (it is an `Arc` inside).
#[derive(Clone, Default)]
pub struct TelemetryHub {
    inner: Arc<HubInner>,
}

impl TelemetryHub {
    /// Get or create the counter `name`. If `name` already names a
    /// different instrument type, returns a disabled handle (the
    /// registration wins; the caller's updates are dropped).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.inner.instruments);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))))
        {
            Slot::Counter(c) => Counter::live(c.clone()),
            _ => Counter::disabled(),
        }
    }

    /// Get or create the gauge `name` (same mismatch rule as
    /// [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.inner.instruments);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Slot::Gauge(g) => Gauge::live(g.clone()),
            _ => Gauge::disabled(),
        }
    }

    /// Get or create the histogram `name` (same mismatch rule).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.inner.instruments);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramState::new())))
        {
            Slot::Histogram(h) => Histogram::live(h.clone()),
            _ => Histogram::disabled(),
        }
    }

    /// Append a structured event.
    pub fn push_event(&self, event: Event) {
        lock(&self.inner.events).push(event);
    }

    /// Record one per-step sample into the flight recorder.
    pub fn record(&self, sample: StepSample) {
        lock(&self.inner.recorder).record(sample);
    }

    /// Sum of every counter whose name ends with `/suffix` (used to
    /// aggregate e.g. `*/transport/retries` across ranks).
    pub fn counter_sum(&self, suffix: &str) -> u64 {
        let map = lock(&self.inner.instruments);
        map.iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, slot)| match slot {
                Slot::Counter(c) => c.load(Ordering::Relaxed),
                _ => 0,
            })
            .sum()
    }

    /// Sum of every gauge whose name ends with `/suffix` (used to
    /// aggregate e.g. endpoint queue depths into one series column).
    pub fn gauge_sum(&self, suffix: &str) -> f64 {
        let map = lock(&self.inner.instruments);
        map.iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, slot)| match slot {
                Slot::Gauge(g) => f64::from_bits(g.load(Ordering::Relaxed)),
                _ => 0.0,
            })
            .sum()
    }

    /// Final value of every registered instrument, sorted by name.
    pub fn metrics_snapshot(&self) -> Vec<(String, MetricValue)> {
        let map = lock(&self.inner.instruments);
        map.iter()
            .map(|(name, slot)| {
                let v = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Slot::Histogram(h) => {
                        MetricValue::Histogram(Histogram::live(h.clone()).snapshot())
                    }
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// Drain the event log, sorted by `(virtual time, pid, rank)` so
    /// report output is deterministic regardless of thread interleave.
    pub fn take_events_sorted(&self) -> Vec<Event> {
        let mut events = std::mem::take(&mut *lock(&self.inner.events));
        events.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.pid.cmp(&b.pid))
                .then(a.rank.cmp(&b.rank))
                .then(a.step.cmp(&b.step))
        });
        events
    }

    /// Drain the flight recorder: `(samples, evicted_count)`.
    pub fn take_series(&self) -> (Vec<StepSample>, u64) {
        lock(&self.inner.recorder).take()
    }

    /// Non-draining peek at the flight recorder's per-step windows:
    /// `(step, t_start, t_end)` per retained sample, in step order.
    /// Critical-path analysis needs the windows *before*
    /// `RunReport::collect` drains the recorder.
    pub fn step_bounds(&self) -> Vec<(u64, f64, f64)> {
        lock(&self.inner.recorder).bounds()
    }

    /// Metrics that changed since `prev`, which is replaced with the
    /// current snapshot — the delta engine behind live streaming. Both
    /// lists are name-sorted, so the diff is one linear merge; an empty
    /// `prev` yields the full snapshot.
    pub fn delta_snapshot(
        &self,
        prev: &mut Vec<(String, MetricValue)>,
    ) -> Vec<(String, MetricValue)> {
        let cur = self.metrics_snapshot();
        let mut delta = Vec::new();
        let mut pi = 0usize;
        for item in &cur {
            while pi < prev.len() && prev[pi].0 < item.0 {
                pi += 1;
            }
            let unchanged = pi < prev.len() && prev[pi].0 == item.0 && prev[pi].1 == item.1;
            if !unchanged {
                delta.push(item.clone());
            }
        }
        *prev = cur;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: log-linear bucket error bound. Quantile estimates
    /// must sit within 1/16 relative error of the exact quantile for
    /// values spanning many decades.
    #[test]
    fn histogram_quantiles_meet_log_linear_error_bound() {
        let hub = TelemetryHub::default();
        let h = hub.histogram("t");
        // Deterministic pseudo-random values over ~7 decades.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut values = Vec::new();
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let v = 1e-6 * (10.0f64).powf(7.0 * u);
            values.push(v);
            h.observe(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.10, 0.50, 0.90, 0.95, 0.99] {
            let exact =
                values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= 1.0 / 16.0,
                "q={q}: est {est} vs exact {exact} (rel err {rel})"
            );
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5000);
        assert!((snap.min - values[0]).abs() < 1e-18, "min is exact");
        assert!(
            (snap.max - values[values.len() - 1]).abs() < 1e-9,
            "max is exact"
        );
        let exact_sum: f64 = values.iter().sum();
        assert!(
            (snap.sum - exact_sum).abs() / exact_sum < 1e-9,
            "sum is exact"
        );
    }

    #[test]
    fn histogram_edge_values_land_in_terminal_buckets() {
        let hub = TelemetryHub::default();
        let h = hub.histogram("edges");
        h.observe(0.0);
        h.observe(-4.0); // clamps to 0
        h.observe(1e-20); // underflow bucket
        h.observe(1e12); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 1e12);
        // p95 of {0,0,~0,1e12} resolves through the overflow bucket to
        // the exact max.
        assert_eq!(h.quantile(0.95), 1e12);
    }

    /// Satellite: empty-histogram edge case — every readout is zero and
    /// the snapshot is the default.
    #[test]
    fn empty_histogram_reads_zero_everywhere() {
        let hub = TelemetryHub::default();
        let h = hub.histogram("empty");
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        assert_eq!(Histogram::disabled().quantile(0.5), 0.0);
    }

    /// Satellite: single-bucket edge case — when every observation is
    /// the same value, interpolation must not invent spread: all
    /// quantiles clamp to the exact observed value.
    #[test]
    fn single_bucket_histogram_quantiles_are_exact() {
        let hub = TelemetryHub::default();
        let h = hub.histogram("single");
        for _ in 0..100 {
            h.observe(3.25e-3);
        }
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.25e-3, "q={q}");
        }
        let s = h.snapshot();
        assert_eq!((s.p50, s.p90, s.p95, s.p99), (3.25e-3, 3.25e-3, 3.25e-3, 3.25e-3));
        assert_eq!(s.count, 100);
    }

    /// Satellite: quantiles within one bucket are monotone — the
    /// in-bucket geometric interpolation distinguishes ranks that the
    /// old flat bucket-midpoint readout collapsed.
    #[test]
    fn in_bucket_interpolation_is_monotone_across_boundaries() {
        let hub = TelemetryHub::default();
        let h = hub.histogram("mono");
        // Values dense enough that adjacent quantiles share buckets.
        for i in 1..=1000 {
            h.observe(1.0 + i as f64 / 1000.0); // (1, 2]
        }
        let mut last = 0.0;
        for i in 1..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantile must be monotone: q={q} {v} < {last}");
            last = v;
        }
        // And the interpolated p50 sits near the true median, well
        // inside the 1/16 bucket bound.
        assert!((h.quantile(0.5) - 1.5).abs() / 1.5 < 1.0 / 16.0);
    }

    #[test]
    fn delta_snapshot_reports_only_changes() {
        let hub = TelemetryHub::default();
        hub.counter("a").add(1);
        hub.gauge("b").set(2.0);
        hub.histogram("c").observe(0.5);
        let mut prev = Vec::new();
        let full = hub.delta_snapshot(&mut prev);
        assert_eq!(full.len(), 3, "first delta is the full snapshot");
        assert!(hub.delta_snapshot(&mut prev).is_empty(), "no change, no delta");
        hub.counter("a").add(1);
        hub.counter("d").inc();
        let delta = hub.delta_snapshot(&mut prev);
        let names: Vec<&str> = delta.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "d"]);
        assert_eq!(prev.len(), 4, "prev tracks the full current snapshot");
    }

    #[test]
    fn step_bounds_peek_does_not_drain() {
        let hub = TelemetryHub::default();
        hub.record(StepSample {
            step: 1,
            t_start: 0.0,
            t_end: 0.5,
            ..StepSample::default()
        });
        hub.record(StepSample {
            step: 2,
            t_start: 0.5,
            t_end: 1.25,
            ..StepSample::default()
        });
        assert_eq!(hub.step_bounds(), vec![(1, 0.0, 0.5), (2, 0.5, 1.25)]);
        let (series, _) = hub.take_series();
        assert_eq!(series.len(), 2, "peek must leave the series intact");
    }

    #[test]
    fn counter_and_gauge_share_state_across_clones() {
        let hub = TelemetryHub::default();
        let a = hub.counter("rank0/c");
        let b = hub.counter("rank0/c");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let g = hub.gauge("rank0/g");
        hub.gauge("rank0/g").set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn type_mismatch_returns_disabled_handle() {
        let hub = TelemetryHub::default();
        hub.counter("x").add(2);
        let g = hub.gauge("x"); // wrong type: disabled, registration wins
        g.set(9.0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(hub.counter("x").get(), 2);
    }
}
