//! The flight recorder: a bounded per-step time series plus the
//! structured event log, both on the virtual-time axis.

use std::collections::VecDeque;

/// What kind of run-level incident an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A `FaultPlan` entry fired (drop, corruption, delay, stall).
    FaultInjected,
    /// A transport writer's circuit breaker opened (endpoint presumed
    /// dead; subsequent writes fail fast).
    CircuitBreakerOpen,
    /// A producer switched from the SST engine to the BP file engine.
    EngineSwitch,
    /// An fld checkpoint was written.
    CheckpointWrite,
    /// An endpoint rank crashed per the fault plan.
    EndpointCrash,
}

impl EventKind {
    /// Stable serialization tag.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::FaultInjected => "fault_injected",
            Self::CircuitBreakerOpen => "circuit_breaker_open",
            Self::EngineSwitch => "engine_switch",
            Self::CheckpointWrite => "checkpoint_write",
            Self::EndpointCrash => "endpoint_crash",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "fault_injected" => Self::FaultInjected,
            "circuit_breaker_open" => Self::CircuitBreakerOpen,
            "engine_switch" => Self::EngineSwitch,
            "checkpoint_write" => Self::CheckpointWrite,
            "endpoint_crash" => Self::EndpointCrash,
            _ => return None,
        })
    }
}

/// One structured incident, stamped with virtual time and rank
/// identity (pid 0 = simulation world, pid ≥ 1 = endpoint world).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time on the emitting rank's clock.
    pub at: f64,
    /// World id.
    pub pid: u32,
    /// Rank within the world.
    pub rank: usize,
    /// Solver / trigger step the event belongs to, when known.
    pub step: Option<u64>,
    /// What happened.
    pub kind: EventKind,
    /// Free-form context (`"stall 50s"`, `"parked to bp4l"`, …).
    pub detail: String,
}

/// One row of the per-step time series: what simulation rank 0 measures
/// on its own clock after each step, so the row is the same on every run
/// of one config. Run-wide totals (retries, memory) are in the report's
/// metrics and memory blocks; per-phase time is in the trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepSample {
    /// Solver step number (1-based).
    pub step: u64,
    /// Rank 0 virtual time when the step began.
    pub t_start: f64,
    /// Rank 0 virtual time when the step (and any synchronous in situ
    /// work) finished.
    pub t_end: f64,
    /// Rank 0's snapshot-pool resident bytes after the step.
    pub pool_resident_bytes: u64,
    /// Seconds rank 0 spent waiting for pipeline credits this step.
    pub backpressure_wait: f64,
}

/// Fixed-capacity ring of [`StepSample`]s: when full, recording a new
/// step evicts the **oldest** so the retained series stays contiguous
/// and ends at the latest step.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    samples: VecDeque<StepSample>,
    evicted: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default ring size — ample for every figure harness (≤ a few
    /// thousand steps) while bounding memory for long runs.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A recorder retaining at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            samples: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Append a sample, evicting the oldest when at capacity.
    pub fn record(&mut self, sample: StepSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back(sample);
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded (or everything was taken).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// How many samples have been evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Non-draining peek: `(step, t_start, t_end)` of every retained
    /// sample, in step order.
    pub fn bounds(&self) -> Vec<(u64, f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.step, s.t_start, s.t_end))
            .collect()
    }

    /// Drain: `(samples in step order, evicted count)`.
    pub fn take(&mut self) -> (Vec<StepSample>, u64) {
        let evicted = self.evicted;
        self.evicted = 0;
        (std::mem::take(&mut self.samples).into(), evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: u64) -> StepSample {
        StepSample {
            step,
            t_start: step as f64,
            t_end: step as f64 + 0.5,
            ..StepSample::default()
        }
    }

    /// Satellite: ring overflow evicts oldest-first and keeps the
    /// retained series contiguous.
    #[test]
    fn overflow_evicts_oldest_and_series_stays_contiguous() {
        let mut r = FlightRecorder::new(8);
        for step in 1..=20 {
            r.record(sample(step));
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.evicted(), 12);
        let (series, evicted) = r.take();
        assert_eq!(evicted, 12);
        let steps: Vec<u64> = series.iter().map(|s| s.step).collect();
        assert_eq!(steps, (13..=20).collect::<Vec<_>>(), "newest 8, in order");
        for w in series.windows(2) {
            assert_eq!(w[1].step, w[0].step + 1, "no gaps after eviction");
        }
        assert!(r.is_empty(), "take drains");
        assert_eq!(r.evicted(), 0, "take resets the eviction counter");
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = FlightRecorder::new(100);
        for step in 1..=5 {
            r.record(sample(step));
        }
        let (series, evicted) = r.take();
        assert_eq!(evicted, 0);
        assert_eq!(series.len(), 5);
        assert_eq!(series[0].step, 1);
    }

    #[test]
    fn event_kind_tags_roundtrip() {
        for kind in [
            EventKind::FaultInjected,
            EventKind::CircuitBreakerOpen,
            EventKind::EngineSwitch,
            EventKind::CheckpointWrite,
            EventKind::EndpointCrash,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("nope"), None);
    }
}
