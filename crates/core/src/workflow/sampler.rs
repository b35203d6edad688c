//! What every workflow driver's simulation rank does the same way:
//! attaching to the observability plane, the `step → supervise → consume →
//! sample` loop, and turning a finished run's traces and telemetry into
//! its report artifacts.
//!
//! Rank 0 of the simulation world owns one [`StepSampler`], fed by
//! [`SimLoop::run`] after every solver step. Each sample snapshots the
//! cheap-to-read state of the run — rank-0 tracer self-times, the
//! snapshot pool, transport gauges on the hub, and the memory registry —
//! into one [`telemetry::StepSample`] pushed onto the hub's ring buffer.
//!
//! Everything read there is either already maintained (gauges, counters,
//! the memory registry) or derived by diffing cumulative totals between
//! consecutive calls (tracer self-time per span, backpressure wait), so
//! sampling never advances the virtual clock and a run produces bitwise
//! identical solver output with telemetry on or off.

use std::collections::BTreeMap;

use commsim::{Comm, FaultPlan};
use memtrack::Registry;
use sem::navier_stokes::FlowSolver;
use sem::snapshot::SnapshotPool;
use telemetry::{
    Manifest, MemorySummary, PhaseBreakdown, RankTrace, RunReport, StepSample, TelemetryHub,
};

use crate::metrics::MemoryBreakdown;
use crate::workflow::supervisor::{resume_solver, RecoveryOptions, SupervisedStepper};

/// Attach this rank to the run's tracer and telemetry bus as process
/// `pid` (0 = the simulation world, 1 = the consumer / endpoint world).
pub(crate) fn attach_observability(
    comm: &mut Comm,
    trace: bool,
    hub: Option<&TelemetryHub>,
    pid: u32,
) {
    if trace {
        comm.enable_tracing(pid);
    }
    if let Some(hub) = hub {
        comm.enable_telemetry(hub, pid);
    }
}

/// One simulation rank's step loop: where to (re)start, the supervised
/// crash/checkpoint hooks, and — on rank 0 — the flight-recorder sampler.
pub(crate) struct SimLoop {
    start: usize,
    supervised: SupervisedStepper,
    sampler: Option<StepSampler>,
}

impl SimLoop {
    /// Restore `solver` when the attempt resumes from a generation and
    /// open the sampler's first step window at the rank's current time.
    /// Call after [`attach_observability`]: the sampler exists only on a
    /// rank 0 that has a telemetry hub. `pool` is the rank's snapshot
    /// staging pool, whose occupancy the sampler records (None when the
    /// rank publishes nothing).
    pub(crate) fn new(
        comm: &mut Comm,
        solver: &mut FlowSolver,
        recovery: &RecoveryOptions,
        faults: &FaultPlan,
        pool: Option<SnapshotPool>,
    ) -> Self {
        Self {
            start: resume_solver(comm, solver, recovery),
            supervised: SupervisedStepper::new(comm, recovery, faults),
            // Rank 0 feeds the flight recorder one sample per step.
            sampler: (comm.telemetry().hub())
                .filter(|_| comm.rank() == 0)
                .map(|hub| StepSampler::new(comm, hub.clone(), pool)),
        }
    }

    /// Run the remaining steps up to `steps`. `after_step` is the driver's
    /// per-step work (trigger check, publish, consume or hand off); it
    /// returns this rank's *cumulative* pipeline backpressure wait (0 when
    /// nothing can push back).
    pub(crate) fn run(
        &mut self,
        comm: &mut Comm,
        solver: &mut FlowSolver,
        steps: usize,
        mut after_step: impl FnMut(&mut Comm, &mut FlowSolver, u64) -> f64,
    ) {
        for s in self.start..=steps {
            solver.step(comm);
            let step = s as u64;
            self.supervised.after_step(comm, solver, step);
            let backpressure_total = after_step(comm, solver, step);
            if let Some(sampler) = &mut self.sampler {
                sampler.sample(comm, step, backpressure_total);
            }
        }
    }
}

/// The report tail both drivers share: per-phase attribution and the
/// critical path from the traces — None when tracing was off — and, with
/// telemetry on, the hub drained into a [`RunReport`] carrying that
/// critical path.
pub(crate) fn collect_reports(
    traces: &[RankTrace],
    hub: Option<&TelemetryHub>,
    registry: &Registry,
    memory: &MemoryBreakdown,
    manifest: Manifest,
) -> (Option<PhaseBreakdown>, Option<RunReport>) {
    let phases = (!traces.is_empty()).then(|| PhaseBreakdown::from_traces(traces));
    // Critical path before the drain: the step windows are a non-draining
    // peek at the flight recorder.
    let critical = (!traces.is_empty()).then(|| {
        let bounds = hub.map(TelemetryHub::step_bounds).unwrap_or_default();
        telemetry::critical::analyze(traces, &bounds)
    });
    let run_report = hub.map(|hub| {
        // Mirrored field by field: telemetry stays dependency-free, so its
        // plain-number summary is a distinct type.
        let memory = MemorySummary {
            host_aggregate_peak: memory.host_aggregate_peak,
            host_max_rank_peak: memory.host_max_rank_peak,
            gpu_aggregate_peak: memory.gpu_aggregate_peak,
            unscoped: memory.unscoped,
        };
        let mut report = RunReport::collect(manifest, hub, registry.snapshot().entries, memory);
        report.critical = critical;
        report
    });
    (phases, run_report)
}

/// Compact human-readable fault-plan description for the run manifest.
pub(crate) fn fault_summary(plan: &FaultPlan) -> String {
    let l = &plan.link;
    let mut parts = Vec::new();
    if l.drop_prob > 0.0 || l.corrupt_prob > 0.0 || l.delay_prob > 0.0 {
        parts.push(format!(
            "link(drop={} corrupt={} delay={})",
            l.drop_prob, l.corrupt_prob, l.delay_prob
        ));
    }
    if !plan.crashes.is_empty() {
        parts.push(format!("crashes={}", plan.crashes.len()));
    }
    if !plan.stalls.is_empty() {
        parts.push(format!("stalls={}", plan.stalls.len()));
    }
    if !plan.sim_crashes.is_empty() {
        parts.push(format!("sim_crashes={}", plan.sim_crashes.len()));
    }
    if !plan.disk_corruptions.is_empty() {
        parts.push(format!("disk_corruptions={}", plan.disk_corruptions.len()));
    }
    if parts.is_empty() {
        "none".into()
    } else {
        parts.join(" ")
    }
}

/// Rank-0 per-step series sampler (see module docs).
struct StepSampler {
    hub: TelemetryHub,
    registry: Registry,
    /// The rank's snapshot staging pool, when it has one.
    pool: Option<SnapshotPool>,
    /// Rank-0 virtual time at the end of the previous sample.
    t_prev: f64,
    /// Cumulative tracer self-times at the previous sample (diffed to get
    /// per-step phase attribution).
    phase_prev: BTreeMap<String, f64>,
    /// Cumulative backpressure wait at the previous sample.
    backpressure_prev: f64,
}

impl StepSampler {
    /// Start a sampler whose first step window opens at `comm`'s current
    /// time (rank 0's clock before the first step).
    fn new(comm: &Comm, hub: TelemetryHub, pool: Option<SnapshotPool>) -> Self {
        Self {
            hub,
            registry: comm.registry().clone(),
            pool,
            t_prev: comm.now(),
            phase_prev: BTreeMap::new(),
            backpressure_prev: 0.0,
        }
    }

    /// Record one step. `backpressure_total` is the *cumulative* pipeline
    /// backpressure wait on this rank (0 for synchronous runs); the
    /// sampler diffs it against the previous call.
    fn sample(&mut self, comm: &Comm, step: u64, backpressure_total: f64) {
        let t_end = comm.now();
        let phase_now = comm.tracer().self_totals();
        let mut phase_self: Vec<(String, f64)> = Vec::new();
        for (name, total) in &phase_now {
            let delta = total - self.phase_prev.get(name).copied().unwrap_or(0.0);
            if delta > 0.0 {
                phase_self.push((name.clone(), delta));
            }
        }
        let (pool_resident_bytes, pool_free_buffers) = match &self.pool {
            Some(p) => {
                let s = p.stats();
                (s.resident_bytes, s.free_buffers as u64)
            }
            None => (0, 0),
        };
        let (mut mem_current, mut mem_peak) = (0u64, 0u64);
        for (_, cur, peak) in &self.registry.snapshot().entries {
            mem_current += cur;
            mem_peak += peak;
        }
        self.hub.record(StepSample {
            step,
            t_start: self.t_prev,
            t_end,
            phase_self,
            pool_resident_bytes,
            pool_free_buffers,
            backpressure_wait: (backpressure_total - self.backpressure_prev).max(0.0),
            queue_depth: self.hub.gauge_sum("transport/queue_depth"),
            retries: self.hub.counter_sum("transport/retries"),
            mem_current,
            mem_peak,
        });
        self.t_prev = t_end;
        self.phase_prev = phase_now;
        self.backpressure_prev = backpressure_total;
    }
}
