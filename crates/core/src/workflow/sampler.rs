//! The simulation side both workflow drivers share: a [`Run`] opens,
//! launches its rank worlds and closes into the report artifacts; each
//! solver rank is a [`SolverRank`] from open (`sim/setup`) through the
//! `step → consume → sample` loop to close (`sim/finalize`).
//! Where the analysis runs — inline, in a pipelined consumer world or at
//! an in transit endpoint — is all that is left to a driver.
//!
//! Rank 0 of the simulation world owns one [`StepSampler`], fed by
//! [`SolverRank::run`] after every solver step. Each sample is what rank 0
//! measures on its own: its clock at the step's ends, its snapshot pool's
//! resident bytes and its backpressure wait (diffed from the cumulative
//! total between calls), pushed as one [`telemetry::StepSample`] onto the
//! hub's ring buffer. It reads no other rank or world, whose state moves
//! in real time, so a config gives the same series on every run; and it
//! never advances the virtual clock, so solver output is bitwise
//! identical with telemetry on or off.

use std::path::Path;
use std::sync::{Arc, Mutex};

use commsim::{Comm, CommStats, FaultPlan, MachineModel, RankResult, SchedMode, RANK_STACK_BYTES};
use memtrack::{Charge, Registry};
use sem::cases::CaseSetup;
use sem::navier_stokes::FlowSolver;
use sem::snapshot::SnapshotPool;
use telemetry::{Manifest, RankTrace, RunReport, StepSample, TelemetryHub};

use crate::metrics::RunMetrics;

/// A run between its open and close: the registry the simulation world
/// charges, the hub (None with telemetry off) and the config the ranks
/// share.
pub(crate) struct Run<C> {
    cfg: Arc<C>,
    pub(crate) registry: Registry,
    hub: Option<TelemetryHub>,
    trace: bool,
}

/// A world to launch: the registry it charges, one state per rank and the
/// body each rank runs on the config and its state.
type World<C, S, R> = (Registry, Vec<S>, fn(&mut Comm, &C, S) -> R);

/// A closed run: metrics, traces (simulation world first, empty unless
/// traced), RunReport (None without telemetry).
type Closed = (RunMetrics, Vec<RankTrace>, Option<RunReport>);

impl<C: Clone + Send + Sync + 'static> Run<C> {
    /// Cap the malloc arenas and start an empty registry; with `telemetry`
    /// on, a fresh hub.
    pub(crate) fn open(cfg: &C, trace: bool, telemetry: bool) -> Self {
        memtrack::cap_malloc_arenas();
        Self {
            cfg: Arc::new(cfg.clone()),
            registry: Registry::new(),
            hub: telemetry.then(TelemetryHub::default),
            trace,
        }
    }

    /// Run the simulation world (pid 0) on this thread and, when it has
    /// ranks, `second` (pid 1: pipelined consumers or in transit
    /// endpoints) on its own thread, started first and joined last; both
    /// under `sched` on `machine`.
    pub(crate) fn launch<S, R, T, Q>(
        &self,
        sched: SchedMode,
        machine: &MachineModel,
        sim: World<C, S, R>,
        second: World<C, T, Q>,
    ) -> (Vec<RankResult<R>>, Vec<RankResult<Q>>)
    where
        S: Send + 'static,
        R: Send + 'static,
        T: Send + 'static,
        Q: Send + 'static,
    {
        let second = (!second.1.is_empty())
            .then(|| std::thread::spawn(self.world(1, sched, machine, second)));
        let sim = self.world(0, sched, machine, sim)();
        let second = second.map(|world| world.join().expect("second rank world"));
        (sim, second.unwrap_or_default())
    }

    /// One world, run by calling the result: rank `r` joins the tracer and
    /// the hub as process `pid`, then runs the body on `states[r]`.
    fn world<S: Send + 'static, R: Send + 'static>(
        &self,
        pid: u32,
        sched: SchedMode,
        machine: &MachineModel,
        (registry, states, body): World<C, S, R>,
    ) -> impl FnOnce() -> Vec<RankResult<R>> + Send + 'static {
        let (cfg, hub, trace) = (Arc::clone(&self.cfg), self.hub.clone(), self.trace);
        let size = states.len();
        let slots = Mutex::new(states.into_iter().map(Some).collect::<Vec<_>>());
        let rank = move |comm: &mut Comm| {
            if trace {
                comm.enable_tracing(pid);
            }
            if let Some(hub) = &hub {
                comm.enable_telemetry(hub, pid);
            }
            let state = slots.lock().unwrap()[comm.rank()].take();
            body(comm, &cfg, state.expect("one state per rank"))
        };
        let machine = machine.clone();
        move || commsim::run_world(sched, size, machine, registry, RANK_STACK_BYTES, rank)
    }

    /// The report tail: `ranks` (the worlds charging [`Self::registry`])
    /// give the metrics over `manifest.steps`; their traces, then
    /// `endpoint_traces`, and the critical path over them; the hub
    /// drains into a [`RunReport`] carrying that critical path.
    pub(crate) fn close(
        self,
        ranks: Vec<RankResult<Option<RankTrace>>>,
        endpoint_traces: Vec<RankTrace>,
        manifest: Manifest,
    ) -> Closed {
        let times_stats: Vec<(f64, CommStats)> = ranks.iter().map(|r| (r.time, r.stats)).collect();
        let metrics = RunMetrics::from_ranks(&times_stats, manifest.steps as usize, &self.registry);
        let traces: Vec<RankTrace> = (ranks.into_iter().filter_map(|r| r.value))
            .chain(endpoint_traces)
            .collect();
        let entries = self.registry.snapshot().entries;
        let run_report = self.hub.map(|hub| {
            // Critical path before the drain: the step windows are a
            // non-draining peek at the flight recorder.
            let critical = (!traces.is_empty())
                .then(|| telemetry::critical::analyze(&traces, &hub.step_bounds()));
            let mut report = RunReport::collect(manifest, &hub, entries, metrics.memory);
            report.critical = critical;
            report
        });
        (metrics, traces, run_report)
    }
}

/// A solver rank from open to close: the solver, its host baseline (mesh
/// setup, host mirrors, MPI buffers: NekRS keeps roughly the field set on
/// the host too) and, on a rank 0 with a hub, the sampler.
pub(crate) struct SolverRank {
    pub(crate) solver: FlowSolver,
    _host_base: Charge,
    sampler: Option<StepSampler>,
}

impl SolverRank {
    /// Build `case`, charge the host baseline and run the driver's own
    /// `setup` under one `sim/setup` span; then open the sampler's first
    /// step window.
    pub(crate) fn open<T>(
        comm: &mut Comm,
        case: &CaseSetup,
        setup: impl FnOnce(&mut Comm) -> T,
    ) -> (Self, T) {
        let span = comm.span("sim/setup");
        let solver = case.build(comm);
        let host_base = comm.accountant("host-base");
        let _host_base = host_base.charge(solver.n_nodes() as u64 * 8 * 60);
        let done = setup(comm);
        drop(span);
        let rank = Self {
            sampler: (comm.telemetry().hub())
                .filter(|_| comm.rank() == 0)
                .map(|hub| StepSampler::new(comm, hub.clone())),
            solver,
            _host_base,
        };
        (rank, done)
    }

    /// Step from 1 to `steps`. `after_step` is the driver's per-step work
    /// (trigger check, publish, consume or hand off) and returns the
    /// rank's *cumulative* backpressure wait; the sampler records `pool`.
    pub(crate) fn run(
        &mut self,
        comm: &mut Comm,
        steps: usize,
        pool: Option<&SnapshotPool>,
        mut after_step: impl FnMut(&mut Comm, &mut FlowSolver, u64) -> f64,
    ) {
        let solver = &mut self.solver;
        for s in 1..=steps {
            solver.step(comm);
            let step = s as u64;
            let backpressure_total = after_step(comm, solver, step);
            if let Some(sampler) = &mut self.sampler {
                sampler.sample(comm, step, backpressure_total, pool);
            }
        }
    }

    /// The driver's `finish` and the closing barrier under one
    /// `sim/finalize` span; the rank's trace.
    pub(crate) fn close(
        self,
        comm: &mut Comm,
        finish: impl FnOnce(&mut Comm),
    ) -> Option<RankTrace> {
        {
            let _sp = comm.span("sim/finalize");
            finish(comm);
            comm.barrier();
        }
        comm.take_trace()
    }
}

/// ` output="<dir>"` when the consumer writes under `dir`, else nothing.
pub(crate) fn output_attr(dir: Option<&Path>) -> String {
    dir.map(|d| format!(r#" output="{}""#, d.display()))
        .unwrap_or_default()
}

/// The Catalyst `<analysis …/>` element both drivers configure: a slice of
/// `slice_array` and a velocity contour every `frequency` steps, images
/// under `output` when set; `wrap` breaks the element's line.
pub(crate) fn catalyst_element(
    frequency: u64,
    (width, height): (usize, usize),
    slice_array: &str,
    output: Option<&Path>,
    wrap: &str,
) -> String {
    let output = output_attr(output);
    format!(
        r#"<analysis type="catalyst" frequency="{frequency}" width="{width}" height="{height}"{wrap}slice_array="{slice_array}" contour_array="velocity"{output}/>"#
    )
}

/// The manifest fields every run fills the same way from its config, whose
/// fields both drivers name alike; a driver adds how its run was laid out.
macro_rules! manifest {
    ($cfg:expr) => {
        telemetry::Manifest {
            case: $cfg.case.name.clone(),
            sched: $cfg.sched.label().into(),
            steps: $cfg.steps as u64,
            trigger_every: $cfg.trigger_every.max(1),
            machine: $cfg.machine.name.into(),
            fault_plan: crate::workflow::sampler::fault_summary(&$cfg.faults),
            pool_threads: rayon::pool::current_threads(),
            ..telemetry::Manifest::default()
        }
    };
}
pub(crate) use manifest;

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
    if parts.is_empty() {
        "none".into()
    } else {
        parts.join(" ")
    }
}

/// Rank-0 per-step series sampler (see module docs).
struct StepSampler {
    hub: TelemetryHub,
    /// Rank-0 virtual time at the end of the previous sample.
    t_prev: f64,
    /// Cumulative backpressure wait at the previous sample.
    backpressure_prev: f64,
}

impl StepSampler {
    /// Start a sampler whose first step window opens at `comm`'s current
    /// time (rank 0's clock before the first step).
    fn new(comm: &Comm, hub: TelemetryHub) -> Self {
        Self {
            hub,
            t_prev: comm.now(),
            backpressure_prev: 0.0,
        }
    }

    /// Record one step. `backpressure_total` is the *cumulative* pipeline
    /// backpressure wait on this rank (0 for synchronous runs); the
    /// sampler diffs it against the previous call. `pool` is the rank's
    /// snapshot staging pool, when it has one.
    fn sample(
        &mut self,
        comm: &Comm,
        step: u64,
        backpressure_total: f64,
        pool: Option<&SnapshotPool>,
    ) {
        let t_end = comm.now();
        self.hub.record(StepSample {
            step,
            t_start: self.t_prev,
            t_end,
            pool_resident_bytes: pool.map_or(0, SnapshotPool::resident_bytes),
            backpressure_wait: (backpressure_total - self.backpressure_prev).max(0.0),
        });
        self.t_prev = t_end;
        self.backpressure_prev = backpressure_total;
    }
}
