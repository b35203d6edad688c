//! The five workloads that run a simulation through a product entry
//! point: `run_insitu` (four cells) and `run_intransit` (one).

use super::{alternate, measure_end_to_end, pct_over, timed, RunArgs, Workload};
use crate::host;
use crate::metrics::{Metrics, Outcome};
use crate::simloop::{self, LoopOutcome, LoopSpec};
use crate::spans::{self, Recorder, Span};
use crate::stations;
use crate::stats::{median, percentile};
use crate::surface::*;
use crate::verify::{check_png_dir, Checks};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One product call, fully configured.
#[derive(Clone)]
pub enum Product {
    InSitu(InSituConfig),
    InTransit(InTransitConfig),
}

/// What a product call reported, reduced to what the benchmark reads.
pub struct Call {
    pub wall_s: f64,
    /// `RunMetrics::time_to_solution` (simulation side).
    pub virt_tts_s: f64,
    /// `MemoryBreakdown::host_aggregate_peak`, bytes.
    pub virt_host_peak: u64,
    /// Bytes that crossed the sim→consumer boundary: D2H-staged (in situ)
    /// or wire payload received by the endpoints (in transit).
    pub boundary_bytes: u64,
    /// Images the product says reached storage.
    pub frames: u64,
    pub totals: CommStats,
    pub intransit: Option<InTransitReport>,
}

/// The seed moves the inputs without moving the amount of work: the
/// inflow speed (pb146) or the perturbation amplitude (RBC) in the sixth
/// digit, and `n_pebbles` within the range that masks the same elements.
fn seeded_pb146(params: &CaseParams, seed: u64) -> CaseSetup {
    let n_pebbles = if seed == crate::DEFAULT_SEED {
        146
    } else {
        140 + (seed % 13) as usize
    };
    let mut case = pb146(params, n_pebbles);
    case.init = InitKind::AxialInflow {
        w_in: 1.0 + 1e-6 * (seed % 1000) as f64,
    };
    case
}

/// One `run_insitu` cell's sizes.
struct InSituCell {
    elems: [usize; 3],
    order: usize,
    ranks: usize,
    steps: usize,
    trigger: u64,
    image: (usize, usize),
    mode: InSituMode,
    exec: ExecMode,
    sched: SchedMode,
}

/// The four in situ workloads' cells, at full and at smoke size.
#[rustfmt::skip]
fn insitu_cell(workload: Workload, smoke: bool) -> InSituCell {
    use ExecMode::{Pipelined, Synchronous};
    use InSituMode::{Catalyst, Original};
    use SchedMode::{Event, Thread};
    let cell = |elems, order, ranks, steps, trigger, image, mode, exec, sched| InSituCell {
        elems, order, ranks, steps, trigger, image, mode, exec, sched,
    };
    match (workload, smoke) {
        (Workload::SolverPb146, false)     => cell([4, 4, 8], 7, 2, 2, 1, (800, 600), Original, Synchronous, Thread),
        (Workload::SolverPb146, true)      => cell([2, 2, 4], 4, 2, 2, 1, (800, 600), Original, Synchronous, Thread),
        (Workload::InsituSync, false)      => cell([4, 4, 8], 3, 2, 12, 1, (800, 600), Catalyst, Synchronous, Thread),
        (Workload::InsituSync, true)       => cell([2, 2, 4], 3, 2, 3, 1, (200, 150), Catalyst, Synchronous, Thread),
        (Workload::InsituPipelined, false) => cell([4, 4, 8], 3, 2, 12, 1, (800, 600), Catalyst, Pipelined, Thread),
        (Workload::InsituPipelined, true)  => cell([2, 2, 4], 3, 2, 3, 1, (200, 150), Catalyst, Pipelined, Thread),
        (Workload::ManyrankEvent, false)   => cell([1, 1, 32], 3, 32, 2, 2, (400, 300), Catalyst, Synchronous, Event),
        (Workload::ManyrankEvent, true)    => cell([1, 1, 8], 3, 8, 2, 2, (100, 75), Catalyst, Synchronous, Event),
        (Workload::IntransitTcp | Workload::StagingFanoutTcp, _) => {
            unreachable!("{} does not go through run_insitu", workload.name())
        }
    }
}

impl Product {
    /// The workload's cell at full or smoke size, writing under `out`.
    pub fn new(workload: Workload, seed: u64, smoke: bool, out: &Path) -> Self {
        if workload == Workload::IntransitTcp {
            return Self::intransit(seed, smoke, out);
        }
        let cell = insitu_cell(workload, smoke);
        let mut params = CaseParams::pb146_default();
        params.elems = cell.elems;
        params.order = cell.order;
        let mut case = seeded_pb146(&params, seed);
        if workload == Workload::SolverPb146 {
            // At order 7 the Jacobi-preconditioned pressure solve needs
            // ~420 iterations; the case's cap of 250 would end every
            // solve unconverged and hide any gain in iterations.
            case.config.pressure_cg.max_iter = 1000;
        }
        Product::InSitu(InSituConfig {
            case,
            ranks: cell.ranks,
            steps: cell.steps,
            trigger_every: cell.trigger,
            machine: MachineModel::polaris(),
            image_size: cell.image,
            mode: cell.mode,
            exec: cell.exec,
            sched: cell.sched,
            faults: FaultPlan::none(),
            output_dir: (cell.mode == InSituMode::Catalyst).then(|| out.to_path_buf()),
            trace: false,
            telemetry: false,
            recovery: Default::default(),
        })
    }

    /// `intransit_tcp`: the §4.2 weak-scaling RBC case at 4 sim ranks per
    /// endpoint rank, as `bench_harness::cases::intransit_config` sets it
    /// up, over the TCP wire.
    fn intransit(seed: u64, smoke: bool, out: &Path) -> Self {
        let (sim_ranks, steps, image_size) = if smoke {
            (4, 3, (200, 150))
        } else {
            (8, 15, (800, 600))
        };
        let mut case = rbc_weak_scaling(sim_ranks);
        case.init = InitKind::RbcPerturbed {
            amplitude: 0.02 + 1e-6 * (seed % 1000) as f64,
        };
        Product::InTransit(InTransitConfig {
            case,
            sim_ranks,
            ratio: 4,
            steps,
            trigger_every: 1,
            machine: juwels_derated().0,
            link: StagingLink::ucx_hdr200(),
            queue_capacity: 8,
            policy: QueuePolicy::Block,
            mode: EndpointMode::Catalyst,
            sched: SchedMode::Thread,
            wire: WireKind::Tcp,
            staging_consumers: 0,
            staging_dir: None,
            image_size,
            output_dir: Some(out.to_path_buf()),
            faults: FaultPlan::none(),
            writer_config: WriterConfig::default(),
            fallback_dir: None,
            trace: false,
            telemetry: false,
            recovery: Default::default(),
        })
    }

    pub fn steps(&self) -> usize {
        match self {
            Product::InSitu(c) => c.steps,
            Product::InTransit(c) => c.steps,
        }
    }

    pub fn with_steps(&self, steps: usize) -> Self {
        let mut p = self.clone();
        match &mut p {
            Product::InSitu(c) => c.steps = steps,
            Product::InTransit(c) => c.steps = steps,
        }
        p
    }

    /// The paired cell the paper subtracts: same simulation, no consumer.
    pub fn without_consumer(&self) -> Self {
        let mut p = self.clone();
        match &mut p {
            Product::InSitu(c) => {
                c.mode = InSituMode::Original;
                c.output_dir = None;
            }
            Product::InTransit(c) => {
                c.mode = EndpointMode::NoTransport;
                c.output_dir = None;
            }
        }
        p
    }

    fn has_consumer(&self) -> bool {
        match self {
            Product::InSitu(c) => c.mode != InSituMode::Original,
            Product::InTransit(c) => c.mode != EndpointMode::NoTransport,
        }
    }

    pub fn triggers(&self) -> u64 {
        if !self.has_consumer() {
            return 0;
        }
        match self {
            Product::InSitu(c) => c.steps as u64 / c.trigger_every.max(1),
            Product::InTransit(c) => c.steps as u64 / c.trigger_every.max(1),
        }
    }

    /// PNG files a call must leave behind: two images per trigger.
    fn expected_pngs(&self) -> u64 {
        match self {
            Product::InSitu(c) if c.mode == InSituMode::Catalyst => 2 * self.triggers(),
            Product::InTransit(c) if c.mode == EndpointMode::Catalyst => 2 * self.triggers(),
            _ => 0,
        }
    }

    fn image_size(&self) -> (usize, usize) {
        match self {
            Product::InSitu(c) => c.image_size,
            Product::InTransit(c) => c.image_size,
        }
    }

    fn output_dir(&self) -> Option<&PathBuf> {
        match self {
            Product::InSitu(c) => c.output_dir.as_ref(),
            Product::InTransit(c) => c.output_dir.as_ref(),
        }
    }

    /// Empty the output directory, so a call's files are its own.
    fn clear_outputs(&self) {
        if let Some(dir) = self.output_dir() {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create the output directory");
        }
    }

    /// One product call on a clean output directory; only the call itself
    /// is timed.
    pub fn call(&self) -> Call {
        self.clear_outputs();
        match self {
            Product::InSitu(cfg) => {
                let (wall_s, r) = timed(|| run_insitu(cfg));
                Call {
                    wall_s,
                    virt_tts_s: r.metrics.time_to_solution,
                    virt_host_peak: r.metrics.memory.host_aggregate_peak,
                    boundary_bytes: r.metrics.totals.bytes_d2h,
                    frames: r.files_written,
                    totals: r.metrics.totals,
                    intransit: None,
                }
            }
            Product::InTransit(cfg) => {
                let (wall_s, r) = timed(|| run_intransit(cfg));
                Call {
                    wall_s,
                    virt_tts_s: r.sim.time_to_solution,
                    virt_host_peak: r.sim.memory.host_aggregate_peak,
                    boundary_bytes: r.endpoint_bytes_received,
                    // The report counts endpoint steps, not images: a
                    // Catalyst endpoint renders two per step.
                    frames: self.expected_pngs().min(2 * r.endpoint_steps),
                    totals: r.sim.totals,
                    intransit: Some(r),
                }
            }
        }
    }

    /// The per-call checks: outputs counted, nothing lost, virtual time
    /// repeating bitwise.
    fn check_call(&self, call: &Call, checks: &mut Checks, first_virt: &mut Option<u64>) {
        checks.count(
            self.expected_pngs(),
            call.frames,
            "images the product reports",
        );
        if let Some(dir) = self.output_dir() {
            let on_disk = std::fs::read_dir(dir).map_or(0, |entries| {
                let pngs = entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "png"));
                pngs.count() as u64
            });
            checks.count(self.expected_pngs(), on_disk, "PNG files on disk");
        }
        checks.same_bits(first_virt, call.virt_tts_s, "virtual time-to-solution");
        if let (Some(r), Product::InTransit(cfg)) = (&call.intransit, self) {
            let triggers = self.triggers();
            checks.count(
                cfg.sim_ranks as u64 * triggers,
                r.degradation.staged_steps,
                "staged steps (producers × triggers)",
            );
            checks.count(triggers, r.endpoint_steps, "steps the endpoints processed");
            checks.check(r.degradation.lost_steps == 0, || {
                format!("{} steps lost in transit", r.degradation.lost_steps)
            });
        }
    }

    /// Validate every PNG the last call left on disk.
    fn check_outputs(&self, checks: &mut Checks) {
        if let Some(dir) = self.output_dir() {
            let n = check_png_dir(dir, self.image_size(), checks);
            checks.count(self.expected_pngs(), n, "valid PNG files");
        }
    }
}

/// `manyrank_event` runs on one CPU: on two, the same binary takes 0.6 s
/// or 3 s per call in runs of either, which no median over a 12-second
/// window steadies. The traced run reports the unpinned behaviour.
fn pin_for(workload: Workload) -> Option<host::Pinned> {
    (workload == Workload::ManyrankEvent)
        .then(host::pin_to_one_cpu)
        .flatten()
}

pub fn run_untraced(args: &RunArgs) -> Outcome {
    let pinned = pin_for(args.workload);
    let tmp = host::temp_dir(args.workload.name()).expect("create the scratch directory");
    let product = Product::new(args.workload, args.seed, args.smoke, &tmp);
    let zero = product.with_steps(0);
    let mut out = Outcome::default();
    let mut first_virt = None;
    let measured = measure_end_to_end(
        args,
        || {
            zero.call();
        },
        || {
            let call = product.call();
            product.check_call(&call, &mut out.checks, &mut first_virt);
            call.wall_s
        },
    );
    product.check_outputs(&mut out.checks);
    let _ = std::fs::remove_dir_all(&tmp);
    let steps_per_s = product.steps() as f64 / (measured.wall_s - measured.setup_s);
    measured.record(steps_per_s, &mut out.metrics);
    if let Some(pinned) = pinned {
        pinned.release();
    }
    out
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

pub fn run_traced(args: &RunArgs) -> Outcome {
    let pinned = pin_for(args.workload);
    let tmp = host::temp_dir(args.workload.name()).expect("create the scratch directory");
    let product = Product::new(args.workload, args.seed, args.smoke, &tmp);
    let mut out = Outcome::default();
    let reps = if args.smoke { 2 } else { 15 };
    match &product {
        Product::InSitu(cfg) if args.workload == Workload::InsituPipelined => {
            traced_pipelined(args, &product, cfg, &mut out);
        }
        Product::InSitu(cfg) => {
            let (spans, wall_s) = traced_loop(args, &product, cfg, pinned.is_some(), &mut out);
            spans::write_trace(args.workload.name(), &spans);
            let (m, checks) = (&mut out.metrics, &mut out.checks);
            match args.workload {
                Workload::SolverPb146 => {
                    stations::sem(cfg, reps, args.smoke, m);
                    stations::pool(m);
                }
                Workload::InsituSync => {
                    stations::render(cfg, reps, &tmp, m, checks);
                    stations::fld(cfg, reps, m, checks);
                    stations::observability(cfg, if args.smoke { 1 } else { 3 }, m);
                }
                _ => stations::commsim(cfg.ranks, if args.smoke { 20 } else { 200 }, m),
            }
            if let Some(pinned) = pinned {
                unpinned_event(args, &product, pinned, wall_s, m);
            }
        }
        Product::InTransit(cfg) => {
            traced_intransit(args, &product, cfg, &tmp, &mut out);
            stations::transport(cfg, reps, &mut out.metrics, &mut out.checks);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    out
}

/// Metrics every sim workload takes from its untraced reference calls
/// (`with` and `without` the consumer).
fn reference_metrics(
    product: &Product,
    with: (&[f64], &Call),
    without: (&[f64], &Call),
    zero_s: f64,
    m: &mut Metrics,
) {
    let (walls, call) = with;
    let (bare_walls, bare) = without;
    m.set("e2e.virt_tts_s", call.virt_tts_s);
    m.set("e2e.virt_host_peak_MB", call.virt_host_peak as f64 / 1e6);
    let triggers = product.triggers();
    if triggers == 0 {
        return;
    }
    let wall_s = median(walls);
    m.set(
        "e2e.trigger_ms",
        1e3 * (wall_s - median(bare_walls)) / triggers as f64,
    );
    m.set("e2e.frames_per_s", call.frames as f64 / (wall_s - zero_s));
    m.set(
        "e2e.bytes_per_trigger",
        (call.boundary_bytes - bare.boundary_bytes) as f64 / triggers as f64,
    );
}

/// solver_pb146, insitu_sync and manyrank_event: the consumer-less pair,
/// the rebuilt loop with the recorder off and on, the zero-step call and
/// the product call itself, round-robin; then the layer metrics out of the
/// recorded spans. Returns the spans and the product call's median wall.
fn traced_loop(
    args: &RunArgs,
    product: &Product,
    cfg: &InSituConfig,
    pinned: bool,
    out: &mut Outcome,
) -> (Vec<Span>, f64) {
    let bare = product.without_consumer();
    let zero = product.with_steps(0);
    let mut thread_cfg = cfg.clone();
    thread_cfg.sched = SchedMode::Thread;
    let under_threads = Product::InSitu(thread_cfg);
    let spec = LoopSpec::from_config(cfg);
    let off = Arc::new(Recorder::off());
    let on = Arc::new(Recorder::on());
    let (mut last_call, mut last_bare, mut last_loop) = (None, None, None);
    let mut first_virt = None;
    let checks = &mut out.checks;
    // The pinned workload keeps part of its window for the unpinned calls.
    let seconds = if pinned {
        args.seconds * (1.0 - UNPINNED_SHARE)
    } else {
        args.seconds
    };
    // The product call goes last in a round, so the PNGs left on disk at
    // the end are its own.
    let walls = alternate(
        seconds,
        2,
        &mut [
            &mut || {
                let call = bare.call();
                let wall = call.wall_s;
                last_bare = Some(call);
                wall
            },
            &mut || {
                product.clear_outputs();
                simloop::run(&spec, &off).wall_s
            },
            &mut || {
                product.clear_outputs();
                let run = simloop::run(&spec, &on);
                let wall = run.wall_s;
                last_loop = Some(run);
                wall
            },
            &mut || zero.call().wall_s,
            &mut || match cfg.sched {
                SchedMode::Event => under_threads.call().wall_s,
                SchedMode::Thread => 0.0,
            },
            &mut || {
                let call = product.call();
                product.check_call(&call, checks, &mut first_virt);
                let wall = call.wall_s;
                last_call = Some(call);
                wall
            },
        ],
    );
    let (call, bare_call, looped): (Call, Call, LoopOutcome) = (
        last_call.expect("one round"),
        last_bare.expect("one round"),
        last_loop.expect("one round"),
    );
    let checks = &mut out.checks;
    product.check_outputs(checks);
    let [bare_walls, off_walls, on_walls, zero_walls, thread_walls, walls] =
        <[Vec<f64>; 6]>::try_from(walls).expect("six variants");
    let (wall_s, off_s, on_s) = (median(&walls), median(&off_walls), median(&on_walls));
    println!(
        "  rounds {}: product {wall_s:.4} s, no consumer {:.4} s, loop off {off_s:.4} s, loop on {on_s:.4} s",
        walls.len(),
        median(&bare_walls)
    );

    // The rebuilt loop is the product's loop only if the virtual clock
    // agrees to the bit.
    checks.check(
        looped.virt_tts_s.to_bits() == call.virt_tts_s.to_bits(),
        || {
            format!(
                "rebuilt loop's virtual time {:?} is not run_insitu's {:?}",
                looped.virt_tts_s, call.virt_tts_s
            )
        },
    );
    check_solver_reports(&looped, cfg, checks);

    let m = &mut out.metrics;
    reference_metrics(
        product,
        (&walls, &call),
        (&bare_walls, &bare_call),
        median(&zero_walls),
        m,
    );
    m.set("core.driver_overhead_pct", pct_over(wall_s, off_s));
    m.set("bench.trace_overhead_pct", pct_over(on_s, off_s));
    if cfg.sched == SchedMode::Event {
        // Same cell, same binary, the other scheduler; bitwise the same
        // virtual time is `tests/scheduler_parity.rs`'s job.
        m.set("commsim.event_over_thread", wall_s / median(&thread_walls));
    }
    let steps = cfg.steps as f64;
    m.set(
        "commsim.collectives_per_step",
        looped.totals.collectives as f64 / cfg.ranks as f64 / steps,
    );
    m.set(
        "commsim.messages_per_step",
        looped.totals.messages_sent as f64 / steps,
    );
    let per_step = |f: &dyn Fn(&StepReport) -> usize| {
        looped.reports.iter().map(f).sum::<usize>() as f64 / steps
    };
    m.set(
        "sem.pressure_iters_per_step",
        per_step(&|r| r.pressure.iterations),
    );
    m.set(
        "sem.velocity_iters_per_step",
        per_step(&|r| r.velocity.iter().map(|c| c.iterations).sum()),
    );

    let spans = on.take();
    let loops = on_walls.len() as f64;
    let triggers = product.triggers() as f64;
    layer_metrics(&spans, loops, steps, triggers, m);
    if triggers > 0.0 {
        m.set(
            "devsim.d2h_bytes_per_trigger",
            looped.totals.bytes_d2h as f64 / triggers,
        );
    }
    let root = spans::totals_by_name(&spans)["bench.loop"];
    let unattributed = 100.0 * root.self_ms / root.total_ms;
    m.set("bench.loop_unattributed_pct", unattributed);
    checks.check(unattributed <= 10.0, || {
        format!("{unattributed:.1}% of the traced loop's wall time is in no layer's span")
    });
    (spans, wall_s)
}

/// CG converged and the velocity field stayed bounded, every step.
fn check_solver_reports(looped: &LoopOutcome, cfg: &InSituConfig, checks: &mut Checks) {
    checks.count(
        cfg.steps as u64,
        looped.reports.len() as u64,
        "solver steps",
    );
    for r in &looped.reports {
        let mut solves = std::iter::once(&r.pressure)
            .chain(&r.velocity)
            .chain(r.temperature.as_ref());
        checks.check(solves.all(|c| c.converged), || {
            format!("step {}: a CG solve hit its iteration cap", r.step)
        });
        checks.check(r.divergence < DIVERGENCE_TOLERANCE, || {
            format!("step {}: divergence {:e}", r.step, r.divergence)
        });
    }
}

/// Weighted L2 norm of ∇·u above which a step counts as failed. The cells
/// run the start-up transient of an impulsively started flow, where the
/// norm sits between 0.7 and 4.6 and decays; a run that is blowing up
/// passes 10 within a few steps on its way to NaN (which also fails).
const DIVERGENCE_TOLERANCE: f64 = 10.0;

/// Per-layer numbers from the traced loops' spans (`loops` runs of
/// `steps` steps with `triggers` triggers each).
fn layer_metrics(spans: &[Span], loops: f64, steps: f64, triggers: f64, m: &mut Metrics) {
    let totals = spans::totals_by_name(spans);
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ms);
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ms);
    let step_ms = spans::durations_ms(spans, "sem.step");
    m.set("sem.step_ms_p50", median(&step_ms));
    m.set("sem.step_ms_p95", percentile(&step_ms, 95.0));
    m.set("sem.build_ms", total_ms("sem.build") / loops);
    for (layer, ms) in spans::self_ms_by_layer(spans) {
        if layer != "bench" && layer != "commsim" {
            m.set(&format!("{layer}.self_ms_per_step"), ms / loops / steps);
        }
    }
    if triggers == 0.0 {
        return;
    }
    let per_trigger = loops * triggers;
    m.set(
        "core.geometry_build_ms",
        total_ms("core.geometry_build") / loops,
    );
    m.set(
        "insitu.bridge_init_ms",
        total_ms("insitu.bridge_init") / loops,
    );
    m.set(
        "devsim.d2h_ms_per_trigger",
        total_ms("devsim.publish_snapshot") / per_trigger,
    );
    m.set(
        "core.adaptor_ms_per_trigger",
        (total_ms("core.adaptor_new")
            + total_ms("core.adaptor_mesh")
            + total_ms("core.adaptor_array"))
            / per_trigger,
    );
    m.set(
        "insitu.bridge_update_self_ms",
        self_ms("insitu.bridge_update") / per_trigger,
    );
    m.set(
        "render.execute_ms_per_trigger",
        self_ms("render.execute") / per_trigger,
    );
}

/// Share of a traced run's window the pinned workload spends unpinned.
const UNPINNED_SHARE: f64 = 0.4;

/// What pinning hides: the same event cell free to use every CPU.
fn unpinned_event(
    args: &RunArgs,
    product: &Product,
    pinned: host::Pinned,
    pinned_wall_s: f64,
    m: &mut Metrics,
) {
    pinned.release();
    let budget = args.seconds * UNPINNED_SHARE;
    let walls = alternate(budget, 3, &mut [&mut || product.call().wall_s]);
    let fast = walls[0]
        .iter()
        .filter(|w| **w <= 1.5 * pinned_wall_s)
        .count();
    println!("  unpinned event calls: {:.3?} s", walls[0]);
    m.set(
        "commsim.event_fast_share",
        fast as f64 / walls[0].len() as f64,
    );
    m.set(
        "commsim.unpinned_over_pinned",
        median(&walls[0]) / pinned_wall_s,
    );
}

/// insitu_pipelined: the pipelined cell beside its synchronous and
/// consumer-less pairs. The pipelined driver's links are private, so
/// there is no loop to rebuild: its layers are timed on `insitu_sync`.
fn traced_pipelined(args: &RunArgs, product: &Product, cfg: &InSituConfig, out: &mut Outcome) {
    let mut sync_cfg = cfg.clone();
    sync_cfg.exec = ExecMode::Synchronous;
    let sync = Product::InSitu(sync_cfg);
    let r = reference_rounds(args, product, &sync, &mut out.checks);
    let (piped_s, bare_s, sync_s) = (
        median(&r.walls),
        median(&r.bare_walls),
        median(&r.other_walls),
    );
    println!(
        "  rounds {}: pipelined {piped_s:.4} s, no consumer {bare_s:.4} s, synchronous {sync_s:.4} s",
        r.walls.len()
    );
    let m = &mut out.metrics;
    r.reference_metrics(product, m);
    m.set(
        "core.pipeline_overlap_ratio",
        (sync_s - piped_s) / (sync_s - bare_s),
    );
}

/// intransit_tcp: the Catalyst endpoint beside the NoTransport and
/// Checkpointing endpoints. Both worlds run inside `run_intransit`; the
/// transport stages are timed as stations on a sim rank's real payload.
fn traced_intransit(
    args: &RunArgs,
    product: &Product,
    cfg: &InTransitConfig,
    tmp: &Path,
    out: &mut Outcome,
) {
    let mut chk_cfg = cfg.clone();
    chk_cfg.mode = EndpointMode::Checkpointing;
    chk_cfg.output_dir = Some(tmp.join("vtu"));
    let checkpointing = Product::InTransit(chk_cfg);
    let r = reference_rounds(args, product, &checkpointing, &mut out.checks);
    let (bare_s, chk_s) = (median(&r.bare_walls), median(&r.other_walls));
    println!(
        "  rounds {}: catalyst endpoint {:.4} s, no transport {bare_s:.4} s, checkpointing endpoint {chk_s:.4} s",
        r.walls.len(),
        median(&r.walls)
    );
    let m = &mut out.metrics;
    r.reference_metrics(product, m);
    m.set(
        "transport.endpoint_checkpoint_ms_per_trigger",
        1e3 * (chk_s - bare_s) / product.triggers() as f64,
    );
    let call = &r.call;
    let report = call.intransit.as_ref().expect("an in-transit call");
    m.set("transport.retries", report.degradation.retries as f64);
    m.set("transport.lost_steps", report.degradation.lost_steps as f64);
    let steps = cfg.steps as f64;
    m.set(
        "commsim.collectives_per_step",
        call.totals.collectives as f64 / cfg.sim_ranks as f64 / steps,
    );
    m.set(
        "commsim.messages_per_step",
        call.totals.messages_sent as f64 / steps,
    );
}

/// Wall series and last calls of [`reference_rounds`].
struct Rounds {
    walls: Vec<f64>,
    bare_walls: Vec<f64>,
    other_walls: Vec<f64>,
    zero_walls: Vec<f64>,
    call: Call,
    bare_call: Call,
}

impl Rounds {
    fn reference_metrics(&self, product: &Product, m: &mut Metrics) {
        reference_metrics(
            product,
            (&self.walls, &self.call),
            (&self.bare_walls, &self.bare_call),
            median(&self.zero_walls),
            m,
        );
    }
}

/// The round-robin shared by the workloads without a rebuilt loop: the
/// consumer-less pair, one `other` variant of the cell, the zero-step
/// call, and the product call last (so the files left behind are its
/// own, checked here).
fn reference_rounds(
    args: &RunArgs,
    product: &Product,
    other: &Product,
    checks: &mut Checks,
) -> Rounds {
    let bare = product.without_consumer();
    let zero = product.with_steps(0);
    let mut first_virt = None;
    let (mut last_call, mut last_bare) = (None, None);
    let walls = alternate(
        args.seconds,
        2,
        &mut [
            &mut || {
                let call = bare.call();
                let wall = call.wall_s;
                last_bare = Some(call);
                wall
            },
            &mut || other.call().wall_s,
            &mut || zero.call().wall_s,
            &mut || {
                let call = product.call();
                product.check_call(&call, checks, &mut first_virt);
                let wall = call.wall_s;
                last_call = Some(call);
                wall
            },
        ],
    );
    product.check_outputs(checks);
    let [bare_walls, other_walls, zero_walls, walls] =
        <[Vec<f64>; 4]>::try_from(walls).expect("four variants");
    Rounds {
        walls,
        bare_walls,
        other_walls,
        zero_walls,
        call: last_call.expect("one round"),
        bare_call: last_bare.expect("one round"),
    }
}
