//! Shared case setup for the figure harnesses.
//!
//! The paper-regime sizing arithmetic (mesh dimensions, throughput
//! derating, run configuration literals) lives here once, with the one
//! showcase body both render harnesses run. Each figure pair the paper
//! draws from the same runs comes from one binary: fig2 writes Figures 2
//! and 3 from one sweep, fig5 Figures 5 and 6.

use crate::HarnessArgs;
use commsim::{run_ranks, FaultPlan, MachineModel};
use insitu::AnalysisAdaptor;
use nek_sensei::{InSituConfig, InSituMode, InTransitConfig, SnapshotPlane};
use render::pipeline::RenderPipeline;
use render::CatalystAnalysis;
use sem::cases::{pb146, rbc, CaseParams, CaseSetup};
use std::path::PathBuf;
use telemetry::{RunReport, TelemetryHub};
use transport::{QueuePolicy, StagingLink, WriterConfig};

/// The §4.1 strong-scaling sweep behind Figures 2 and 3: one global pb146
/// mesh sized for the largest rank count, run at each scaled rank count
/// under a Polaris model derated to the paper's per-rank load.
pub struct Pb146Sweep {
    /// The paper's rank counts (280/560/1120).
    pub paper_ranks: Vec<usize>,
    /// Scaled-down rank counts actually run.
    pub ranks: Vec<usize>,
    /// Steps per run.
    pub steps: usize,
    /// Trigger period.
    pub trigger: u64,
    /// The shared strong-scaling case.
    pub case: CaseSetup,
    /// Mesh parameters behind `case`.
    pub params: CaseParams,
    /// Derated Polaris model.
    pub machine: MachineModel,
    /// Applied throughput derating factor.
    pub derate: f64,
}

/// The flags [`pb146_strong_scaling`] reads.
pub const PB146_SWEEP_FLAGS: &[&str] = &["--scale", "--ranks", "--full", "--steps", "--trigger"];

/// Build the Figure 2/3 sweep from the [`PB146_SWEEP_FLAGS`].
pub fn pb146_strong_scaling(args: &HarnessArgs) -> Pb146Sweep {
    let scale = if args.full {
        1
    } else {
        args.scale.unwrap_or(40)
    };
    // `--ranks N` collapses the sweep to one actually-executed cell at
    // exactly N ranks (the event-scheduler smoke runs the paper's 1120
    // this way); otherwise the paper series is divided by `--scale`.
    let (paper_ranks, ranks): (Vec<usize>, Vec<usize>) = match args.ranks {
        Some(n) => (vec![n.max(2)], vec![n.max(2)]),
        None => {
            let paper = vec![280usize, 560, 1120];
            let scaled = paper.iter().map(|&r| (r / scale).max(2)).collect();
            (paper, scaled)
        }
    };
    let steps = args.steps.unwrap_or(if args.full { 3000 } else { 60 });
    let trigger = args.trigger.unwrap_or(if args.full { 100 } else { 10 });

    // Strong scaling: one global mesh sized for the largest rank count.
    // At `--ranks` (the paper's real counts on one host) the cross-
    // section thins to a single element — per-step cost is then
    // dominated by the world-wide rendezvous being exercised, and the
    // throughput derate below restores the paper's per-rank load in
    // virtual time exactly as for the scaled sweep.
    let nz = *ranks.iter().max().expect("nonempty");
    let mut params = CaseParams::pb146_default();
    params.elems = if args.ranks.is_some() {
        [1, 1, nz.max(8)]
    } else {
        [4, 4, nz.max(8)]
    };
    let case = pb146(&params, 146);

    // Restore the paper's compute:communication ratio: the production
    // pb146 mesh is ~350k spectral elements at N=7 (≈1.8e8 grid points);
    // derate the machine's throughputs by the per-rank size ratio so each
    // rank's kernels/transfers/IO take as long as they would at full scale.
    let paper_nodes = 350_000.0 * 512.0;
    let our_nodes = (case.n_fluid_elems() * (params.order + 1).pow(3)) as f64;
    let derate = ((paper_nodes / our_nodes) * (ranks[0] as f64 / paper_ranks[0] as f64)).max(1.0);
    let machine = MachineModel::polaris().derate_throughput(derate);

    Pb146Sweep {
        paper_ranks,
        ranks,
        steps,
        trigger,
        case,
        params,
        machine,
        derate,
    }
}

/// A §4.1 run configuration with the shared defaults (800×600 images, no
/// faults, cost-model only); callers override `output_dir`/`trace`/`exec`
/// as needed.
pub fn insitu_config(sweep: &Pb146Sweep, ranks: usize, mode: InSituMode) -> InSituConfig {
    InSituConfig {
        case: sweep.case.clone(),
        ranks,
        steps: sweep.steps,
        trigger_every: sweep.trigger,
        machine: sweep.machine.clone(),
        image_size: (800, 600),
        mode,
        exec: nek_sensei::ExecMode::Synchronous,
        sched: commsim::SchedMode::default(),
        faults: FaultPlan::none(),
        output_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

/// The §4.2 JUWELS Booster model derated to the paper's per-rank load
/// (~4e5 grid points per A100 against our 576-node weak-scaling slabs).
pub fn juwels_derated() -> (MachineModel, f64) {
    let our_per_rank_nodes = (3 * 3 * 4usize.pow(3)) as f64;
    let derate = (4.0e5 / our_per_rank_nodes).max(1.0);
    (
        MachineModel::juwels_booster().derate_throughput(derate),
        derate,
    )
}

/// The §4.2 weak-scaling RBC case at `sim_ranks`: constant 9 elements per
/// rank at order 3, domain growing with the rank count.
pub fn rbc_weak_scaling(sim_ranks: usize) -> CaseSetup {
    let mut params = CaseParams::rbc_default();
    params.elems = [3, 3, sim_ranks];
    params.order = 3;
    // Weak scaling: the domain grows with the rank count so the element
    // size (and solver conditioning) is constant.
    params.lengths = Some([2.0, 2.0, sim_ranks as f64 / 4.0]);
    rbc(&params, 1e5, 0.7)
}

/// A §4.2 run configuration with the shared defaults (4:1 ratio,
/// UCX/HDR200 link, blocking 8-packet queues, 800×600 images, no faults).
pub fn intransit_config(
    sim_ranks: usize,
    steps: usize,
    trigger: u64,
    machine: MachineModel,
    mode: nek_sensei::EndpointMode,
) -> InTransitConfig {
    InTransitConfig {
        case: rbc_weak_scaling(sim_ranks),
        sim_ranks,
        ratio: 4,
        steps,
        trigger_every: trigger,
        machine,
        link: StagingLink::ucx_hdr200(),
        queue_capacity: 8,
        policy: QueuePolicy::Block,
        mode,
        sched: commsim::SchedMode::default(),
        wire: Default::default(),
        staging_consumers: 0,
        staging_dir: None,
        image_size: (800, 600),
        output_dir: None,
        faults: FaultPlan::none(),
        writer_config: WriterConfig::default(),
        fallback_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

/// A render harness's figure: `case` on `machine`, stepped on four ranks
/// and drawn once through `pipeline`.
pub struct Showcase {
    /// The binary; names its `--report-out` artifact.
    pub name: &'static str,
    /// The RunReport manifest's `mode`: which view of the case is drawn.
    pub view: &'static str,
    /// The case run.
    pub case: CaseSetup,
    /// The machine it runs on.
    pub machine: MachineModel,
    /// The passes drawn from the final state.
    pub pipeline: RenderPipeline,
    /// Where rank 0 writes the PNGs.
    pub out: PathBuf,
    /// Steps before the frame is drawn.
    pub steps: usize,
}

impl Showcase {
    /// Step the case, publish exactly the arrays the passes request and
    /// render them. Returns rank 0's kinetic energy and maximum |u| of the
    /// final state, images written and PNG bytes. Render harnesses have
    /// no workflow driver, so `--report-out` gets the hub-only RunReport:
    /// instrument totals (sem/step_time quantiles, render counters), no
    /// per-step series.
    pub fn run(self, args: &HarnessArgs) -> (f64, f64, u64, u64) {
        let (steps, ranks) = (self.steps, 4);
        let hub = args.telemetry().then(TelemetryHub::default);
        let rank_hub = hub.clone();
        let sched = args.sched_mode();
        let manifest = telemetry::Manifest {
            case: self.case.name.clone(),
            workflow: "render".into(),
            mode: self.view.into(),
            exec: "synchronous".into(),
            sched: sched.label().into(),
            wire: "none".into(),
            ranks,
            steps: steps as u64,
            trigger_every: steps as u64,
            machine: self.machine.name.into(),
            fault_plan: "none".into(),
            pool_threads: rayon::pool::current_threads(),
            ..Default::default()
        };
        let results = commsim::with_mode(sched, || {
            run_ranks(ranks, self.machine, move |comm| {
                if let Some(hub) = &rank_hub {
                    comm.enable_telemetry(hub, 0);
                }
                let mut solver = self.case.build(comm);
                for _ in 0..steps {
                    solver.step(comm);
                }
                let plane = SnapshotPlane::new(comm, &solver);
                let mut analysis = CatalystAnalysis::new(
                    nek_sensei::MESH_NAME,
                    self.pipeline.clone(),
                    Some(self.out.clone()),
                );
                let mut da = plane.publish(comm, &mut solver, analysis.required_arrays());
                analysis.execute(comm, &mut da).expect("render");
                let ke = solver.kinetic_energy(comm);
                let umax = solver.max_velocity(comm);
                (
                    ke,
                    umax,
                    analysis.images_rendered(),
                    analysis.bytes_written(),
                )
            })
        });
        if let Some(hub) = &hub {
            let report = RunReport::collect(manifest, hub, Vec::new(), Default::default());
            crate::maybe_write_report(args, self.name, Some(&report));
        }
        results[0]
    }
}
