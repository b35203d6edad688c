//! **Figure 4** — side view of a Rayleigh–Bénard convection case.
//!
//! Runs the reduced-scale RBC case past convection onset and renders the
//! paper's side view: a vertical slice colored by temperature, with a
//! velocity-magnitude contour as the second image.

use bench_harness::{cases, cli, maybe_write_report, HarnessArgs};
use commsim::{run_ranks, MachineModel, TelemetryHub};
use sem::cases::{rbc, CaseParams};

fn main() {
    let args = HarnessArgs::parse(&cli::FIG4_RBC_RENDER);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("out/fig4"));
    let steps = args.steps.unwrap_or(120);
    let ranks = 4;

    // Hub-only telemetry, like fig1: instrument totals without a
    // workflow driver's per-step series.
    let hub = args.telemetry().then(TelemetryHub::default);
    let rank_hub = hub.clone();
    let sched = args.sched_mode();
    let results = commsim::with_mode(sched, || {
        run_ranks(ranks, MachineModel::juwels_booster(), move |comm| {
            if let Some(hub) = &rank_hub {
                comm.enable_telemetry(hub, 0);
            }
            let params = CaseParams::rbc_default();
            let case = rbc(&params, 1e5, 0.7);
            let mut solver = case.build(comm);
            for _ in 0..steps {
                solver.step(comm);
            }
            let (images, _bytes) = cases::render_current_state(
                comm,
                &mut solver,
                cases::rbc_side_view_pipeline(),
                Some(out.clone()),
            );
            (
                solver.kinetic_energy(comm),
                solver.max_velocity(comm),
                images,
            )
        })
    });

    let (ke, umax, images) = results[0];
    println!("RBC after {steps} steps: KE = {ke:.5}, |u|max = {umax:.4}");
    println!("Figure 4: rendered {images} image(s) to the output directory");
    if ke < 1e-9 {
        println!("note: convection has not set in yet — try more --steps");
    }
    if let Some(hub) = &hub {
        let report = telemetry::RunReport::collect(
            telemetry::Manifest {
                case: "rbc".into(),
                workflow: "render".into(),
                mode: "side_view".into(),
                exec: "synchronous".into(),
                sched: sched.label().into(),
                wire: "none".into(),
                ranks,
                endpoint_ranks: 0,
                steps: steps as u64,
                trigger_every: steps as u64,
                machine: "juwels-booster".into(),
                fault_plan: "none".into(),
                pool_threads: rayon::pool::current_threads(),
                pipeline_depth: 0,
            },
            hub,
            Vec::new(),
            telemetry::MemorySummary::default(),
        );
        maybe_write_report(&args, "fig4_rbc_render", Some(&report));
    }
}
