//! **Figure 1** — visualization of the pb146 pebble-bed simulation.
//!
//! Runs the reduced-scale pebble-bed case for a few dozen steps and
//! renders the paper's style of view: the pebble-bed surface colored by
//! velocity magnitude plus a pressure slice. PNGs land under `--out`
//! (default `out/fig1`).

use bench_harness::{cases, cli, maybe_write_report, HarnessArgs};
use commsim::{run_ranks, MachineModel, TelemetryHub};
use sem::cases::{pb146, CaseParams};

fn main() {
    let args = HarnessArgs::parse(&cli::FIG1_PB146_RENDER);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("out/fig1"));
    let steps = args.steps.unwrap_or(30);
    let ranks = 4;

    // Render harnesses have no workflow driver, so `--report-out` gets
    // the hub-only artifact: instrument totals (sem/step_time quantiles,
    // render counters), no per-step series.
    let hub = args.telemetry().then(TelemetryHub::default);
    let rank_hub = hub.clone();
    let sched = args.sched_mode();
    let results = commsim::with_mode(sched, || {
        run_ranks(ranks, MachineModel::polaris(), move |comm| {
            if let Some(hub) = &rank_hub {
                comm.enable_telemetry(hub, 0);
            }
            let params = CaseParams::pb146_default();
            let case = pb146(&params, 146);
            let mut solver = case.build(comm);
            for _ in 0..steps {
                solver.step(comm);
            }
            let (images, bytes) = cases::render_current_state(
                comm,
                &mut solver,
                cases::pb146_showcase_pipeline(),
                Some(out.clone()),
            );
            (solver.kinetic_energy(comm), images, bytes)
        })
    });

    let (ke, images, bytes) = results[0];
    println!("pb146 after {steps} steps: kinetic energy {ke:.4}");
    println!("Figure 1: rendered {images} image(s), {bytes} bytes of PNGs");
    println!("(rank 0 wrote the files; see the output directory)");
    if let Some(hub) = &hub {
        let report = telemetry::RunReport::collect(
            telemetry::Manifest {
                case: "pb146".into(),
                workflow: "render".into(),
                mode: "showcase".into(),
                exec: "synchronous".into(),
                sched: sched.label().into(),
                wire: "none".into(),
                ranks,
                endpoint_ranks: 0,
                steps: steps as u64,
                trigger_every: steps as u64,
                machine: "polaris".into(),
                fault_plan: "none".into(),
                pool_threads: rayon::pool::current_threads(),
                pipeline_depth: 0,
            },
            hub,
            Vec::new(),
            telemetry::MemorySummary::default(),
        );
        maybe_write_report(&args, "fig1_pb146_render", Some(&report));
    }
}
