//! **Figure 4** — side view of a Rayleigh–Bénard convection case.
//!
//! Runs the reduced-scale RBC case past convection onset and renders the
//! paper's side view: a vertical slice colored by temperature, with a
//! velocity-magnitude contour as the second image.

use bench_harness::{cases::Showcase, cli, HarnessArgs};
use commsim::MachineModel;
use render::pipeline::{FilterKind, RenderPass, RenderPipeline};
use render::Colormap;
use sem::cases::{rbc, CaseParams};

fn main() {
    let args = HarnessArgs::parse(&cli::FIG4_RBC_RENDER);
    // A vertical temperature slice plus a velocity-magnitude contour.
    let pipeline = RenderPipeline {
        width: 1200,
        height: 500,
        passes: vec![
            RenderPass {
                name: "rbc_side_temperature".into(),
                filter: FilterKind::Slice {
                    origin: [1.0, 1.0, 0.5],
                    normal: [0.0, 1.0, 0.0],
                },
                array: "temperature".into(),
                colormap: Colormap::cool_warm(),
                range: Some((0.0, 1.0)),
                camera_dir: [0.0, -1.0, 0.0],
            },
            RenderPass {
                name: "rbc_velocity_contour".into(),
                filter: FilterKind::ContourAtFraction(0.5),
                array: "velocity".into(),
                colormap: Colormap::viridis(),
                range: None,
                camera_dir: [0.6, -1.0, 0.35],
            },
        ],
        legend: true,
    };
    let steps = args.steps.unwrap_or(120);
    let (ke, umax, images, _) = Showcase {
        name: "fig4_rbc_render",
        view: "side_view",
        case: rbc(&CaseParams::rbc_default(), 1e5, 0.7),
        machine: MachineModel::juwels_booster(),
        pipeline,
        out: args.out.clone().unwrap_or_else(|| "out/fig4".into()),
        steps,
    }
    .run(&args);

    println!("RBC after {steps} steps: KE = {ke:.5}, |u|max = {umax:.4}");
    println!("Figure 4: rendered {images} image(s) to the output directory");
    if ke < 1e-9 {
        println!("note: convection has not set in yet — try more --steps");
    }
}
