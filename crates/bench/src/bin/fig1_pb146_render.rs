//! **Figure 1** — visualization of the pb146 pebble-bed simulation.
//!
//! Runs the reduced-scale pebble-bed case for a few dozen steps and
//! renders the paper's style of view: the pebble-bed surface colored by
//! velocity magnitude plus a pressure slice. PNGs land under `--out`
//! (default `out/fig1`).

use bench_harness::{cases::Showcase, cli, HarnessArgs};
use commsim::MachineModel;
use render::pipeline::{FilterKind, RenderPass, RenderPipeline};
use render::Colormap;
use sem::cases::{pb146, CaseParams};

fn main() {
    let args = HarnessArgs::parse(&cli::FIG1_PB146_RENDER);
    // Pebble-bed surface by velocity magnitude, pressure slice,
    // Q-criterion vortex cores.
    let pipeline = RenderPipeline {
        width: 1000,
        height: 750,
        passes: vec![
            RenderPass {
                name: "pebble_bed_surface".into(),
                filter: FilterKind::Surface,
                array: "velocity".into(),
                colormap: Colormap::viridis(),
                range: None,
                camera_dir: [1.0, 0.8, 0.45],
            },
            RenderPass {
                name: "pressure_slice".into(),
                filter: FilterKind::Slice {
                    origin: [0.5, 0.5, 1.0],
                    normal: [0.0, 1.0, 0.0],
                },
                array: "pressure".into(),
                colormap: Colormap::cool_warm(),
                range: None,
                camera_dir: [0.0, -1.0, 0.15],
            },
            RenderPass {
                name: "q_criterion_cores".into(),
                filter: FilterKind::ContourAtFraction(0.55),
                array: "q_criterion".into(),
                colormap: Colormap::viridis(),
                range: None,
                camera_dir: [0.8, 1.0, 0.5],
            },
        ],
        legend: true,
    };
    let steps = args.steps.unwrap_or(30);
    let (ke, _, images, bytes) = Showcase {
        name: "fig1_pb146_render",
        view: "showcase",
        case: pb146(&CaseParams::pb146_default(), 146),
        machine: MachineModel::polaris(),
        pipeline,
        out: args.out.clone().unwrap_or_else(|| "out/fig1".into()),
        steps,
    }
    .run(&args);

    println!("pb146 after {steps} steps: kinetic energy {ke:.4}");
    println!("Figure 1: rendered {images} image(s), {bytes} bytes of PNGs");
    println!("(rank 0 wrote the files; see the output directory)");
}
