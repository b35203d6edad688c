//! Golden-image regression: the render pipeline's PNG output for the two
//! paper cases, hashed and pinned. Rendering is a pure function of the
//! (deterministic) solver state, so these bytes are bit-stable across
//! runs and machines; any change to the solver, the filters, the
//! rasterizer, the colormaps or the PNG encoder shows up here.
//!
//! **Blessing new goldens:** when a change is *intentional*, run
//!
//! ```text
//! cargo test --test golden_images -- --nocapture
//! ```
//!
//! and copy the `computed 0x...` values from the failure messages into
//! the `GOLDEN_*` constants below. Include the rationale in the commit.

use commsim::MachineModel;
use nek_sensei::{
    run_insitu, run_intransit, EndpointMode, ExecMode, InSituConfig, InSituMode, InTransitConfig,
};
use render::fnv1a64;
use sem::cases::{pb146, rbc, CaseParams};
use transport::{QueuePolicy, StagingLink, WriterConfig};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nek-sensei-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_golden(dir: &std::path::Path, file: &str, expected: u64) {
    let path = dir.join(file);
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("golden image {path:?} was not rendered: {e}"));
    let got = fnv1a64(&bytes);
    assert_eq!(
        got,
        expected,
        "golden image {file} changed: computed {got:#018x}, pinned {expected:#018x} \
         ({} bytes). If the rendering change is intentional, re-bless: run \
         `cargo test --test golden_images -- --nocapture` and update the \
         constant in tests/golden_images.rs.",
        bytes.len()
    );
}

// ---- pb146 pebble bed, in situ Catalyst (§4.1) -------------------------

const GOLDEN_PB146_PRESSURE_SLICE: u64 = 0xf3f7390bab19e95c;
const GOLDEN_PB146_VELOCITY_CONTOUR: u64 = 0x1e9049e0312575fe;

#[test]
fn pb146_insitu_frames_match_goldens() {
    // Same pixels whether the bridge runs inline or in the consumer world.
    for exec in [ExecMode::Synchronous, ExecMode::Pipelined] {
        let dir = scratch_dir(&format!("pb146-{}", exec.label()));
        let mut params = CaseParams::pb146_default();
        params.elems = [2, 2, 4];
        params.order = 2;
        let report = run_insitu(&InSituConfig {
            case: pb146(&params, 8),
            ranks: 2,
            steps: 3,
            trigger_every: 3,
            machine: MachineModel::test_tiny(),
            image_size: (64, 48),
            mode: InSituMode::Catalyst,
            exec,
            sched: Default::default(),
            faults: commsim::FaultPlan::none(),
            output_dir: Some(dir.clone()),
            trace: false,
            telemetry: false,
            recovery: Default::default(),
        });
        assert!(report.files_written > 0, "Catalyst must write images");
        // Trigger fires once, at step 3: the paper's two-image setup.
        assert_golden(
            &dir,
            "pressure_slice_000003.png",
            GOLDEN_PB146_PRESSURE_SLICE,
        );
        assert_golden(
            &dir,
            "velocity_contour_000003.png",
            GOLDEN_PB146_VELOCITY_CONTOUR,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- Rayleigh–Bénard, in transit Catalyst endpoint (§4.2) --------------

const GOLDEN_RBC_TEMPERATURE_SLICE: u64 = 0x05fb35f63597c9ac;
const GOLDEN_RBC_VELOCITY_CONTOUR: u64 = 0xd45af6854e8f9b02;

#[test]
fn rbc_intransit_frames_match_goldens() {
    let dir = scratch_dir("rbc");
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    let report = run_intransit(&InTransitConfig {
        case: rbc(&params, 1e4, 0.7),
        sim_ranks: 4,
        ratio: 4,
        steps: 4,
        trigger_every: 2,
        machine: MachineModel::juwels_booster(),
        link: StagingLink::ucx_hdr200(),
        queue_capacity: 8,
        policy: QueuePolicy::Block,
        mode: EndpointMode::Catalyst,
        sched: Default::default(),
        wire: Default::default(),
        staging_consumers: 0,
        staging_dir: None,
        image_size: (64, 48),
        output_dir: Some(dir.clone()),
        faults: commsim::FaultPlan::none(),
        writer_config: WriterConfig::default(),
        fallback_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    });
    assert_eq!(report.endpoint_steps, 2, "triggers at steps 2 and 4");
    // The endpoint renders on every delivered trigger; pin the last one.
    assert_golden(
        &dir,
        "temperature_slice_000004.png",
        GOLDEN_RBC_TEMPERATURE_SLICE,
    );
    assert_golden(
        &dir,
        "velocity_contour_000004.png",
        GOLDEN_RBC_VELOCITY_CONTOUR,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
