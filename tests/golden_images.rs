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

/// `sim_ranks` simulation ranks feeding Catalyst endpoint ranks at 4:1
/// for `steps` steps, a trigger every `trigger_every`.
fn rbc_catalyst_endpoint(
    case: sem::cases::CaseSetup,
    sim_ranks: usize,
    (steps, trigger_every): (usize, u64),
    image_size: (usize, usize),
    dir: &std::path::Path,
) -> InTransitConfig {
    InTransitConfig {
        case,
        sim_ranks,
        ratio: 4,
        steps,
        trigger_every,
        machine: MachineModel::juwels_booster(),
        link: StagingLink::ucx_hdr200(),
        queue_capacity: 8,
        policy: QueuePolicy::Block,
        mode: EndpointMode::Catalyst,
        sched: Default::default(),
        wire: Default::default(),
        staging_consumers: 0,
        staging_dir: None,
        image_size,
        output_dir: Some(dir.to_path_buf()),
        faults: commsim::FaultPlan::none(),
        writer_config: WriterConfig::default(),
        fallback_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

#[test]
fn rbc_intransit_frames_match_goldens() {
    let dir = scratch_dir("rbc");
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    let report = run_intransit(&rbc_catalyst_endpoint(
        rbc(&params, 1e4, 0.7),
        4,
        (4, 2),
        (64, 48),
        &dir,
    ));
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

// ---- The benchmark's own cells, at their real image sizes --------------
//
// The 64×48 frames above cannot catch a span, tile-edge or clamp error
// that only shows at real sizes, so the three render-heavy `nekbench`
// cells are pinned too (seed 146, the benchmark's default): same meshes,
// rank counts, image sizes and scheduler; fewer steps, which moves no
// code path.

/// The benchmark's seeded pb146 case on `elems` at order 3.
fn bench_pb146(elems: [usize; 3]) -> sem::cases::CaseSetup {
    let mut params = CaseParams::pb146_default();
    params.elems = elems;
    params.order = 3;
    let mut case = pb146(&params, 146);
    case.init = sem::cases::InitKind::AxialInflow {
        w_in: 1.0 + 1e-6 * 146.0,
    };
    case
}

fn bench_insitu(
    case: sem::cases::CaseSetup,
    ranks: usize,
    trigger_every: u64,
    image_size: (usize, usize),
    sched: commsim::SchedMode,
    dir: &std::path::Path,
) -> InSituConfig {
    InSituConfig {
        case,
        ranks,
        steps: 2,
        trigger_every,
        machine: MachineModel::polaris(),
        image_size,
        mode: InSituMode::Catalyst,
        exec: ExecMode::Synchronous,
        sched,
        faults: commsim::FaultPlan::none(),
        output_dir: Some(dir.to_path_buf()),
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

const GOLDEN_BENCH_PB146_PRESSURE_SLICE: u64 = 0x83656c0a806d0d07;
const GOLDEN_BENCH_PB146_VELOCITY_CONTOUR: u64 = 0x60eeb5229a6843e2;

/// `insitu_sync` / `insitu_pipelined`: 2 ranks, 128 elements, 800×600,
/// a trigger every step — the second trigger draws on buffers the first
/// one dirtied.
#[test]
fn bench_pb146_two_rank_800x600_frames_match_goldens() {
    let dir = scratch_dir("bench-pb146");
    let cfg = bench_insitu(
        bench_pb146([4, 4, 8]),
        2,
        1,
        (800, 600),
        commsim::SchedMode::Thread,
        &dir,
    );
    assert_eq!(run_insitu(&cfg).files_written, 4);
    assert_golden(
        &dir,
        "pressure_slice_000002.png",
        GOLDEN_BENCH_PB146_PRESSURE_SLICE,
    );
    assert_golden(
        &dir,
        "velocity_contour_000002.png",
        GOLDEN_BENCH_PB146_VELOCITY_CONTOUR,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const GOLDEN_BENCH_MANYRANK_PRESSURE_SLICE: u64 = 0xf8ef09fa18145973;
const GOLDEN_BENCH_MANYRANK_VELOCITY_CONTOUR: u64 = 0x72c51e7a07efb596;

/// `manyrank_event`: 32 ranks of one element each under the event
/// scheduler, 400×300 — 31 nearly-empty contributions into one root.
#[test]
fn bench_manyrank_event_400x300_frames_match_goldens() {
    let dir = scratch_dir("bench-manyrank");
    let cfg = bench_insitu(
        bench_pb146([1, 1, 32]),
        32,
        2,
        (400, 300),
        commsim::SchedMode::Event,
        &dir,
    );
    assert_eq!(run_insitu(&cfg).files_written, 2);
    assert_golden(
        &dir,
        "pressure_slice_000002.png",
        GOLDEN_BENCH_MANYRANK_PRESSURE_SLICE,
    );
    assert_golden(
        &dir,
        "velocity_contour_000002.png",
        GOLDEN_BENCH_MANYRANK_VELOCITY_CONTOUR,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const GOLDEN_BENCH_RBC_TEMPERATURE_SLICE: u64 = 0x8defe2575eb05e23;
const GOLDEN_BENCH_RBC_VELOCITY_CONTOUR: u64 = 0xeb2caad9ebe4314e;

/// `intransit_tcp`: the §4.2 weak-scaling RBC case on 8 sim ranks feeding
/// 2 Catalyst endpoint ranks, 800×600 (over the in-process wire: the
/// wire carries the same bytes either way).
#[test]
fn bench_rbc_eight_to_two_800x600_endpoint_frames_match_goldens() {
    let dir = scratch_dir("bench-rbc");
    let mut params = CaseParams::rbc_default();
    params.elems = [3, 3, 8];
    params.order = 3;
    params.lengths = Some([2.0, 2.0, 2.0]);
    let mut case = rbc(&params, 1e5, 0.7);
    case.init = sem::cases::InitKind::RbcPerturbed {
        amplitude: 0.02 + 1e-6 * 146.0,
    };
    let report = run_intransit(&rbc_catalyst_endpoint(case, 8, (2, 1), (800, 600), &dir));
    assert_eq!(report.endpoint_steps, 2, "a trigger every step");
    assert_golden(
        &dir,
        "temperature_slice_000002.png",
        GOLDEN_BENCH_RBC_TEMPERATURE_SLICE,
    );
    assert_golden(
        &dir,
        "velocity_contour_000002.png",
        GOLDEN_BENCH_RBC_VELOCITY_CONTOUR,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
