//! Integration: the snapshot data plane's lifecycle guarantees — pooled
//! staging buffers reach an allocation-free steady state, the pipelined
//! high-water mark is exactly `PIPELINE_DEPTH` snapshots, both
//! execution modes render bitwise-identical frames, and a stalled
//! consumer throttles the producer without corrupting the output stream.

use commsim::{run_ranks, ConsumerStall, FaultPlan, MachineModel};
use nek_sensei::{run_insitu, ExecMode, InSituConfig, InSituMode, PIPELINE_DEPTH};
use render::fnv1a64;
use sem::cases::{pb146, CaseParams};
use sem::snapshot::{SnapshotPool, SnapshotSpec};
use std::collections::BTreeMap;

fn catalyst_config(exec: ExecMode) -> InSituConfig {
    let mut params = CaseParams::pb146_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    InSituConfig {
        case: pb146(&params, 4),
        ranks: 2,
        steps: 8,
        trigger_every: 2,
        machine: MachineModel::polaris(),
        image_size: (64, 48),
        mode: InSituMode::Catalyst,
        exec,
        sched: Default::default(),
        faults: FaultPlan::none(),
        output_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nek-sensei-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Hash every file in `dir` by name.
fn frame_hashes(dir: &std::path::Path) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let bytes = std::fs::read(entry.path()).expect("frame readable");
        out.insert(name, fnv1a64(&bytes));
    }
    out
}

#[test]
fn steady_state_publish_reuses_pooled_buffers() {
    run_ranks(1, MachineModel::test_tiny(), |comm| {
        let mut params = CaseParams::pb146_default();
        params.elems = [2, 2, 4];
        params.order = 2;
        let mut solver = pb146(&params, 4).build(comm);
        let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
        let spec = SnapshotSpec {
            pressure: true,
            velocity: true,
            ..SnapshotSpec::default()
        };
        // Warm-up: the first publish creates the staging buffers.
        let acct = comm.accountant("snapshot-pool");
        solver.step(comm);
        drop(solver.publish_snapshot(comm, &spec, &pool));
        let warm = (acct.current(), acct.peak());
        assert!(warm.0 > 0, "first publish must allocate");

        for _ in 0..5 {
            solver.step(comm);
            drop(solver.publish_snapshot(comm, &spec, &pool));
        }
        assert_eq!(
            (acct.current(), acct.peak()),
            warm,
            "steady-state publishes must reuse the warm buffers"
        );
    });
}

#[test]
fn pipelined_pool_high_water_is_depth_snapshots() {
    // Synchronous runs drop each snapshot before the next publish, so
    // their pool peak is exactly one snapshot's worth of buffers; the
    // pipelined producer holds each frame until its credit returns, so
    // it owns exactly PIPELINE_DEPTH snapshots' worth once the window
    // is full.
    let mut cfg = catalyst_config(ExecMode::Synchronous);
    cfg.trigger_every = 1; // publish every step: maximum pipeline pressure
    let sync = run_insitu(&cfg);
    cfg.exec = ExecMode::Pipelined;
    let piped = run_insitu(&cfg);

    assert!(sync.snapshot_pool_rank_peak > 0, "pool must be exercised");
    assert_eq!(
        piped.snapshot_pool_rank_peak,
        PIPELINE_DEPTH as u64 * sync.snapshot_pool_rank_peak,
        "pipelined pool peak is depth {PIPELINE_DEPTH} x {} per snapshot",
        sync.snapshot_pool_rank_peak
    );
    // And the depth actually buys overlap: the producer is not serialized.
    assert!(piped.metrics.time_to_solution < sync.metrics.time_to_solution);
}

#[test]
fn exec_modes_render_bitwise_identical_frames() {
    let sync_dir = scratch_dir("sync");
    let piped_dir = scratch_dir("piped");

    let mut cfg = catalyst_config(ExecMode::Synchronous);
    cfg.output_dir = Some(sync_dir.clone());
    let sync = run_insitu(&cfg);
    cfg.exec = ExecMode::Pipelined;
    cfg.output_dir = Some(piped_dir.clone());
    let piped = run_insitu(&cfg);

    assert!(sync.files_written > 0, "catalyst must render frames");
    assert_eq!(piped.files_written, sync.files_written);
    let sync_frames = frame_hashes(&sync_dir);
    let piped_frames = frame_hashes(&piped_dir);
    assert_eq!(
        piped_frames, sync_frames,
        "overlapped execution must not change a single rendered byte"
    );

    let _ = std::fs::remove_dir_all(&sync_dir);
    let _ = std::fs::remove_dir_all(&piped_dir);
}

#[test]
fn stalled_consumer_backpressures_without_corrupting_frames() {
    let clean_dir = scratch_dir("clean");
    let stalled_dir = scratch_dir("stalled");

    let mut cfg = catalyst_config(ExecMode::Pipelined);
    cfg.output_dir = Some(clean_dir.clone());
    let clean = run_insitu(&cfg);

    // Stall consumer rank 0 for 50 virtual seconds on its second frame:
    // the producer must fill the pipeline, block on backpressure, and
    // then drain — same frames, later finish, no deadlock.
    cfg.faults = FaultPlan {
        stalls: vec![ConsumerStall {
            endpoint: 0,
            at_step: 4,
            seconds: 50.0,
        }],
        ..FaultPlan::none()
    };
    cfg.output_dir = Some(stalled_dir.clone());
    let stalled = run_insitu(&cfg);

    assert_eq!(stalled.files_written, clean.files_written);
    assert_eq!(
        frame_hashes(&stalled_dir),
        frame_hashes(&clean_dir),
        "a stalled consumer must delay frames, never change or drop them"
    );
    assert!(
        stalled.metrics.time_to_solution > clean.metrics.time_to_solution,
        "the stall must surface as lost time (stalled {} vs clean {})",
        stalled.metrics.time_to_solution,
        clean.metrics.time_to_solution
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&stalled_dir);
}
