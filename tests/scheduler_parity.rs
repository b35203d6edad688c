//! Differential parity: the discrete-event rank scheduler versus the
//! rank-per-thread executor. Event mode reuses the exact rendezvous code
//! and only changes *how* ranks block, so every observable — solver field
//! bytes, virtual clocks, CommStats, rendered images, fault outcomes,
//! recovery stats — must be bitwise identical across the two modes.
//!
//! The binary also carries the scale smokes: the paper's 1120-rank pb146
//! cell actually executing under the event scheduler, and a 10k-virtual-
//! rank world that thread mode refuses outright.

use commsim::{
    run_ranks_with_registry, with_mode, EventExecutor, Executor, FaultPlan, LinkFaultSpec,
    MachineModel, SchedMode, SimRankCrash, ThreadExecutor, THREAD_MODE_DEFAULT_MAX_RANKS,
};
use memtrack::alloc::{global_peak, reset_peak};
use memtrack::{Registry, TrackingAllocator};
use nek_sensei::{
    run_insitu, run_intransit, run_supervised_insitu, EndpointMode, ExecMode, InSituConfig,
    InSituMode, InTransitConfig, SupervisorConfig,
};
use render::fnv1a64;
use sem::cases::{pb146, rbc, CaseParams};
use sem::navier_stokes::FieldId;
use transport::{QueuePolicy, StagingLink, WriterConfig};

// The 10k-rank smoke bounds real heap growth, so this binary installs the
// process-wide tracking allocator (each integration test file is its own
// binary; the counters are atomic and cost nothing measurable).
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn hash_f64s(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sched-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Hash every file in `dir` (sorted by name) into `(name, fnv1a64)` pairs.
fn hash_dir(dir: &std::path::Path) -> Vec<(String, u64)> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("output dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let bytes = std::fs::read(&p).expect("read artifact");
            (name, fnv1a64(&bytes))
        })
        .collect()
}

// ---- direct world: solver fields, clocks, stats ------------------------

/// The strongest form of the parity claim: step a real solver on a raw
/// rank world in both modes and compare the per-rank *field bytes* (all
/// velocity components + pressure), final virtual clock bits, and comm
/// counters. Nothing is aggregated, so a single reordered message or a
/// single ULP of drift anywhere fails loudly.
#[test]
fn solver_fields_clocks_and_stats_are_bitwise_identical() {
    let cell = |mode: SchedMode| {
        with_mode(mode, || {
            run_ranks_with_registry(4, MachineModel::test_tiny(), Registry::new(), |comm| {
                let mut params = CaseParams::pb146_default();
                params.elems = [2, 2, 4];
                params.order = 2;
                let mut solver = pb146(&params, 8).build(comm);
                for _ in 0..6 {
                    solver.step(comm);
                }
                let mut hashes = Vec::new();
                for id in [
                    FieldId::VelX,
                    FieldId::VelY,
                    FieldId::VelZ,
                    FieldId::Pressure,
                ] {
                    let f = solver.field_device(id).expect("field exists");
                    hashes.push(hash_f64s(f));
                }
                hashes
            })
        })
    };
    let a = cell(SchedMode::Thread);
    let b = cell(SchedMode::Event);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.rank, y.rank);
        assert_eq!(
            x.time.to_bits(),
            y.time.to_bits(),
            "rank {}: virtual end time must be bitwise identical",
            x.rank
        );
        assert_eq!(x.stats, y.stats, "rank {}: CommStats must match", x.rank);
        assert_eq!(
            x.value, y.value,
            "rank {}: solver field bytes must be bitwise identical",
            x.rank
        );
    }
}

// ---- in situ workflows: metrics and golden images ----------------------

fn insitu_cfg(mode: InSituMode, exec: ExecMode, sched: SchedMode) -> InSituConfig {
    let mut params = CaseParams::pb146_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    InSituConfig {
        case: pb146(&params, 8),
        ranks: 2,
        steps: 4,
        trigger_every: 2,
        machine: MachineModel::test_tiny(),
        image_size: (64, 48),
        mode,
        exec,
        sched,
        faults: FaultPlan::none(),
        output_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

/// pb146 Catalyst through the full in situ driver, synchronous and
/// pipelined: run-level metrics and every rendered PNG must agree
/// byte-for-byte across schedulers. Pipelined runs cross *two* rank
/// worlds over std channels, so this also covers the external-wait path.
#[test]
fn insitu_catalyst_parity_sync_and_pipelined() {
    for exec in [ExecMode::Synchronous, ExecMode::Pipelined] {
        let run = |sched: SchedMode| {
            let dir = scratch(&format!("insitu-{exec:?}-{}", sched.label()));
            let mut cfg = insitu_cfg(InSituMode::Catalyst, exec, sched);
            cfg.output_dir = Some(dir.clone());
            let r = run_insitu(&cfg);
            let images = hash_dir(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            (r, images)
        };
        let (a, ia) = run(SchedMode::Thread);
        let (b, ib) = run(SchedMode::Event);
        assert_eq!(
            a.metrics.time_to_solution.to_bits(),
            b.metrics.time_to_solution.to_bits(),
            "{exec:?}: time to solution"
        );
        assert_eq!(a.metrics.totals, b.metrics.totals, "{exec:?}: CommStats");
        assert_eq!(a.bytes_written, b.bytes_written, "{exec:?}");
        assert_eq!(a.files_written, b.files_written, "{exec:?}");
        assert!(!ia.is_empty(), "{exec:?}: Catalyst must render images");
        assert_eq!(ia, ib, "{exec:?}: golden images must match across modes");
    }
}

// ---- in transit: two worlds over the staging wire -----------------------

fn intransit_cfg(steps: usize, sched: SchedMode, faults: FaultPlan) -> InTransitConfig {
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    InTransitConfig {
        case: rbc(&params, 1e4, 0.7),
        sim_ranks: 4,
        ratio: 4,
        steps,
        trigger_every: 2,
        machine: MachineModel::juwels_booster(),
        link: StagingLink::ucx_hdr200(),
        queue_capacity: 8,
        policy: QueuePolicy::Block,
        mode: EndpointMode::Catalyst,
        sched,
        wire: Default::default(),
        staging_consumers: 0,
        staging_dir: None,
        image_size: (64, 48),
        output_dir: None,
        faults,
        writer_config: WriterConfig::default(),
        fallback_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

/// RBC in transit: simulation world and endpoint world coupled by the
/// staging link, rendered frames and sim-side metrics compared across
/// schedulers.
#[test]
fn intransit_catalyst_parity() {
    let run = |sched: SchedMode| {
        let dir = scratch(&format!("intransit-{}", sched.label()));
        let mut cfg = intransit_cfg(4, sched, FaultPlan::none());
        cfg.output_dir = Some(dir.clone());
        let r = run_intransit(&cfg);
        let images = hash_dir(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (r, images)
    };
    let (a, ia) = run(SchedMode::Thread);
    let (b, ib) = run(SchedMode::Event);
    assert_eq!(a.endpoint_steps, b.endpoint_steps);
    assert_eq!(a.endpoint_bytes_received, b.endpoint_bytes_received);
    assert_eq!(a.endpoint_delivered, b.endpoint_delivered);
    assert_eq!(
        a.sim.time_to_solution.to_bits(),
        b.sim.time_to_solution.to_bits(),
        "sim-world virtual time"
    );
    assert_eq!(a.sim.totals, b.sim.totals, "sim-world CommStats");
    assert!(!ia.is_empty(), "endpoint must render");
    assert_eq!(ia, ib, "endpoint images must match across modes");
}

/// Degraded scenario: a seeded lossy link forces CRC rejects and
/// retransmits. The fault schedule is derived from (seed, step, producer)
/// — never wall time — so both modes must degrade *identically*.
#[test]
fn degraded_link_fault_outcomes_match() {
    let run = |sched: SchedMode| {
        run_intransit(&intransit_cfg(
            8,
            sched,
            FaultPlan::with_link(
                5,
                LinkFaultSpec {
                    corrupt_prob: 0.3,
                    ..LinkFaultSpec::default()
                },
            ),
        ))
    };
    let a = run(SchedMode::Thread);
    let b = run(SchedMode::Event);
    assert!(a.endpoint_corrupt_rejected > 0, "faults must actually fire");
    assert_eq!(a.endpoint_corrupt_rejected, b.endpoint_corrupt_rejected);
    assert_eq!(a.endpoint_steps, b.endpoint_steps);
    assert_eq!(a.endpoint_partial_steps, b.endpoint_partial_steps);
    assert_eq!(a.degradation, b.degradation, "degradation ladder state");
    assert_eq!(
        a.sim.time_to_solution.to_bits(),
        b.sim.time_to_solution.to_bits()
    );
}

/// Supervised crash-recovery: an injected rank crash kills the run, the
/// supervisor restores from the newest checkpoint generation, and the
/// recovery trajectory (restart count, resume step, lost steps) plus the
/// completed run's metrics must be identical across schedulers.
#[test]
fn supervised_crash_recovery_parity() {
    let run = |sched: SchedMode| {
        let dir = scratch(&format!("recovery-{}", sched.label()));
        let mut cfg = insitu_cfg(InSituMode::Original, ExecMode::Synchronous, sched);
        cfg.steps = 8;
        cfg.faults = FaultPlan {
            sim_crashes: vec![SimRankCrash {
                rank: 1,
                at_step: 5,
            }],
            ..FaultPlan::none()
        };
        let out = run_supervised_insitu(&cfg, &SupervisorConfig::new(dir.clone(), 2));
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let a = run(SchedMode::Thread);
    let b = run(SchedMode::Event);
    assert_eq!(a.recovery.restarts, 1, "the crash must fire");
    assert_eq!(a.recovery.restarts, b.recovery.restarts);
    assert_eq!(a.recovery.lost_steps, b.recovery.lost_steps);
    assert_eq!(
        a.recovery.outcomes[0].resumed_from,
        b.recovery.outcomes[0].resumed_from
    );
    assert_eq!(a.report.steps, b.report.steps);
    assert_eq!(
        a.report.metrics.time_to_solution.to_bits(),
        b.report.metrics.time_to_solution.to_bits()
    );
    assert_eq!(a.report.metrics.totals, b.report.metrics.totals);
}

// ---- scale: the paper's rank counts, actually executed -----------------

/// The §4.1 figure's largest cell at the paper's real rank count: 1120
/// virtual ranks stepping a light slab mesh through the in situ driver in
/// event mode. The scaling point (560 vs 1120) comes from actual
/// execution, not extrapolation.
#[test]
fn event_mode_executes_the_papers_1120_rank_cell() {
    let cell = |ranks: usize| {
        let mut params = CaseParams::pb146_default();
        params.elems = [1, 1, ranks];
        params.order = 2;
        let mut case = pb146(&params, 4);
        // The smoke measures scheduling at width, not solver convergence:
        // cap both CG solves so per-step cost is a fixed, small number of
        // world-wide rendezvous.
        case.config.pressure_cg.max_iter = 4;
        case.config.velocity_cg.max_iter = 4;
        let mut cfg = insitu_cfg(
            InSituMode::Original,
            ExecMode::Synchronous,
            SchedMode::Event,
        );
        cfg.case = case;
        cfg.ranks = ranks;
        cfg.steps = 2;
        cfg.trigger_every = 2;
        run_insitu(&cfg)
    };
    let half = cell(560);
    let full = cell(1120);
    for (r, ranks) in [(&half, 560), (&full, 1120)] {
        assert_eq!(r.ranks, ranks);
        assert_eq!(r.steps, 2, "{ranks}-rank cell must complete every step");
        assert!(
            r.metrics.time_to_solution.is_finite() && r.metrics.time_to_solution > 0.0,
            "{ranks}-rank cell must report a positive finite virtual time"
        );
    }
    // Strong scaling on a fixed-size mesh: more ranks → more rendezvous
    // per step, so the 1120-rank cell cannot be faster than free.
    assert!(
        full.metrics.totals.messages_sent > half.metrics.totals.messages_sent,
        "doubling ranks must increase communication volume"
    );
}

/// Ten thousand virtual ranks on one machine: far beyond the thread
/// executor's cap, fine for the event scheduler with small coroutine
/// stacks. The workload is trivial (clock advance + neighbor exchange +
/// allreduce) — the point is world construction, scheduling, and memory,
/// not solver throughput.
#[test]
fn ten_thousand_virtual_ranks_complete_in_event_mode() {
    reset_peak();
    let before = global_peak();
    let n = 10_000usize;
    let results = EventExecutor::with_stack_bytes(256 * 1024).run_world(
        n,
        MachineModel::test_tiny(),
        Registry::new(),
        move |comm| {
            let r = comm.rank();
            comm.advance((r % 7) as f64 * 1e-6);
            comm.send((r + 1) % n, 1, r as u64, 8);
            let left = comm.recv::<u64>((r + n - 1) % n, 1);
            assert_eq!(left as usize, (r + n - 1) % n);
            comm.allreduce(1.0, commsim::ReduceOp::Sum)
        },
    );
    assert_eq!(results.len(), n);
    for r in &results {
        assert_eq!(
            r.value, n as f64,
            "rank {}: allreduce over all ranks",
            r.rank
        );
    }
    let grown = global_peak() - before;
    // Real heap growth stays far below what 10k thread-mode stacks would
    // cost (10k × 2 MiB = 20 GiB); the world itself is a few KB per rank.
    // Generous bound: concurrent tests in this binary also allocate.
    assert!(
        grown < 4 << 30,
        "10k-rank world must stay within a 4 GiB heap budget (grew {grown} B)"
    );
}

/// Thread mode refuses oversized worlds with an actionable error instead
/// of failing thread-by-thread at spawn time.
#[test]
fn thread_mode_rejects_worlds_beyond_its_cap() {
    let err = std::panic::catch_unwind(|| {
        ThreadExecutor::default().run_world(
            THREAD_MODE_DEFAULT_MAX_RANKS + 1,
            MachineModel::test_tiny(),
            Registry::new(),
            |comm| comm.rank(),
        )
    })
    .expect_err("the cap must reject the world");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("NEK_SCHED_MODE=event") && msg.contains("cap"),
        "the error must point at event mode: {msg}"
    );
}
