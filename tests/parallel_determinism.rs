//! The thread pool must change wall time only — never results.
//!
//! `shims/rayon` distributes element blocks across a real pool, but
//! each block writes a fixed, disjoint output range and per-element
//! arithmetic order is untouched, so solver fields and rendered frames
//! must be *bitwise* identical whatever the pool width. These tests pin
//! that contract, plus the pool's panic/poisoning behavior and the
//! propagation of pool-width overrides into commsim's rank threads.

use commsim::{run_ranks, with_mode, MachineModel, SchedMode};
use nek_sensei::{run_insitu, ExecMode, InSituConfig, InSituMode};
use rayon::pool;
use render::fnv1a64;
use sem::cases::{pb146, CaseParams};
use sem::navier_stokes::FieldId;

/// Run a short pb146 solve on 2 ranks and return every field as raw bits.
fn solve_field_bits(pool_threads: usize) -> Vec<Vec<u64>> {
    pool::with_override(pool_threads, || {
        let per_rank = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let mut params = CaseParams::pb146_default();
            params.elems = [2, 2, 4];
            params.order = 3;
            let mut solver = pb146(&params, 8).build(comm);
            for _ in 0..4 {
                solver.step(comm);
            }
            [
                FieldId::VelX,
                FieldId::VelY,
                FieldId::VelZ,
                FieldId::Pressure,
            ]
            .iter()
            .map(|&id| {
                solver
                    .field_device(id)
                    .expect("field exists")
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>()
            })
            .collect::<Vec<_>>()
        });
        per_rank.into_iter().flatten().collect()
    })
}

#[test]
fn solver_fields_bitwise_identical_across_pool_widths() {
    let sequential = solve_field_bits(1);
    for threads in [2usize, 4] {
        let parallel = solve_field_bits(threads);
        assert_eq!(
            sequential, parallel,
            "solver fields diverged between 1 and {threads} pool threads"
        );
    }
}

/// The overlapped gather/scatter path (interior segments reduced while
/// the halo exchange is in flight) moves virtual-clock charges around
/// but must never change arithmetic order. Pin the fields at 4 pool
/// threads against the 1-thread reference under *both* rank schedulers:
/// the multi-rank pb146 solve exercises the boundary/interior split on
/// every step, and the event executor interleaves ranks differently
/// from free-running threads.
#[test]
fn overlapped_gather_scatter_bitwise_identical_in_both_sched_modes() {
    let reference = solve_field_bits(1);
    for mode in [SchedMode::Thread, SchedMode::Event] {
        let parallel = with_mode(mode, || solve_field_bits(4));
        assert_eq!(
            reference, parallel,
            "overlapped gather/scatter diverged at 4 threads under {mode:?}"
        );
    }
}

/// Render the pb146 Catalyst frames and hash every PNG written.
fn golden_hashes(pool_threads: usize, exec: ExecMode) -> Vec<(String, u64)> {
    let dir = std::env::temp_dir().join(format!(
        "nek-sensei-par-det-{pool_threads}-{}-{}",
        exec.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    pool::with_override(pool_threads, || {
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
    });
    let mut hashes: Vec<(String, u64)> = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("png bytes");
            (name, fnv1a64(&bytes))
        })
        .collect();
    hashes.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!hashes.is_empty(), "no frames rendered");
    hashes
}

#[test]
fn golden_image_hashes_identical_across_pool_widths() {
    let sequential = golden_hashes(1, ExecMode::Synchronous);
    for (threads, exec) in [
        (4, ExecMode::Synchronous),
        (1, ExecMode::Pipelined),
        (4, ExecMode::Pipelined),
    ] {
        assert_eq!(
            sequential,
            golden_hashes(threads, exec),
            "rendered frames diverged between 1 synchronous and {threads} {exec:?} pool threads"
        );
    }
}

#[test]
fn pool_override_propagates_into_rank_threads() {
    let widths = pool::with_override(3, || {
        run_ranks(2, MachineModel::test_tiny(), |comm| {
            let _ = comm.rank();
            pool::current_threads()
        })
    });
    assert_eq!(widths, vec![3, 3], "rank threads must adopt the override");
    // Outside the override the default is back in force.
    assert_eq!(pool::current_threads(), pool::default_threads());
}

#[test]
fn poisoned_worker_panic_reaches_caller_and_pool_survives() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let panicked = std::panic::catch_unwind(|| {
        pool::with_threads(4, || {
            pool::run(64, |_| {
                // Every job trips this; the first panic wins and the
                // rest are drained without running.
                panic!("injected worker panic");
            });
        })
    });
    assert!(panicked.is_err(), "worker panic must reach the submitter");

    // The pool is not wedged: the next parallel op completes and the
    // results are correct.
    pool::with_threads(4, || {
        let data: Vec<AtomicU64> = (0..4096).map(|_| AtomicU64::new(1)).collect();
        pool::run_partitioned(data.len(), |_, start, end| {
            for v in &data[start..end] {
                v.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(data.iter().all(|v| v.load(Ordering::Relaxed) == 2));
    });
}
