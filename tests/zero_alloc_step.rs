//! Steady-state Navier–Stokes stepping must not touch the heap, and
//! solver set-up must not allocate per node.
//!
//! The workspace arena (`sem::workspace`) recycles every temporary field
//! the CG solver and the splitting scheme need; after a few warm-up steps
//! the arena and the history rings are fully populated and each further
//! step runs entirely out of reused buffers. This binary installs the
//! tracking allocator for real and asserts the allocation *count* stays
//! flat across steady-state steps — any regression that sneaks a `vec!`
//! or `clone()` back into the hot path fails loudly. The warm-up steps
//! are pinned too, at the count they had while u_x, u_y and u_z were
//! solved one after another: solving them as one block holds no more
//! workspace buffers. It also pins the
//! count of one `CaseSetup::build`: set-up allocates its fields, tables
//! and levels, a number that does not grow with the node count, so a
//! per-node allocation (the solid search of `LocalMesh::dirichlet_mask`
//! once made 680 019 of them at order 7) fails it too.
//!
//! This test lives in its own binary (one test per process) because the
//! allocator counters are process-wide: concurrent tests in a shared
//! binary would inflate the count.

use commsim::{run_ranks, MachineModel};
use memtrack::alloc::global_allocation_count;
use memtrack::TrackingAllocator;
use sem::cases::{pb146, rbc, CaseParams};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn steady_state_alloc_delta(build_rbc: bool, pool_threads: usize) -> u64 {
    rayon::pool::with_override(pool_threads, || {
        run_ranks(1, MachineModel::test_tiny(), move |comm| {
            let mut solver = if build_rbc {
                let mut params = CaseParams::rbc_default();
                params.elems = [2, 2, 2];
                params.order = 3;
                rbc(&params, 1e4, 0.7).build(comm)
            } else {
                let mut params = CaseParams::pb146_default();
                params.elems = [2, 2, 4];
                params.order = 3;
                pb146(&params, 8).build(comm)
            };
            // Warm-up: populate the BDF/EXT history rings (depth 3), the
            // workspace arena, and the thread pool itself.
            let before = global_allocation_count();
            for _ in 0..5 {
                solver.step(comm);
            }
            let warm_up = global_allocation_count() - before;
            if pool_threads == 1 {
                // Steps 1–5 fill the rings and the arena: as many buffers
                // as when each velocity component was solved on its own.
                let pinned = if build_rbc { 31 } else { 26 };
                assert_eq!(
                    warm_up, pinned,
                    "warm-up steps 1–5 allocated {warm_up} times (rbc: {build_rbc})"
                );
            }
            let before = global_allocation_count();
            for _ in 0..3 {
                solver.step(comm);
            }
            global_allocation_count() - before
        })[0]
    })
}

/// Allocations of one one-rank `build` of the benchmark's pb146 mesh,
/// `[4, 4, 8]` elements with 146 pebbles, at polynomial `order`.
fn build_allocations(order: usize) -> u64 {
    let mut params = CaseParams::pb146_default();
    (params.elems, params.order) = ([4, 4, 8], order);
    let case = pb146(&params, 146);
    rayon::pool::with_override(1, || {
        run_ranks(1, MachineModel::test_tiny(), move |comm| {
            let before = global_allocation_count();
            let _solver = case.build(comm);
            global_allocation_count() - before
        })[0]
    })
}

#[test]
fn ns_step_steady_state_is_allocation_free() {
    // pb146 (velocity + pressure only), sequential pool.
    let delta = steady_state_alloc_delta(false, 1);
    assert_eq!(delta, 0, "pb146 steady-state step allocated {delta} times");

    // RBC adds the Boussinesq temperature solve to the hot path.
    let delta = steady_state_alloc_delta(true, 1);
    assert_eq!(delta, 0, "rbc steady-state step allocated {delta} times");

    // The multi-threaded pool must also run allocation-free: batches are
    // stack-allocated and the job queue is pre-reserved.
    let delta = steady_state_alloc_delta(false, 4);
    assert_eq!(
        delta, 0,
        "pb146 steady-state step with 4 pool threads allocated {delta} times"
    );

    // Set-up: a few hundred allocations at order 3 and at order 7 alike,
    // though order 7 masks eight times the nodes.
    for order in [3, 7] {
        let n = build_allocations(order);
        assert!(
            n < 1_000,
            "pb146 [4, 4, 8] build at order {order} allocated {n} times"
        );
    }
}
