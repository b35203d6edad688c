//! Integration: the process-wide tracking allocator, installed for real in
//! this test binary (a library crate must not impose a global allocator,
//! so this is the one place it can be exercised end to end).

use memtrack::alloc::{global_allocation_count, global_current, global_peak, reset_peak};
use memtrack::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// The counters are process-global and every assertion below compares two
/// reads of them, so nothing else may allocate or free in between — not a
/// sibling test, and not libtest's main thread, which reports one test's
/// result while the next is running. One `#[test]` is the only quiet
/// process; the solver part goes last because it leaves pool threads behind.
#[test]
fn tracking_allocator_end_to_end() {
    real_allocations_move_the_counters();
    peak_captures_a_transient_high_water_mark();
    solver_heap_usage_is_observable_process_wide();
}

fn real_allocations_move_the_counters() {
    let count0 = global_allocation_count();
    let cur0 = global_current();
    let buf: Vec<u8> = Vec::with_capacity(1 << 20);
    assert!(
        global_current() >= cur0 + (1 << 20),
        "1 MiB allocation must be visible"
    );
    assert!(global_allocation_count() > count0);
    drop(buf);
    assert!(global_current() < cur0 + (1 << 20), "drop must credit back");
}

fn peak_captures_a_transient_high_water_mark() {
    reset_peak();
    let base = global_peak();
    {
        let _spike: Vec<u8> = vec![0; 4 << 20];
        assert!(global_peak() >= base + (4 << 20));
    }
    // The spike is gone but the peak remains.
    assert!(global_peak() >= base + (4 << 20));
    assert!(global_current() < global_peak());
}

fn solver_heap_usage_is_observable_process_wide() {
    use commsim::{run_ranks, MachineModel};
    use sem::cases::{pb146, CaseParams};

    reset_peak();
    let before = global_peak();
    run_ranks(2, MachineModel::test_tiny(), |comm| {
        let mut params = CaseParams::pb146_default();
        params.elems = [3, 3, 4];
        params.order = 3;
        let mut solver = pb146(&params, 8).build(comm);
        solver.step(comm);
    });
    let grown = global_peak() - before;
    // 2 ranks × ~70 elements × 64 nodes × many f64 fields: hundreds of KB.
    assert!(
        grown > 400 << 10,
        "solver run must raise the real heap peak (grew {grown} B)"
    );
}
