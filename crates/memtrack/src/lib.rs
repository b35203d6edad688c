//! Memory high-water-mark instrumentation.
//!
//! The paper's Figures 3 and 6 report the *aggregate memory high water mark
//! across all MPI ranks* of a NekRS run under different in situ
//! configurations. Reproducing that measurement needs two instruments:
//!
//! 1. [`TrackingAllocator`] — a process-wide `GlobalAlloc` wrapper that
//!    records current and peak heap usage. Binaries opt in with
//!    `#[global_allocator]`. Because our "MPI ranks" are threads inside one
//!    process, this gives the whole-job high-water mark directly.
//! 2. [`Accountant`] — an explicit, cheap byte counter that subsystems
//!    (solver state, VTK copies, staging queues, framebuffers) charge their
//!    allocations to. Accountants nest under a [`Registry`] so a per-rank or
//!    per-subsystem breakdown can be reported, which is what the figure
//!    harnesses use to attribute the +25% Catalyst overhead the paper
//!    observes to the GPU→CPU data copy and render pipeline.
//!
//! Both instruments report `current()` and `peak()` in bytes and are safe to
//! use concurrently from many rank threads.
//!
//! Because ranks are threads, the crate also holds the one allocator
//! setting, [`cap_malloc_arenas`]. Its callers: the drivers (`nek_sensei`'s
//! `Run::open`, behind `run_insitu` and `run_intransit`) and the staging
//! tier (`transport::StagingService::new`).

pub mod accountant;
pub mod alloc;
pub mod registry;

pub use accountant::{Accountant, Charge};
pub use alloc::{cap_malloc_arenas, TrackingAllocator};
pub use registry::{Registry, Snapshot};

/// Format a byte count in human-readable IEC units (KiB/MiB/GiB).
///
/// Used by the figure harnesses so their output reads like the paper's
/// memory plots ("19GB", "6.5MB").
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1024), "1.00 KiB");
        assert_eq!(human_bytes(1536), "1.50 KiB");
        assert_eq!(human_bytes(1024 * 1024), "1.00 MiB");
        assert_eq!(human_bytes(19 * 1024 * 1024 * 1024), "19.00 GiB");
    }

    #[test]
    fn human_bytes_saturates_at_tib() {
        let huge = 1u64 << 50; // 1 PiB expressed in TiB
        assert_eq!(human_bytes(huge), "1024.00 TiB");
    }
}
