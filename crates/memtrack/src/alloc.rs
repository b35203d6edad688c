//! Process-wide tracking allocator.
//!
//! Wraps the system allocator and maintains lock-free counters for live and
//! peak heap bytes. The peak is maintained with a CAS loop so concurrent
//! rank threads never lose an update.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A `GlobalAlloc` wrapper that tracks current and peak heap usage.
///
/// Install it in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::new();
/// ```
///
/// and read the counters at any point via [`TrackingAllocator::current`] /
/// [`TrackingAllocator::peak`] on the static, or process-wide through
/// [`global_current`] / [`global_peak`] which read the same counters.
pub struct TrackingAllocator {
    _priv: (),
}

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

impl TrackingAllocator {
    /// Create the allocator. `const` so it can initialize a static.
    pub const fn new() -> Self {
        Self { _priv: () }
    }

    /// Live heap bytes right now.
    pub fn current(&self) -> u64 {
        global_current()
    }

    /// High-water mark of live heap bytes since process start (or last
    /// [`reset_peak`]).
    pub fn peak(&self) -> u64 {
        global_peak()
    }
}

impl Default for TrackingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

fn record_alloc(size: usize) {
    let size = size as u64;
    TOTAL_ALLOCATED.fetch_add(size, Ordering::Relaxed);
    ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // CAS loop: only ratchet the peak upward.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

fn record_dealloc(size: usize) {
    CURRENT.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System` for memory management; the counters are
// side effects on atomics and cannot affect allocation correctness.
unsafe impl GlobalAlloc for TrackingAllocator {
    // SAFETY: the caller's `layout` goes to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: `ptr` came from `System` under this `layout` (every method
    // here hands out only `System`'s pointers) and goes back the same way.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_dealloc(layout.size());
    }

    // SAFETY: as `alloc`; zeroing is `System`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: the caller's `ptr`/`layout`/`new_size` contract is exactly
    // `System.realloc`'s, and the block is `System`'s (see `dealloc`).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

/// Live heap bytes as seen by the tracking allocator (0 if not installed).
pub fn global_current() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak live heap bytes as seen by the tracking allocator (0 if not installed).
pub fn global_peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Cumulative bytes ever allocated (never decreases).
pub fn global_total_allocated() -> u64 {
    TOTAL_ALLOCATED.load(Ordering::Relaxed)
}

/// Number of allocation calls observed.
pub fn global_allocation_count() -> u64 {
    ALLOCATION_COUNT.load(Ordering::Relaxed)
}

/// Reset the peak to the current live value, so a harness can measure the
/// high-water mark of one phase in isolation.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Cap glibc malloc at one arena per CPU this process may run on. Once per
/// process; a no-op on other allocators and platforms.
///
/// Ranks are threads here, and glibc gives every thread its own arena (up
/// to 8 × cores) that keeps what the thread freed. Each run spawns fresh
/// rank threads that pick among those arenas by exit order, so the few
/// ranks with multi-MB buffers (framebuffers, PNG scratch) dirty another
/// arena on most runs: a process that repeats the 8:2 in-transit cell
/// keeps ~4.5 MB more per call (peak 37 → 65 MB over 13 calls) until all
/// 16 arenas are dirty. Capped, every call peaks at 32–40 MB, at the same
/// wall time (the hot paths do not allocate, so ranks do not contend for
/// arenas).
///
/// The drivers call this before they spawn a thread: glibc fixes the
/// limit for good once a ninth arena exists.
pub fn cap_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let cpus = std::thread::available_parallelism().map_or(1, usize::from);
            // SAFETY: mallopt takes malloc's own lock, and M_ARENA_MAX only
            // bounds arenas created from now on.
            unsafe { mallopt(M_ARENA_MAX, i32::try_from(cpus).unwrap_or(i32::MAX)) };
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed in unit tests (installing a global
    // allocator in a lib crate would impose it on every dependent), so we
    // exercise the counter logic directly.

    #[test]
    fn peak_ratchets_up_only() {
        reset_peak();
        let before_peak = global_peak();
        record_alloc(4096);
        assert!(global_peak() >= before_peak + 4096);
        let peak_after_alloc = global_peak();
        record_dealloc(4096);
        assert_eq!(
            global_peak(),
            peak_after_alloc,
            "dealloc must not lower peak"
        );
    }

    #[test]
    fn current_tracks_alloc_dealloc_balance() {
        let before = global_current();
        record_alloc(128);
        record_alloc(256);
        assert_eq!(global_current(), before + 384);
        record_dealloc(128);
        record_dealloc(256);
        assert_eq!(global_current(), before);
    }

    #[test]
    fn totals_are_monotonic() {
        let t0 = global_total_allocated();
        let c0 = global_allocation_count();
        record_alloc(64);
        record_dealloc(64);
        assert_eq!(global_total_allocated(), t0 + 64);
        assert_eq!(global_allocation_count(), c0 + 1);
    }

    #[test]
    fn capped_arenas_still_serve_every_thread() {
        cap_malloc_arenas();
        cap_malloc_arenas();
        let threads: Vec<_> = (0..16u64)
            .map(|t| std::thread::spawn(move || vec![t; 1 << 16].iter().sum::<u64>()))
            .collect();
        for (t, thread) in threads.into_iter().enumerate() {
            assert_eq!(thread.join().expect("allocating thread"), (t as u64) << 16);
        }
    }
}
