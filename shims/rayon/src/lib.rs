//! Offline stand-in for the part of `rayon` this workspace uses: not the
//! parallel-iterator prelude but a small work-distributing thread pool,
//! [`pool`], whose [`pool::run`] / [`pool::run_partitioned`] the SEM
//! operators dispatch their element blocks through.
//!
//! Jobs run on a fixed pool of worker threads (sized from
//! `available_parallelism`, or `NEK_POOL_THREADS` / `RAYON_NUM_THREADS`
//! when set). The design keeps three properties the workspace depends on:
//!
//! * **Bitwise determinism.** [`pool::partition`] is pure arithmetic, each
//!   job writes only its own output range, and the arithmetic inside a
//!   job is untouched — so results are bit-identical for any pool size,
//!   including 1.
//! * **One shared pool.** commsim runs one thread per simulated rank;
//!   all ranks submit to the same global pool so N ranks do not spawn
//!   N×cores workers. Rank threads inherit the submitting thread's
//!   [`pool::with_threads`] override (the commsim runner propagates it).
//! * **Zero steady-state allocation.** A batch lives on the submitting
//!   thread's stack; the job queue holds raw batch pointers in a
//!   pre-reserved ring, so hot-loop submissions do not touch the heap.
//!
//! Panics inside a job poison the batch (remaining jobs are drained
//! unexecuted), and the first panic payload is re-raised on the
//! submitting thread once all workers have detached from the batch.

/// The work-distributing thread pool.
pub mod pool {
    use std::any::Any;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock};
    use std::thread::{self, Thread};
    use std::time::Duration;

    /// Hard cap on spawned workers (guards absurd env-var values).
    const MAX_WORKERS: usize = 256;

    /// One [`run`] submission. Lives on the submitting thread's stack;
    /// `pending` counts one unit per queued helper entry plus one for the
    /// submitter, and `run` does not return until it reaches zero, so no
    /// worker ever touches a dead batch.
    struct Batch {
        job: &'static (dyn Fn(usize) + Sync),
        next: AtomicUsize,
        n_jobs: usize,
        pending: AtomicUsize,
        owner: Thread,
        poisoned: AtomicBool,
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    #[derive(Clone, Copy)]
    struct BatchPtr(*const Batch);
    // SAFETY: the pointee is kept alive by the `pending` protocol above,
    // and `Batch` itself is only touched through &-references.
    unsafe impl Send for BatchPtr {}

    struct Shared {
        queue: Mutex<VecDeque<BatchPtr>>,
        available: Condvar,
        workers: Mutex<usize>,
    }

    fn shared() -> &'static Shared {
        static SHARED: OnceLock<Shared> = OnceLock::new();
        SHARED.get_or_init(|| Shared {
            // Pre-reserved so steady-state submissions never reallocate:
            // at most one entry per worker is outstanding per batch.
            queue: Mutex::new(VecDeque::with_capacity(4 * MAX_WORKERS)),
            available: Condvar::new(),
            workers: Mutex::new(0),
        })
    }

    fn ensure_workers(sh: &'static Shared, wanted: usize) {
        let wanted = wanted.min(MAX_WORKERS);
        let mut count = sh.workers.lock().unwrap();
        while *count < wanted {
            let idx = *count;
            thread::Builder::new()
                .name(format!("sem-pool-{idx}"))
                .stack_size(1 << 20)
                .spawn(move || worker_loop(shared()))
                .expect("spawn pool worker");
            *count += 1;
        }
    }

    fn worker_loop(sh: &'static Shared) {
        loop {
            let ptr = {
                let mut q = sh.queue.lock().unwrap();
                loop {
                    if let Some(p) = q.pop_front() {
                        break p;
                    }
                    q = sh.available.wait(q).unwrap();
                }
            };
            // SAFETY: we hold one `pending` unit for this entry; the
            // submitter keeps the batch alive until pending hits zero.
            let batch: &Batch = unsafe { &*ptr.0 };
            work_on(batch);
            // Clone the owner handle *before* releasing our unit — after
            // the fetch_sub the batch may be gone.
            let owner = batch.owner.clone();
            if batch.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                owner.unpark();
            }
        }
    }

    /// Claim job indices until the batch is exhausted. On panic, poison
    /// the batch so remaining jobs are drained unexecuted and stash the
    /// first payload for the submitter to re-raise.
    fn work_on(batch: &Batch) {
        loop {
            let i = batch.next.fetch_add(1, Ordering::Relaxed);
            if i >= batch.n_jobs {
                return;
            }
            if batch.poisoned.load(Ordering::Relaxed) {
                continue;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (batch.job)(i))) {
                batch.poisoned.store(true, Ordering::Relaxed);
                let mut slot = batch.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }

    /// Execute `job(0..n_jobs)` across the pool. The submitting thread
    /// always participates; with an effective size of 1 (the default on a
    /// single-core host) this is a plain sequential loop with no
    /// synchronization at all.
    pub fn run<F: Fn(usize) + Sync>(n_jobs: usize, job: F) {
        if n_jobs == 0 {
            return;
        }
        let threads = current_threads().max(1);
        let helpers = threads.saturating_sub(1).min(n_jobs - 1);
        if helpers == 0 {
            for i in 0..n_jobs {
                job(i);
            }
            return;
        }
        let sh = shared();
        ensure_workers(sh, helpers);
        let job_ref: &(dyn Fn(usize) + Sync) = &job;
        // SAFETY: lifetime-erased borrow of a stack closure. The batch
        // protocol below has every worker make its last access (pending ==
        // 0) before `run` returns, so the borrow never outlives the closure.
        let job_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job_ref) };
        let batch = Batch {
            job: job_static,
            next: AtomicUsize::new(0),
            n_jobs,
            pending: AtomicUsize::new(helpers + 1),
            owner: thread::current(),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        {
            let mut q = sh.queue.lock().unwrap();
            for _ in 0..helpers {
                q.push_back(BatchPtr(&batch));
            }
        }
        if helpers == 1 {
            sh.available.notify_one();
        } else {
            sh.available.notify_all();
        }
        work_on(&batch);
        if batch.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            // Timeout is a missed-unpark safety net, not the signal path.
            while batch.pending.load(Ordering::Acquire) != 0 {
                thread::park_timeout(Duration::from_micros(100));
            }
        }
        let payload = { batch.panic.lock().unwrap().take() };
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Number of blocks [`run_partitioned`] will split `n_items` into on
    /// this thread: one per pool thread, never more than the item count.
    pub fn n_blocks(n_items: usize) -> usize {
        current_threads().max(1).min(n_items)
    }

    /// Bounds of block `b` when `0..n_items` is split into `nblocks`
    /// contiguous blocks whose sizes differ by at most one. Purely
    /// arithmetic, so the partition is identical on every thread and
    /// every run, whatever the pool does.
    pub fn partition(n_items: usize, nblocks: usize, b: usize) -> (usize, usize) {
        debug_assert!(b < nblocks);
        let base = n_items / nblocks;
        let rem = n_items % nblocks;
        let start = b * base + b.min(rem);
        let len = base + usize::from(b < rem);
        (start, start + len)
    }

    /// Execute `job(block, start, end)` over a deterministic contiguous
    /// partition of `0..n_items` into [`n_blocks`] blocks — one pool job
    /// per *block* instead of one per item. This is the coarse-grained
    /// scheduling entry the SEM hot path uses: a whole operator
    /// application costs a single dispatch with `threads` jobs, instead
    /// of hundreds of element-sized chunks fighting over the batch
    /// counter. Block indices map 1:1 to jobs, so a caller may hand each
    /// block a private scratch slot with no cross-thread handoff.
    pub fn run_partitioned<F: Fn(usize, usize, usize) + Sync>(n_items: usize, job: F) {
        if n_items == 0 {
            return;
        }
        let nblocks = n_blocks(n_items);
        if nblocks == 1 {
            job(0, 0, n_items);
            return;
        }
        run(nblocks, |b| {
            let (start, end) = partition(n_items, nblocks, b);
            job(b, start, end);
        });
    }

    thread_local! {
        /// Per-thread pool-size override; 0 means "use the default".
        static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    }

    /// Process-wide default pool size: `NEK_POOL_THREADS`, then
    /// `RAYON_NUM_THREADS`, then `available_parallelism`.
    pub fn default_threads() -> usize {
        static DEFAULT: OnceLock<usize> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            for var in ["NEK_POOL_THREADS", "RAYON_NUM_THREADS"] {
                if let Some(n) = std::env::var(var)
                    .ok()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                {
                    if n >= 1 {
                        return n.min(MAX_WORKERS + 1);
                    }
                }
            }
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Pool size par calls from this thread will use.
    pub fn current_threads() -> usize {
        let o = OVERRIDE.with(|c| c.get());
        if o != 0 {
            o
        } else {
            default_threads()
        }
    }

    /// This thread's raw override (0 = none). The commsim runner reads
    /// this on the spawning thread and re-installs it inside each rank
    /// thread via [`with_override`], so `with_threads(n, || run_ranks(..))`
    /// applies to the ranks' par calls too.
    pub fn override_threads() -> usize {
        OVERRIDE.with(|c| c.get())
    }

    /// Run `f` with this thread's pool size forced to `n` (>= 1).
    pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        with_override(n.max(1), f)
    }

    /// Install `o` (0 clears) as this thread's override for `f`'s
    /// duration; restored even on panic.
    pub fn with_override<R>(o: usize, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                OVERRIDE.with(|c| c.set(self.0));
            }
        }
        let prev = OVERRIDE.with(|c| {
            let p = c.get();
            c.set(o);
            p
        });
        let _restore = Restore(prev);
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::pool;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn results_identical_across_pool_sizes() {
        // Job i sums a fixed 64-item chunk in index order into its own
        // slot: which thread runs it must not change a bit.
        let n = 10_007usize; // deliberately not a multiple of the chunk size
        let src: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let run = |threads: usize| {
            pool::with_threads(threads, || {
                let sums: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
                pool::run(sums.len(), |i| {
                    let chunk = &src[i * 64..(i * 64 + 64).min(n)];
                    let sum = chunk.iter().fold(0.25, |acc, v| acc + v * 1.5);
                    sums[i].store(sum.to_bits(), Ordering::Relaxed);
                });
                sums.into_iter()
                    .map(AtomicU64::into_inner)
                    .collect::<Vec<_>>()
            })
        };
        let seq = run(1);
        assert!(seq.iter().all(|&bits| bits != 0), "every job must run");
        for threads in [2, 3, 8] {
            assert_eq!(seq, run(threads), "pool size {threads} changed results");
        }
    }

    #[test]
    fn panic_in_job_propagates_drains_the_batch_and_pool_survives() {
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool::with_threads(4, || {
                pool::run(64, |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    panic!("poisoned worker");
                });
            });
        }));
        let err = result.expect_err("panic should propagate to the submitter");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poisoned worker"), "unexpected payload: {msg}");
        // A thread poisons the batch after its first panic and checks the
        // flag before every further job, so each runs at most one.
        let ran = ran.into_inner();
        assert!((1..=4).contains(&ran), "{ran} of 64 jobs ran");

        // The pool must stay usable after a poisoned batch.
        pool::with_threads(4, || {
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool::run_partitioned(hits.len(), |_, start, end| {
                for h in &hits[start..end] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn partition_is_exhaustive_and_balanced() {
        for n in [0usize, 1, 5, 7, 64, 1000] {
            for nb in 1..=8usize.min(n.max(1)) {
                let mut covered = 0usize;
                let mut sizes = Vec::new();
                for b in 0..nb {
                    let (s, e) = pool::partition(n, nb, b);
                    assert_eq!(s, covered, "blocks must be contiguous");
                    covered = e;
                    sizes.push(e - s);
                }
                assert_eq!(covered, n, "blocks must cover 0..{n}");
                let (lo, hi) = (
                    sizes.iter().min().copied().unwrap_or(0),
                    sizes.iter().max().copied().unwrap_or(0),
                );
                assert!(hi - lo <= 1, "n={n} nb={nb}: sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn run_partitioned_visits_every_item_once() {
        use std::sync::atomic::AtomicU32;
        for threads in [1usize, 3, 4] {
            pool::with_threads(threads, || {
                let n = 101;
                let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                // Capture on the submitting thread: the width override is
                // thread-local and pool workers don't see it.
                let nb = pool::n_blocks(n);
                pool::run_partitioned(n, |b, start, end| {
                    assert!(b < nb);
                    for h in &hits[start..end] {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads}: every item must be visited exactly once"
                );
            });
        }
    }

    #[test]
    fn run_partitioned_block_index_is_private_per_job() {
        // Each block writes only its own slot; no slot is written twice.
        pool::with_threads(4, || {
            let n = 37;
            let nb = pool::n_blocks(n);
            let mut slots = vec![0usize; nb];
            let base = slots.as_mut_ptr() as usize;
            pool::run_partitioned(n, move |b, start, end| {
                // SAFETY: block b is handed to exactly one job.
                unsafe { *(base as *mut usize).add(b) = end - start };
            });
            assert_eq!(slots.iter().sum::<usize>(), n);
            assert!(slots.iter().all(|&s| s > 0));
        });
    }

    #[test]
    fn override_nests_and_restores() {
        assert_eq!(pool::override_threads(), 0);
        pool::with_threads(3, || {
            assert_eq!(pool::current_threads(), 3);
            pool::with_threads(1, || assert_eq!(pool::current_threads(), 1));
            assert_eq!(pool::current_threads(), 3);
        });
        assert_eq!(pool::override_threads(), 0);
    }
}
