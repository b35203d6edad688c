//! Reusable scratch-buffer arena for the solver hot path.
//!
//! Steady-state stepping must not touch the heap (see the tracking
//! allocator test `ns_step_steady_state_is_allocation_free`), so every
//! temporary field the CG solver, the Navier–Stokes step, and the
//! post-processing kernels (`q_criterion`, `curl`) used to `vec!` per
//! call is now taken from — and returned to — a [`Workspace`] owned by
//! the solver. The arena is a simple freelist of equal-length `f64`
//! buffers: `take` hands out a recycled buffer (allocating only when the
//! list is empty, i.e. during the first few warm-up steps), `put` gives
//! it back.
//!
//! The arena changes *where* buffers live, never their contents at use
//! time: `take()` zero-fills, and `take_uninit()` is reserved for
//! callers that overwrite every element before reading. Results are
//! therefore bit-identical to the old allocate-per-call code.

/// Freelist of interchangeable `len == n` scratch buffers.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    n: usize,
    free: Vec<Vec<f64>>,
}

impl Workspace {
    /// Arena whose buffers all have length `n` (the rank-local node count).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            // Enough slots that steady-state put() never reallocates the
            // freelist itself; the NS step keeps < 24 buffers in flight.
            free: Vec::with_capacity(32),
        }
    }

    /// Buffer length this arena serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no recycled buffer is currently available.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Number of buffers currently parked in the freelist.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// A zero-filled buffer of length `n`.
    pub fn take(&mut self) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; self.n],
        }
    }

    /// A buffer of length `n` with arbitrary (recycled) contents. Only
    /// for callers that write every element before reading any.
    pub fn take_uninit(&mut self) -> Vec<f64> {
        self.free.pop().unwrap_or_else(|| vec![0.0; self.n])
    }

    /// Return a buffer to the freelist for reuse.
    ///
    /// # Panics
    /// Debug-panics if the buffer's length does not match the arena's.
    pub fn put(&mut self, buf: Vec<f64>) {
        debug_assert_eq!(buf.len(), self.n, "workspace buffer length mismatch");
        self.free.push(buf);
    }

    /// Return a `[u; 3]` vector-field triple to the freelist.
    pub fn put3(&mut self, bufs: [Vec<f64>; 3]) {
        for b in bufs {
            self.put(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_and_zeroes() {
        let mut ws = Workspace::new(4);
        let mut a = ws.take();
        a[2] = 7.0;
        let ptr = a.as_ptr();
        ws.put(a);
        assert_eq!(ws.available(), 1);
        let b = ws.take();
        assert_eq!(b.as_ptr(), ptr, "buffer must be recycled, not reallocated");
        assert_eq!(b, vec![0.0; 4], "recycled buffer must be zero-filled");
    }

    #[test]
    fn take_uninit_preserves_recycled_storage() {
        let mut ws = Workspace::new(3);
        let mut a = ws.take();
        a.copy_from_slice(&[1.0, 2.0, 3.0]);
        ws.put(a);
        let b = ws.take_uninit();
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
        assert_eq!(b.len(), ws.len());
    }

    #[test]
    fn put3_returns_all_three() {
        let mut ws = Workspace::new(2);
        let triple = [ws.take(), ws.take(), ws.take()];
        ws.put3(triple);
        assert_eq!(ws.available(), 3);
        assert!(!ws.is_empty());
    }
}
