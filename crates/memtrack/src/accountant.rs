//! Explicit byte accounting for attributing memory to subsystems.
//!
//! The process-wide tracking allocator cannot say *which* rank or subsystem
//! owns the bytes at the high-water mark. Subsystems therefore charge their
//! long-lived buffers to an [`Accountant`] ("solver state", "vtk copy",
//! "staging queue", "framebuffer", ...). The figure harnesses read the
//! accountants to reproduce the paper's per-configuration memory comparison.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Inner {
    current: AtomicU64,
    peak: AtomicU64,
}

/// A cheap, clonable, thread-safe byte counter with a high-water mark.
///
/// Cloning shares the same counters (it is an `Arc` internally), so a rank
/// thread and the metrics collector can hold the same accountant.
#[derive(Debug, Clone, Default)]
pub struct Accountant {
    name: Arc<str>,
    inner: Arc<Inner>,
}

impl Accountant {
    /// Create a named accountant with zeroed counters.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Self {
            name: name.into(),
            inner: Arc::new(Inner::default()),
        }
    }

    /// The name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record `bytes` as newly resident. Returns a [`Charge`] guard that
    /// credits the bytes back when dropped, so scoped buffers can be
    /// accounted with RAII.
    pub fn charge(&self, bytes: u64) -> Charge {
        self.charge_raw(bytes);
        Charge {
            accountant: self.clone(),
            bytes,
        }
    }

    /// Record `bytes` as resident without a guard. Pair with
    /// [`Accountant::credit_raw`].
    pub fn charge_raw(&self, bytes: u64) {
        let now = self.inner.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let mut peak = self.inner.peak.load(Ordering::Relaxed);
        while now > peak {
            match self.inner.peak.compare_exchange_weak(
                peak,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    /// Release `bytes` previously charged with [`Accountant::charge_raw`].
    ///
    /// Saturates at zero: crediting more than was charged is a caller bug but
    /// must not wrap the counter, which would poison every later reading.
    pub fn credit_raw(&self, bytes: u64) {
        let mut cur = self.inner.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.inner.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }

    /// Bytes currently charged.
    pub fn current(&self) -> u64 {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// High-water mark of charged bytes.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }
}

/// RAII guard returned by [`Accountant::charge`]; credits the bytes back on
/// drop.
#[derive(Debug)]
pub struct Charge {
    accountant: Accountant,
    bytes: u64,
}

impl Charge {
    /// Bytes held by this charge.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grow or shrink the charge in place (e.g. a staging queue that
    /// changes size), keeping RAII semantics.
    pub fn resize(&mut self, new_bytes: u64) {
        if new_bytes > self.bytes {
            self.accountant.charge_raw(new_bytes - self.bytes);
        } else {
            self.accountant.credit_raw(self.bytes - new_bytes);
        }
        self.bytes = new_bytes;
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.accountant.credit_raw(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn charge_guard_credits_on_drop() {
        let a = Accountant::new("test");
        {
            let _c = a.charge(1000);
            assert_eq!(a.current(), 1000);
        }
        assert_eq!(a.current(), 0);
        assert_eq!(a.peak(), 1000);
    }

    #[test]
    fn resize_adjusts_current_both_directions() {
        let a = Accountant::new("resize");
        let mut c = a.charge(100);
        c.resize(400);
        assert_eq!(a.current(), 400);
        c.resize(50);
        assert_eq!(a.current(), 50);
        drop(c);
        assert_eq!(a.current(), 0);
        assert_eq!(a.peak(), 400);
    }

    #[test]
    fn credit_saturates_instead_of_wrapping() {
        let a = Accountant::new("sat");
        a.charge_raw(10);
        a.credit_raw(100);
        assert_eq!(a.current(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let a = Accountant::new("shared");
        let b = a.clone();
        a.charge_raw(64);
        assert_eq!(b.current(), 64);
        b.credit_raw(64);
        assert_eq!(a.current(), 0);
    }

    #[test]
    fn concurrent_charges_preserve_balance_and_peak_lower_bound() {
        let a = Accountant::new("mt");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let a = a.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        a.charge_raw(16);
                        a.credit_raw(16);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(a.current(), 0);
        assert!(a.peak() >= 16);
    }
}
