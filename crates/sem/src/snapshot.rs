//! Owned, pooled, versioned field snapshots — the data plane between the
//! solver and its consumers.
//!
//! [`crate::FlowSolver::publish_snapshot`] stages each requested field
//! exactly once into a [`FieldSnapshot`]: an immutable, refcounted bundle
//! of host-side buffers stamped with the step index it was taken at.
//! Consumers (the in-situ bridge, the transport engine, the render
//! pipeline) hold `Arc<FieldSnapshot>` and never touch the solver again —
//! the solver is free to advance to step N+1 while snapshot N is still
//! being rendered or written on another thread.
//!
//! Buffers are recycled through a [`SnapshotPool`] freelist so steady-state
//! publishing allocates nothing: when the last `Arc` to a snapshot drops,
//! its buffers return to the pool. The pool charges every byte it owns to a
//! `snapshot-pool` accountant, so the memtrack high-water mark bounds the
//! number of snapshots ever live at once (pipeline depth).

use memtrack::Accountant;
use std::sync::{Arc, Mutex, Weak};

/// Which fields [`crate::FlowSolver::publish_snapshot`] should stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotSpec {
    /// Stage the pressure field.
    pub pressure: bool,
    /// Stage the velocity field (interleaved 3-component).
    pub velocity: bool,
    /// Stage the temperature field (ignored when the case has none).
    pub temperature: bool,
    /// Compute and stage the Q-criterion scalar.
    pub q_criterion: bool,
}

impl SnapshotSpec {
    /// Build a spec from consumer array names; unknown names are ignored
    /// here and surface as `NoSuchData` when the consumer asks the
    /// snapshot adaptor for them.
    pub fn from_names<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> Self {
        let mut spec = Self::default();
        for name in names {
            match name.as_ref() {
                "pressure" => spec.pressure = true,
                "velocity" => spec.velocity = true,
                "temperature" => spec.temperature = true,
                "q_criterion" => spec.q_criterion = true,
                _ => {}
            }
        }
        spec
    }
}

/// Pool counters (diagnostics and lifecycle tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Fresh heap allocations (buffer creations plus capacity growths).
    pub allocations: u64,
    /// Buffers served from the freelist without allocating.
    pub reuses: u64,
    /// Bytes of buffer capacity currently owned by the pool (live + free).
    pub resident_bytes: u64,
    /// Buffers currently parked in the freelist.
    pub free_buffers: usize,
}

#[derive(Debug, Default)]
struct PoolInner {
    free: Vec<Vec<f64>>,
    allocations: u64,
    reuses: u64,
    resident_bytes: u64,
}

#[derive(Debug)]
struct PoolShared {
    inner: Mutex<PoolInner>,
    acct: Accountant,
}

impl PoolShared {
    /// Accept a buffer back into the freelist.
    fn put(&self, buf: Vec<f64>) {
        let mut inner = self.inner.lock().expect("snapshot pool poisoned");
        inner.free.push(buf);
    }

    /// A buffer escaped the pool (a consumer kept an `Arc` alias beyond the
    /// snapshot's life); its bytes are no longer pool-resident.
    fn forfeit(&self, capacity_bytes: u64) {
        let mut inner = self.inner.lock().expect("snapshot pool poisoned");
        inner.resident_bytes = inner.resident_bytes.saturating_sub(capacity_bytes);
        self.acct.credit_raw(capacity_bytes);
    }
}

/// Freelist of host staging buffers shared by every snapshot a rank
/// publishes. Cloning shares the same pool.
#[derive(Debug, Clone)]
pub struct SnapshotPool {
    shared: Arc<PoolShared>,
}

impl SnapshotPool {
    /// Create a pool charging its resident bytes to `acct` (by convention
    /// the rank's `snapshot-pool` accountant).
    pub fn new(acct: Accountant) -> Self {
        Self {
            shared: Arc::new(PoolShared {
                inner: Mutex::new(PoolInner::default()),
                acct,
            }),
        }
    }

    /// Take a zeroed buffer of `len` values, reusing freelist capacity when
    /// possible. Only capacity growth charges the accountant.
    pub fn take(&self, len: usize) -> Vec<f64> {
        let mut inner = self.shared.inner.lock().expect("snapshot pool poisoned");
        // Prefer the free buffer whose capacity fits best to avoid growing
        // a small buffer while a large one sits idle.
        let pick = inner
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)
            .or_else(|| {
                inner
                    .free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i)
            });
        let mut buf = match pick {
            Some(i) => {
                inner.reuses += 1;
                inner.free.swap_remove(i)
            }
            None => Vec::new(),
        };
        let old_cap = buf.capacity();
        buf.clear();
        buf.resize(len, 0.0);
        if buf.capacity() > old_cap {
            let grown = ((buf.capacity() - old_cap) * 8) as u64;
            inner.allocations += 1;
            inner.resident_bytes += grown;
            self.shared.acct.charge_raw(grown);
        }
        buf
    }

    /// Return a buffer to the freelist directly (for scratch that never
    /// became a snapshot field).
    pub fn put(&self, buf: Vec<f64>) {
        self.shared.put(buf);
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.shared.inner.lock().expect("snapshot pool poisoned");
        PoolStats {
            allocations: inner.allocations,
            reuses: inner.reuses,
            resident_bytes: inner.resident_bytes,
            free_buffers: inner.free.len(),
        }
    }

    /// The accountant the pool charges.
    pub fn accountant(&self) -> &Accountant {
        &self.shared.acct
    }

    fn downgrade(&self) -> Weak<PoolShared> {
        Arc::downgrade(&self.shared)
    }
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().expect("snapshot pool poisoned");
        self.acct.credit_raw(inner.resident_bytes);
        inner.resident_bytes = 0;
    }
}

/// One staged field inside a [`FieldSnapshot`]: name, tuple arity, and a
/// refcounted view of the host buffer.
#[derive(Debug, Clone)]
pub struct SnapshotField {
    /// Canonical array name ("pressure", "velocity", ...).
    pub name: &'static str,
    /// Components per tuple (1 = scalar, 3 = interleaved vector).
    pub components: usize,
    data: Arc<Vec<f64>>,
}

impl SnapshotField {
    /// Build a field from an owned buffer. Normally fields come from
    /// [`crate::FlowSolver::publish_snapshot`]; this is public so tests
    /// and checkpoint tooling can assemble synthetic snapshots.
    pub fn new(name: &'static str, components: usize, buf: Vec<f64>) -> Self {
        Self {
            name,
            components,
            data: Arc::new(buf),
        }
    }

    /// The staged values, tuple-major.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// A zero-copy refcounted alias of the buffer (for handing to
    /// `meshdata::ArrayData::F64Shared`).
    pub fn shared(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.data)
    }
}

/// An immutable, versioned bundle of host-side field copies taken at one
/// published step. Dropping the snapshot returns its buffers to the pool
/// it was taken from (if the pool is still alive).
#[derive(Debug)]
pub struct FieldSnapshot {
    /// Solver step index the snapshot was taken at.
    pub version: usize,
    /// Simulation time at that step.
    pub time: f64,
    /// Local GLL nodes per field tuple.
    pub n_nodes: usize,
    fields: Vec<SnapshotField>,
    pool: Weak<PoolShared>,
}

impl FieldSnapshot {
    /// Assemble a snapshot from already-staged fields. Normally called only
    /// by [`crate::FlowSolver::publish_snapshot`].
    pub fn new(
        version: usize,
        time: f64,
        n_nodes: usize,
        fields: Vec<SnapshotField>,
        pool: &SnapshotPool,
    ) -> Self {
        Self {
            version,
            time,
            n_nodes,
            fields,
            pool: pool.downgrade(),
        }
    }

    /// All staged fields in publish order.
    pub fn fields(&self) -> &[SnapshotField] {
        &self.fields
    }

    /// Look up a staged field by name.
    pub fn field(&self, name: &str) -> Option<&SnapshotField> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Total staged bytes (sum of field lengths × 8).
    pub fn staged_bytes(&self) -> u64 {
        self.fields.iter().map(|f| (f.data.len() * 8) as u64).sum()
    }
}

impl Drop for FieldSnapshot {
    fn drop(&mut self) {
        let Some(pool) = self.pool.upgrade() else {
            return;
        };
        for f in self.fields.drain(..) {
            let cap_bytes = (f.data.capacity() * 8) as u64;
            match Arc::try_unwrap(f.data) {
                Ok(buf) => pool.put(buf),
                // A consumer still aliases the buffer; it leaves the pool
                // and is freed when that alias drops.
                Err(_) => pool.forfeit(cap_bytes),
            }
        }
    }
}

/// Helper used by `publish_snapshot`: build a [`SnapshotField`] from a
/// pooled buffer.
pub(crate) fn field_from_pooled(
    name: &'static str,
    components: usize,
    buf: Vec<f64>,
) -> SnapshotField {
    SnapshotField::new(name, components, buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> SnapshotPool {
        SnapshotPool::new(Accountant::new("test/snapshot-pool"))
    }

    #[test]
    fn spec_from_names() {
        let a = SnapshotSpec::from_names(["pressure", "nonsense"]);
        assert_eq!(
            a,
            SnapshotSpec {
                pressure: true,
                ..SnapshotSpec::default()
            }
        );
        let b = SnapshotSpec::from_names(["velocity", "q_criterion"]);
        assert!(b.velocity && b.q_criterion && !b.pressure && !b.temperature);
    }

    #[test]
    fn pool_reuses_buffers_and_charges_once() {
        let p = pool();
        let b1 = p.take(64);
        assert_eq!(b1.len(), 64);
        let charged = p.accountant().current();
        assert!(charged >= 64 * 8);
        p.put(b1);
        let b2 = p.take(64);
        let s = p.stats();
        assert_eq!(s.reuses, 1, "second take must reuse");
        assert_eq!(
            p.accountant().current(),
            charged,
            "reuse must not charge new bytes"
        );
        p.put(b2);
    }

    #[test]
    fn pool_prefers_best_fit_buffer() {
        let p = pool();
        let small = p.take(8);
        let large = p.take(1024);
        p.put(small);
        p.put(large);
        let again = p.take(8);
        assert!(again.capacity() < 1024, "should pick the small buffer");
        let stats = p.stats();
        assert_eq!(stats.reuses, 1);
    }

    #[test]
    fn snapshot_drop_returns_buffers() {
        let p = pool();
        let buf = p.take(32);
        let snap = FieldSnapshot::new(3, 0.1, 32, vec![field_from_pooled("pressure", 1, buf)], &p);
        assert_eq!(snap.field("pressure").unwrap().values().len(), 32);
        assert_eq!(snap.staged_bytes(), 32 * 8);
        assert_eq!(p.stats().free_buffers, 0);
        drop(snap);
        assert_eq!(p.stats().free_buffers, 1, "drop must recycle the buffer");
        let resident = p.accountant().current();
        assert!(resident >= 32 * 8, "recycled bytes stay pool-resident");
    }

    #[test]
    fn escaped_alias_forfeits_bytes_instead_of_recycling() {
        let p = pool();
        let buf = p.take(16);
        let snap = FieldSnapshot::new(1, 0.0, 16, vec![field_from_pooled("q", 1, buf)], &p);
        let alias = snap.field("q").unwrap().shared();
        let before = p.accountant().current();
        drop(snap);
        assert_eq!(p.stats().free_buffers, 0, "aliased buffer must not recycle");
        assert!(
            p.accountant().current() < before,
            "forfeit credits the bytes"
        );
        drop(alias);
    }

    #[test]
    fn pool_drop_credits_everything() {
        let acct = Accountant::new("t");
        let p = SnapshotPool::new(acct.clone());
        let b = p.take(100);
        p.put(b);
        assert!(acct.current() > 0);
        drop(p);
        assert_eq!(acct.current(), 0);
    }
}
