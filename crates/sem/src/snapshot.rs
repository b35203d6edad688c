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
//! its buffers return to the pool. A free buffer is reused only for a
//! request of exactly its length (every caller asks for `n` or `3n` values
//! on a fixed mesh); otherwise the pool allocates a new buffer and charges
//! it to a `snapshot-pool` accountant. Each buffer carries that
//! `memtrack::Charge` for its whole life, so the accountant's current bytes
//! are the buffers the pool owns, lent or free, and its high-water mark
//! counts the most snapshots ever live at once. A buffer that a consumer
//! still aliases when its snapshot drops is not recycled: its charge
//! credits then. A synthetic [`SnapshotField::new`] buffer carries no
//! charge and is freed, never recycled.

use memtrack::{Accountant, Charge};
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

/// A staging buffer lent by a [`SnapshotPool`], carrying the charge taken
/// when the pool allocated it.
#[derive(Debug)]
pub(crate) struct PooledBuffer {
    pub(crate) values: Vec<f64>,
    charge: Charge,
}

#[derive(Debug)]
struct PoolShared {
    free: Mutex<Vec<PooledBuffer>>,
    acct: Accountant,
}

/// Freelist of host staging buffers shared by every snapshot a rank
/// publishes. Cloning shares the same pool.
#[derive(Debug, Clone)]
pub struct SnapshotPool {
    shared: Arc<PoolShared>,
}

impl SnapshotPool {
    /// Create a pool charging its buffers to `acct` (by convention the
    /// rank's `snapshot-pool` accountant).
    pub fn new(acct: Accountant) -> Self {
        Self {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::new()),
                acct,
            }),
        }
    }

    /// Take a zeroed buffer of `len` values: a free buffer of exactly
    /// `len` values when there is one, else a new buffer charged to the
    /// accountant.
    pub(crate) fn take(&self, len: usize) -> PooledBuffer {
        let mut free = self.shared.free.lock().expect("snapshot pool poisoned");
        match free.iter().position(|b| b.values.len() == len) {
            Some(i) => {
                let mut buf = free.swap_remove(i);
                buf.values.fill(0.0);
                buf
            }
            None => PooledBuffer {
                values: vec![0.0; len],
                charge: self.shared.acct.charge((len * 8) as u64),
            },
        }
    }

    /// Bytes charged to the pool's accountant: every buffer it allocated
    /// that is not yet freed, lent or free.
    pub fn resident_bytes(&self) -> u64 {
        self.shared.acct.current()
    }
}

/// One staged field inside a [`FieldSnapshot`]: name, tuple arity, and a
/// refcounted view of the host buffer.
#[derive(Debug)]
pub struct SnapshotField {
    /// Canonical array name ("pressure", "velocity", ...).
    pub name: &'static str,
    /// Components per tuple (1 = scalar, 3 = interleaved vector).
    pub components: usize,
    data: Arc<Vec<f64>>,
    /// The pool's charge for the buffer; `None` for a synthetic field.
    charge: Option<Charge>,
}

impl SnapshotField {
    /// Build a field from an owned buffer. Normally fields come from
    /// [`crate::FlowSolver::publish_snapshot`]; this is public so tests
    /// and checkpoint tooling can assemble synthetic snapshots. No pool
    /// charged the buffer, so no pool recycles it.
    pub fn new(name: &'static str, components: usize, buf: Vec<f64>) -> Self {
        Self {
            name,
            components,
            data: Arc::new(buf),
            charge: None,
        }
    }

    /// A field over a pooled buffer, which returns to its pool with the
    /// snapshot.
    pub(crate) fn pooled(name: &'static str, components: usize, buf: PooledBuffer) -> Self {
        Self {
            name,
            components,
            data: Arc::new(buf.values),
            charge: Some(buf.charge),
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
/// published step. Dropping the snapshot returns its pooled buffers to the
/// pool it was taken from (if the pool is still alive).
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
            pool: Arc::downgrade(&pool.shared),
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
        let mut free = pool.free.lock().expect("snapshot pool poisoned");
        for f in self.fields.drain(..) {
            // A buffer a consumer still aliases is not recycled: its charge
            // credits now and the alias frees it. A synthetic buffer has no
            // charge and is freed here.
            if let (Some(charge), Ok(values)) = (f.charge, Arc::try_unwrap(f.data)) {
                free.push(PooledBuffer { values, charge });
            }
        }
    }
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

    /// A snapshot on `p` over one pooled buffer of `len` values.
    fn snapshot(p: &SnapshotPool, len: usize) -> FieldSnapshot {
        let field = SnapshotField::pooled("pressure", 1, p.take(len));
        FieldSnapshot::new(1, 0.0, len, vec![field], p)
    }

    #[test]
    fn pool_reuses_buffers_and_charges_once() {
        let p = pool();
        let mut buf = p.take(64);
        buf.values.fill(1.0);
        let field = SnapshotField::pooled("pressure", 1, buf);
        drop(FieldSnapshot::new(1, 0.0, 64, vec![field], &p));
        assert_eq!(p.resident_bytes(), 64 * 8);
        let again = p.take(64);
        assert!(
            again.values.iter().all(|&v| v == 0.0),
            "a reused buffer is zeroed"
        );
        assert_eq!(
            p.resident_bytes(),
            64 * 8,
            "reuse must not charge new bytes"
        );
    }

    #[test]
    fn pool_reuses_only_exact_lengths() {
        let p = pool();
        drop(snapshot(&p, 1024));
        let small = p.take(8);
        assert_eq!(small.values.len(), 8);
        assert_eq!(
            p.resident_bytes(),
            (1024 + 8) * 8,
            "a longer free buffer is not cut down"
        );
        let large = p.take(1024);
        assert_eq!(
            p.resident_bytes(),
            (1024 + 8) * 8,
            "the free buffer of that length serves"
        );
        drop((small, large));
        assert_eq!(p.resident_bytes(), 0, "a buffer never published is freed");
    }

    #[test]
    fn snapshot_drop_returns_buffers() {
        let p = pool();
        let snap = snapshot(&p, 32);
        assert_eq!(snap.field("pressure").unwrap().values().len(), 32);
        assert_eq!(snap.staged_bytes(), 32 * 8);
        drop(snap);
        assert_eq!(
            p.resident_bytes(),
            32 * 8,
            "recycled bytes stay pool-resident"
        );
        drop(snapshot(&p, 32));
        assert_eq!(
            p.resident_bytes(),
            32 * 8,
            "the next snapshot reuses the buffer"
        );
    }

    #[test]
    fn field_aliased_past_its_snapshot_credits_its_bytes() {
        let p = pool();
        let snap = snapshot(&p, 16);
        let alias = snap.field("pressure").unwrap().shared();
        drop(snap);
        assert_eq!(p.resident_bytes(), 0, "the aliased buffer's charge credits");
        assert_eq!(alias.len(), 16);
        drop(snapshot(&p, 16));
        assert_eq!(
            p.resident_bytes(),
            16 * 8,
            "the next take allocates and charges anew"
        );
    }

    #[test]
    fn synthetic_field_buffer_is_freed_not_recycled() {
        let p = pool();
        let field = SnapshotField::new("pressure", 1, vec![1.0; 16]);
        drop(FieldSnapshot::new(1, 0.0, 16, vec![field], &p));
        let buf = p.take(16);
        assert_eq!(p.resident_bytes(), 16 * 8, "the take is charged");
        assert!(buf.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pool_drop_credits_everything() {
        let acct = Accountant::new("t");
        let p = SnapshotPool::new(acct.clone());
        let lent = snapshot(&p, 50);
        drop(snapshot(&p, 100));
        assert_eq!(acct.current(), 150 * 8);
        drop(p);
        assert_eq!(acct.current(), 50 * 8, "the free buffer's charge credits");
        drop(lent);
        assert_eq!(
            acct.current(),
            0,
            "a snapshot outliving its pool credits on drop"
        );
        assert_eq!(acct.peak(), 150 * 8);
    }
}
