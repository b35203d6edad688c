//! A registry grouping accountants so a harness can snapshot the whole job.
//!
//! The paper reports the *aggregate* high-water mark across ranks; the
//! registry's [`Registry::aggregate_peak`] provides exactly that sum, while
//! [`Registry::snapshot`] keeps the per-subsystem breakdown for analysis.

use crate::accountant::Accountant;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// A named collection of [`Accountant`]s.
///
/// Clonable and thread-safe; typically one registry per simulated job with
/// one accountant per (rank, subsystem) pair.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    accountants: Arc<RwLock<BTreeMap<String, Accountant>>>,
}

/// A point-in-time view of every accountant in a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// (name, current bytes, peak bytes), sorted by name.
    pub entries: Vec<(String, u64, u64)>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nothing can panic under the map's lock, so it is never poisoned.
    fn map(&self) -> RwLockReadGuard<'_, BTreeMap<String, Accountant>> {
        self.accountants.read().unwrap()
    }

    /// Get or create the accountant with this name.
    pub fn accountant(&self, name: &str) -> Accountant {
        if let Some(a) = self.map().get(name) {
            return a.clone();
        }
        let mut map = self.accountants.write().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Accountant::new(name))
            .clone()
    }

    /// Number of registered accountants.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when no accountant has been registered.
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// Snapshot every accountant.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.map();
        Snapshot {
            entries: map
                .iter()
                .map(|(n, a)| (n.clone(), a.current(), a.peak()))
                .collect(),
        }
    }

    /// Aggregate peak over all accountants — the paper's "memory high water
    /// mark across all MPI ranks" when one accountant is kept per rank.
    pub fn aggregate_peak(&self) -> u64 {
        self.map().values().map(|a| a.peak()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accountant_is_created_once_and_shared() {
        let r = Registry::new();
        let a = r.accountant("rank0/solver");
        let b = r.accountant("rank0/solver");
        a.charge_raw(10);
        assert_eq!(b.current(), 10);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn aggregate_peak_sums_ranks() {
        let r = Registry::new();
        r.accountant("rank0").charge_raw(100);
        r.accountant("rank1").charge_raw(250);
        assert_eq!(r.aggregate_peak(), 350);
    }

    #[test]
    fn snapshot_lists_every_accountant_by_name() {
        let r = Registry::new();
        r.accountant("rank1/solver").charge_raw(4);
        let c = r.accountant("rank0/vtk").charge(2);
        drop(c);
        assert_eq!(
            r.snapshot().entries,
            vec![
                ("rank0/vtk".to_string(), 0, 2),
                ("rank1/solver".to_string(), 4, 4)
            ]
        );
    }

    #[test]
    fn empty_registry_reports_zero() {
        let r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(r.aggregate_peak(), 0);
        assert_eq!(r.snapshot().entries.len(), 0);
    }
}
