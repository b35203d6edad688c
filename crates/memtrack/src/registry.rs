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

impl Snapshot {
    /// Sum of current bytes over all entries.
    pub fn total_current(&self) -> u64 {
        self.entries.iter().map(|(_, c, _)| c).sum()
    }

    /// Entries whose name starts with `prefix` (e.g. `"rank3/"`).
    pub fn with_prefix(&self, prefix: &str) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|(n, _, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }
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

    /// Aggregate current bytes over all accountants.
    pub fn aggregate_current(&self) -> u64 {
        self.map().values().map(|a| a.current()).sum()
    }

    /// Maximum single-accountant peak — the per-node footprint view used by
    /// Figure 6 (memory per simulation node).
    pub fn max_peak(&self) -> u64 {
        self.map().values().map(|a| a.peak()).max().unwrap_or(0)
    }

    /// Reset every accountant's peak to its current value.
    pub fn reset_peaks(&self) {
        for a in self.map().values() {
            a.reset_peak();
        }
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
        assert_eq!(r.aggregate_current(), 350);
        assert_eq!(r.max_peak(), 250);
    }

    #[test]
    fn snapshot_prefix_filter_selects_rank() {
        let r = Registry::new();
        r.accountant("rank0/solver").charge_raw(1);
        r.accountant("rank0/vtk").charge_raw(2);
        r.accountant("rank1/solver").charge_raw(4);
        let snap = r.snapshot();
        assert_eq!(snap.total_current(), 7);
        let rank0 = snap.with_prefix("rank0/");
        assert_eq!(rank0.entries.len(), 2);
        assert_eq!(rank0.total_current(), 3);
    }

    #[test]
    fn reset_peaks_applies_to_all() {
        let r = Registry::new();
        let a = r.accountant("x");
        let c = a.charge(1000);
        drop(c);
        assert_eq!(r.aggregate_peak(), 1000);
        r.reset_peaks();
        assert_eq!(r.aggregate_peak(), 0);
    }

    #[test]
    fn empty_registry_reports_zero() {
        let r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(r.aggregate_peak(), 0);
        assert_eq!(r.max_peak(), 0);
        assert_eq!(r.snapshot().entries.len(), 0);
    }
}
