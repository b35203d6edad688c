//! The analysis-side adaptor contract.

use crate::data_adaptor::DataAdaptor;
use crate::Result;
use commsim::Comm;

/// Implemented by analysis/visualization back ends (Catalyst-style
/// renderers, checkpoint writers, in-transit senders).
///
/// `execute` is collective: every rank of the simulation communicator calls
/// it at the same trigger with its own `DataAdaptor`, mirroring SENSEI's
/// MPI-collective `Execute(DataAdaptor*)`.
pub trait AnalysisAdaptor: Send {
    /// Human-readable adaptor name ("catalyst", "checkpoint", ...).
    fn name(&self) -> &str;

    /// Run the analysis against the current simulation state. Returns
    /// `Ok(true)` to let the simulation continue, `Ok(false)` to request a
    /// stop (SENSEI's convention for steering).
    ///
    /// # Errors
    /// Back-end failures (I/O, rendering, transport).
    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> Result<bool>;

    /// Array names this analysis will request via
    /// [`crate::DataAdaptor::add_array`]. The driver uses the union across
    /// active analyses to publish each field exactly once per trigger.
    /// Defaults to empty (the analysis reads no field data).
    fn required_arrays(&self) -> Vec<String> {
        Vec::new()
    }

    /// Flush and release resources at end of run.
    ///
    /// # Errors
    /// Back-end failures during flush.
    fn finalize(&mut self, comm: &mut Comm) -> Result<()> {
        let _ = comm;
        Ok(())
    }
}

/// A counting no-op adaptor for tests and the paper's "No Transport"
/// reference configuration (SENSEI active, no back end enabled).
#[derive(Debug, Default)]
pub struct NullAnalysis {
    executions: u64,
    finalized: bool,
}

impl NullAnalysis {
    /// New counting adaptor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `execute` ran.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Whether `finalize` ran.
    pub fn finalized(&self) -> bool {
        self.finalized
    }
}

impl AnalysisAdaptor for NullAnalysis {
    fn name(&self) -> &str {
        "null"
    }

    fn execute(&mut self, _comm: &mut Comm, _data: &mut dyn DataAdaptor) -> Result<bool> {
        self.executions += 1;
        Ok(true)
    }

    fn finalize(&mut self, _comm: &mut Comm) -> Result<()> {
        self.finalized = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_adaptor::StaticDataAdaptor;
    use commsim::{run_ranks, MachineModel};
    use meshdata::MultiBlock;

    #[test]
    fn null_analysis_counts() {
        run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut a = NullAnalysis::new();
            let mut da = StaticDataAdaptor::new("mesh", MultiBlock::new(1), 0.0, 0);
            assert!(a.execute(comm, &mut da).unwrap());
            assert!(a.execute(comm, &mut da).unwrap());
            a.finalize(comm).unwrap();
            assert_eq!(a.executions(), 2);
            assert!(a.finalized());
        });
    }
}
