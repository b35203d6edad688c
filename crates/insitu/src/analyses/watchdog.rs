//! Watchdog steering analysis: request a simulation stop when a field
//! leaves its allowed range.
//!
//! Demonstrates the steering half of the SENSEI contract — `execute`
//! returning `false` asks the simulation to stop. Production codes use
//! this to kill diverging runs before they waste a full allocation, which
//! is exactly the in situ value proposition the paper's introduction
//! motivates (catching events between checkpoints).

use super::Field;
use crate::analysis_adaptor::AnalysisAdaptor;
use crate::configurable::AnalysisSpec;
use crate::data_adaptor::DataAdaptor;
use crate::Result;
use commsim::{Comm, ReduceOp};

/// Stops the run when `|array|`'s global max exceeds `max_abs` or any
/// value is non-finite.
pub struct WatchdogAnalysis {
    field: Field,
    max_abs: f64,
    tripped_at: Option<u64>,
}

impl WatchdogAnalysis {
    /// Watch the point array `array` on `mesh` against `max_abs`.
    pub fn new(mesh: impl Into<String>, array: impl Into<String>, max_abs: f64) -> Self {
        Self {
            field: Field::new(mesh, array),
            max_abs,
            tripped_at: None,
        }
    }

    /// Build from `<analysis type="watchdog" array=".." max=".."/>`.
    ///
    /// # Errors
    /// Missing `array` attribute.
    pub fn from_spec(spec: &AnalysisSpec) -> Result<Self> {
        Ok(Self {
            field: Field::from_spec(spec, "watchdog")?,
            max_abs: spec.attr_parse_or("max", f64::INFINITY),
            tripped_at: None,
        })
    }

    /// The step at which the watchdog tripped, if it did.
    pub fn tripped_at(&self) -> Option<u64> {
        self.tripped_at
    }
}

impl AnalysisAdaptor for WatchdogAnalysis {
    fn name(&self) -> &str {
        "watchdog"
    }

    fn required_arrays(&self) -> Vec<String> {
        vec![self.field.array.clone()]
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> Result<bool> {
        let mb = self.field.fetch(comm, data)?;
        let mut worst = 0.0f64;
        for (_, g) in mb.local_blocks() {
            let a = self.field.in_block(g)?;
            for i in 0..a.data.scalar_len() {
                let v = a.data.get_as_f64(i);
                worst = if v.is_finite() {
                    worst.max(v.abs())
                } else {
                    f64::INFINITY
                };
            }
        }
        let global_worst = comm.allreduce(worst, ReduceOp::Max);
        if global_worst > self.max_abs {
            self.tripped_at.get_or_insert(data.time_step());
            return Ok(false);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_adaptor::StaticDataAdaptor;
    use commsim::{run_ranks, MachineModel};
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};

    fn block(values: Vec<f64>, rank: usize, nranks: usize) -> MultiBlock {
        let mut g = UnstructuredGrid::new();
        for i in 0..values.len() {
            g.add_point([i as f64, 0.0, 0.0]);
        }
        g.add_cell(CellType::Line, &[0, 1]);
        g.add_point_data(DataArray::scalars_f64("v", values))
            .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    #[test]
    fn watchdog_passes_in_range_and_trips_out_of_range() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let mut w = WatchdogAnalysis::new("mesh", "v", 10.0);
            let mut ok_da = StaticDataAdaptor::new(
                "mesh",
                block(vec![1.0, -3.0], comm.rank(), comm.size()),
                0.0,
                1,
            );
            let ok = w.execute(comm, &mut ok_da).unwrap();
            // Only rank 1 carries the out-of-range value: steering must
            // still be collective-consistent across ranks.
            let bad_values = if comm.rank() == 1 {
                vec![1.0, -99.0]
            } else {
                vec![1.0, 2.0]
            };
            let mut bad_da =
                StaticDataAdaptor::new("mesh", block(bad_values, comm.rank(), comm.size()), 0.0, 2);
            let bad = w.execute(comm, &mut bad_da).unwrap();
            (ok, bad, w.tripped_at())
        });
        for (ok, bad, tripped) in res {
            assert!(ok);
            assert!(!bad, "out-of-range value must request a stop");
            assert_eq!(tripped, Some(2));
        }
    }

    #[test]
    fn watchdog_trips_on_nan() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut w = WatchdogAnalysis::new("mesh", "v", 1e10);
            let mut da = StaticDataAdaptor::new("mesh", block(vec![0.0, f64::NAN], 0, 1), 0.0, 3);
            w.execute(comm, &mut da).unwrap()
        });
        assert!(!res[0], "NaN must trip the watchdog");
    }
}
