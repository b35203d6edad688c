//! Global histogram analysis (SENSEI's canonical demo analysis): fixed bin
//! count over the global range, bins reduced across ranks.

use super::Field;
use crate::analysis_adaptor::AnalysisAdaptor;
use crate::configurable::AnalysisSpec;
use crate::data_adaptor::DataAdaptor;
use crate::Result;
use commsim::{Comm, ReduceOp};

/// One trigger's histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Timestep of the snapshot.
    pub time_step: u64,
    /// Global range the bins span.
    pub range: (f64, f64),
    /// Global bin counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// The analysis adaptor: keeps the latest [`Histogram`] per trigger.
pub struct HistogramAnalysis {
    field: Field,
    bins: usize,
    history: Vec<Histogram>,
}

impl HistogramAnalysis {
    /// Histogram of point array `array` on `mesh` with `bins` bins.
    pub fn new(mesh: impl Into<String>, array: impl Into<String>, bins: usize) -> Self {
        assert!(bins >= 1, "need at least one bin");
        Self {
            field: Field::new(mesh, array),
            bins,
            history: Vec::new(),
        }
    }

    /// Build from `<analysis type="histogram" array=".." bins=".."/>`.
    ///
    /// # Errors
    /// Missing `array` attribute.
    pub fn from_spec(spec: &AnalysisSpec) -> Result<Self> {
        Ok(Self {
            field: Field::from_spec(spec, "histogram")?.centering_from(spec),
            bins: spec.attr_parse_or("bins", 16usize).max(1),
            history: Vec::new(),
        })
    }

    /// All histograms so far.
    pub fn history(&self) -> &[Histogram] {
        &self.history
    }
}

impl AnalysisAdaptor for HistogramAnalysis {
    fn name(&self) -> &str {
        "histogram"
    }

    fn required_arrays(&self) -> Vec<String> {
        vec![self.field.array.clone()]
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> Result<bool> {
        let mb = self.field.fetch(comm, data)?;

        // Pass 1: global range.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, g) in mb.local_blocks() {
            let a = self.field.in_block(g)?;
            for i in 0..a.data.scalar_len() {
                let v = a.data.get_as_f64(i);
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        let gmin = comm.allreduce(lo, ReduceOp::Min);
        let gmax = comm.allreduce(hi, ReduceOp::Max);
        let width = if gmax > gmin { gmax - gmin } else { 1.0 };

        // Pass 2: local bins, then a vector allreduce.
        let mut counts = vec![0.0f64; self.bins];
        for (_, g) in mb.local_blocks() {
            let a = self.field.in_block(g)?;
            for i in 0..a.data.scalar_len() {
                let v = a.data.get_as_f64(i);
                let bin = (((v - gmin) / width) * self.bins as f64) as usize;
                counts[bin.min(self.bins - 1)] += 1.0;
            }
        }
        comm.allreduce_vec(&mut counts, ReduceOp::Sum);
        self.history.push(Histogram {
            time_step: data.time_step(),
            range: (gmin, gmax),
            counts: counts.iter().map(|&c| c as u64).collect(),
        });
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_adaptor::StaticDataAdaptor;
    use commsim::{run_ranks, MachineModel};
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};

    fn block(rank: usize, nranks: usize, values: Vec<f64>) -> MultiBlock {
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
    fn histogram_bins_globally() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            // Global values 0..8 over two ranks, 4 bins over [0, 7].
            let base = comm.rank() as f64 * 4.0;
            let values: Vec<f64> = (0..4).map(|i| base + i as f64).collect();
            let mut da =
                StaticDataAdaptor::new("mesh", block(comm.rank(), comm.size(), values), 0.0, 3);
            let mut h = HistogramAnalysis::new("mesh", "v", 4);
            h.execute(comm, &mut da).unwrap();
            h.history()[0].clone()
        });
        for hist in res {
            assert_eq!(hist.range, (0.0, 7.0));
            assert_eq!(hist.total(), 8);
            // Bins over [0,7]: [0,1.75) → {0,1}; [1.75,3.5) → {2,3};
            // [3.5,5.25) → {4,5}; rest → {6,7}.
            assert_eq!(hist.counts, vec![2, 2, 2, 2]);
            assert_eq!(hist.time_step, 3);
        }
    }

    #[test]
    fn constant_field_lands_in_one_bin() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut da = StaticDataAdaptor::new("mesh", block(0, 1, vec![5.0; 6]), 0.0, 0);
            let mut h = HistogramAnalysis::new("mesh", "v", 8);
            h.execute(comm, &mut da).unwrap();
            h.history()[0].clone()
        });
        assert_eq!(res[0].total(), 6);
        assert_eq!(res[0].counts.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn from_spec_defaults() {
        let spec = AnalysisSpec {
            kind: "histogram".into(),
            frequency: 1,
            enabled: true,
            attrs: vec![("array".into(), "pressure".into())],
        };
        let h = HistogramAnalysis::from_spec(&spec).unwrap();
        assert_eq!(h.bins, 16);
        assert_eq!(h.field.array, "pressure");
        assert_eq!(h.field.mesh, "mesh");
    }
}
