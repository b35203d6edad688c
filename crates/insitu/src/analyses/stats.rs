//! Descriptive statistics analysis: global min/max/mean/std of one array,
//! computed with two `allreduce`s per trigger (count+sum+sumsq, min/max).

use super::{write_csv, Field};
use crate::analysis_adaptor::AnalysisAdaptor;
use crate::configurable::AnalysisSpec;
use crate::data_adaptor::DataAdaptor;
use crate::Result;
use commsim::{Comm, ReduceOp};

/// One trigger's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    /// Timestep the snapshot belongs to.
    pub time_step: u64,
    /// Number of values globally (duplicated SEM nodes included — this is
    /// the analysis-side view of the data, as in SENSEI).
    pub count: u64,
    /// Global minimum.
    pub min: f64,
    /// Global maximum.
    pub max: f64,
    /// Global mean.
    pub mean: f64,
    /// Global standard deviation.
    pub std: f64,
}

/// The analysis adaptor: accumulates a history of [`FieldStats`].
pub struct StatsAnalysis {
    field: Field,
    history: Vec<FieldStats>,
    output: Option<std::path::PathBuf>,
}

impl StatsAnalysis {
    /// Analyze `array` (point-centered) on `mesh`.
    pub fn new(mesh: impl Into<String>, array: impl Into<String>) -> Self {
        Self {
            field: Field::new(mesh, array),
            history: Vec::new(),
            output: None,
        }
    }

    /// Build from an `<analysis type="stats" mesh=".." array=".."/>` spec.
    ///
    /// # Errors
    /// Missing `array` attribute.
    pub fn from_spec(spec: &AnalysisSpec) -> Result<Self> {
        Ok(Self {
            field: Field::from_spec(spec, "stats")?.centering_from(spec),
            history: Vec::new(),
            output: spec.attr("output").map(std::path::PathBuf::from),
        })
    }

    /// Write the accumulated time series as CSV at finalize time.
    pub fn set_output(&mut self, path: impl Into<std::path::PathBuf>) {
        self.output = Some(path.into());
    }

    /// All snapshots so far.
    pub fn history(&self) -> &[FieldStats] {
        &self.history
    }
}

impl AnalysisAdaptor for StatsAnalysis {
    fn name(&self) -> &str {
        "stats"
    }

    fn required_arrays(&self) -> Vec<String> {
        vec![self.field.array.clone()]
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> Result<bool> {
        let mb = self.field.fetch(comm, data)?;
        let mut count = 0.0f64;
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, g) in mb.local_blocks() {
            let a = self.field.in_block(g)?;
            let n = a.data.scalar_len();
            for i in 0..n {
                let v = a.data.get_as_f64(i);
                count += 1.0;
                sum += v;
                sumsq += v * v;
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        let mut moments = [count, sum, sumsq];
        comm.allreduce_vec(&mut moments, ReduceOp::Sum);
        let gmin = comm.allreduce(lo, ReduceOp::Min);
        let gmax = comm.allreduce(hi, ReduceOp::Max);
        let [count, sum, sumsq] = moments;
        let mean = if count > 0.0 { sum / count } else { 0.0 };
        let var = if count > 0.0 {
            (sumsq / count - mean * mean).max(0.0)
        } else {
            0.0
        };
        self.history.push(FieldStats {
            time_step: data.time_step(),
            count: count as u64,
            min: gmin,
            max: gmax,
            mean,
            std: var.sqrt(),
        });
        Ok(true)
    }

    fn finalize(&mut self, comm: &mut Comm) -> Result<()> {
        // Histories are identical on every rank (built from collectives);
        // rank 0 persists the CSV.
        write_csv(comm, self.output.as_deref(), || {
            let mut csv = String::from("time_step,count,min,max,mean,std\n");
            for s in &self.history {
                csv.push_str(&format!(
                    "{},{},{},{},{},{}\n",
                    s.time_step, s.count, s.min, s.max, s.mean, s.std
                ));
            }
            csv
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_adaptor::StaticDataAdaptor;
    use commsim::{run_ranks, MachineModel};
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};

    fn block_with_values(rank: usize, nranks: usize, values: Vec<f64>) -> MultiBlock {
        let mut g = UnstructuredGrid::new();
        for i in 0..values.len() {
            g.add_point([i as f64, 0.0, 0.0]);
        }
        for i in 0..values.len() - 1 {
            g.add_cell(CellType::Line, &[i as i64, i as i64 + 1]);
        }
        g.add_point_data(DataArray::scalars_f64("v", values))
            .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    #[test]
    fn stats_across_ranks() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            // Rank 0 holds [0,1,2,3], rank 1 holds [4,5,6,7].
            let base = comm.rank() as f64 * 4.0;
            let values: Vec<f64> = (0..4).map(|i| base + i as f64).collect();
            let mut da = StaticDataAdaptor::new(
                "mesh",
                block_with_values(comm.rank(), comm.size(), values),
                0.0,
                7,
            );
            let mut s = StatsAnalysis::new("mesh", "v");
            s.execute(comm, &mut da).unwrap();
            s.history()[0]
        });
        for st in res {
            assert_eq!(st.count, 8);
            assert_eq!(st.min, 0.0);
            assert_eq!(st.max, 7.0);
            assert!((st.mean - 3.5).abs() < 1e-12);
            assert!((st.std - (5.25f64).sqrt()).abs() < 1e-12);
            assert_eq!(st.time_step, 7);
        }
    }

    #[test]
    fn finalize_writes_the_time_series_csv_on_rank0() {
        let path = std::env::temp_dir().join(format!("stats_ts_{}.csv", std::process::id()));
        let p2 = path.clone();
        run_ranks(2, MachineModel::test_tiny(), move |comm| {
            let mut s = StatsAnalysis::new("mesh", "v");
            s.set_output(p2.clone());
            for step in 1..=3u64 {
                let mut da = StaticDataAdaptor::new(
                    "mesh",
                    block_with_values(comm.rank(), comm.size(), vec![step as f64; 4]),
                    0.0,
                    step,
                );
                s.execute(comm, &mut da).unwrap();
            }
            s.finalize(comm).unwrap();
            if comm.rank() == 0 {
                assert_eq!(comm.stats().files_written, 1);
            } else {
                assert_eq!(comm.stats().files_written, 0);
            }
        });
        let csv = std::fs::read_to_string(&path).expect("csv written");
        assert!(csv.starts_with("time_step,count,min,max,mean,std\n"));
        assert_eq!(csv.lines().count(), 4, "header + 3 samples");
        assert!(csv.contains("3,8,3,3,3,0"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_spec_requires_array() {
        let spec = AnalysisSpec {
            kind: "stats".into(),
            frequency: 1,
            enabled: true,
            attrs: vec![],
        };
        assert!(StatsAnalysis::from_spec(&spec).is_err());
    }
}
