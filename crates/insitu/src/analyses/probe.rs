//! Point-probe analysis: a time series of an array sampled at the grid
//! point nearest to a fixed location — the virtual equivalent of a hot-wire
//! or thermocouple in the flow.

use super::{write_csv, Field};
use crate::analysis_adaptor::AnalysisAdaptor;
use crate::configurable::AnalysisSpec;
use crate::data_adaptor::DataAdaptor;
use crate::Result;
use commsim::{Comm, ReduceOp};

/// One probe sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// Timestep of the sample.
    pub time_step: u64,
    /// Simulation time.
    pub time: f64,
    /// Sampled value (scalar view).
    pub value: f64,
    /// Distance from the requested location to the sampled grid point.
    pub distance: f64,
}

/// The analysis adaptor: a probe time series.
pub struct ProbeAnalysis {
    field: Field,
    location: [f64; 3],
    history: Vec<ProbeSample>,
    output: Option<std::path::PathBuf>,
}

impl ProbeAnalysis {
    /// Probe `array` at the grid point nearest `location`.
    pub fn new(mesh: impl Into<String>, array: impl Into<String>, location: [f64; 3]) -> Self {
        Self {
            field: Field::new(mesh, array),
            location,
            history: Vec::new(),
            output: None,
        }
    }

    /// Write the probe time series as CSV at finalize time.
    pub fn set_output(&mut self, path: impl Into<std::path::PathBuf>) {
        self.output = Some(path.into());
    }

    /// Build from `<analysis type="probe" array=".." x=".." y=".." z=".."/>`.
    ///
    /// # Errors
    /// Missing `array` attribute.
    pub fn from_spec(spec: &AnalysisSpec) -> Result<Self> {
        Ok(Self {
            field: Field::from_spec(spec, "probe")?,
            location: [
                spec.attr_parse_or("x", 0.0),
                spec.attr_parse_or("y", 0.0),
                spec.attr_parse_or("z", 0.0),
            ],
            history: Vec::new(),
            output: spec.attr("output").map(std::path::PathBuf::from),
        })
    }

    /// The time series so far.
    pub fn history(&self) -> &[ProbeSample] {
        &self.history
    }
}

impl AnalysisAdaptor for ProbeAnalysis {
    fn name(&self) -> &str {
        "probe"
    }

    fn required_arrays(&self) -> Vec<String> {
        vec![self.field.array.clone()]
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> Result<bool> {
        let mb = self.field.fetch(comm, data)?;
        // Nearest local point.
        let mut best_d2 = f64::INFINITY;
        let mut best_v = 0.0;
        for (_, g) in mb.local_blocks() {
            let a = self.field.in_block(g)?;
            for (i, p) in g.points.iter().enumerate() {
                let d2: f64 = (0..3).map(|d| (p[d] - self.location[d]).powi(2)).sum();
                if d2 < best_d2 {
                    best_d2 = d2;
                    best_v = a.tuple_magnitude(i);
                }
            }
        }
        // The globally nearest rank wins.
        let global_best = comm.allreduce(best_d2, ReduceOp::Min);
        let value = if best_d2 == global_best { best_v } else { 0.0 };
        // Exactly-one-winner guarantee: take the max value among ranks tied
        // at the winning distance (values agree on true geometric ties).
        let value = comm.allreduce(value, ReduceOp::Max);
        self.history.push(ProbeSample {
            time_step: data.time_step(),
            time: data.time(),
            value,
            distance: global_best.sqrt(),
        });
        Ok(true)
    }

    fn finalize(&mut self, comm: &mut Comm) -> Result<()> {
        write_csv(comm, self.output.as_deref(), || {
            let mut csv = String::from("time_step,time,value,distance\n");
            for s in &self.history {
                csv.push_str(&format!(
                    "{},{},{},{}\n",
                    s.time_step, s.time, s.value, s.distance
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

    fn block(rank: usize, nranks: usize) -> MultiBlock {
        let mut g = UnstructuredGrid::new();
        for i in 0..3 {
            g.add_point([rank as f64 * 3.0 + i as f64, 0.0, 0.0]);
        }
        g.add_cell(CellType::Line, &[0, 1]);
        g.add_point_data(DataArray::scalars_f64(
            "v",
            (0..3).map(|i| 100.0 * rank as f64 + i as f64).collect(),
        ))
        .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    #[test]
    fn probe_samples_the_nearest_point_across_ranks() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            // Points: rank 0 at x=0,1,2; rank 1 at x=3,4,5.
            let mut da = StaticDataAdaptor::new("mesh", block(comm.rank(), comm.size()), 1.0, 5);
            // Probe at x=4.2 → nearest is rank 1's x=4 (value 101).
            let mut p = ProbeAnalysis::new("mesh", "v", [4.2, 0.0, 0.0]);
            p.execute(comm, &mut da).unwrap();
            p.history()[0]
        });
        for s in res {
            assert_eq!(s.value, 101.0);
            assert!((s.distance - 0.2).abs() < 1e-12);
            assert_eq!(s.time_step, 5);
        }
    }

    #[test]
    fn probe_time_series_accumulates() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut p = ProbeAnalysis::new("mesh", "v", [0.0; 3]);
            for step in 0..3 {
                let mut da = StaticDataAdaptor::new("mesh", block(0, 1), step as f64, step);
                p.execute(comm, &mut da).unwrap();
            }
            p.history().len()
        });
        assert_eq!(res[0], 3);
    }

    #[test]
    fn from_spec_parses_location() {
        let spec = AnalysisSpec {
            kind: "probe".into(),
            frequency: 1,
            enabled: true,
            attrs: vec![
                ("array".into(), "pressure".into()),
                ("x".into(), "0.5".into()),
                ("z".into(), "1.5".into()),
            ],
        };
        let p = ProbeAnalysis::from_spec(&spec).unwrap();
        assert_eq!(p.location, [0.5, 0.0, 1.5]);
        assert!(ProbeAnalysis::from_spec(&AnalysisSpec {
            kind: "probe".into(),
            frequency: 1,
            enabled: true,
            attrs: vec![],
        })
        .is_err());
    }
}
