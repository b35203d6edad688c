//! Extrema-tracking analysis: the global minimum and maximum of an array
//! *and where they are*, per trigger — the lightweight monitoring analysis
//! scientists run to watch for hot spots or blow-ups without images.

use super::Field;
use crate::analysis_adaptor::AnalysisAdaptor;
use crate::configurable::AnalysisSpec;
use crate::data_adaptor::DataAdaptor;
use crate::Result;
use commsim::Comm;

/// One located extreme value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extremum {
    /// The value.
    pub value: f64,
    /// Position of the point carrying it.
    pub position: [f64; 3],
    /// Rank that owns it.
    pub rank: usize,
}

/// One trigger's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremaRecord {
    /// Timestep of the snapshot.
    pub time_step: u64,
    /// Simulation time.
    pub time: f64,
    /// Global minimum and its location.
    pub min: Extremum,
    /// Global maximum and its location.
    pub max: Extremum,
}

/// The analysis adaptor: a history of located extrema.
pub struct ExtremaAnalysis {
    field: Field,
    history: Vec<ExtremaRecord>,
}

impl ExtremaAnalysis {
    /// Track extrema of the point array `array` on `mesh`.
    pub fn new(mesh: impl Into<String>, array: impl Into<String>) -> Self {
        Self {
            field: Field::new(mesh, array),
            history: Vec::new(),
        }
    }

    /// Build from `<analysis type="extrema" array=".."/>`.
    ///
    /// # Errors
    /// Missing `array` attribute.
    pub fn from_spec(spec: &AnalysisSpec) -> Result<Self> {
        Ok(Self {
            field: Field::from_spec(spec, "extrema")?,
            history: Vec::new(),
        })
    }

    /// All records so far.
    pub fn history(&self) -> &[ExtremaRecord] {
        &self.history
    }
}

impl AnalysisAdaptor for ExtremaAnalysis {
    fn name(&self) -> &str {
        "extrema"
    }

    fn required_arrays(&self) -> Vec<String> {
        vec![self.field.array.clone()]
    }

    fn execute(&mut self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> Result<bool> {
        let mb = self.field.fetch(comm, data)?;
        // Local candidates (scalar view: magnitude for vectors).
        let mut lo = Extremum {
            value: f64::INFINITY,
            position: [0.0; 3],
            rank: comm.rank(),
        };
        let mut hi = Extremum {
            value: f64::NEG_INFINITY,
            position: [0.0; 3],
            rank: comm.rank(),
        };
        for (_, g) in mb.local_blocks() {
            let a = self.field.in_block(g)?;
            for i in 0..a.len() {
                let v = a.tuple_magnitude(i);
                if v < lo.value {
                    lo.value = v;
                    lo.position = g.points[i];
                }
                if v > hi.value {
                    hi.value = v;
                    hi.position = g.points[i];
                }
            }
        }
        // Exchange candidates: 8 values per rank (2 × (value + xyz)).
        let candidates = comm.allgather((lo, hi), 64);
        let min = candidates
            .iter()
            .map(|(l, _)| *l)
            .min_by(|a, b| a.value.total_cmp(&b.value))
            .expect("at least one rank");
        let max = candidates
            .iter()
            .map(|(_, h)| *h)
            .max_by(|a, b| a.value.total_cmp(&b.value))
            .expect("at least one rank");
        self.history.push(ExtremaRecord {
            time_step: data.time_step(),
            time: data.time(),
            min,
            max,
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

    fn block(rank: usize, nranks: usize) -> MultiBlock {
        let mut g = UnstructuredGrid::new();
        for i in 0..4 {
            g.add_point([i as f64 + 10.0 * rank as f64, 0.0, rank as f64]);
        }
        g.add_cell(CellType::Line, &[0, 1]);
        // Values peak on the last rank at its last point.
        g.add_point_data(DataArray::scalars_f64(
            "v",
            (0..4).map(|i| (rank * 4 + i) as f64).collect(),
        ))
        .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    #[test]
    fn extrema_are_located_globally() {
        let res = run_ranks(3, MachineModel::test_tiny(), |comm| {
            let mut da = StaticDataAdaptor::new("mesh", block(comm.rank(), comm.size()), 2.5, 9);
            let mut e = ExtremaAnalysis::new("mesh", "v");
            e.execute(comm, &mut da).unwrap();
            e.history()[0]
        });
        for rec in res {
            assert_eq!(rec.time_step, 9);
            assert_eq!(rec.min.value, 0.0);
            assert_eq!(rec.min.rank, 0);
            assert_eq!(rec.min.position, [0.0, 0.0, 0.0]);
            assert_eq!(rec.max.value, 11.0);
            assert_eq!(rec.max.rank, 2);
            assert_eq!(rec.max.position, [23.0, 0.0, 2.0]);
        }
    }

    #[test]
    fn from_spec_requires_array() {
        let spec = AnalysisSpec {
            kind: "extrema".into(),
            frequency: 1,
            enabled: true,
            attrs: vec![],
        };
        assert!(ExtremaAnalysis::from_spec(&spec).is_err());
    }
}
