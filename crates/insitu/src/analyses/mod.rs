//! Built-in analyses (SENSEI ships equivalents of these out of the box).

pub mod extrema;
pub mod histogram;
pub mod probe;
pub mod stats;
pub mod vtu_checkpoint;
pub mod watchdog;

use crate::analysis_adaptor::AnalysisAdaptor;
use crate::configurable::AnalysisSpec;
use crate::data_adaptor::DataAdaptor;
use crate::{Error, Result};
use commsim::Comm;
use meshdata::{Centering, DataArray, MultiBlock, UnstructuredGrid};
use std::path::Path;

pub use extrema::ExtremaAnalysis;
pub use histogram::HistogramAnalysis;
pub use probe::ProbeAnalysis;
pub use stats::StatsAnalysis;
pub use vtu_checkpoint::VtuCheckpointAnalysis;
pub use watchdog::WatchdogAnalysis;

/// Factory for the built-in analysis types (`extrema`, `histogram`,
/// `probe`, `stats`, `vtu-checkpoint`, `watchdog`). Returns `Ok(None)`
/// for types it does not recognize.
///
/// # Errors
/// Spec validation failures for recognized types.
pub fn builtin_factory(spec: &AnalysisSpec) -> Result<Option<Box<dyn AnalysisAdaptor>>> {
    Ok(match spec.kind.as_str() {
        "extrema" => Some(Box::new(ExtremaAnalysis::from_spec(spec)?)),
        "histogram" => Some(Box::new(HistogramAnalysis::from_spec(spec)?)),
        "probe" => Some(Box::new(ProbeAnalysis::from_spec(spec)?)),
        "stats" => Some(Box::new(StatsAnalysis::from_spec(spec)?)),
        "vtu-checkpoint" => Some(Box::new(VtuCheckpointAnalysis::from_spec(spec)?)),
        "watchdog" => Some(Box::new(WatchdogAnalysis::from_spec(spec)?)),
        _ => None,
    })
}

/// The array a field analysis reads, and the rules all five keep: a spec
/// names the `mesh` (default "mesh") and must name the `array`, and every
/// local block must carry that array.
struct Field {
    mesh: String,
    array: String,
    centering: Centering,
}

impl Field {
    /// Point array `array` on `mesh`.
    fn new(mesh: impl Into<String>, array: impl Into<String>) -> Self {
        Self {
            mesh: mesh.into(),
            array: array.into(),
            centering: Centering::Point,
        }
    }

    /// The `mesh` and `array` of a `kind` analysis's spec.
    fn from_spec(spec: &AnalysisSpec, kind: &str) -> Result<Self> {
        let array = spec
            .attr("array")
            .ok_or_else(|| Error::Config(format!("{kind} analysis needs 'array'")))?;
        Ok(Self::new(spec.attr_or("mesh", "mesh"), array))
    }

    /// The cell array instead when `spec` says `centering="cell"`.
    fn centering_from(mut self, spec: &AnalysisSpec) -> Self {
        if spec.attr("centering") == Some("cell") {
            self.centering = Centering::Cell;
        }
        self
    }

    /// This rank's blocks of the mesh with the array attached.
    fn fetch(&self, comm: &mut Comm, data: &mut dyn DataAdaptor) -> Result<MultiBlock> {
        let mut mb = data.mesh(comm, &self.mesh)?;
        data.add_array(comm, &mut mb, &self.mesh, self.centering, &self.array)?;
        Ok(mb)
    }

    /// The array on one local block.
    fn in_block<'g>(&self, g: &'g UnstructuredGrid) -> Result<&'g DataArray> {
        g.find_array(&self.array, self.centering)
            .ok_or_else(|| Error::NoSuchData(self.array.clone()))
    }
}

/// Rank 0 writes `csv` to `path`, if any, charging one file write.
fn write_csv(comm: &mut Comm, path: Option<&Path>, csv: impl FnOnce() -> String) -> Result<()> {
    let Some(path) = path.filter(|_| comm.rank() == 0) else {
        return Ok(());
    };
    let csv = csv();
    comm.fs_write(csv.len() as u64, 1);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(path, csv).map_err(|e| Error::Analysis(format!("write {path:?}: {e}")))
}
