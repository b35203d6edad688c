//! Built-in analyses: the VTU checkpoint writer, the endpoint the paper's
//! Checkpointing configuration names.

pub mod vtu_checkpoint;

use crate::analysis_adaptor::AnalysisAdaptor;
use crate::configurable::AnalysisSpec;
use crate::Result;

pub use vtu_checkpoint::VtuCheckpointAnalysis;

/// Factory for the built-in analysis type `vtu-checkpoint`. Returns
/// `Ok(None)` for types it does not recognize.
///
/// # Errors
/// Spec validation failures for recognized types.
pub fn builtin_factory(spec: &AnalysisSpec) -> Result<Option<Box<dyn AnalysisAdaptor>>> {
    Ok(match spec.kind.as_str() {
        "vtu-checkpoint" => Some(Box::new(VtuCheckpointAnalysis::from_spec(spec)?)),
        _ => None,
    })
}
