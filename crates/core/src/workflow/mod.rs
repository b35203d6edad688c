//! Experiment drivers for the paper's two evaluation workflows.

pub mod insitu;
pub mod intransit;
mod sampler;
