//! `insitu` — a generic in situ interface, the reproduction's **SENSEI**.
//!
//! SENSEI's value proposition (Ayachit et al. 2016, and §3 of the paper) is
//! a thin, stable contract between simulations and analysis back ends:
//!
//! * **[`DataAdaptor`]** — implemented by the *simulation*: exposes meshes
//!   aligned with the VTK data model ([`meshdata`]) plus metadata, on
//!   demand. Mirrors Listing 2 of the paper (`GetNumberOfMeshes`,
//!   `GetMeshMetadata`, `GetMesh`, `AddArray`).
//! * **[`AnalysisAdaptor`]** — implemented by *analysis back ends*
//!   (Catalyst-style rendering, checkpoint writers, in-transit senders):
//!   consumes a `DataAdaptor` when triggered.
//! * **[`ConfigurableAnalysis`]** — reads the runtime XML (Listing 1:
//!   `<sensei><analysis type="catalyst" ... frequency="100"/></sensei>`)
//!   and instantiates adaptors through pluggable factories, so back ends
//!   can be swapped *without recompiling the simulation*.
//! * **[`bridge`]** — the small embedding layer a simulation calls:
//!   `initialize` / `update(step, time)` / `finalize` (Listing 3).
//!
//! The one built-in analysis lives in [`analyses`]: the VTU checkpoint
//! writer, the endpoint of the paper's Checkpointing configuration. The
//! other back ends the paper configures, Catalyst rendering and ADIOS2
//! staging, register factories from their own crates (`render`,
//! `transport`).

pub mod analyses;
pub mod analysis_adaptor;
pub mod bridge;
pub mod configurable;
pub mod data_adaptor;

pub use analysis_adaptor::AnalysisAdaptor;
pub use bridge::Bridge;
pub use configurable::{AdaptorFactory, AnalysisSpec, ConfigurableAnalysis};
pub use data_adaptor::DataAdaptor;

/// Errors surfaced by the in situ layer.
#[derive(Debug)]
pub enum Error {
    /// The simulation does not provide a requested mesh/array.
    NoSuchData(String),
    /// Configuration file problems.
    Config(String),
    /// An analysis back end failed.
    Analysis(String),
    /// Underlying data-model error.
    Data(meshdata::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NoSuchData(m) => write!(f, "no such data: {m}"),
            Error::Config(m) => write!(f, "configuration error: {m}"),
            Error::Analysis(m) => write!(f, "analysis error: {m}"),
            Error::Data(e) => write!(f, "data model error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<meshdata::Error> for Error {
    fn from(e: meshdata::Error) -> Self {
        Error::Data(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
