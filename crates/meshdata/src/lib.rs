//! `meshdata` — a VTK-like scientific data model.
//!
//! SENSEI's contract is that simulations present their data "aligned with
//! the VTK data model"; Catalyst consumes VTK datasets; the in-transit
//! endpoint of the paper writes **VTU** files as its checkpointing mode.
//! With VTK unavailable in Rust, this crate rebuilds the slice of the model
//! the paper exercises:
//!
//! * [`DataArray`] — named, typed, multi-component tuples (point/cell data).
//! * [`UnstructuredGrid`] — points + mixed-type cells + attached arrays;
//!   spectral elements become hexahedra here, exactly as NekRS's VTK
//!   export subdivides each high-order element into `N³` linear hexes.
//! * [`MultiBlock`] — one block per rank, SENSEI's multi-block convention.
//! * [`MeshMetadata`] — the `GetMeshMetadata` answer: array names,
//!   centerings, counts, bounds.
//! * [`writer`] — `.vtu` XML (inline-ASCII or raw appended binary) and
//!   `.pvtu` parallel index files. Checkpointing
//!   cost/size measurements in the figure harnesses use the exact byte
//!   counts these writers produce.
//! * [`reader`] — a `.vtu` reader for round-trip validation.
//! * [`xml`] — the minimal XML parser backing both the VTU reader and the
//!   SENSEI-style runtime configuration files.

pub mod array;
pub mod metadata;
pub mod multiblock;
pub mod reader;
pub mod ugrid;
pub mod writer;
pub mod xml;

pub use array::{ArrayData, Centering, DataArray};
pub use metadata::{ArrayInfo, MeshMetadata};
pub use multiblock::MultiBlock;
pub use ugrid::{CellType, UnstructuredGrid};

/// Errors produced by readers/writers and model validation.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in a dataset (mismatched lengths, bad cell ids).
    Invalid(String),
    /// Malformed file or XML while reading.
    Parse(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Invalid(m) => write!(f, "invalid dataset: {m}"),
            Error::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
