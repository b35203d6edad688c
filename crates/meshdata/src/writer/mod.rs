//! File writers: XML `.vtu` and parallel `.pvtu`.
//!
//! Checkpointing in both of the paper's workflows means serializing the
//! rank-local unstructured grid with these formats; the figure harnesses
//! charge filesystem time for exactly the byte counts produced here.

pub mod pvtu;
pub mod vtu;

pub use pvtu::write_pvtu;
pub use vtu::{write_vtu, Encoding};
