//! Umbrella crate for the NekRS–SENSEI reproduction stack: re-exports
//! every layer so examples and integration tests can use one dependency.
//!
//! Layer map (bottom → top):
//!
//! | Crate | Paper analogue |
//! |---|---|
//! | [`memtrack`] | memory high-water instrumentation |
//! | [`commsim`] | MPI + Polaris/JUWELS machine models |
//! | [`meshdata`] | VTK data model + VTU/PVTU files |
//! | [`sem`] | NekRS (spectral-element Navier–Stokes); OCCA device residency is modelled by its `gpu` accountant and `Comm::d2h` |
//! | [`insitu`] | SENSEI (generic in situ interface) |
//! | [`render`] | ParaView Catalyst / OSPRay rendering |
//! | [`transport`] | ADIOS2 SST / BP staging |
//! | [`nek_sensei`] | the paper's coupling layer + experiment drivers |
//!
//! See `README.md` for the quickstart and `DESIGN.md` / `EXPERIMENTS.md`
//! for the substitution methodology and the per-figure results.

pub use commsim;
pub use insitu;
pub use memtrack;
pub use meshdata;
pub use nek_sensei;
pub use render;
pub use sem;
pub use transport;
