#![allow(clippy::needless_range_loop)] // index-style loops mirror the stencil math

//! `sem` — a GPU-resident spectral element method (SEM) flow solver, the
//! reproduction's stand-in for **NekRS**.
//!
//! NekRS solves the incompressible Navier–Stokes equations with high-order
//! spectral elements (tensor-product Gauss–Lobatto–Legendre bases on
//! hexahedra), BDFk/EXTk time integration, and iterative pressure/velocity
//! solves, all resident in GPU memory via OCCA. This crate implements the
//! same architecture at reduced scale:
//!
//! * [`quadrature`] — GLL nodes/weights (Newton on (1−x²)Pₙ′).
//! * [`basis`] — Lagrange interpolation and collocation derivative matrices.
//! * [`mesh`] — structured hexahedral SEM meshes with periodic axes, solid
//!   element masks (the pebble bed), and slab domain decomposition.
//! * [`gs`] — gather–scatter (direct stiffness summation), NekRS's `gslib`
//!   analogue, including inter-rank halo exchange.
//! * [`operators`] — tensor-product derivative/Laplacian/mass kernels with
//!   flop/byte costing for the virtual clock.
//! * [`cg`] — preconditioned conjugate gradient over assembled operators
//!   with allreduce-based inner products (Jacobi for the Helmholtz solves).
//! * [`mg`] — the pressure preconditioner: a p-multigrid V-cycle over
//!   orders N → 3 → 1 with element-block Schwarz (FDM) smoothing and an
//!   exact order-1 solve.
//! * [`timestep`] — BDFk/EXTk coefficient tables (k = 1..3).
//! * [`navier_stokes`] — the Pₙ–Pₙ splitting scheme: explicit
//!   advection/extrapolation, pressure Poisson projection, implicit
//!   Helmholtz viscous solve, optional Boussinesq temperature coupling.
//! * [`cases`] — the paper's two workloads at laptop scale: `pb146`
//!   (pebble-bed reactor core: flow through a bed of spherical pebbles)
//!   and `rbc` (Rayleigh–Bénard convection, the mesoscale case).
//!
//! Device residency is modelled, not typed: fields are host `Vec<f64>`s
//! charged to the rank's `gpu` accountant, every kernel charges the
//! virtual clock with an operation-count cost, and the only host-visible
//! copy is [`FlowSolver::publish_snapshot`], which pays `Comm::d2h` — so
//! the figure harnesses measure the same compute/copy structure the
//! paper does.

pub mod basis;
pub mod cases;
pub mod cg;
pub mod field;
pub mod gs;
pub mod mesh;
pub mod mg;
pub mod navier_stokes;
pub mod operators;
pub mod quadrature;
pub mod snapshot;
pub mod timestep;
pub mod workspace;

pub use cases::{pb146, rbc, CaseParams};
pub use field::FieldLayout;
pub use mesh::{Bc, BcSet, LocalMesh, MeshSpec};
pub use navier_stokes::{FilterConfig, FlowSolver, SolverConfig, StepReport};
pub use snapshot::{FieldSnapshot, PoolStats, SnapshotField, SnapshotPool, SnapshotSpec};
pub use workspace::Workspace;
