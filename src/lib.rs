//! Root package of the NekRS–SENSEI reproduction stack. It holds the
//! integration tests and examples; they name each layer crate directly.
//!
//! Layer map (bottom → top):
//!
//! | Crate | Paper analogue |
//! |---|---|
//! | `memtrack` | memory high-water instrumentation |
//! | `telemetry` | the observability plane: metrics, spans, causal edges, critical path, the RunReport |
//! | `commsim` | MPI + Polaris/JUWELS machine models |
//! | `meshdata` | VTK data model + VTU/PVTU files |
//! | `sem` | NekRS (spectral-element Navier–Stokes); OCCA device residency is modelled by its `gpu` accountant and `Comm::d2h` |
//! | `insitu` | SENSEI (generic in situ interface) |
//! | `render` | ParaView Catalyst / OSPRay rendering |
//! | `transport` | ADIOS2 SST / BP staging |
//! | `nek_sensei` | the paper's coupling layer + experiment drivers |
//!
//! See `README.md` for the quickstart and `DESIGN.md` / `EXPERIMENTS.md`
//! for the substitution methodology and the per-figure results.
