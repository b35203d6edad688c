//! `nek-sensei` — the paper's contribution: instrumenting the NekRS-style
//! SEM solver with the SENSEI-style generic in situ interface.
//!
//! The paper (§3) describes exactly three pieces of coupling code, all
//! rebuilt here:
//!
//! 1. **`nek_sensei::DataAdaptor`** (Listing 2) → [`adaptor::SnapshotAdaptor`]:
//!    presents a published [`sem::snapshot::FieldSnapshot`] as VTK-model
//!    meshes over the cached [`adaptor::NekGeometry`]. The solver stages
//!    each requested field device→host exactly once at publish time — the
//!    paper's central overhead — and consumers share the staged buffers
//!    zero-copy.
//! 2. **the bridge** (Listing 3) → re-exported from [`insitu::bridge`],
//!    driven by the workflow runners.
//! 3. **run configurations** → [`workflow`]: the §4.1 in situ pebble-bed
//!    experiment ({Original, Checkpointing, Catalyst} × rank counts) and
//!    the §4.2 in transit RBC experiment ({No Transport, Checkpointing,
//!    Catalyst} with a 4:1 sim:endpoint ratio over the SST-analogue
//!    staging engine).
//!
//! [`checkpoint::FldCheckpointer`] reproduces NekRS's *built-in*
//! checkpointing (full-resolution field dumps — the 19 GB side of the
//! paper's storage-economy comparison), distinct from the SENSEI
//! `vtu-checkpoint` analysis used by the in-transit endpoint.
//! [`metrics`] aggregates virtual-clock timings and memory-accountant
//! high-water marks into the quantities Figures 2, 3, 5 and 6 plot.

pub mod adaptor;
pub mod checkpoint;
pub mod metrics;
pub mod workflow;

pub use adaptor::{NekGeometry, SnapshotAdaptor, SnapshotPlane, MESH_NAME};
pub use checkpoint::{encode_fld, read_fld, EncodedFld, FldCheckpointer, FldDump, RestoreError};
pub use metrics::{DegradationSummary, RunMetrics};
pub use workflow::insitu::{
    run_insitu, ExecMode, InSituConfig, InSituMode, InSituReport, RecoveryOptions, PIPELINE_DEPTH,
};
pub use workflow::intransit::{run_intransit, EndpointMode, InTransitConfig, InTransitReport};
