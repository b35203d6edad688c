//! Every product item the benchmark names, in one place.
//!
//! The rest of nekbench imports product code only through this module. A
//! change that removes or renames one of these items breaks the benchmark
//! that later performance claims rest on: open a benchmark issue first.

// sem — the solver whose steps every sim workload times.
pub use sem::cases::{pb146, CaseParams, CaseSetup, InitKind};
pub use sem::gs::GatherScatter;
pub use sem::mesh::LocalMesh;
pub use sem::navier_stokes::StepReport;
pub use sem::operators::Ops;
pub use sem::snapshot::{FieldSnapshot, SnapshotPool, SnapshotSpec};

// The rayon shim's element-block pool.
pub use rayon::pool;

// commsim — rank worlds, both schedulers, the virtual clock's counters.
pub use commsim::{
    run_ranks, run_ranks_with_registry, run_ranks_with_state, with_mode, Comm, CommStats,
    FaultPlan, MachineModel, ReduceOp, SchedMode,
};

// meshdata — the VTK-model payloads that cross every consumer boundary.
pub use meshdata::{CellType, Centering, DataArray, MeshMetadata, MultiBlock, UnstructuredGrid};

// insitu — the SENSEI-style bridge and its two adaptor contracts.
pub use insitu::data_adaptor::StaticDataAdaptor;
pub use insitu::{AdaptorFactory, AnalysisAdaptor, AnalysisSpec, Bridge, DataAdaptor};

// render — the Catalyst-style pipeline and its separately timed stages.
pub use render::composite::composite_to_root;
pub use render::filters::{contour_into, scalar_view, slice_plane_into};
pub use render::image::encode_png;
pub use render::pipeline::FilterKind;
pub use render::{Camera, CatalystAnalysis, Framebuffer, RenderPipeline, TriangleSoup};

// transport — BP marshaling, both wires, the endpoint, the staging tier.
pub use transport::wire::loopback_listener;
pub use transport::{
    crc32, marshal_blocks, unmarshal_blocks, BpFileReader, BpFileWriter, ConsumerClient,
    QueuePolicy, SessionSpec, StagingLink, StagingNetwork, StagingReport, StagingService,
    TransportAnalysis, WireKind, WriterConfig,
};

// nek-sensei (crates/core) — the product entry points and their configs.
pub use nek_sensei::{
    encode_fld, read_fld, run_insitu, run_intransit, EndpointMode, ExecMode, InSituConfig,
    InSituMode, InTransitConfig, InTransitReport, NekGeometry, SnapshotAdaptor, MESH_NAME,
};

// telemetry / trace — the observability plane whose own cost is a metric.
pub use telemetry::json;
pub use telemetry::RunReport;
pub use trace::critical::analyze as critical_path;

// The repository's shared warm-up + samples + median timing harness.
pub use criterion::measure;

// bench-harness — the §4.2 case sizing shared with the figure binaries.
pub use bench_harness::cases::{juwels_derated, rbc_weak_scaling};
