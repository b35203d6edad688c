//! `transport` — in-transit data staging, the reproduction's **ADIOS2 SST**.
//!
//! The paper's §4.2 workflow couples NekRS-SENSEI simulation nodes to
//! separate visualization endpoint nodes through ADIOS2's Sustainable
//! Staging Transport: UCX for the data plane, TCP for control, BP for data
//! marshaling, and a **4:1 ratio of simulation to endpoint nodes**. The
//! decisive property: simulation-node memory stays independent of the
//! endpoint count, and simulation-side overhead is just marshal + enqueue.
//!
//! This crate rebuilds that architecture:
//!
//! * [`bp`] — compact binary marshaling of rank-local mesh blocks + arrays
//!   (the BP analogue), with exact round-trip tests.
//! * `codec` (private) — the one little-endian, length-prefixed reader and
//!   writer under all four byte formats (BP payload, wire frame, session
//!   protocol, `.bp4l` file); it reserves nothing on a prefix's say-so.
//! * [`link`] — the staging network model (latency/bandwidth for the data
//!   plane, per-message control latency — the UCX/TCP parameters).
//! * [`engine`] — [`engine::SstWriter`] / [`engine::SstReader`]: bounded
//!   staging queues between a simulation world and an endpoint world, with
//!   blocking or discarding overflow policies, timestamped for the virtual
//!   clock on both sides.
//! * [`endpoint`] — the SENSEI data consumer that the paper uses as the
//!   workflow endpoint: collects each step from its producers, rebuilds a
//!   multiblock, and drives a `ConfigurableAnalysis` (rendering or VTU
//!   checkpoint writing) on the endpoint ranks.
//! * [`file_engine`] — the BP *file* engine (ADIOS2's other mode): the
//!   same marshaled steps parked on disk for post-hoc analysis, i.e. the
//!   traditional workflow that in situ/in transit processing displaces.
//! * [`adaptor`] — [`adaptor::TransportAnalysis`], the simulation-side
//!   [`insitu::AnalysisAdaptor`] that marshals and sends (what the paper's
//!   "NekRS-SENSEI + ADIOS2" configuration enables).
//! * [`error`] — the no-panic failure taxonomy ([`error::TransportError`]):
//!   disconnects, open circuit breakers, lost steps, and back-pressure
//!   timeouts, classified fatal vs. transient so the workflow can degrade
//!   to the file engine instead of dying.
//! * [`wire`] — the pluggable wire layer beneath the engine: the in-process
//!   channel engine (bitwise-identical to the original transport) and a
//!   real loopback-TCP engine carrying the same CRC32/BP frames as
//!   length-prefixed packets, selected by [`WireKind`] (`--wire` on the
//!   harness binaries; channel by default).
//! * [`staging`] — the multi-client staging service: one writer fanned out
//!   to N consumer sessions with per-session credit backpressure, rendered
//!   frames served through an LRU cache, late joiners caught up from the
//!   parked BP file engine.

pub mod adaptor;
pub mod bp;
mod codec;
pub mod endpoint;
pub mod engine;
pub mod error;
pub mod file_engine;
pub mod link;
pub mod staging;
pub mod wire;

pub use adaptor::{ProducerReport, ReportSink, TransportAnalysis};
pub use bp::{crc32, frame_crc_ok, marshal_blocks, unmarshal_blocks, StepData};
pub use endpoint::{EndpointConsumer, EndpointReport};
pub use engine::{
    PacketKind, QueuePolicy, SstReader, SstWriter, StagingNetwork, StepDelivery, WriteOutcome,
    WriterConfig,
};
pub use error::{TransportError, WriteError};
pub use file_engine::{BpFileReader, BpFileWriter};
pub use link::StagingLink;
pub use staging::{
    ConsumerClient, FollowClient, FrameMsg, LiveServer, SessionSpec, SessionStats, StagingHandle,
    StagingReport, StagingService, TelemetryMsg,
};
pub use wire::{WireKind, WireRecvError, WireRx, WireSendError, WireTx};
