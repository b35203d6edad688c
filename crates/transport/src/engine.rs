//! The staging engine: bounded queues between simulation and endpoint
//! worlds.
//!
//! Mirrors SST's architecture: writers (simulation ranks) send marshaled
//! step payloads to their reader; readers (endpoint ranks) drain them
//! asynchronously. On the channel wire each writer has a credit window
//! ([`commsim::CreditWindow`]) of `max(1, capacity / writers per reader)`
//! steps, SST's `QueueLimit` on the writer side: a writer's k-th written
//! step waits until the reader has delivered its (k − W)-th — SST's
//! blocking back-pressure, and the only policy there is.
//!
//! Virtual time: payloads carry the writer's send timestamp plus the link
//! transfer cost; a reader's clock advances to at least that arrival time
//! on receive. The reader releases each delivered packet's slot at its
//! clock after the delivery (stall included), and a writer that takes a
//! slot advances to that release time, whether or not it blocked for it in
//! real time. Over TCP there is no window and the writer's clock never
//! moves for a wait: flow control is the back-pressure there.
//!
//! # Fault tolerance
//!
//! The engine never panics on a transport failure. Data frames ride a
//! lossy data plane governed by a seeded [`FaultPlan`]: a dropped frame
//! costs the writer an ack timeout plus exponential backoff (in virtual
//! time) before a retransmit; a corrupted frame is delivered damaged, CRC-
//! rejected by the reader, and retransmitted. Control messages —
//! [`PacketKind::Skip`] ("this step will never arrive") and
//! [`PacketKind::Detach`] ("this producer is gone") — model SST's reliable
//! TCP control plane, so the reader can resolve incomplete steps
//! *deterministically* instead of hanging on a wall-clock deadline: a step
//! is delivered (complete or [partial](StepDelivery::missing)) as soon as
//! every producer has contributed, skipped, or detached. A per-writer
//! circuit breaker trips after `BREAKER_THRESHOLD` (3) consecutive step
//! failures (or instantly on disconnect), at which point every further
//! [`SstWriter::write`] fails fast with [`TransportError::CircuitOpen`] so
//! the workflow can degrade to the BP file engine. A planned endpoint
//! crash at step s is such a disconnect, and each writer meets it at its
//! own first step ≥ s: it reads the crash off the plan, never off when a
//! wire happens to close.

use crate::bp;
use crate::error::{TransportError, WriteError};
use crate::link::StagingLink;
use crate::wire::{
    channel, loopback_listener, tcp_rx, TcpWireTx, WireKind, WireRecvError, WireRx, WireSendError,
    WireTx,
};
use commsim::{credit_window, CreditRelease, CreditWindow, FaultPlan};
use meshdata::MultiBlock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// What happens when a writer's staging window is full. One answer: the
/// writer blocks. The type stays because the benchmark names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Writer blocks until the reader frees a slot (SST default).
    Block,
}

/// What a packet carries; the value is the wire frame's kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A marshaled step payload (data plane, lossy).
    Data = 0,
    /// Control: the producer gave up on this step (reliable plane).
    Skip = 1,
    /// Control: the producer will send nothing further (reliable plane).
    Detach = 2,
}

/// One message from one producer.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Data or control marker.
    pub kind: PacketKind,
    /// Producer (simulation rank) id.
    pub producer: usize,
    /// Timestep index.
    pub step: u64,
    /// Simulation time.
    pub time: f64,
    /// Virtual time at which the payload is available at the reader.
    pub t_avail: f64,
    /// Producer's trace-context word ([`telemetry::pack_ctx`] via
    /// `Comm::trace_ctx`); 0 when the producer is untraced.
    pub ctx: u64,
    /// Producer's virtual clock when the packet left it.
    pub t_sent: f64,
    /// Marshaled bytes (empty for control markers).
    pub payload: Vec<u8>,
}

/// A fieldless stand-in: the writer's retry and breaker settings are the
/// constants below. The type stays because the benchmark names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriterConfig {}

/// Data-plane transmission attempts per step before giving up.
const MAX_ATTEMPTS: u32 = 4;
/// Virtual seconds waited before declaring an unacknowledged frame lost.
const ACK_TIMEOUT: f64 = 5.0e-4;
/// First retry backoff in virtual seconds (doubles per attempt).
const BACKOFF_BASE: f64 = 1.0e-4;
/// Backoff ceiling in virtual seconds.
const BACKOFF_CAP: f64 = 1.0e-2;
/// Consecutive failed steps that trip the circuit breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// Real-time bound on a wait for a credit and on a socket write (the
/// wedged-reader guard). Running it out is a diagnosed error,
/// [`TransportError::Backpressure`] or a disconnect, never virtual time.
const ENQUEUE_TIMEOUT: Duration = Duration::from_millis(10_000);

fn backoff(attempt: u32) -> f64 {
    (BACKOFF_BASE * f64::powi(2.0, attempt as i32)).min(BACKOFF_CAP)
}

/// Simulation-side handle: sends this rank's payloads to its endpoint.
pub struct SstWriter {
    /// This writer's producer id.
    pub producer: usize,
    /// The endpoint (reader) index this writer feeds.
    pub reader_index: usize,
    tx: Box<dyn WireTx>,
    /// This writer's staging slots (channel wire only).
    window: Option<CreditWindow>,
    link: StagingLink,
    faults: Arc<FaultPlan>,
    consecutive_failures: u32,
    breaker_open: bool,
    steps_written: u64,
    steps_failed: u64,
    retries: u64,
    corrupt_frames: u64,
}

impl SstWriter {
    /// Stage one step's payload. Charges marshal-transfer time to the
    /// writer's clock; retries (with virtual-time backoff) through link
    /// faults; under back-pressure, also charges the wait for a slot.
    ///
    /// # Errors
    /// [`WriteError`] carrying the failure kind and the payload back to
    /// the caller (fatal errors mean the endpoint is gone — degrade).
    pub fn write(
        &mut self,
        comm: &mut commsim::Comm,
        step: u64,
        time: f64,
        payload: Vec<u8>,
    ) -> Result<(), WriteError> {
        if self.breaker_open {
            return Err(WriteError {
                error: TransportError::CircuitOpen,
                payload,
            });
        }
        let nbytes = payload.len() as u64;
        // Control announcement + pipelined RDMA put: the writer pays the
        // control latency and its share of injection, not the full
        // transfer (SST overlaps the bulk move with the simulation).
        comm.advance(self.link.control_latency);
        let crash = self.faults.crash_step(self.reader_index);
        if crash.is_some_and(|at| step >= at) {
            // The endpoint is dead from its planned crash step on. The
            // step's skip marker still reaches it, which is where it dies:
            // resolving a step at or past its crash step.
            self.mark(comm, PacketKind::Skip, step);
            return self.fail_step(comm, step, TransportError::Disconnected, payload);
        }
        let mut attempt = 0u32;
        loop {
            // What the failed attempt costs the writer, in virtual time.
            let penalty = match self.faults.attempt_fate(self.producer, step, attempt) {
                commsim::AttemptFate::Deliver { extra_delay } => {
                    if let Err(error) = self.reserve(comm, step) {
                        return self.fail_step(comm, step, error, payload);
                    }
                    let t_avail = comm.now() + self.link.transfer_time(nbytes) + extra_delay;
                    let packet = self.packet(comm, PacketKind::Data, step, time, t_avail, payload);
                    return match self.send(comm, packet) {
                        Ok(()) => {
                            self.steps_written += 1;
                            self.consecutive_failures = 0;
                            Ok(())
                        }
                        Err(payload) => {
                            self.fail_step(comm, step, TransportError::Disconnected, payload)
                        }
                    };
                }
                // Lost on the wire: wait out the ack timeout and back off.
                commsim::AttemptFate::Drop => ACK_TIMEOUT + backoff(attempt),
                commsim::AttemptFate::Corrupt => {
                    // The frame arrives damaged; ship the damaged bytes so
                    // the reader's CRC genuinely rejects them, then pay the
                    // NACK round trip.
                    let mut damaged = payload.clone();
                    self.faults
                        .corrupt_payload(&mut damaged, self.producer, step, attempt);
                    let t_avail = comm.now() + self.link.transfer_time(nbytes);
                    let packet = self.packet(comm, PacketKind::Data, step, time, t_avail, damaged);
                    let _ = self.send(comm, packet);
                    self.corrupt_frames += 1;
                    self.link.transfer_time(nbytes) + self.link.control_latency + backoff(attempt)
                }
            };
            // Retransmit, all in virtual time, until the attempts run out.
            let _sp = comm.span("transport/retry");
            comm.advance(penalty);
            self.retries += 1;
            comm.telemetry().counter("transport/retries").inc();
            attempt += 1;
            if attempt >= MAX_ATTEMPTS {
                let error = TransportError::StepLost {
                    step,
                    attempts: attempt,
                };
                return self.fail_step(comm, step, error, payload);
            }
        }
    }

    /// A packet from this writer, stamped with the sender's clock and
    /// trace context.
    fn packet(
        &self,
        comm: &commsim::Comm,
        kind: PacketKind,
        step: u64,
        time: f64,
        t_avail: f64,
        payload: Vec<u8>,
    ) -> Packet {
        Packet {
            kind,
            producer: self.producer,
            step,
            time,
            t_avail,
            ctx: comm.trace_ctx(),
            t_sent: comm.now(),
            payload,
        }
    }

    /// Take a slot in this writer's credit window for an intact data
    /// packet (channel wire only). Waiting for one is back-pressure: a
    /// `transport/backpressure` span in which the writer advances to the
    /// time the reader delivered its W-th last written step.
    fn reserve(&mut self, comm: &mut commsim::Comm, step: u64) -> Result<(), TransportError> {
        let Some(window) = &mut self.window else {
            return Ok(());
        };
        match window.reserve(comm, "transport/backpressure", ENQUEUE_TIMEOUT) {
            Ok(_) => Ok(()),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Backpressure { step }),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Put one packet — data, damaged frame or control marker — on the
    /// wire, off the event scheduler's run token (a socket write can block
    /// on TCP flow control). A failure hands the payload back: the reader
    /// is gone.
    fn send(&mut self, comm: &commsim::Comm, packet: Packet) -> Result<(), Vec<u8>> {
        let tx = &mut self.tx;
        comm.external_wait(|| tx.send(packet, ENQUEUE_TIMEOUT))
            .map_err(|WireSendError(p)| p.payload)
    }

    /// Send a control marker for `step` on the reliable plane.
    fn mark(&mut self, comm: &commsim::Comm, kind: PacketKind, step: u64) {
        let t_avail = comm.now() + self.link.control_latency;
        let marker = self.packet(comm, kind, step, 0.0, t_avail, Vec::new());
        let _ = self.send(comm, marker);
    }

    /// Account one failed step: notify the reader, advance the breaker,
    /// and hand the payload back to the caller.
    fn fail_step(
        &mut self,
        comm: &mut commsim::Comm,
        step: u64,
        error: TransportError,
        payload: Vec<u8>,
    ) -> Result<(), WriteError> {
        self.steps_failed += 1;
        if error == TransportError::Disconnected {
            // Unrecoverable: the reader is gone, nothing can be notified.
            self.breaker_open = true;
            comm.telemetry_event(
                telemetry::EventKind::CircuitBreakerOpen,
                Some(step),
                "endpoint disconnected",
            );
            return Err(WriteError { error, payload });
        }
        // Control plane: tell the reader this step will not arrive so it
        // can resolve the step as partial instead of hanging.
        self.mark(comm, PacketKind::Skip, step);
        self.consecutive_failures += 1;
        if self.consecutive_failures >= BREAKER_THRESHOLD {
            self.breaker_open = true;
            comm.telemetry_event(
                telemetry::EventKind::CircuitBreakerOpen,
                Some(step),
                format!("{} consecutive failures", self.consecutive_failures),
            );
            self.mark(comm, PacketKind::Detach, step);
            return Err(WriteError {
                error: TransportError::CircuitOpen,
                payload,
            });
        }
        Err(WriteError { error, payload })
    }

    /// Steps put on the wire intact.
    pub fn steps_written(&self) -> u64 {
        self.steps_written
    }

    /// Steps that exhausted their transmission attempts, ran out the wait
    /// for a slot, or found the endpoint gone.
    pub fn steps_failed(&self) -> u64 {
        self.steps_failed
    }

    /// Data-plane loss events endured (timed-out and NACKed attempts).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Damaged frames put on the wire (each later CRC-rejected).
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames
    }

    /// True once the circuit breaker has tripped (endpoint presumed dead).
    pub fn breaker_open(&self) -> bool {
        self.breaker_open
    }
}

/// One step handed to the endpoint: the packets that arrived plus the
/// producers that never delivered (empty when the step is complete).
#[derive(Debug, Clone)]
pub struct StepDelivery {
    /// Timestep index.
    pub step: u64,
    /// Simulation time (0.0 when no packet arrived at all).
    pub time: f64,
    /// Data packets that arrived intact, one per contributing producer.
    pub packets: Vec<Packet>,
    /// Producers that contributed nothing (skipped, detached, or crashed
    /// away), ascending.
    pub missing: Vec<usize>,
}

impl StepDelivery {
    /// Rebuild the `n_blocks`-slot multiblock from the producers that did
    /// arrive, charging one sweep over each payload.
    ///
    /// # Errors
    /// A payload that does not unmarshal or names a block outside the
    /// dataset.
    pub fn unmarshal(
        &self,
        comm: &mut commsim::Comm,
        n_blocks: usize,
    ) -> insitu::Result<MultiBlock> {
        let _span = comm.span("transport/unmarshal");
        let mut mb = MultiBlock::new(n_blocks);
        for packet in &self.packets {
            bp::unmarshal_blocks(&packet.payload)
                .and_then(|data| data.place_into(&mut mb))
                .map_err(|e| {
                    insitu::Error::Analysis(format!("unmarshal from {}: {e}", packet.producer))
                })?;
            let nbytes = packet.payload.len() as f64;
            comm.compute_host(nbytes, nbytes * 2.0);
        }
        Ok(mb)
    }
}

/// What a reader holds of one step it has not delivered yet: the data
/// packets that arrived intact and the producers that skipped the step.
#[derive(Default)]
struct Outstanding {
    packets: Vec<Packet>,
    skipped: BTreeSet<usize>,
}

/// Endpoint-side handle: drains payloads from this reader's producers.
pub struct SstReader {
    /// This reader's index.
    pub index: usize,
    rx: Option<WireRx>,
    /// Each producer's credit window, released per delivered packet
    /// (channel wire only).
    releases: BTreeMap<usize, CreditRelease>,
    /// Number of producers feeding this reader.
    pub n_producers: usize,
    producers: Vec<usize>,
    outstanding: BTreeMap<u64, Outstanding>,
    detached: BTreeSet<usize>,
    faults: Arc<FaultPlan>,
    crashed: bool,
    last_delivered: Option<u64>,
    /// Payload bytes accepted and not yet delivered (the
    /// `transport/queue_depth` gauge).
    staged: u64,
    bytes_received: u64,
    corrupt_rejected: u64,
    complete_steps: u64,
    partial_steps: u64,
    short_reads: u64,
}

impl SstReader {
    /// Receive the next step. Blocks until the earliest outstanding step is
    /// *resolved*: every producer has contributed a packet, skipped the
    /// step, or detached — so a step with failed producers is returned as a
    /// partial [`StepDelivery`] (with [`StepDelivery::missing`] naming
    /// them) instead of hanging forever. Returns `Ok(None)` when every
    /// writer has disconnected and the backlog is drained, or when this
    /// endpoint's scheduled crash fires.
    ///
    /// # Errors
    /// [`TransportError::ShortRead`] when a wire connection dies mid-frame
    /// (real sockets only — the channel engine cannot truncate). The
    /// truncated frame is gone, but the reader stays usable: call again to
    /// keep draining the surviving connections. Each occurrence is counted
    /// under `transport/short_reads`.
    pub fn recv_step(
        &mut self,
        comm: &mut commsim::Comm,
    ) -> Result<Option<StepDelivery>, TransportError> {
        loop {
            if self.crashed {
                return Ok(None);
            }
            if let Some(delivery) = self.pop_deliverable(comm) {
                if let Some(at) = self.faults.crash_step(self.index) {
                    if delivery.step >= at {
                        comm.telemetry_event(
                            telemetry::EventKind::EndpointCrash,
                            Some(at),
                            format!("endpoint {} crashed", self.index),
                        );
                        self.crash(comm);
                        return Ok(None);
                    }
                }
                self.last_delivered = Some(delivery.step);
                return Ok(Some(delivery));
            }
            let Some(rx) = &mut self.rx else {
                return Ok(None);
            };
            // Producers are in a different world; wait off-token so an
            // event-scheduled sim world can make progress toward us.
            match comm.external_wait(|| rx.recv()) {
                Ok(packet) => self.ingest(comm, packet),
                Err(WireRecvError::Closed) => {
                    // Every producer is gone: resolve the whole backlog —
                    // complete steps first-class, stragglers as partials —
                    // instead of dropping completable steps queued behind
                    // an incomplete one.
                    self.rx = None;
                    self.detached.extend(self.producers.iter().copied());
                }
                Err(WireRecvError::ShortRead { wanted, got }) => {
                    // A connection died inside a frame: the frame is lost
                    // for good. Surface it typed — a silent `None` here
                    // would read as a clean end-of-stream.
                    self.short_reads += 1;
                    comm.telemetry().counter("transport/short_reads").inc();
                    return Err(TransportError::ShortRead { wanted, got });
                }
            }
        }
    }

    /// The next step for an endpoint draining the stream: [`Self::recv_step`]
    /// under one `transport/recv` span per attempt, a non-fatal error (a
    /// short read, already counted) skipped. `Ok(None)` is the end.
    pub(crate) fn next_step(
        &mut self,
        comm: &mut commsim::Comm,
    ) -> Result<Option<StepDelivery>, TransportError> {
        loop {
            let _recv = comm.span("transport/recv");
            match self.recv_step(comm) {
                // The truncated frame is gone, but the surviving
                // connections keep feeding the reader.
                Err(e) if !e.is_fatal() => continue,
                next => return next,
            }
        }
    }

    /// The endpoint process dies: stop consuming and drop its ends of the
    /// wire and of the credit windows. (Writers read the crash off the
    /// plan; a write that still reaches a dropped end is a disconnect.)
    fn crash(&mut self, comm: &commsim::Comm) {
        self.crashed = true;
        self.rx = None;
        self.releases.clear();
        // Staged-but-unprocessed bytes die with the process.
        self.outstanding.clear();
        self.set_staged(comm, 0);
    }

    /// Record the staged byte count, in the reader and on the
    /// `transport/queue_depth` gauge.
    fn set_staged(&mut self, comm: &commsim::Comm, bytes: u64) {
        self.staged = bytes;
        comm.telemetry()
            .gauge("transport/queue_depth")
            .set(bytes as f64);
    }

    fn ingest(&mut self, comm: &mut commsim::Comm, packet: Packet) {
        // Stale messages for already-resolved steps cannot re-open them.
        if packet.kind != PacketKind::Detach {
            if let Some(last) = self.last_delivered {
                if packet.step <= last {
                    return;
                }
            }
        }
        match packet.kind {
            PacketKind::Data => {
                let nbytes = packet.payload.len() as u64;
                self.bytes_received += nbytes;
                // Frame check: one sweep over the payload, then reject
                // damaged frames before they reach the analysis.
                comm.compute_host(nbytes as f64, nbytes as f64);
                if !bp::frame_crc_ok(&packet.payload) {
                    self.corrupt_rejected += 1;
                    return;
                }
                let entry = self.outstanding.entry(packet.step).or_default();
                if entry.packets.iter().any(|p| p.producer == packet.producer) {
                    return; // duplicate retransmit
                }
                entry.packets.push(packet);
                self.set_staged(comm, self.staged + nbytes);
            }
            PacketKind::Skip => {
                self.outstanding
                    .entry(packet.step)
                    .or_default()
                    .skipped
                    .insert(packet.producer);
            }
            PacketKind::Detach => {
                self.detached.insert(packet.producer);
            }
        }
    }

    /// Resolve and remove the earliest candidate step if every producer is
    /// accounted for. Per-producer FIFO guarantees that if the earliest
    /// candidate is unresolved, later ones are too — so one check suffices.
    fn pop_deliverable(&mut self, comm: &mut commsim::Comm) -> Option<StepDelivery> {
        let (&step, candidate) = self.outstanding.first_key_value()?;
        let missing: Vec<usize> = self
            .producers
            .iter()
            .copied()
            .filter(|p| !candidate.packets.iter().any(|pkt| pkt.producer == *p))
            .collect();
        let resolved = missing
            .iter()
            .all(|p| candidate.skipped.contains(p) || self.detached.contains(p));
        if !resolved {
            return None;
        }
        let packets = self.outstanding.remove(&step).unwrap_or_default().packets;
        let time = packets.first().map(|p| p.time).unwrap_or(0.0);
        // Clock: the step is ready when the latest payload lands.
        let t_ready = packets.iter().map(|p| p.t_avail).fold(0.0, f64::max);
        // Causal edge from the critical producer — the one whose payload
        // landed last (lowest producer id among exact ties). Recorded
        // before the advance so t_recv captures the pre-wait clock.
        if let Some(crit) = packets
            .iter()
            .filter(|p| p.t_avail == t_ready)
            .min_by_key(|p| p.producer)
        {
            comm.trace_edge(crit.ctx, crit.t_sent, t_ready, telemetry::EdgeKind::Wire);
        }
        if t_ready > comm.now() {
            comm.advance(t_ready - comm.now());
        }
        // Slow-consumer fault: this delivery takes extra virtual time,
        // which back-pressures writers through the slots it releases.
        let stall = self.faults.stall_secs(self.index, step);
        if stall > 0.0 {
            comm.telemetry_event(
                telemetry::EventKind::FaultInjected,
                Some(step),
                format!("consumer stall {stall}s on endpoint {}", self.index),
            );
            comm.advance(stall);
        }
        for p in &packets {
            if let Some(release) = self.releases.get(&p.producer) {
                release.release(comm.now());
            }
        }
        let bytes: u64 = packets.iter().map(|p| p.payload.len() as u64).sum();
        self.set_staged(comm, self.staged - bytes);
        if missing.is_empty() {
            self.complete_steps += 1;
        } else {
            self.partial_steps += 1;
        }
        Some(StepDelivery {
            step,
            time,
            packets,
            missing,
        })
    }

    /// Total payload bytes received (including CRC-rejected frames).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Frames rejected by the CRC check.
    pub fn corrupt_rejected(&self) -> u64 {
        self.corrupt_rejected
    }

    /// Steps delivered with every producer present.
    pub fn complete_steps(&self) -> u64 {
        self.complete_steps
    }

    /// Steps delivered with at least one producer missing.
    pub fn partial_steps(&self) -> u64 {
        self.partial_steps
    }

    /// Wire frames lost to mid-frame connection deaths.
    pub fn short_reads(&self) -> u64 {
        self.short_reads
    }

    /// True once this endpoint's scheduled crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }
}

/// Factory wiring `n_writers` producers to `n_readers` endpoints
/// (`n_writers` must be a multiple of `n_readers`; the paper uses 4:1
/// *nodes*, i.e. producer `i` feeds reader `i / (n_writers/n_readers)`).
pub struct StagingNetwork;

impl StagingNetwork {
    /// Build the writer and reader handles with no fault injection.
    /// `capacity` is the per-reader staging bound in packets, split evenly
    /// among the reader's writers (at least one each).
    ///
    /// # Panics
    /// If `n_writers % n_readers != 0` or either is zero.
    pub fn build(
        n_writers: usize,
        n_readers: usize,
        capacity: usize,
        link: StagingLink,
    ) -> (Vec<SstWriter>, Vec<SstReader>) {
        Self::build_faulty(n_writers, n_readers, capacity, link, FaultPlan::none())
    }

    /// Build the network under a seeded [`FaultPlan`].
    ///
    /// # Panics
    /// If `n_writers % n_readers != 0` or either is zero.
    pub fn build_faulty(
        n_writers: usize,
        n_readers: usize,
        capacity: usize,
        link: StagingLink,
        faults: FaultPlan,
    ) -> (Vec<SstWriter>, Vec<SstReader>) {
        Self::build_wired(
            n_writers,
            n_readers,
            capacity,
            link,
            QueuePolicy::Block,
            faults,
            WriterConfig::default(),
            WireKind::Channel,
        )
        .expect("channel wire cannot fail to build")
    }

    /// Build the network over the selected [`WireKind`]: the in-process
    /// channel engine (exactly [`Self::build_faulty`]) or real loopback
    /// TCP sockets, one listener per reader, one connection per writer.
    /// The policy and config arguments are inert; they stay because the
    /// benchmark passes them.
    ///
    /// # Errors
    /// Socket bind/connect failures (tcp only).
    ///
    /// # Panics
    /// If `n_writers % n_readers != 0` or either is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn build_wired(
        n_writers: usize,
        n_readers: usize,
        capacity: usize,
        link: StagingLink,
        _policy: QueuePolicy,
        faults: FaultPlan,
        _config: WriterConfig,
        wire: WireKind,
    ) -> std::io::Result<(Vec<SstWriter>, Vec<SstReader>)> {
        assert!(n_writers > 0 && n_readers > 0, "need writers and readers");
        assert_eq!(
            n_writers % n_readers,
            0,
            "writers ({n_writers}) must be a multiple of readers ({n_readers})"
        );
        let faults = Arc::new(faults);
        let per_reader = n_writers / n_readers;
        let mut writers = Vec::with_capacity(n_writers);
        let mut readers = Vec::with_capacity(n_readers);
        for r in 0..n_readers {
            let producers: Vec<usize> = (r * per_reader..(r + 1) * per_reader).collect();
            let mut txs: Vec<(Box<dyn WireTx>, Option<CreditWindow>)> = Vec::new();
            let mut releases = BTreeMap::new();
            let rx = match wire {
                WireKind::Channel => {
                    let (tx, rx) = channel();
                    for &p in &producers {
                        let (window, release) = credit_window(capacity / per_reader);
                        txs.push((Box::new(tx.clone()), Some(window)));
                        releases.insert(p, release);
                    }
                    rx
                }
                WireKind::Tcp => {
                    let (listener, port) = loopback_listener()?;
                    let rx = tcp_rx(listener, per_reader, capacity);
                    for _ in 0..per_reader {
                        let tx = TcpWireTx::connect(&format!("127.0.0.1:{port}"))?;
                        txs.push((Box::new(tx), None));
                    }
                    rx
                }
            };
            // Reader-major, so `writers` comes out in producer order.
            for (&p, (tx, window)) in producers.iter().zip(txs) {
                writers.push(Self::make_writer(
                    p,
                    r,
                    tx,
                    window,
                    link,
                    Arc::clone(&faults),
                ));
            }
            readers.push(Self::make_reader(
                r,
                rx,
                producers,
                releases,
                Arc::clone(&faults),
            ));
        }
        Ok((writers, readers))
    }

    /// Standalone TCP writer for a multi-process deployment: connects to a
    /// reader's wire listener at `addr`.
    ///
    /// # Errors
    /// Socket connect failures.
    pub fn tcp_writer(
        addr: &str,
        producer: usize,
        link: StagingLink,
        faults: FaultPlan,
    ) -> std::io::Result<SstWriter> {
        Ok(Self::make_writer(
            producer,
            0,
            Box::new(TcpWireTx::connect(addr)?),
            None,
            link,
            Arc::new(faults),
        ))
    }

    /// Standalone TCP reader for a multi-process deployment: accepts
    /// `producers.len()` writer connections off `listener`.
    pub fn tcp_reader(
        listener: std::net::TcpListener,
        producers: Vec<usize>,
        capacity: usize,
        faults: FaultPlan,
    ) -> SstReader {
        let n = producers.len();
        Self::make_reader(
            0,
            tcp_rx(listener, n, capacity),
            producers,
            BTreeMap::new(),
            Arc::new(faults),
        )
    }

    fn make_writer(
        producer: usize,
        reader_index: usize,
        tx: Box<dyn WireTx>,
        window: Option<CreditWindow>,
        link: StagingLink,
        faults: Arc<FaultPlan>,
    ) -> SstWriter {
        SstWriter {
            producer,
            reader_index,
            tx,
            window,
            link,
            faults,
            consecutive_failures: 0,
            breaker_open: false,
            steps_written: 0,
            steps_failed: 0,
            retries: 0,
            corrupt_frames: 0,
        }
    }

    fn make_reader(
        index: usize,
        rx: WireRx,
        producers: Vec<usize>,
        releases: BTreeMap<usize, CreditRelease>,
        faults: Arc<FaultPlan>,
    ) -> SstReader {
        SstReader {
            index,
            rx: Some(rx),
            releases,
            n_producers: producers.len(),
            producers,
            outstanding: BTreeMap::new(),
            detached: BTreeSet::new(),
            faults,
            crashed: false,
            last_delivered: None,
            staged: 0,
            bytes_received: 0,
            corrupt_rejected: 0,
            complete_steps: 0,
            partial_steps: 0,
            short_reads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_ranks_with_state, EndpointCrash, LinkFaultSpec, MachineModel};

    fn payload_for(i: usize) -> Vec<u8> {
        // A CRC-framed payload so the reader's frame check passes.
        let mut body = vec![i as u8; 100];
        let crc = bp::crc32(&body).to_le_bytes();
        body.extend_from_slice(&crc);
        body
    }

    #[test]
    fn four_to_one_mapping() {
        let (writers, readers) = StagingNetwork::build(8, 2, 4, StagingLink::test_tiny());
        assert_eq!(writers.len(), 8);
        assert_eq!(readers.len(), 2);
        for (i, w) in writers.iter().enumerate() {
            assert_eq!(w.producer, i);
            assert_eq!(w.reader_index, i / 4);
        }
        assert_eq!(readers[0].n_producers, 4);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn non_divisible_mapping_rejected() {
        StagingNetwork::build(5, 2, 4, StagingLink::test_tiny());
    }

    #[test]
    fn writer_to_reader_step_assembly() {
        // 2 writers → 1 reader; reader assembles both packets per step.
        let (writers, readers) = StagingNetwork::build(2, 1, 8, StagingLink::test_tiny());
        let handle = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
                let i = comm.rank();
                for step in 0..3u64 {
                    w.write(comm, step, step as f64 * 0.1, payload_for(i))
                        .unwrap();
                }
            })
        });
        let result =
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
                let mut steps = Vec::new();
                while let Some(d) = reader.recv_step(comm).unwrap() {
                    assert!(d.missing.is_empty());
                    assert_eq!(d.packets.len(), 2);
                    steps.push((d.step, d.time));
                }
                (steps, comm.now(), reader.bytes_received())
            });
        handle.join().unwrap();
        let (steps, t, bytes) = result[0].clone();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].0, 0);
        assert_eq!(steps[2].0, 2);
        assert!((steps[1].1 - 0.1).abs() < 1e-12);
        assert!(t > 0.0, "reader clock advances to arrival times");
        assert_eq!(bytes, 624, "6 packets × 104 framed bytes");
    }

    /// Two producers into one reader, each writing `steps` in a world of
    /// its own, producer 0 first, so the reader's arrival order is fixed.
    /// A write fails exactly when the plan has crashed the endpoint by its
    /// step. The reader then runs `read` with the hub attached.
    fn staged_in_order<R: Send + 'static>(
        steps: u64,
        faults: FaultPlan,
        read: impl Fn(&mut commsim::Comm, &mut SstReader) -> R + Send + Sync + 'static,
    ) -> (R, telemetry::TelemetryHub) {
        let crash = faults.crash_step(0);
        let (writers, readers) =
            StagingNetwork::build_faulty(2, 1, 16, StagingLink::test_tiny(), faults);
        for w in writers {
            run_ranks_with_state(MachineModel::test_tiny(), vec![w], move |comm, mut w| {
                for step in 0..steps {
                    let written = w.write(comm, step, 0.0, payload_for(7)).is_ok();
                    assert_eq!(written, crash.is_none_or(|at| step < at), "step {step}");
                }
            });
        }
        let hub = telemetry::TelemetryHub::default();
        let reader_hub = hub.clone();
        let mut out =
            run_ranks_with_state(MachineModel::test_tiny(), readers, move |comm, mut r| {
                comm.enable_telemetry(&reader_hub, 1);
                read(comm, &mut r)
            });
        (out.remove(0), hub)
    }

    #[test]
    fn reader_gauge_tracks_staged_bytes() {
        let len = payload_for(7).len() as f64;
        let (depths, hub) = staged_in_order(2, FaultPlan::none(), |comm, reader| {
            let mut depths = Vec::new();
            while let Some(d) = reader.recv_step(comm).unwrap() {
                depths.push((
                    d.step,
                    comm.telemetry().gauge("transport/queue_depth").get(),
                ));
            }
            depths
        });
        // Charged on receive: step 1's first packet waits while step 0
        // goes out. Zero once drained.
        assert_eq!(depths, vec![(0, len), (1, 0.0)]);
        assert_eq!(
            hub.gauge("endpoint0/transport/queue_depth").get().to_bits(),
            0
        );
    }

    #[test]
    fn reader_gauge_reads_zero_after_a_crash() {
        let crash = FaultPlan {
            crashes: vec![EndpointCrash {
                endpoint: 0,
                at_step: 1,
            }],
            ..FaultPlan::none()
        };
        // Step 0 goes out; each writer meets the crash at step 1 and says
        // so with a skip marker, and resolving step 1 fires the crash.
        let (delivered, hub) = staged_in_order(4, crash, |comm, reader| {
            let mut delivered = Vec::new();
            while let Some(d) = reader.recv_step(comm).unwrap() {
                delivered.push(d.step);
            }
            assert!(reader.crashed());
            delivered
        });
        assert_eq!(delivered, vec![0]);
        assert_eq!(
            hub.gauge("endpoint0/transport/queue_depth").get().to_bits(),
            0
        );
    }

    #[test]
    fn dropped_frames_are_retried_and_cost_virtual_time() {
        // Seed 11 with 35% drops: some steps need retransmits, none fail
        // outright with 4 attempts at this rate (verified by determinism —
        // the same seed always yields the same schedule).
        let plan = FaultPlan::with_link(
            11,
            LinkFaultSpec {
                drop_prob: 0.35,
                ..Default::default()
            },
        );
        let (writers, readers) =
            StagingNetwork::build_faulty(1, 1, 32, StagingLink::test_tiny(), plan);
        let reader_thread = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
                let mut delivered = Vec::new();
                while let Some(d) = reader.recv_step(comm).unwrap() {
                    delivered.push((d.step, d.missing.clone()));
                }
                delivered
            })
        });
        let writer_res = run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            let mut failed = Vec::new();
            for step in 0..20u64 {
                if w.write(comm, step, 0.0, payload_for(0)).is_err() {
                    failed.push(step);
                }
            }
            (w.retries(), comm.now(), failed)
        });
        let delivered = reader_thread.join().unwrap().remove(0);
        let (retries, t, failed) = writer_res[0].clone();
        assert!(retries > 0, "35% drop rate must force retransmits");
        // Every step is accounted for: delivered complete, or failed
        // writer-side and resolved as an empty partial via its skip marker.
        assert_eq!(delivered.len(), 20);
        for (step, missing) in &delivered {
            if failed.contains(step) {
                assert_eq!(missing, &vec![0], "failed step resolved as partial");
            } else {
                assert!(missing.is_empty());
            }
        }
        // Retries are virtual-time-costed: ack timeouts + backoff.
        let min_cost = retries as f64 * ACK_TIMEOUT;
        assert!(
            t >= min_cost * 0.5,
            "retries must advance the clock: t={t}, retries={retries}"
        );
    }

    #[test]
    fn corrupt_frames_are_crc_rejected_and_retransmitted() {
        let plan = FaultPlan::with_link(
            7,
            LinkFaultSpec {
                corrupt_prob: 0.3,
                ..Default::default()
            },
        );
        let (writers, readers) =
            StagingNetwork::build_faulty(1, 1, 64, StagingLink::test_tiny(), plan);
        let reader_thread = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
                let mut complete = 0u64;
                while let Some(d) = reader.recv_step(comm).unwrap() {
                    if d.missing.is_empty() {
                        complete += 1;
                    }
                    for p in &d.packets {
                        assert!(bp::frame_crc_ok(&p.payload), "no damaged frame delivered");
                    }
                }
                (complete, reader.corrupt_rejected())
            })
        });
        let writer_res = run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            let mut ok = 0u64;
            for step in 0..20u64 {
                if w.write(comm, step, 0.0, payload_for(3)).is_ok() {
                    ok += 1;
                }
            }
            (ok, w.corrupt_frames())
        });
        let (complete, rejected) = reader_thread.join().unwrap()[0];
        let (ok, corrupt_sent) = writer_res[0];
        assert!(corrupt_sent > 0, "30% corruption must damage some frames");
        assert!(rejected > 0, "reader must CRC-reject damaged frames");
        assert!(rejected <= corrupt_sent, "rejects only what was damaged");
        assert_eq!(complete, ok, "every accepted step arrives intact");
    }

    #[test]
    fn damaged_frames_take_no_slot_and_are_all_crc_rejected() {
        let plan = FaultPlan::with_link(
            7,
            LinkFaultSpec {
                corrupt_prob: 0.3,
                ..Default::default()
            },
        );
        // One slot: a damaged frame that took one would wait for a release
        // no delivery ever sends, and the write would fail.
        let (writers, readers) =
            StagingNetwork::build_faulty(1, 1, 1, StagingLink::test_tiny(), plan);
        let reader_thread = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
                while reader.recv_step(comm).unwrap().is_some() {}
                reader.corrupt_rejected()
            })
        });
        let corrupt_sent =
            run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
                for step in 0..20u64 {
                    w.write(comm, step, 0.0, payload_for(3)).unwrap();
                }
                w.corrupt_frames()
            })[0];
        assert!(corrupt_sent > 0, "30% corruption must damage some frames");
        // Every damaged frame reaches the reader, which rejects each one.
        assert_eq!(reader_thread.join().unwrap()[0], corrupt_sent);
    }

    #[test]
    fn disconnect_trips_breaker_instead_of_panicking() {
        let (writers, readers) = StagingNetwork::build(1, 1, 2, StagingLink::test_tiny());
        drop(readers); // endpoint dies before the first write
        let res = run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            let first = w.write(comm, 1, 0.0, payload_for(0));
            let second = w.write(comm, 2, 0.0, payload_for(0));
            (
                first.unwrap_err().error,
                second.unwrap_err().error,
                w.breaker_open(),
            )
        });
        let (first, second, open) = res[0].clone();
        assert_eq!(first, TransportError::Disconnected);
        assert_eq!(
            second,
            TransportError::CircuitOpen,
            "breaker open after disconnect"
        );
        assert!(open);
    }

    #[test]
    fn breaker_trips_after_consecutive_step_failures() {
        // 100% drops: every step exhausts its attempts; the third failure
        // trips the breaker and later writes fail fast.
        let plan = FaultPlan::with_link(
            1,
            LinkFaultSpec {
                drop_prob: 1.0,
                ..Default::default()
            },
        );
        let (writers, readers) =
            StagingNetwork::build_faulty(1, 1, 8, StagingLink::test_tiny(), plan);
        let reader_thread = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
                let mut log = Vec::new();
                while let Some(d) = reader.recv_step(comm).unwrap() {
                    log.push((d.step, d.missing.clone()));
                }
                log
            })
        });
        let res = run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            let errors: Vec<_> = (1..=5u64)
                .map(|s| w.write(comm, s, 0.0, payload_for(0)).unwrap_err().error)
                .collect();
            (errors, w.steps_failed(), w.retries())
        });
        let log = reader_thread.join().unwrap().remove(0);
        let (errors, failed, retries) = res[0].clone();
        assert!(matches!(errors[0], TransportError::StepLost { .. }));
        assert!(matches!(errors[1], TransportError::StepLost { .. }));
        assert_eq!(
            errors[2],
            TransportError::CircuitOpen,
            "third failure trips"
        );
        assert_eq!(
            errors[3],
            TransportError::CircuitOpen,
            "fail-fast after trip"
        );
        assert_eq!(errors[4], TransportError::CircuitOpen);
        assert_eq!(failed, 3, "post-trip writes are not new step failures");
        assert_eq!(retries, 3 * 4, "3 steps × 4 dropped attempts each");
        // Steps 1–2 resolved as partial via skip markers; the detach at
        // step 3 resolves it too; steps 4–5 were never announced.
        assert_eq!(log, vec![(1, vec![0]), (2, vec![0]), (3, vec![0])]);
    }

    #[test]
    fn endpoint_crash_fault_stops_reader_and_writers_survive() {
        let plan = FaultPlan {
            crashes: vec![EndpointCrash {
                endpoint: 0,
                at_step: 3,
            }],
            ..FaultPlan::none()
        };
        let (writers, readers) =
            StagingNetwork::build_faulty(1, 1, 2, StagingLink::test_tiny(), plan);
        let reader_thread = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
                let mut steps = Vec::new();
                while let Some(d) = reader.recv_step(comm).unwrap() {
                    steps.push(d.step);
                }
                (steps, reader.crashed())
            })
        });
        let res = run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            let mut delivered = 0u64;
            let mut fatal = 0u64;
            for step in 1..=8u64 {
                match w.write(comm, step, 0.0, payload_for(0)) {
                    Ok(_) => delivered += 1,
                    Err(e) => {
                        assert!(e.error.is_fatal(), "crash surfaces as a fatal error");
                        fatal += 1;
                    }
                }
            }
            (delivered, fatal)
        });
        let (steps, crashed) = reader_thread.join().unwrap().remove(0);
        assert!(crashed);
        assert_eq!(steps, vec![1, 2], "nothing at or after the crash step");
        let (delivered, fatal) = res[0];
        assert!(fatal > 0, "writers must notice the dead endpoint");
        assert_eq!(delivered + fatal, 8, "every write accounted for, no panic");
    }

    /// Endpoint 0 stalls 25 virtual seconds delivering step 1.
    fn stall_plan() -> FaultPlan {
        FaultPlan {
            stalls: vec![commsim::ConsumerStall {
                endpoint: 0,
                at_step: 1,
                seconds: 25.0,
            }],
            ..FaultPlan::none()
        }
    }

    /// Drain `readers` on their own world; yields each reader's final clock.
    fn drain_clocks(readers: Vec<SstReader>) -> std::thread::JoinHandle<Vec<f64>> {
        std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
                while reader.recv_step(comm).unwrap().is_some() {}
                comm.now()
            })
        })
    }

    #[test]
    fn consumer_stall_fault_backpressures_writers() {
        let (writers, readers) =
            StagingNetwork::build_faulty(1, 1, 1, StagingLink::test_tiny(), stall_plan());
        let reader_thread = drain_clocks(readers);
        let res = run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            for step in 1..=4u64 {
                w.write(comm, step, 0.0, payload_for(0)).unwrap();
            }
            comm.now()
        });
        let reader_t = reader_thread.join().unwrap()[0];
        assert!(
            reader_t >= 25.0,
            "stall advances the reader clock: {reader_t}"
        );
        assert!(
            res[0] >= 25.0,
            "stall must back-pressure the writer through its credit window: {}",
            res[0]
        );
    }

    /// Which world a skewed run holds back, 20 ms of real time a step.
    #[derive(Clone, Copy, PartialEq)]
    enum Skew {
        /// The writer naps before each write: the reader has always
        /// drained its slot already.
        SlowWriter,
        /// The reader naps before each `recv_step`: the slot is always
        /// taken when the writer comes for it.
        SlowReader,
    }

    /// One writer feeding one reader through a one-slot window under
    /// `plan`, with `skew` holding one side back in real time. Yields each
    /// write's outcome (steps 1–4) and the writer's final clock bits.
    fn skewed_run(plan: FaultPlan, skew: Skew) -> (Vec<Result<(), TransportError>>, u64) {
        let nap = || std::thread::sleep(Duration::from_millis(20));
        let (writers, readers) =
            StagingNetwork::build_faulty(1, 1, 1, StagingLink::test_tiny(), plan);
        let reader_thread = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, move |comm, mut r| {
                while {
                    if skew == Skew::SlowReader {
                        comm.external_wait(nap);
                    }
                    r.recv_step(comm).unwrap().is_some()
                } {}
            })
        });
        let out = run_ranks_with_state(MachineModel::test_tiny(), writers, move |comm, mut w| {
            let outcomes = (1..=4u64)
                .map(|step| {
                    if skew == Skew::SlowWriter {
                        comm.external_wait(nap);
                    }
                    w.write(comm, step, 0.0, payload_for(0))
                        .map_err(|e| e.error)
                })
                .collect();
            (outcomes, comm.now().to_bits())
        });
        reader_thread.join().unwrap();
        out.into_iter().next().unwrap()
    }

    #[test]
    fn stall_backpressure_is_the_same_whichever_world_runs_ahead() {
        let drained = skewed_run(stall_plan(), Skew::SlowWriter);
        let full = skewed_run(stall_plan(), Skew::SlowReader);
        assert!(drained.0.iter().all(Result::is_ok), "{:?}", drained.0);
        assert_eq!(full, drained, "writer outcomes and clock bits");
        let t = f64::from_bits(drained.1);
        assert!(t >= 25.0, "the stall back-pressures the writer: {t}");
    }

    #[test]
    fn crash_outcome_is_the_same_whichever_world_runs_ahead() {
        let plan = || FaultPlan {
            crashes: vec![EndpointCrash {
                endpoint: 0,
                at_step: 3,
            }],
            ..stall_plan()
        };
        let drained = skewed_run(plan(), Skew::SlowWriter);
        let full = skewed_run(plan(), Skew::SlowReader);
        assert_eq!(full, drained, "writer outcomes and clock bits");
        // The writer meets the crash at step 3, from the plan.
        use TransportError::{CircuitOpen, Disconnected};
        assert_eq!(
            drained.0,
            vec![Ok(()), Ok(()), Err(Disconnected), Err(CircuitOpen)]
        );
    }

    /// The same stall over real sockets: there is no credit window and TCP
    /// flow control is the back-pressure, so the writer's clock carries its
    /// own control latencies and nothing else — no wait charged, no
    /// `transport/backpressure` span.
    #[test]
    fn consumer_stall_over_tcp_never_moves_the_writer_to_the_drain_time() {
        let link = StagingLink::test_tiny();
        let (writers, readers) = StagingNetwork::build_wired(
            1,
            1,
            1,
            link,
            QueuePolicy::Block,
            stall_plan(),
            WriterConfig::default(),
            WireKind::Tcp,
        )
        .unwrap();
        let reader_thread = drain_clocks(readers);
        let (t, trace) = run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            comm.enable_tracing(0);
            for step in 1..=4u64 {
                w.write(comm, step, 0.0, payload_for(0)).unwrap();
            }
            (comm.now(), comm.take_trace().unwrap())
        })
        .remove(0);
        assert!(reader_thread.join().unwrap()[0] >= 25.0);
        let own = (0..4).fold(0.0, |t: f64, _| t + link.control_latency);
        assert_eq!(t.to_bits(), own.to_bits(), "writer clock {t}, own {own}");
        assert!(trace
            .spans
            .iter()
            .all(|s| s.name != "transport/backpressure"));
    }
}
