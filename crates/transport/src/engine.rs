//! The staging engine: bounded queues between simulation and endpoint
//! worlds.
//!
//! Mirrors SST's architecture: writers (simulation ranks) push marshaled
//! step payloads into per-reader staging queues; readers (endpoint ranks)
//! drain them asynchronously. The queue is bounded in *steps*; when it is
//! full the writer blocks — SST's default back-pressure, and the only
//! policy there is.
//!
//! Virtual time: payloads carry the writer's send timestamp plus the link
//! transfer cost; a reader's clock advances to at least that arrival time
//! on receive. A writer whose send had to wait for room in the channel
//! queue advances its clock to the reader's drain time, which the queue
//! hands back with the slot, modeling back-pressure. Over TCP the writer's
//! clock never moves for a wait: flow control is the back-pressure there.
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
//! the workflow can degrade to the BP file engine.

use crate::bp;
use crate::error::{TransportError, WriteError};
use crate::link::StagingLink;
use crate::wire::{
    loopback_listener, queue, tcp_rx, TcpWireTx, WireKind, WireRecvError, WireRx, WireSendError,
    WireTx,
};
use commsim::FaultPlan;
use memtrack::Accountant;
use meshdata::MultiBlock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// What happens when the staging queue is full. One answer: the writer
/// blocks. The type stays because the benchmark names it.
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
/// Real-time safety bound on a send (wedged-reader guard). Virtual-time
/// back-pressure is modeled separately through the reader's drain time.
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
    /// faults; under back-pressure, also charges the stall time.
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
        let mut attempt = 0u32;
        loop {
            // What the failed attempt costs the writer, in virtual time.
            let penalty = match self.faults.attempt_fate(self.producer, step, attempt) {
                commsim::AttemptFate::Deliver { extra_delay } => {
                    let t_avail = comm.now() + self.link.transfer_time(nbytes) + extra_delay;
                    let packet = self.packet(comm, PacketKind::Data, step, time, t_avail, payload);
                    return match self.send(comm, packet) {
                        Ok(()) => {
                            self.steps_written += 1;
                            self.consecutive_failures = 0;
                            Ok(())
                        }
                        Err((error, payload)) => self.fail_step(comm, step, error, payload),
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

    /// Put one packet — data, damaged frame or control marker — on the
    /// wire. The send waits off the event scheduler's run token, bounded by
    /// the wedged-reader guard: the reader lives in another world, whose
    /// ranks must keep running to drain a full queue. A data packet that
    /// waited for room in the channel queue is back-pressure: a
    /// `transport/backpressure` span in which the writer advances to the
    /// reader's drain time. A failure hands the payload back: the reader is
    /// wedged, or gone.
    fn send(
        &mut self,
        comm: &mut commsim::Comm,
        packet: Packet,
    ) -> Result<(), (TransportError, Vec<u8>)> {
        let (step, kind) = (packet.step, packet.kind);
        let tx = &mut self.tx;
        let waited = comm
            .external_wait(|| tx.send(packet, ENQUEUE_TIMEOUT))
            .map_err(|unsent| match unsent {
                WireSendError::Timeout(p) => (TransportError::Backpressure { step }, p.payload),
                WireSendError::Closed(p) => (TransportError::Disconnected, p.payload),
            })?;
        if let (Some(drained_at), PacketKind::Data) = (waited, kind) {
            let _sp = comm.span("transport/backpressure");
            if drained_at > comm.now() {
                comm.advance(drained_at - comm.now());
            }
        }
        Ok(())
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
        let t_avail = comm.now() + self.link.control_latency;
        let skip = self.packet(comm, PacketKind::Skip, step, 0.0, t_avail, Vec::new());
        let _ = self.send(comm, skip);
        self.consecutive_failures += 1;
        if self.consecutive_failures >= BREAKER_THRESHOLD {
            self.breaker_open = true;
            comm.telemetry_event(
                telemetry::EventKind::CircuitBreakerOpen,
                Some(step),
                format!("{} consecutive failures", self.consecutive_failures),
            );
            let t_avail = comm.now() + self.link.control_latency;
            let detach = self.packet(comm, PacketKind::Detach, step, 0.0, t_avail, Vec::new());
            let _ = self.send(comm, detach);
            return Err(WriteError {
                error: TransportError::CircuitOpen,
                payload,
            });
        }
        Err(WriteError { error, payload })
    }

    /// Steps accepted by the queue.
    pub fn steps_written(&self) -> u64 {
        self.steps_written
    }

    /// Steps that exhausted their transmission attempts or hit a fatal
    /// queue failure.
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
    /// True when every producer contributed.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

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

/// Endpoint-side handle: drains payloads from this reader's producers.
pub struct SstReader {
    /// This reader's index.
    pub index: usize,
    rx: Option<WireRx>,
    /// Number of producers feeding this reader.
    pub n_producers: usize,
    producers: Vec<usize>,
    pending: BTreeMap<u64, Vec<Packet>>,
    skipped: BTreeMap<u64, BTreeSet<usize>>,
    detached: BTreeSet<usize>,
    faults: Arc<FaultPlan>,
    crashed: bool,
    last_delivered: Option<u64>,
    queue_accountant: Option<Accountant>,
    bytes_received: u64,
    corrupt_rejected: u64,
    complete_steps: u64,
    partial_steps: u64,
    short_reads: u64,
}

impl SstReader {
    /// Attach a memory accountant for staged-but-unprocessed bytes.
    pub fn set_accountant(&mut self, a: Accountant) {
        self.queue_accountant = Some(a);
    }

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
                        self.crash();
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

    /// The endpoint process dies: stop consuming and release the channel
    /// so producers observe the disconnect.
    fn crash(&mut self) {
        self.crashed = true;
        self.rx = None;
        // Staged-but-unprocessed bytes die with the process.
        if let Some(a) = &self.queue_accountant {
            let staged: u64 = self
                .pending
                .values()
                .flatten()
                .map(|p| p.payload.len() as u64)
                .sum();
            a.credit_raw(staged);
        }
        self.pending.clear();
        self.skipped.clear();
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
                let entry = self.pending.entry(packet.step).or_default();
                if entry.iter().any(|p| p.producer == packet.producer) {
                    return; // duplicate retransmit
                }
                if let Some(a) = &self.queue_accountant {
                    a.charge_raw(nbytes);
                }
                entry.push(packet);
                let staged = self.staged_bytes();
                comm.telemetry()
                    .gauge("transport/queue_depth")
                    .set(staged as f64);
            }
            PacketKind::Skip => {
                self.skipped
                    .entry(packet.step)
                    .or_default()
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
        let step = match (
            self.pending.keys().next().copied(),
            self.skipped.keys().next().copied(),
        ) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        let empty = Vec::new();
        let packets = self.pending.get(&step).unwrap_or(&empty);
        let skips = self.skipped.get(&step);
        let missing: Vec<usize> = self
            .producers
            .iter()
            .copied()
            .filter(|p| !packets.iter().any(|pkt| pkt.producer == *p))
            .collect();
        let resolved = missing
            .iter()
            .all(|p| skips.is_some_and(|s| s.contains(p)) || self.detached.contains(p));
        if !resolved {
            return None;
        }
        let packets = self.pending.remove(&step).unwrap_or_default();
        self.skipped.remove(&step);
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
        // which back-pressures writers through the published drain time.
        let stall = self.faults.stall_secs(self.index, step);
        if stall > 0.0 {
            comm.telemetry_event(
                telemetry::EventKind::FaultInjected,
                Some(step),
                format!("consumer stall {stall}s on endpoint {}", self.index),
            );
            comm.advance(stall);
        }
        if let Some(rx) = &self.rx {
            rx.set_drained_at(comm.now());
        }
        if let Some(a) = &self.queue_accountant {
            let bytes: u64 = packets.iter().map(|p| p.payload.len() as u64).sum();
            a.credit_raw(bytes);
        }
        let staged = self.staged_bytes();
        comm.telemetry()
            .gauge("transport/queue_depth")
            .set(staged as f64);
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

    /// Bytes currently staged (accepted, not yet delivered).
    fn staged_bytes(&self) -> u64 {
        self.pending
            .values()
            .flatten()
            .map(|p| p.payload.len() as u64)
            .sum()
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
    /// `capacity` is the per-reader queue bound in packets.
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
            let mut txs: Vec<Box<dyn WireTx>> = Vec::with_capacity(per_reader);
            let rx = match wire {
                WireKind::Channel => {
                    let (tx, rx) = queue(capacity);
                    txs.extend((0..per_reader).map(|_| Box::new(tx.clone()) as Box<dyn WireTx>));
                    rx
                }
                WireKind::Tcp => {
                    let (listener, port) = loopback_listener()?;
                    let rx = tcp_rx(listener, per_reader, capacity);
                    for _ in 0..per_reader {
                        txs.push(Box::new(TcpWireTx::connect(&format!("127.0.0.1:{port}"))?));
                    }
                    rx
                }
            };
            // Reader-major, so `writers` comes out in producer order.
            for (w, tx) in txs.into_iter().enumerate() {
                writers.push(Self::make_writer(
                    r * per_reader + w,
                    r,
                    tx,
                    link,
                    Arc::clone(&faults),
                ));
            }
            readers.push(Self::make_reader(
                r,
                rx,
                (r * per_reader..(r + 1) * per_reader).collect(),
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
            Arc::new(faults),
        )
    }

    fn make_writer(
        producer: usize,
        reader_index: usize,
        tx: Box<dyn WireTx>,
        link: StagingLink,
        faults: Arc<FaultPlan>,
    ) -> SstWriter {
        SstWriter {
            producer,
            reader_index,
            tx,
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
        faults: Arc<FaultPlan>,
    ) -> SstReader {
        SstReader {
            index,
            rx: Some(rx),
            n_producers: producers.len(),
            producers,
            pending: BTreeMap::new(),
            skipped: BTreeMap::new(),
            detached: BTreeSet::new(),
            faults,
            crashed: false,
            last_delivered: None,
            queue_accountant: None,
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
    use crate::wire::QueueTx;
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
                    assert!(d.is_complete());
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

    /// One writer feeding one reader through a channel queue of one slot,
    /// the writer's end wrapped by `wrap`.
    fn wrapped_pair(
        plan: FaultPlan,
        wrap: impl FnOnce(QueueTx) -> Box<dyn WireTx>,
    ) -> (Vec<SstWriter>, Vec<SstReader>) {
        let faults = Arc::new(plan);
        let (tx, rx) = queue(1);
        let link = StagingLink::test_tiny();
        let writer = StagingNetwork::make_writer(0, 0, wrap(tx), link, Arc::clone(&faults));
        let reader = StagingNetwork::make_reader(0, rx, vec![0], faults);
        (vec![writer], vec![reader])
    }

    /// A channel wire that tells the test when a send found the queue
    /// full, i.e. when the writer is about to wait for the reader.
    struct FullSignal {
        inner: QueueTx,
        full: std::sync::mpsc::Sender<()>,
    }

    impl WireTx for FullSignal {
        fn send(
            &mut self,
            packet: Packet,
            timeout: Duration,
        ) -> Result<Option<f64>, WireSendError> {
            let Err((item, _)) = self.inner.push(Ok(packet), Some(Duration::ZERO)) else {
                return Ok(None);
            };
            let _ = self.full.send(());
            // The retry reports the drain time even if the slot freed
            // before it looked: this send did find the queue full.
            match self.inner.push(item, Some(timeout)) {
                Ok((_, drained_at)) => Ok(Some(drained_at)),
                Err((item, _)) => Err(WireSendError::Closed(item.expect("a packet was pushed"))),
            }
        }
    }

    #[test]
    fn blocking_policy_applies_backpressure() {
        // Back-pressure is charged only when the writer finds the queue full,
        // so whether it happens is a real-time race between the two worlds.
        // Pin the schedule: the reader frees a slot only once the writer has
        // hit the full queue (or is done and has dropped its wire).
        let (full, writer_blocked) = std::sync::mpsc::channel();
        let (writers, readers) = wrapped_pair(FaultPlan::none(), |inner| {
            Box::new(FullSignal { inner, full })
        });
        let readers: Vec<_> = readers.into_iter().zip([writer_blocked]).collect();
        let reader_thread = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, state| {
                let (mut reader, writer_blocked) = state;
                let mut n = 0;
                loop {
                    let _ = writer_blocked.recv();
                    if reader.recv_step(comm).unwrap().is_none() {
                        break n;
                    }
                    comm.advance(10.0); // slow consumer: 10 virtual s/step
                    n += 1;
                }
            })
        });
        let writer_times =
            run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
                for step in 0..4u64 {
                    w.write(comm, step, 0.0, payload_for(0)).unwrap();
                }
                (comm.now(), w.steps_written())
            });
        assert_eq!(reader_thread.join().unwrap()[0], 4);
        let (t, written) = writer_times[0];
        assert_eq!(written, 4);
        // Depth 1: write k blocks until the reader takes step k-1 off the
        // queue, which it does only after processing step k-2 — so the last
        // write (k = 3) resumes no earlier than the drain time the reader
        // published delivering step 1, one 10 s step in.
        assert!(t >= 10.0, "backpressure must slow the writer: t = {t}");
    }

    #[test]
    fn reader_accountant_tracks_staged_bytes() {
        let (writers, mut readers) = StagingNetwork::build(1, 1, 4, StagingLink::test_tiny());
        let acct = Accountant::new("staging");
        readers[0].set_accountant(acct.clone());
        let framed = payload_for(7);
        let len = framed.len() as u64;
        run_ranks_with_state(MachineModel::test_tiny(), writers, move |comm, mut w| {
            w.write(comm, 0, 0.0, framed.clone()).unwrap();
        });
        run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
            let d = reader.recv_step(comm).unwrap().unwrap();
            assert_eq!(d.step, 0);
        });
        // Charged on receive, credited on drain.
        assert_eq!(acct.peak(), len);
        assert_eq!(acct.current(), 0);
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
                    if d.is_complete() {
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

    /// A channel wire that reports every send as having waited for room,
    /// so every packet takes the back-pressure path whatever the reader is
    /// doing.
    struct AlwaysFull(QueueTx);

    impl WireTx for AlwaysFull {
        fn send(
            &mut self,
            packet: Packet,
            timeout: Duration,
        ) -> Result<Option<f64>, WireSendError> {
            match self.0.push(Ok(packet), Some(timeout)) {
                Ok((_, drained_at)) => Ok(Some(drained_at)),
                Err((item, _)) => Err(WireSendError::Closed(item.expect("a packet was pushed"))),
            }
        }
    }

    #[test]
    fn damaged_frames_wait_for_a_full_queue_and_are_all_crc_rejected() {
        let plan = FaultPlan::with_link(
            7,
            LinkFaultSpec {
                corrupt_prob: 0.3,
                ..Default::default()
            },
        );
        let (writers, readers) = wrapped_pair(plan, |tx| Box::new(AlwaysFull(tx)));
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
        // A damaged frame that finds the queue full waits for a slot like
        // any other packet, so the reader sees, and rejects, every one.
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
            "stall must back-pressure the writer through the full queue: {}",
            res[0]
        );
    }

    /// The same stall over real sockets: there TCP flow control is the
    /// back-pressure, so the writer's clock carries its own control
    /// latencies and nothing else — no drain-time advance, no
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
