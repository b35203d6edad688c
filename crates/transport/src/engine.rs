//! The staging engine: bounded queues between simulation and endpoint
//! worlds.
//!
//! Mirrors SST's architecture: writers (simulation ranks) push marshaled
//! step payloads into per-reader staging queues; readers (endpoint ranks)
//! drain them asynchronously. The queue is bounded in *steps*; when full,
//! the writer either blocks (SST's default back-pressure) or discards the
//! new step (streaming mode). Every harness and workload blocks; only the
//! engine's own tests and `tests/steering_and_policies.rs` discard, and
//! on the TCP wire a discarding writer blocks too.
//!
//! Virtual time: payloads carry the writer's send timestamp plus the link
//! transfer cost; a reader's clock advances to at least that arrival time
//! on receive. Under the blocking policy a stalled writer advances its
//! clock to the reader's publicized drain time, modeling back-pressure.
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
//! circuit breaker trips after `breaker_threshold` consecutive step
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
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What happens when the staging queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Writer blocks until the reader frees a slot (SST default).
    Block,
    /// Writer drops the new step and continues (lossy streaming).
    DiscardNewest,
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
    /// Producer's trace-context word ([`trace::pack_ctx`] via
    /// `Comm::trace_ctx`); 0 when the producer is untraced.
    pub ctx: u64,
    /// Producer's virtual clock when the packet left it.
    pub t_sent: f64,
    /// Marshaled bytes (empty for control markers).
    pub payload: Vec<u8>,
}

/// Retry/backoff/circuit-breaker parameters for one writer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriterConfig {
    /// Data-plane transmission attempts per step before giving up.
    pub max_attempts: u32,
    /// Virtual seconds waited before declaring an unacknowledged frame
    /// lost.
    pub ack_timeout: f64,
    /// First retry backoff in virtual seconds (doubles per attempt).
    pub backoff_base: f64,
    /// Backoff ceiling in virtual seconds.
    pub backoff_cap: f64,
    /// Consecutive failed steps that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// Real-time safety bound on a blocking enqueue (wedged-reader guard),
    /// in milliseconds. Virtual-time back-pressure is modeled separately
    /// through the reader's drain time.
    pub enqueue_timeout_ms: u64,
}

impl Default for WriterConfig {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            ack_timeout: 5.0e-4,
            backoff_base: 1.0e-4,
            backoff_cap: 1.0e-2,
            breaker_threshold: 3,
            enqueue_timeout_ms: 10_000,
        }
    }
}

impl WriterConfig {
    fn backoff(&self, attempt: u32) -> f64 {
        (self.backoff_base * f64::powi(2.0, attempt as i32)).min(self.backoff_cap)
    }
}

/// Successful outcome of one [`SstWriter::write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The step was accepted by the staging queue.
    Delivered {
        /// Data-plane attempts used (1 = first try).
        attempts: u32,
    },
    /// The step was dropped by the [`QueuePolicy::DiscardNewest`] policy.
    Discarded,
}

#[derive(Default)]
struct ReaderState {
    /// Virtual time at which the reader last drained a packet.
    drain_time: Mutex<f64>,
}

/// Simulation-side handle: sends this rank's payloads to its endpoint.
pub struct SstWriter {
    /// This writer's producer id.
    pub producer: usize,
    /// The endpoint (reader) index this writer feeds.
    pub reader_index: usize,
    tx: Box<dyn WireTx>,
    link: StagingLink,
    policy: QueuePolicy,
    config: WriterConfig,
    faults: Arc<FaultPlan>,
    state: Arc<ReaderState>,
    consecutive_failures: u32,
    breaker_open: bool,
    steps_written: u64,
    steps_dropped: u64,
    steps_failed: u64,
    retries: u64,
    corrupt_frames: u64,
    bytes_sent: u64,
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
    ) -> Result<WriteOutcome, WriteError> {
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
                    let packet = Packet {
                        kind: PacketKind::Data,
                        producer: self.producer,
                        step,
                        time,
                        t_avail: comm.now() + self.link.transfer_time(nbytes) + extra_delay,
                        ctx: comm.trace_ctx(),
                        t_sent: comm.now(),
                        payload,
                    };
                    return match self.enqueue_data(comm, packet) {
                        Ok(Some(())) => {
                            self.steps_written += 1;
                            self.bytes_sent += nbytes;
                            self.consecutive_failures = 0;
                            Ok(WriteOutcome::Delivered {
                                attempts: attempt + 1,
                            })
                        }
                        Ok(None) => {
                            self.steps_dropped += 1;
                            // Best-effort skip marker so the reader need not
                            // wait for this step (lost if the queue is full).
                            self.control(comm, PacketKind::Skip, step, false);
                            Ok(WriteOutcome::Discarded)
                        }
                        Err((error, payload)) => self.fail_step(comm, step, error, payload),
                    };
                }
                // Lost on the wire: wait out the ack timeout and back off.
                commsim::AttemptFate::Drop => {
                    self.config.ack_timeout + self.config.backoff(attempt)
                }
                commsim::AttemptFate::Corrupt => {
                    // The frame arrives damaged; ship the damaged bytes so
                    // the reader's CRC genuinely rejects them, then pay the
                    // NACK round trip.
                    let mut damaged = payload.clone();
                    self.faults
                        .corrupt_payload(&mut damaged, self.producer, step, attempt);
                    self.best_effort_send(
                        comm,
                        Packet {
                            kind: PacketKind::Data,
                            producer: self.producer,
                            step,
                            time,
                            t_avail: comm.now() + self.link.transfer_time(nbytes),
                            ctx: comm.trace_ctx(),
                            t_sent: comm.now(),
                            payload: damaged,
                        },
                    );
                    self.corrupt_frames += 1;
                    self.link.transfer_time(nbytes)
                        + self.link.control_latency
                        + self.config.backoff(attempt)
                }
            };
            // Retransmit, all in virtual time, until the attempts run out.
            let _sp = comm.span("transport/retry");
            comm.advance(penalty);
            self.retries += 1;
            comm.telemetry().counter("transport/retries").inc();
            attempt += 1;
            if attempt >= self.config.max_attempts {
                let error = TransportError::StepLost {
                    step,
                    attempts: attempt,
                };
                return self.fail_step(comm, step, error, payload);
            }
        }
    }

    /// Enqueue a data packet honoring the overflow policy. `Ok(Some(()))`
    /// = accepted, `Ok(None)` = discarded (DiscardNewest), `Err` = the
    /// queue failed with the packet's payload handed back.
    fn enqueue_data(
        &mut self,
        comm: &mut commsim::Comm,
        packet: Packet,
    ) -> Result<Option<()>, (TransportError, Vec<u8>)> {
        if self.tx.blocking() {
            // Real-socket wire: the OS send buffer is the queue and TCP
            // flow control is the back-pressure, so there is no cheap
            // "full" probe (DiscardNewest degrades to blocking here). Hold
            // the socket write outside the scheduler's run token.
            return self.timed_send(comm, packet).map(Some);
        }
        match self.tx.try_send(packet) {
            Ok(()) => Ok(Some(())),
            Err(WireSendError::Full(p)) => match self.policy {
                QueuePolicy::Block => {
                    let _sp = comm.span("transport/backpressure");
                    self.timed_send(comm, p)?;
                    // Real back-pressure: the reader freed a slot. Read the
                    // drain time *after* the blocking send — the pre-block
                    // value is stale under a slow reader.
                    let drain = *self.state.drain_time.lock().unwrap();
                    if drain > comm.now() {
                        comm.advance(drain - comm.now());
                    }
                    Ok(Some(()))
                }
                QueuePolicy::DiscardNewest => Ok(None),
            },
            Err(WireSendError::Timeout(p)) | Err(WireSendError::Closed(p)) => {
                Err((TransportError::Disconnected, p.payload))
            }
        }
    }

    /// The one blocking send: bounded by the wedged-reader guard, and made
    /// outside the event scheduler's run token — the reader lives in another
    /// world, whose ranks must keep running to drain this queue. A failure
    /// hands the payload back: the reader is wedged, or gone.
    fn timed_send(
        &mut self,
        comm: &commsim::Comm,
        packet: Packet,
    ) -> Result<(), (TransportError, Vec<u8>)> {
        let step = packet.step;
        let timeout = Duration::from_millis(self.config.enqueue_timeout_ms);
        let tx = &mut self.tx;
        comm.external_wait(|| tx.send_timeout(packet, timeout))
            .map_err(|unsent| match unsent {
                WireSendError::Timeout(p) => (TransportError::Backpressure { step }, p.payload),
                WireSendError::Full(p) | WireSendError::Closed(p) => {
                    (TransportError::Disconnected, p.payload)
                }
            })
    }

    /// Fire-and-forget send (damaged frames, best-effort skips); routed
    /// off-token when the wire blocks for real.
    fn best_effort_send(&mut self, comm: &commsim::Comm, packet: Packet) {
        if self.tx.blocking() {
            let _ = self.timed_send(comm, packet);
        } else {
            let _ = self.tx.try_send(packet);
        }
    }

    /// Send a control marker. Control rides SST's reliable TCP plane: when
    /// `reliable`, a full queue is waited out (bounded); otherwise the
    /// marker is best-effort.
    fn control(&mut self, comm: &commsim::Comm, kind: PacketKind, step: u64, reliable: bool) {
        let packet = Packet {
            kind,
            producer: self.producer,
            step,
            time: 0.0,
            t_avail: comm.now() + self.link.control_latency,
            ctx: comm.trace_ctx(),
            t_sent: comm.now(),
            payload: Vec::new(),
        };
        if self.tx.blocking() {
            // Socket control plane: the write is bounded-blocking either
            // way; reliability falls out of TCP itself.
            self.best_effort_send(comm, packet);
            return;
        }
        match self.tx.try_send(packet) {
            Err(WireSendError::Full(p)) if reliable => {
                let _ = self.timed_send(comm, p);
            }
            _ => {}
        }
    }

    /// Account one failed step: notify the reader, advance the breaker,
    /// and hand the payload back to the caller.
    fn fail_step(
        &mut self,
        comm: &mut commsim::Comm,
        step: u64,
        error: TransportError,
        payload: Vec<u8>,
    ) -> Result<WriteOutcome, WriteError> {
        self.steps_failed += 1;
        if error == TransportError::Disconnected {
            // Unrecoverable: the reader is gone, nothing can be notified.
            self.breaker_open = true;
            comm.telemetry_event(
                commsim::EventKind::CircuitBreakerOpen,
                Some(step),
                "endpoint disconnected",
            );
            return Err(WriteError { error, payload });
        }
        // Reliable control plane: tell the reader this step will not
        // arrive so it can resolve the step as partial instead of hanging.
        self.control(comm, PacketKind::Skip, step, true);
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.config.breaker_threshold {
            self.breaker_open = true;
            comm.telemetry_event(
                commsim::EventKind::CircuitBreakerOpen,
                Some(step),
                format!("{} consecutive failures", self.consecutive_failures),
            );
            self.control(comm, PacketKind::Detach, step, true);
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

    /// Steps dropped (DiscardNewest only).
    pub fn steps_dropped(&self) -> u64 {
        self.steps_dropped
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

    /// Payload bytes accepted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
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
    state: Arc<ReaderState>,
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
                            commsim::EventKind::EndpointCrash,
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
            let got = comm.external_wait(|| rx.recv_timeout(Duration::from_millis(50)));
            match got {
                Ok(packet) => self.ingest(comm, packet),
                Err(WireRecvError::Timeout) => continue,
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
            comm.trace_edge(crit.ctx, crit.t_sent, t_ready, commsim::EdgeKind::Wire);
        }
        if t_ready > comm.now() {
            comm.advance(t_ready - comm.now());
        }
        // Slow-consumer fault: this delivery takes extra virtual time,
        // which back-pressures writers through the published drain time.
        let stall = self.faults.stall_secs(self.index, step);
        if stall > 0.0 {
            comm.telemetry_event(
                commsim::EventKind::FaultInjected,
                Some(step),
                format!("consumer stall {stall}s on endpoint {}", self.index),
            );
            comm.advance(stall);
        }
        *self.state.drain_time.lock().unwrap() = comm.now();
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
    /// Build the writer and reader handles with no fault injection and
    /// default retry parameters. `capacity` is the per-reader queue bound
    /// in packets.
    ///
    /// # Panics
    /// If `n_writers % n_readers != 0` or either is zero.
    pub fn build(
        n_writers: usize,
        n_readers: usize,
        capacity: usize,
        link: StagingLink,
        policy: QueuePolicy,
    ) -> (Vec<SstWriter>, Vec<SstReader>) {
        Self::build_faulty(
            n_writers,
            n_readers,
            capacity,
            link,
            policy,
            FaultPlan::none(),
            WriterConfig::default(),
        )
    }

    /// Build the network under a seeded [`FaultPlan`] and explicit writer
    /// retry/breaker parameters.
    ///
    /// # Panics
    /// If `n_writers % n_readers != 0` or either is zero.
    pub fn build_faulty(
        n_writers: usize,
        n_readers: usize,
        capacity: usize,
        link: StagingLink,
        policy: QueuePolicy,
        faults: FaultPlan,
        config: WriterConfig,
    ) -> (Vec<SstWriter>, Vec<SstReader>) {
        Self::build_wired(
            n_writers,
            n_readers,
            capacity,
            link,
            policy,
            faults,
            config,
            WireKind::Channel,
        )
        .expect("channel wire cannot fail to build")
    }

    /// Build the network over the selected [`WireKind`]: the in-process
    /// channel engine (exactly [`Self::build_faulty`]) or real loopback
    /// TCP sockets, one listener per reader, one connection per writer.
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
        policy: QueuePolicy,
        faults: FaultPlan,
        config: WriterConfig,
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
            let state = Arc::<ReaderState>::default();
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
                    policy,
                    config,
                    Arc::clone(&faults),
                    Arc::clone(&state),
                ));
            }
            readers.push(Self::make_reader(
                r,
                rx,
                state,
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
        policy: QueuePolicy,
        faults: FaultPlan,
        config: WriterConfig,
    ) -> std::io::Result<SstWriter> {
        Ok(Self::make_writer(
            producer,
            0,
            Box::new(TcpWireTx::connect(addr)?),
            link,
            policy,
            config,
            Arc::new(faults),
            Arc::default(),
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
            Arc::default(),
            producers,
            Arc::new(faults),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn make_writer(
        producer: usize,
        reader_index: usize,
        tx: Box<dyn WireTx>,
        link: StagingLink,
        policy: QueuePolicy,
        config: WriterConfig,
        faults: Arc<FaultPlan>,
        state: Arc<ReaderState>,
    ) -> SstWriter {
        SstWriter {
            producer,
            reader_index,
            tx,
            link,
            policy,
            config,
            faults,
            state,
            consecutive_failures: 0,
            breaker_open: false,
            steps_written: 0,
            steps_dropped: 0,
            steps_failed: 0,
            retries: 0,
            corrupt_frames: 0,
            bytes_sent: 0,
        }
    }

    fn make_reader(
        index: usize,
        rx: WireRx,
        state: Arc<ReaderState>,
        producers: Vec<usize>,
        faults: Arc<FaultPlan>,
    ) -> SstReader {
        SstReader {
            index,
            rx: Some(rx),
            state,
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
        let (writers, readers) =
            StagingNetwork::build(8, 2, 4, StagingLink::test_tiny(), QueuePolicy::Block);
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
        StagingNetwork::build(5, 2, 4, StagingLink::test_tiny(), QueuePolicy::Block);
    }

    #[test]
    fn writer_to_reader_step_assembly() {
        // 2 writers → 1 reader; reader assembles both packets per step.
        let (writers, readers) =
            StagingNetwork::build(2, 1, 8, StagingLink::test_tiny(), QueuePolicy::Block);
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

    #[test]
    fn discard_policy_drops_when_full() {
        let (writers, readers) = StagingNetwork::build(
            1,
            1,
            2,
            StagingLink::test_tiny(),
            QueuePolicy::DiscardNewest,
        );
        let res = run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
            for step in 0..5u64 {
                w.write(comm, step, 0.0, vec![0; 10]).unwrap();
            }
            (w.steps_written(), w.steps_dropped())
        });
        assert_eq!(res[0], (2, 3), "queue holds 2, rest dropped");
        drop(readers);
    }

    /// A wire that tells the test when a `try_send` found the queue full,
    /// i.e. when the writer is about to block on the reader.
    struct FullSignal {
        inner: Box<dyn WireTx>,
        full: std::sync::mpsc::Sender<()>,
    }

    impl WireTx for FullSignal {
        fn try_send(&mut self, packet: Packet) -> Result<(), WireSendError> {
            let sent = self.inner.try_send(packet);
            if matches!(sent, Err(WireSendError::Full(_))) {
                let _ = self.full.send(());
            }
            sent
        }

        fn send_timeout(&mut self, packet: Packet, timeout: Duration) -> Result<(), WireSendError> {
            self.inner.send_timeout(packet, timeout)
        }
    }

    #[test]
    fn blocking_policy_applies_backpressure() {
        let (writers, readers) =
            StagingNetwork::build(1, 1, 1, StagingLink::test_tiny(), QueuePolicy::Block);
        // Back-pressure is charged only when the writer finds the queue full,
        // so whether it happens is a real-time race between the two worlds.
        // Pin the schedule: the reader frees a slot only once the writer has
        // hit the full queue (or is done and has dropped its wire).
        let (full, writer_blocked) = std::sync::mpsc::channel();
        let writers: Vec<SstWriter> = writers
            .into_iter()
            .map(|w| SstWriter {
                tx: Box::new(FullSignal {
                    inner: w.tx,
                    full: full.clone(),
                }),
                ..w
            })
            .collect();
        drop(full);
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
        let (writers, mut readers) =
            StagingNetwork::build(1, 1, 4, StagingLink::test_tiny(), QueuePolicy::Block);
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
        let (writers, readers) = StagingNetwork::build_faulty(
            1,
            1,
            32,
            StagingLink::test_tiny(),
            QueuePolicy::Block,
            plan,
            WriterConfig::default(),
        );
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
        let min_cost = retries as f64 * WriterConfig::default().ack_timeout;
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
        let (writers, readers) = StagingNetwork::build_faulty(
            1,
            1,
            64,
            StagingLink::test_tiny(),
            QueuePolicy::Block,
            plan,
            WriterConfig::default(),
        );
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

    #[test]
    fn disconnect_trips_breaker_instead_of_panicking() {
        let (writers, readers) =
            StagingNetwork::build(1, 1, 2, StagingLink::test_tiny(), QueuePolicy::Block);
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
        let cfg = WriterConfig::default();
        let (writers, readers) = StagingNetwork::build_faulty(
            1,
            1,
            8,
            StagingLink::test_tiny(),
            QueuePolicy::Block,
            plan,
            cfg,
        );
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
        let (writers, readers) = StagingNetwork::build_faulty(
            1,
            1,
            2,
            StagingLink::test_tiny(),
            QueuePolicy::Block,
            plan,
            WriterConfig::default(),
        );
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

    #[test]
    fn consumer_stall_fault_backpressures_writers() {
        use commsim::ConsumerStall;
        let plan = FaultPlan {
            stalls: vec![ConsumerStall {
                endpoint: 0,
                at_step: 1,
                seconds: 25.0,
            }],
            ..FaultPlan::none()
        };
        let (writers, readers) = StagingNetwork::build_faulty(
            1,
            1,
            1,
            StagingLink::test_tiny(),
            QueuePolicy::Block,
            plan,
            WriterConfig::default(),
        );
        let reader_thread = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
                while reader.recv_step(comm).unwrap().is_some() {}
                comm.now()
            })
        });
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
}
