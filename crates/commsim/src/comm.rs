//! The communicator: MPI-like point-to-point and collective operations over
//! rank threads, synchronizing per-rank virtual clocks.
//!
//! Time semantics:
//! * `send` stamps the message with `sender_now + α + bytes/β` (its arrival
//!   time at the destination NIC) and does not block (eager protocol).
//! * `recv` completes at `max(receiver_now, message_arrival_time)`.
//! * collectives rendezvous all ranks and release them at
//!   `max(arrival times) + tree_cost(P, bytes)`.
//!
//! Because these rules depend only on operation order and sizes, virtual
//! time is deterministic across runs regardless of OS scheduling.
//!
//! Every wait — a `recv` with no matching message, a collective this rank
//! does not complete, an [`Comm::external_wait`] — parks through the
//! world's [`EventSched`], whatever its number of run tokens.

use crate::clock::Clock;
use crate::lock;
use crate::machine::MachineModel;
use crate::reduce::ReduceOp;
use crate::sched::{EventSched, WaitReason};
use crate::stats::CommStats;
use memtrack::{Accountant, Registry};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use telemetry::{RankTelemetry, RankTrace, SpanGuard, TelemetryHub, Tracer};

struct Envelope {
    src: usize,
    tag: u64,
    /// Virtual time at which the message is available at the receiver.
    t_avail: f64,
    nbytes: u64,
    /// Sender's trace-context word ([`telemetry::pack_ctx`]); 0 when the
    /// sender is untraced. Piggybacked so the receiver can record a
    /// happens-before edge without any extra synchronization.
    ctx: u64,
    /// Sender's virtual clock at the moment of the send.
    t_sent: f64,
    payload: Box<dyn Any + Send>,
}

/// One of the two result slots of the collective rendezvous.
///
/// Collective *k* of a world uses slot *k* mod 2. A rank reaches
/// collective *k*+2 only after it left *k*+1, which completed only after
/// every rank arrived there — that is, after every rank left *k*. So the
/// slot a rank arrives at has always been reset by the last rank to leave
/// its previous user, and nobody ever waits to *enter* a collective.
struct CollSlot {
    arrived: usize,
    departed: usize,
    /// The latest arrival so far — the critical contributor, from which
    /// every departing rank records its causal edge: virtual time, rank
    /// (lowest among equal times) and trace-context word (0 = untraced).
    /// Folded in as ranks arrive; the order they arrive in cannot change it.
    t_max: f64,
    crit_rank: usize,
    crit_ctx: u64,
    inputs: Vec<Option<Box<dyn Any + Send>>>,
    /// Set by the last arrival, cleared by the last departure.
    result: Option<Arc<dyn Any + Send + Sync>>,
    out_time: f64,
}

impl CollSlot {
    fn new(size: usize) -> Self {
        Self {
            arrived: 0,
            departed: 0,
            t_max: 0.0,
            crit_rank: 0,
            crit_ctx: 0,
            inputs: (0..size).map(|_| None).collect(),
            result: None,
            out_time: 0.0,
        }
    }
}

/// Shared state of one simulated job: mailboxes, collective rendezvous,
/// machine model, and the memory registry.
pub(crate) struct World {
    size: usize,
    machine: Arc<MachineModel>,
    senders: Vec<Sender<Envelope>>,
    receivers: Mutex<Vec<Option<Receiver<Envelope>>>>,
    coll: Mutex<[CollSlot; 2]>,
    registry: Registry,
    /// Every blocking point below parks through it, and sends and
    /// completed collectives post targeted wakeups.
    sched: Arc<EventSched>,
}

impl World {
    /// Build a world of `size` ranks over `machine`, sharing `registry` for
    /// memory accounting, driven by `sched`.
    pub fn new(
        size: usize,
        machine: MachineModel,
        registry: Registry,
        sched: Arc<EventSched>,
    ) -> Arc<Self> {
        assert!(size > 0, "a world needs at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        Arc::new(Self {
            size,
            machine: Arc::new(machine),
            senders,
            receivers: Mutex::new(receivers),
            coll: Mutex::new([CollSlot::new(size), CollSlot::new(size)]),
            registry,
            sched,
        })
    }

    /// Create the communicator handle for `rank`. Each rank may be attached
    /// exactly once.
    ///
    /// # Panics
    /// Panics if `rank` is out of range or already attached.
    pub fn attach(self: &Arc<Self>, rank: usize) -> Comm {
        let rx = lock(&self.receivers)[rank]
            .take()
            .unwrap_or_else(|| panic!("rank {rank} attached twice"));
        Comm {
            world: Arc::clone(self),
            rank,
            rx,
            stash: Vec::new(),
            coll_seq: 0,
            clock: Clock::new(),
            stats: CommStats::default(),
            tracer: Tracer::disabled(),
            time_cell: None,
            telemetry: RankTelemetry::default(),
        }
    }
}

/// Per-rank communicator handle. Owned and used by exactly one thread.
pub struct Comm {
    world: Arc<World>,
    rank: usize,
    rx: Receiver<Envelope>,
    stash: Vec<Envelope>,
    /// Collectives this rank has entered; its parity picks the
    /// rendezvous slot (see [`CollSlot`]).
    coll_seq: usize,
    clock: Clock,
    stats: CommStats,
    tracer: Tracer,
    /// Published copy of `clock.now()` (f64 bits) the tracer reads span
    /// stamps from; `None` until tracing is enabled.
    time_cell: Option<Arc<AtomicU64>>,
    /// Rank-scoped handle onto the run's telemetry hub; the disabled
    /// default makes every instrument a no-op.
    telemetry: RankTelemetry,
}

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// The machine model this job runs on.
    pub fn machine(&self) -> &MachineModel {
        &self.world.machine
    }

    /// Current virtual time on this rank.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Per-rank operation counters.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Memory accountant for a subsystem on this rank, named
    /// `rank<id>/<subsystem>` in the shared registry.
    pub fn accountant(&self, subsystem: &str) -> Accountant {
        self.world
            .registry
            .accountant(&format!("rank{}/{}", self.rank, subsystem))
    }

    /// The job-wide memory registry.
    pub fn registry(&self) -> &Registry {
        &self.world.registry
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Publish the clock to the tracer's time cell. Called after every
    /// clock mutation so open spans always see the current virtual time.
    fn tick(&self) {
        if let Some(cell) = &self.time_cell {
            cell.store(self.clock.now().to_bits(), Ordering::Relaxed);
        }
    }

    /// Turn on span recording against this rank's virtual clock. `pid`
    /// groups tracks in exported traces (0 = simulation world, 1 =
    /// endpoint world of an in-transit run).
    pub fn enable_tracing(&mut self, pid: u32) {
        let cell = Arc::new(AtomicU64::new(self.clock.now().to_bits()));
        self.tracer = Tracer::virtual_clock(pid, self.rank, Arc::clone(&cell));
        self.time_cell = Some(cell);
    }

    /// This rank's tracer (disabled unless [`Comm::enable_tracing`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Open a named span stamped with this rank's virtual clock. The
    /// guard holds no borrow of the communicator, so `&mut self` methods
    /// may be called while it is live. No-op when tracing is disabled.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.tracer.span(name)
    }

    /// Close any open spans and return everything recorded, or `None`
    /// when tracing is disabled.
    pub fn take_trace(&mut self) -> Option<RankTrace> {
        self.tick();
        self.tracer.take()
    }

    /// This rank's current trace-context word (0 when tracing is
    /// disabled) — piggybacked on outgoing transport wire frames so
    /// cross-world receivers can record causal edges.
    pub fn trace_ctx(&self) -> u64 {
        self.tracer.ctx_word()
    }

    /// Record a happens-before edge observed by this rank as a receiver
    /// of an external (cross-world) payload. `src` is the sender's
    /// context word as carried on the wire; no-op when it is 0 or when
    /// tracing is disabled. Never touches the clock — call before any
    /// `advance_to(t_ready)`.
    pub fn trace_edge(&self, src: u64, t_send: f64, t_ready: f64, kind: telemetry::EdgeKind) {
        if src != 0 {
            self.tracer
                .record_edge(src, t_send, t_ready, self.clock.now(), kind);
        }
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Scope this rank's instruments onto `hub` (`rank<r>/...` names for
    /// pid 0, `endpoint<r>/...` for any other pid). Telemetry never
    /// advances the clock, so enabling it cannot perturb a run's virtual
    /// timings.
    pub fn enable_telemetry(&mut self, hub: &TelemetryHub, pid: u32) {
        self.telemetry = RankTelemetry::new(hub, pid, self.rank);
    }

    /// This rank's telemetry handle (disabled — all instruments no-ops —
    /// unless [`Comm::enable_telemetry`] ran).
    pub fn telemetry(&self) -> &RankTelemetry {
        &self.telemetry
    }

    /// Record a structured telemetry event stamped with this rank's
    /// current virtual time. No-op when telemetry is disabled.
    pub fn telemetry_event(
        &self,
        kind: telemetry::EventKind,
        step: Option<u64>,
        detail: impl Into<String>,
    ) {
        self.telemetry.event(self.clock.now(), kind, step, detail);
    }

    // ------------------------------------------------------------------
    // Virtual-time charging
    // ------------------------------------------------------------------

    /// Advance this rank's clock by a raw duration.
    pub fn advance(&mut self, seconds: f64) {
        self.clock.advance(seconds);
        self.tick();
    }

    /// Advance this rank's clock to absolute virtual time `t` (no-op when
    /// the clock is already at or past `t` — virtual time never rewinds).
    ///
    /// This is how overlapped (pipelined) execution charges `max(a, b)`
    /// instead of `a + b`: both sides advance to the same barrier time.
    pub fn advance_to(&mut self, t: f64) {
        let now = self.clock.now();
        if t > now {
            self.clock.advance(t - now);
        }
        self.tick();
    }

    /// Charge a GPU kernel (roofline of flops and device-memory bytes).
    pub fn compute_gpu(&mut self, flops: f64, bytes: f64) {
        let t = self.world.machine.gpu_kernel_time(flops, bytes);
        self.stats.time_gpu_compute += t;
        self.clock.advance(t);
        self.tick();
    }

    /// Charge host-side compute (VTK conversion, rendering, marshaling).
    pub fn compute_host(&mut self, flops: f64, bytes: f64) {
        let t = self.world.machine.host_compute_time(flops, bytes);
        self.stats.time_host_compute += t;
        self.clock.advance(t);
        self.tick();
    }

    /// Charge a device→host copy of `bytes`.
    pub fn d2h(&mut self, bytes: u64) {
        let t = self.world.machine.d2h_time(bytes);
        self.stats.bytes_d2h += bytes;
        self.stats.time_xfer += t;
        self.clock.advance(t);
        self.tick();
    }

    /// Charge a filesystem write of `bytes` with `concurrent_writers` ranks
    /// writing simultaneously (bandwidth sharing per the FS model).
    pub fn fs_write(&mut self, bytes: u64, concurrent_writers: usize) {
        let t = self
            .world
            .machine
            .filesystem
            .write_time(bytes, concurrent_writers);
        self.stats.bytes_written_fs += bytes;
        self.stats.files_written += 1;
        self.stats.time_io += t;
        self.clock.advance(t);
        self.tick();
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send `value` (`nbytes` on the wire) to `dest` with `tag`. Eager and
    /// non-blocking, like a small MPI_Send.
    pub fn send<T: Send + 'static>(&mut self, dest: usize, tag: u64, value: T, nbytes: u64) {
        assert!(dest < self.world.size, "send to out-of-range rank {dest}");
        let t_sent = self.clock.now();
        let t_avail = t_sent + self.world.machine.network.p2p_time(nbytes);
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += nbytes;
        let env = Envelope {
            src: self.rank,
            tag,
            t_avail,
            nbytes,
            ctx: self.tracer.ctx_word(),
            t_sent,
            payload: Box::new(value),
        };
        // Receiver ends only drop after all senders are done (runner joins
        // threads before dropping the world), so send cannot fail unless the
        // world is poisoned — in which case unwinding is correct anyway.
        self.world.senders[dest]
            .send(env)
            .expect("mailbox closed: world torn down while sending");
        // Make the destination runnable if it is parked in a recv. The
        // sender keeps its run token.
        self.world.sched.notify_message(dest);
    }

    /// Convenience: send a `Vec<f64>` with its true wire size.
    pub fn send_f64s(&mut self, dest: usize, tag: u64, values: Vec<f64>) {
        let nbytes = (values.len() * std::mem::size_of::<f64>()) as u64;
        self.send(dest, tag, values, nbytes);
    }

    /// Blocking receive of a message from `src` with `tag`.
    ///
    /// # Panics
    /// Panics if the matching message's payload is not a `T`, or if the
    /// world is poisoned while waiting.
    pub fn recv<T: Send + 'static>(&mut self, src: usize, tag: u64) -> T {
        let env = self.wait_matching(|e| e.src == src && e.tag == tag);
        self.finish_recv(env)
    }

    fn drain_channel(&mut self) {
        while let Ok(env) = self.rx.try_recv() {
            self.stash.push(env);
        }
    }

    fn wait_matching(&mut self, pred: impl Fn(&Envelope) -> bool) -> Envelope {
        if let Some(i) = self.stash.iter().position(&pred) {
            return self.stash.remove(i);
        }
        // Drain the mailbox, re-check, and park until a sender posts a
        // wakeup. No polling — the scheduler resumes this rank only when a
        // message has arrived (or the world poisons/deadlocks).
        loop {
            self.drain_channel();
            if let Some(i) = self.stash.iter().position(&pred) {
                return self.stash.remove(i);
            }
            self.sched_block(WaitReason::Message);
        }
    }

    fn finish_recv<T: Send + 'static>(&mut self, env: Envelope) -> T {
        if env.ctx != 0 {
            // Record the happens-before edge before advancing: t_recv is
            // the clock at match time, so `binding` captures whether this
            // rank genuinely waited on the sender.
            self.tracer.record_edge(
                env.ctx,
                env.t_sent,
                env.t_avail,
                self.clock.now(),
                telemetry::EdgeKind::Message,
            );
        }
        let wait = env.t_avail - self.clock.now();
        if wait > 0.0 {
            self.stats.time_comm += wait;
        }
        self.clock.advance_to(env.t_avail);
        self.tick();
        self.stats.messages_received += 1;
        let src = env.src;
        let tag = env.tag;
        let _ = env.nbytes;
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!("message from rank {src} tag {tag} has unexpected payload type")
        })
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// The general collective: every rank contributes `input`, the last
    /// rank to arrive runs `combine` — exactly once per call, over the
    /// inputs in rank order whatever order the ranks arrived in — and every
    /// rank leaves with the same shared result, its clock lifted to the
    /// latest arrival plus the tree cost of `payload_bytes` per stage.
    /// `payload_bytes` must be the same on every rank (the combining rank's
    /// value is the one priced). [`Self::allreduce_vec`], [`Self::allgather`]
    /// and the other collectives are this with a fixed `combine`; a caller
    /// with its own — a sum that must not depend on arrival order, work that
    /// one rank can do for all — calls it directly.
    ///
    /// # Panics
    /// Panics if the ranks of one call disagree on `T`, or if the world is
    /// poisoned while waiting.
    pub fn reduce_with<T, R, F>(&mut self, input: T, payload_bytes: u64, combine: F) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>) -> R,
    {
        let world = &*self.world;
        let parity = self.coll_seq & 1;
        self.coll_seq += 1;
        let now = self.clock.now();
        let mut slots = lock(&world.coll);
        let slot = &mut slots[parity];
        assert!(
            slot.result.is_none(),
            "collective slot reused before its last reader left"
        );
        let latest = slot.arrived == 0
            || match now.total_cmp(&slot.t_max) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => self.rank < slot.crit_rank,
                std::cmp::Ordering::Less => false,
            };
        if latest {
            slot.t_max = now;
            slot.crit_rank = self.rank;
            slot.crit_ctx = self.tracer.ctx_word();
        }
        slot.inputs[self.rank] = Some(Box::new(input));
        slot.arrived += 1;
        if slot.arrived == world.size {
            // Last arrival combines, prices, and releases everyone.
            let inputs: Vec<T> = slot
                .inputs
                .iter_mut()
                .map(|slot| {
                    *slot
                        .take()
                        .expect("collective input missing")
                        .downcast::<T>()
                        .unwrap_or_else(|_| {
                            panic!("collective called with mismatched types across ranks")
                        })
                })
                .collect();
            slot.out_time = slot.t_max
                + world
                    .machine
                    .network
                    .collective_time(world.size, payload_bytes);
            slot.result = Some(Arc::new(combine(inputs)));
            world.sched.notify_collective(self.rank);
        } else {
            while slots[parity].result.is_none() {
                drop(slots);
                self.sched_block(WaitReason::Collective);
                slots = lock(&world.coll);
            }
        }
        let slot = &mut slots[parity];
        let result: Arc<R> = Arc::clone(slot.result.as_ref().expect("collective result missing"))
            .downcast::<R>()
            .expect("collective result type mismatch");
        let out_time = slot.out_time;
        // Causal edge from the critical contributor: the last rank to
        // arrive (lowest rank among virtual-time ties). Deterministic in
        // both sched modes because it is chosen on virtual clocks, not
        // wall clocks.
        if slot.crit_ctx != 0 {
            self.tracer.record_edge(
                slot.crit_ctx,
                slot.t_max,
                out_time,
                now,
                telemetry::EdgeKind::Collective,
            );
        }
        slot.departed += 1;
        if slot.departed == world.size {
            slot.arrived = 0;
            slot.departed = 0;
            slot.result = None;
        }
        drop(slots);
        let wait = out_time - now;
        if wait > 0.0 {
            self.stats.time_comm += wait;
        }
        self.clock.advance_to(out_time);
        self.tick();
        self.stats.collectives += 1;
        result
    }

    /// Price a collective without the rendezvous machinery — the
    /// single-rank fast path for `allreduce{,_vec}` so hot solver loops
    /// stay allocation-free (the general path boxes inputs and allocates
    /// an `Arc` result even for one rank). The time charging mirrors
    /// `reduce_with` step for step so virtual-clock output is bit-identical.
    fn charge_single_rank_collective(&mut self, payload_bytes: u64) {
        let t_max = self.clock.now();
        let out_time = t_max
            + self
                .world
                .machine
                .network
                .collective_time(self.world.size, payload_bytes);
        let wait = out_time - self.clock.now();
        if wait > 0.0 {
            self.stats.time_comm += wait;
        }
        self.clock.advance_to(out_time);
        self.tick();
        self.stats.collectives += 1;
    }

    /// Give up the run token until the scheduler grants one back.
    /// Panics when it never will — the world poisoned, or the program
    /// deadlocked (then with the scheduler's diagnostic).
    fn sched_block(&self, reason: WaitReason) {
        let s = &self.world.sched;
        if s.block(self.rank, reason, self.clock.now().to_bits()) {
            return;
        }
        if let Some(d) = s.deadlock_diag() {
            panic!("{d}");
        }
        panic!(
            "rank {} aborting {}: another rank panicked",
            self.rank,
            reason.label()
        );
    }

    /// Run `f` — which may block on something *outside* this world (an OS
    /// channel to another world, a socket, ...) — without holding a run
    /// token.
    ///
    /// Under one token (event mode) blocking on an external resource while
    /// holding it would wedge every other rank in this world (and,
    /// transitively, whichever world feeds the resource).
    pub fn external_wait<T>(&self, f: impl FnOnce() -> T) -> T {
        let s = &self.world.sched;
        s.external_begin(self.rank);
        let out = f();
        // A false return means the world poisoned while we were out; the
        // poisoning surfaces at this rank's next wait.
        let _ = s.external_end(self.rank, self.clock.now().to_bits());
        out
    }

    /// Synchronize all ranks (and their clocks) — MPI_Barrier.
    pub fn barrier(&mut self) {
        self.reduce_with((), 8, |_| ());
    }

    /// Allreduce one scalar — MPI_Allreduce on a single f64.
    pub fn allreduce(&mut self, value: f64, op: ReduceOp) -> f64 {
        if self.world.size == 1 {
            self.charge_single_rank_collective(8);
            // Same fold as the general path (identity ⊕ value) so edge
            // cases like -0.0 normalize identically.
            return op.apply(op.identity(), value);
        }
        *self.reduce_with(value, 8, move |v| op.fold(v))
    }

    /// Elementwise allreduce of a slice, in place.
    pub fn allreduce_vec(&mut self, values: &mut [f64], op: ReduceOp) {
        if self.world.size == 1 {
            self.charge_single_rank_collective((values.len() * 8) as u64);
            for v in values.iter_mut() {
                *v = op.apply(op.identity(), *v);
            }
            return;
        }
        let n = values.len();
        let input = values.to_vec();
        let result = self.reduce_with(input, (n * 8) as u64, move |contribs| {
            let mut out = vec![0.0; n];
            op.fold_vecs(&mut out, &contribs);
            out
        });
        values.copy_from_slice(&result);
    }

    /// Gather one value from every rank onto every rank — MPI_Allgather.
    pub fn allgather<T: Clone + Send + Sync + 'static>(&mut self, value: T, nbytes: u64) -> Vec<T> {
        self.reduce_with(value, nbytes, |v| v).as_ref().clone()
    }

    /// Gather one value from every rank onto `root`; other ranks get `None`.
    pub fn gather<T: Clone + Send + Sync + 'static>(
        &mut self,
        root: usize,
        value: T,
        nbytes: u64,
    ) -> Option<Vec<T>> {
        let all = self.reduce_with(value, nbytes, |v| v);
        (self.rank == root).then(|| all.as_ref().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_ranks;

    fn tiny() -> MachineModel {
        MachineModel::test_tiny()
    }

    #[test]
    fn send_recv_roundtrip_with_latency() {
        let res = run_ranks(2, tiny(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 42u64, 1000);
                0.0
            } else {
                let v = comm.recv::<u64>(0, 1);
                assert_eq!(v, 42);
                comm.now()
            }
        });
        // 1 µs latency + 1000 B / 1 GB/s = 1 µs + 1 µs = 2 µs.
        assert!((res[1] - 2.0e-6).abs() < 1e-12, "got {}", res[1]);
    }

    #[test]
    fn messages_from_same_source_and_tag_arrive_in_order() {
        let res = run_ranks(2, tiny(), |comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.send(1, 5, i, 4);
                }
                vec![]
            } else {
                (0..100).map(|_| comm.recv::<u32>(0, 5)).collect::<Vec<_>>()
            }
        });
        assert_eq!(res[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn tags_demultiplex_out_of_order_receives() {
        let res = run_ranks(2, tiny(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, "first".to_string(), 5);
                comm.send(1, 20, "second".to_string(), 6);
                (String::new(), String::new())
            } else {
                // Receive tag 20 before tag 10 — the stash must hold tag 10.
                let b = comm.recv::<String>(0, 20);
                let a = comm.recv::<String>(0, 10);
                (a, b)
            }
        });
        assert_eq!(res[1], ("first".to_string(), "second".to_string()));
    }

    #[test]
    fn allreduce_sum_and_max() {
        let res = run_ranks(5, tiny(), |comm| {
            let s = comm.allreduce(comm.rank() as f64, ReduceOp::Sum);
            let m = comm.allreduce(comm.rank() as f64, ReduceOp::Max);
            (s, m)
        });
        for (s, m) in res {
            assert_eq!(s, 10.0);
            assert_eq!(m, 4.0);
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let res = run_ranks(3, tiny(), |comm| {
            let mut v = vec![comm.rank() as f64, 10.0 * comm.rank() as f64];
            comm.allreduce_vec(&mut v, ReduceOp::Sum);
            v
        });
        for v in res {
            assert_eq!(v, vec![3.0, 30.0]);
        }
    }

    #[test]
    fn reduce_with_combines_once_per_call_in_rank_order() {
        use crate::exec::{with_mode, SchedMode};
        use std::sync::atomic::AtomicUsize;
        const CALLS: usize = 40;
        for mode in [SchedMode::Thread, SchedMode::Event] {
            for ranks in [1usize, 2, 5] {
                let combines = Arc::new(AtomicUsize::new(0));
                let counter = Arc::clone(&combines);
                let res = with_mode(mode, || {
                    run_ranks(ranks, tiny(), move |comm| {
                        (0..CALLS)
                            .map(|call| {
                                // Stagger the virtual clocks so the event
                                // scheduler varies who arrives last.
                                comm.advance(((comm.rank() + call) % 3) as f64 * 1e-6);
                                let counter = Arc::clone(&counter);
                                let folded = comm.reduce_with(
                                    (comm.rank() + call) as u64,
                                    8,
                                    move |inputs: Vec<u64>| {
                                        counter.fetch_add(1, Ordering::SeqCst);
                                        // Not commutative: only rank order gives this value.
                                        inputs.iter().fold(7u64, |acc, &v| acc * 31 + v)
                                    },
                                );
                                *folded
                            })
                            .collect::<Vec<u64>>()
                    })
                });
                let expected: Vec<u64> = (0..CALLS)
                    .map(|call| (0..ranks).fold(7u64, |acc, r| acc * 31 + (r + call) as u64))
                    .collect();
                for got in &res {
                    assert_eq!(got, &expected, "{ranks} ranks, {}", mode.label());
                }
                assert_eq!(combines.load(Ordering::SeqCst), CALLS, "{ranks} ranks");
            }
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        let res = run_ranks(4, tiny(), |comm| comm.allgather(comm.rank() * 10, 8));
        for v in res {
            assert_eq!(v, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn gather_only_root_receives() {
        let res = run_ranks(3, tiny(), |comm| comm.gather(1, comm.rank(), 8));
        assert!(res[0].is_none());
        assert_eq!(res[1], Some(vec![0, 1, 2]));
        assert!(res[2].is_none());
    }

    #[test]
    fn collective_syncs_clocks_to_slowest_rank() {
        let res = run_ranks(4, tiny(), |comm| {
            // Rank 3 does 3 virtual seconds of compute before the barrier.
            if comm.rank() == 3 {
                comm.advance(3.0);
            }
            comm.barrier();
            comm.now()
        });
        for t in &res {
            assert!(*t >= 3.0, "barrier must lift everyone to the slowest rank");
            assert!((*t - res[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn repeated_collectives_reuse_slot_correctly() {
        let res = run_ranks(3, tiny(), |comm| {
            let mut acc = 0.0;
            for i in 0..50 {
                acc += comm.allreduce(i as f64, ReduceOp::Sum);
            }
            acc
        });
        let expected: f64 = (0..50).map(|i| 3.0 * i as f64).sum();
        for v in res {
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn stats_count_traffic() {
        let res = run_ranks(2, tiny(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, 1u32, 400);
                comm.barrier();
                (
                    comm.stats().messages_sent,
                    comm.stats().bytes_sent,
                    comm.stats().collectives,
                )
            } else {
                let _ = comm.recv::<u32>(0, 0);
                comm.barrier();
                (
                    comm.stats().messages_received,
                    comm.stats().bytes_sent,
                    comm.stats().collectives,
                )
            }
        });
        assert_eq!(res[0], (1, 400, 1));
        assert_eq!(res[1], (1, 0, 1));
    }

    #[test]
    fn fs_write_and_d2h_charge_time_and_bytes() {
        let res = run_ranks(1, tiny(), |comm| {
            comm.d2h(100_000_000); // 1 s at 100 MB/s (+latency)
            comm.fs_write(250_000_000, 1); // 1 s at the 250 MB/s stream cap
            (
                comm.now(),
                comm.stats().bytes_d2h,
                comm.stats().bytes_written_fs,
            )
        });
        let (t, d2h, fsw) = res[0];
        assert!(t > 2.0 && t < 2.01, "got {t}");
        assert_eq!(d2h, 100_000_000);
        assert_eq!(fsw, 250_000_000);
    }

    #[test]
    fn accountants_are_per_rank_namespaced() {
        let reg = Registry::new();
        let reg2 = reg.clone();
        crate::runner::run_ranks_with_registry(2, tiny(), reg2, |comm| {
            comm.accountant("solver")
                .charge_raw(100 * (comm.rank() as u64 + 1));
        });
        let snap = reg.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(reg.accountant("rank0/solver").current(), 100);
        assert_eq!(reg.accountant("rank1/solver").current(), 200);
    }

    #[test]
    fn single_rank_world_collectives_are_trivial() {
        let res = run_ranks(1, tiny(), |comm| {
            comm.barrier();
            comm.allreduce(5.0, ReduceOp::Sum)
        });
        assert_eq!(res[0], 5.0);
    }
}
