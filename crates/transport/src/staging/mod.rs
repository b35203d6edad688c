//! The staging tier: one writer stream fanned out to N consumer sessions.
//!
//! The SST engine pairs each writer group with exactly one reader, so only
//! one analysis could ever watch a run. [`StagingService`] generalizes the
//! reader side into a small server: it drains an [`SstReader`] like the
//! endpoint does, but instead of driving one fixed analysis it
//!
//! * **parks** every delivered step to the BP file engine (the same
//!   `producer_*.bp4l` files the degradation ladder writes), making the
//!   stream replayable;
//! * **renders** each step once per *distinct* session spec through a
//!   [`FrameCache`] — N consumers asking for the same (step, camera,
//!   colormap) cost one rasterization and N−1 cache hits;
//! * **fans out** the encoded frames to every open consumer session under
//!   per-session credit back-pressure (a slow consumer stalls only
//!   itself; a dead one is detached after a bounded wait);
//! * **catches up late joiners** by replaying the parked BP files through
//!   the same cache before live frames resume.
//!
//! Every session attaches over TCP ([`StagingService::listen_consumers`] +
//! [`ConsumerClient::connect`], a loopback listener when the consumers
//! share the process), using the protocol in [`protocol`]. All
//! potentially blocking waits on sockets and channels run under
//! `Comm::external_wait`, so the service works in both `NEK_SCHED_MODE`s,
//! and none polls: a stalled session's credit is awaited to one
//! `CREDIT_WAIT` deadline, an attach signals a condvar.

pub mod live;
pub mod protocol;

pub use live::FollowClient;
pub use protocol::{DownMsg, FrameMsg, SessionSpec, TelemetryMsg};

use crate::engine::SstReader;
use crate::file_engine::{BpFileReader, BpFileWriter};
use commsim::Comm;
use meshdata::MultiBlock;
use render::pipeline::{FilterKind, RenderPass};
use render::{Colormap, FrameCache, RenderPipeline, RenderScratch};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the service will wait (real time) for a stalled session to
/// replenish credits before detaching it.
const CREDIT_WAIT: Duration = Duration::from_secs(10);

/// Per-session fan-out accounting, reported and fed into `staging/*`
/// telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Session id (attach order).
    pub id: usize,
    /// Frames delivered to this consumer.
    pub frames_sent: u64,
    /// Encoded PNG bytes delivered.
    pub bytes_sent: u64,
    /// Frames served from the staging cache.
    pub cache_hits: u64,
    /// Times the service blocked waiting for this session's credits.
    pub credit_stalls: u64,
    /// Frames replayed from the parked BP files at join time.
    pub catchup_steps: u64,
    /// True when the session was detached (stalled past the credit bound
    /// or its link died) rather than running to `End`.
    pub detached: bool,
}

/// Outcome of a [`StagingService::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct StagingReport {
    /// Steps drained from the writer stream.
    pub steps: u64,
    /// Steps parked to the BP file engine (per producer appends summed).
    pub parked_appends: u64,
    /// Frame-cache hits across all sessions (live + catch-up).
    pub cache_hits: u64,
    /// Frame-cache misses (actual rasterizations).
    pub cache_misses: u64,
    /// Wire frames lost to mid-frame connection deaths.
    pub short_reads: u64,
    /// Payload bytes drained off the writer wire.
    pub bytes_received: u64,
    /// Per-session accounting, attach order.
    pub sessions: Vec<SessionStats>,
    /// Virtual time when the stream finished.
    pub finish_time: f64,
}

impl StagingReport {
    /// Total frames fanned out across sessions.
    pub fn frames_sent(&self) -> u64 {
        self.sessions.iter().map(|s| s.frames_sent).sum()
    }

    /// Cache hit rate over all lookups, 0.0 when nothing rendered.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

struct Session {
    pipeline: RenderPipeline,
    down: TcpStream,
    credit_rx: Receiver<u32>,
    credits: i64,
    stats: SessionStats,
    open: bool,
}

struct PendingSession {
    spec: SessionSpec,
    credits: u32,
    down: TcpStream,
    credit_rx: Receiver<u32>,
}

/// Cloneable view of the sessions a service has taken in; safe to hand
/// to other threads (the TCP accept loop uses one internally).
#[derive(Clone)]
pub struct StagingHandle {
    joiners: Sender<PendingSession>,
    /// Sessions attached so far, signalled on every attach.
    attached: Arc<(Mutex<usize>, Condvar)>,
}

impl StagingHandle {
    /// Sessions attached through this handle (admitted or pending).
    pub fn attached(&self) -> usize {
        *self.attached.0.lock().unwrap()
    }

    /// Wait until at least `n` sessions are attached; false if they are
    /// not within `timeout`. A session connected before the stream starts
    /// rides it from the first step once this returns true; one attached
    /// later catches up from the parked files.
    pub fn wait_attached(&self, n: usize, timeout: Duration) -> bool {
        let (count, attached) = &*self.attached;
        let guard = count.lock().unwrap();
        let (guard, _) = attached
            .wait_timeout_while(guard, timeout, |count| *count < n)
            .unwrap();
        *guard >= n
    }
}

/// Consumer-side handle on one staging session: receive frames, grant
/// credits.
pub struct ConsumerClient {
    stream: TcpStream,
}

impl ConsumerClient {
    /// Open a TCP consumer session against a staging service's consumer
    /// listener.
    ///
    /// # Errors
    /// Socket connect/write failures.
    pub fn connect(addr: &str, spec: &SessionSpec, credits: u32) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        protocol::write_hello(&mut stream, spec, credits, false)?;
        Ok(Self { stream })
    }

    /// Grant `n` more frame credits to the service.
    ///
    /// # Errors
    /// Write failures.
    pub fn grant(&mut self, n: u32) -> std::io::Result<()> {
        protocol::write_credit(&mut self.stream, n)
    }

    /// Wait up to `timeout` for the next frame. `Ok(None)` is the end of
    /// the stream (explicit `End` or a closed link).
    ///
    /// # Errors
    /// Wire/protocol failures; a plain timeout is
    /// `ErrorKind::TimedOut`.
    pub fn next_frame(&mut self, timeout: Duration) -> std::io::Result<Option<FrameMsg>> {
        self.stream.set_read_timeout(Some(timeout)).ok();
        match protocol::read_down(&mut self.stream)? {
            Some(DownMsg::Frame(f)) => Ok(Some(f)),
            // Telemetry never targets a frame session.
            Some(DownMsg::Telemetry(_) | DownMsg::End) | None => Ok(None),
        }
    }

    /// Drain the whole stream, granting one credit back per frame.
    ///
    /// # Errors
    /// Wire/protocol failures or `timeout` expiring between frames.
    pub fn drain(&mut self, timeout: Duration) -> std::io::Result<Vec<FrameMsg>> {
        let mut frames = Vec::new();
        while let Some(f) = self.next_frame(timeout)? {
            frames.push(f);
            // Best effort: the service may already have sent End and gone
            // away, which is not a drain failure.
            let _ = self.grant(1);
        }
        Ok(frames)
    }
}

/// The multi-client staging service (see module docs).
pub struct StagingService {
    reader: SstReader,
    n_sim_ranks: usize,
    park_dir: PathBuf,
    cache: FrameCache,
    scratch: RenderScratch,
    sessions: Vec<Session>,
    joiners: Receiver<PendingSession>,
    handle: StagingHandle,
    parkers: BTreeMap<usize, BpFileWriter>,
    parked_steps: Vec<u64>,
    next_session: usize,
    live_hub: Option<telemetry::TelemetryHub>,
    live_stop: Arc<std::sync::atomic::AtomicBool>,
}

impl StagingService {
    /// Wrap `reader` into a staging service parking steps under
    /// `park_dir` and caching up to `cache_frames` rendered frame sets.
    pub fn new(
        reader: SstReader,
        n_sim_ranks: usize,
        park_dir: impl Into<PathBuf>,
        cache_frames: usize,
    ) -> Self {
        let (joiners_tx, joiners_rx) = channel();
        Self {
            reader,
            n_sim_ranks,
            park_dir: park_dir.into(),
            cache: FrameCache::new(cache_frames),
            scratch: RenderScratch::default(),
            sessions: Vec::new(),
            joiners: joiners_rx,
            handle: StagingHandle {
                joiners: joiners_tx,
                attached: Arc::default(),
            },
            parkers: BTreeMap::new(),
            parked_steps: Vec::new(),
            next_session: 0,
            live_hub: None,
            live_stop: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }

    /// The attach point for consumer sessions (cloneable, thread-safe).
    pub fn handle(&self) -> StagingHandle {
        self.handle.clone()
    }

    /// Serve live telemetry follow sessions off the consumer listener:
    /// a `Hello` with the follow flag set streams delta snapshots of
    /// `hub` (see [`live`]) instead of opening a frame session. Must be
    /// called before [`StagingService::listen_consumers`].
    pub fn set_live_hub(&mut self, hub: telemetry::TelemetryHub) {
        self.live_hub = Some(hub);
    }

    /// Accept TCP consumer sessions off `listener`. Each connection sends
    /// a `Hello` and is served on a thread of its own (see
    /// [`serve_connection`]), which then forwards the session's credit
    /// grants. A `Hello` with the follow flag set opens a live telemetry
    /// session instead (only honored after
    /// [`StagingService::set_live_hub`]; otherwise the connection gets an
    /// immediate `End`).
    pub fn listen_consumers(&self, listener: TcpListener) {
        let handle = self.handle();
        let live = self
            .live_hub
            .clone()
            .map(|hub| (hub, self.live_stop.clone()));
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                serve_connection(stream, live.clone(), handle.clone());
            }
        });
    }

    fn build_pipeline(spec: &SessionSpec) -> RenderPipeline {
        RenderPipeline {
            width: spec.width,
            height: spec.height,
            passes: vec![RenderPass {
                name: format!("{}_staged", spec.array),
                filter: FilterKind::Slice {
                    origin: [0.5, 0.5, 0.5],
                    normal: [0.0, 1.0, 0.0],
                },
                array: spec.array.clone(),
                colormap: Colormap::by_name(&spec.colormap),
                range: None,
                camera_dir: spec.camera_dir,
            }],
            legend: false,
        }
    }

    /// Admit every pending joiner: build its pipeline, replay the parked
    /// steps through the cache, then it rides the live stream.
    fn admit_joiners(&mut self, comm: &mut Comm) -> insitu::Result<()> {
        while let Ok(pending) = self.joiners.try_recv() {
            let id = self.next_session;
            self.next_session += 1;
            let mut session = Session {
                pipeline: Self::build_pipeline(&pending.spec),
                down: pending.down,
                credit_rx: pending.credit_rx,
                credits: i64::from(pending.credits),
                stats: SessionStats {
                    id,
                    frames_sent: 0,
                    bytes_sent: 0,
                    cache_hits: 0,
                    credit_stalls: 0,
                    catchup_steps: 0,
                    detached: false,
                },
                open: true,
            };
            comm.telemetry().counter("staging/sessions").inc();
            self.catch_up(comm, &mut session)?;
            self.sessions.push(session);
        }
        Ok(())
    }

    /// Replay every parked step to one late-joining session, through the
    /// frame cache (a spec another session already watches replays as
    /// pure cache hits).
    fn catch_up(&mut self, comm: &mut Comm, session: &mut Session) -> insitu::Result<()> {
        if self.parked_steps.is_empty() {
            return Ok(());
        }
        let _span = comm.span("staging/catchup");
        // Merge the parked per-producer files back into per-step datasets.
        let mut steps: BTreeMap<u64, MultiBlock> = BTreeMap::new();
        for producer in self.parkers.keys() {
            let path = self.park_dir.join(format!("producer_{producer:05}.bp4l"));
            let failed = |what: &str, e: &dyn std::fmt::Display| {
                insitu::Error::Analysis(format!("catch-up {what} {path:?}: {e}"))
            };
            let mut file = BpFileReader::open(&path).map_err(|e| failed("open", &e))?;
            while let Some(data) = file.next_step().map_err(|e| failed("read", &e))? {
                let mb = steps
                    .entry(data.step)
                    .or_insert_with(|| MultiBlock::new(self.n_sim_ranks));
                data.place_into(mb).map_err(|e| failed("read", &e))?;
            }
        }
        for (step, mb) in steps {
            let (images, hit) =
                session
                    .pipeline
                    .execute_cached(comm, &mb, step, &mut self.scratch, &mut self.cache);
            session.stats.catchup_steps += 1;
            comm.telemetry().counter("staging/catchup_steps").inc();
            Self::deliver(comm, session, step, hit, &images);
        }
        Ok(())
    }

    /// Send one step's images to a session, blocking (bounded) on its
    /// credits. A session that stalls past [`CREDIT_WAIT`] or whose link
    /// died is detached.
    fn deliver(
        comm: &mut Comm,
        session: &mut Session,
        step: u64,
        cache_hit: bool,
        images: &[render::pipeline::RenderedImage],
    ) {
        if !session.open {
            return;
        }
        for img in images {
            let Some(png) = &img.png else { continue };
            // Top up from the session's credit feed without blocking.
            while let Ok(n) = session.credit_rx.try_recv() {
                session.credits += i64::from(n);
            }
            if session.credits <= 0 {
                session.stats.credit_stalls += 1;
                comm.telemetry().counter("staging/credit_stalls").inc();
                let deadline = Instant::now() + CREDIT_WAIT;
                while session.credits <= 0 {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let credit_rx = &session.credit_rx;
                    let Ok(n) = comm.external_wait(|| credit_rx.recv_timeout(left)) else {
                        // Stalled past the bound, or the link died.
                        session.open = false;
                        session.stats.detached = true;
                        return;
                    };
                    session.credits += i64::from(n);
                }
            }
            session.credits -= 1;
            let nbytes = png.len() as u64;
            let stream = &mut session.down;
            stream.set_write_timeout(Some(CREDIT_WAIT)).ok();
            if comm
                .external_wait(|| protocol::write_frame(stream, step, cache_hit, &img.name, png))
                .is_err()
            {
                session.open = false;
                session.stats.detached = true;
                return;
            }
            session.stats.frames_sent += 1;
            session.stats.bytes_sent += nbytes;
            if cache_hit {
                session.stats.cache_hits += 1;
            }
            let telemetry = comm.telemetry();
            telemetry.counter("staging/frames_sent").inc();
            telemetry.counter("staging/bytes_sent").add(nbytes);
        }
    }

    /// Park one delivered packet's payload to its producer's BP file.
    fn park(&mut self, comm: &mut Comm, producer: usize, payload: &[u8]) -> insitu::Result<u64> {
        if !self.parkers.contains_key(&producer) {
            std::fs::create_dir_all(&self.park_dir)
                .map_err(|e| insitu::Error::Analysis(format!("park mkdir: {e}")))?;
            let writer = BpFileWriter::create(&self.park_dir, producer)
                .map_err(|e| insitu::Error::Analysis(format!("park create: {e}")))?;
            self.parkers.insert(producer, writer);
        }
        let writer = self.parkers.get_mut(&producer).expect("just inserted");
        writer
            .append(comm, payload)
            .map_err(|e| insitu::Error::Analysis(format!("park append: {e}")))?;
        Ok(1)
    }

    /// Drain the writer stream to completion, fanning every step out to
    /// the attached consumer sessions. Single-rank by construction: the
    /// service is one OS-level server, not a collective.
    ///
    /// # Errors
    /// Park/unmarshal failures; fatal transport errors.
    ///
    /// # Panics
    /// If `comm` has more than one rank.
    pub fn run(&mut self, comm: &mut Comm) -> insitu::Result<StagingReport> {
        assert_eq!(
            comm.size(),
            1,
            "StagingService::run is a single-rank server loop"
        );
        let mut steps = 0u64;
        let mut parked_appends = 0u64;
        loop {
            self.admit_joiners(comm)?;
            let recv = comm.span("transport/recv");
            let delivery = match self.reader.recv_step(comm) {
                Ok(Some(delivery)) => delivery,
                Ok(None) => break,
                Err(e) if !e.is_fatal() => {
                    drop(recv);
                    continue;
                }
                Err(e) => {
                    return Err(insitu::Error::Analysis(format!("staging transport: {e}")))
                }
            };
            drop(recv);
            steps += 1;
            if delivery.packets.is_empty() {
                continue;
            }
            // Park first — the catch-up source must contain every step the
            // live sessions saw — then rebuild and render.
            for packet in &delivery.packets {
                parked_appends += self.park(comm, packet.producer, &packet.payload)?;
            }
            self.parked_steps.push(delivery.step);
            let mb = delivery.unmarshal(comm, self.n_sim_ranks)?;
            let _render = comm.span("staging/fanout");
            for i in 0..self.sessions.len() {
                if !self.sessions[i].open {
                    continue;
                }
                let session = &mut self.sessions[i];
                let (images, hit) = session.pipeline.execute_cached(
                    comm,
                    &mb,
                    delivery.step,
                    &mut self.scratch,
                    &mut self.cache,
                );
                Self::deliver(comm, session, delivery.step, hit, &images);
            }
        }
        // Stream over: admit any last-second joiners (they get a pure
        // catch-up replay), then close every session.
        self.admit_joiners(comm)?;
        for session in &mut self.sessions {
            if !session.open {
                continue;
            }
            let stream = &mut session.down;
            stream.set_write_timeout(Some(CREDIT_WAIT)).ok();
            let sent = comm
                .external_wait(|| protocol::write_down(stream, &DownMsg::End))
                .is_ok();
            // Half-close only: the client is still granting credits for
            // frames it has buffered, and `forward_credits` keeps the read
            // side open until the client hangs up.
            stream.shutdown(std::net::Shutdown::Write).ok();
            if !sent {
                session.stats.detached = true;
            }
            session.open = false;
        }
        let telemetry = comm.telemetry();
        if telemetry.enabled() {
            telemetry.counter("staging/steps").add(steps);
            for session in &self.sessions {
                let scope = format!("staging/session{}", session.stats.id);
                telemetry
                    .counter(&format!("{scope}/frames_sent"))
                    .add(session.stats.frames_sent);
                telemetry
                    .counter(&format!("{scope}/bytes_sent"))
                    .add(session.stats.bytes_sent);
                telemetry
                    .counter(&format!("{scope}/cache_hits"))
                    .add(session.stats.cache_hits);
                telemetry
                    .counter(&format!("{scope}/catchup_steps"))
                    .add(session.stats.catchup_steps);
            }
            telemetry
                .counter("staging/cache_misses")
                .add(self.cache.misses());
        }
        // Follow sessions get an explicit `End` at their next tick.
        self.live_stop.store(true, Ordering::SeqCst);
        Ok(StagingReport {
            steps,
            parked_appends,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            short_reads: self.reader.short_reads(),
            bytes_received: self.reader.bytes_received(),
            sessions: self.sessions.iter().map(|s| s.stats.clone()).collect(),
            finish_time: comm.now(),
        })
    }
}

/// How long a fresh connection may take to deliver its `Hello`.
const HELLO_WAIT: Duration = Duration::from_secs(5);

/// Serve one accepted connection on a thread of its own, so a peer that
/// connects and says nothing holds up nobody else: read its `Hello` under
/// [`HELLO_WAIT`], then stream telemetry (`live`) or attach a frame session
/// (`handle`), whichever the `Hello` asks for — or answer `End` to a
/// follow request when the service has no live hub.
fn serve_connection(
    mut stream: TcpStream,
    live: Option<(telemetry::TelemetryHub, Arc<std::sync::atomic::AtomicBool>)>,
    handle: StagingHandle,
) {
    std::thread::spawn(move || {
        stream.set_nonblocking(false).ok();
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(HELLO_WAIT)).ok();
        let Ok((spec, credits, follow)) = protocol::read_hello(&mut stream) else {
            return;
        };
        stream.set_read_timeout(None).ok();
        match (follow, live) {
            (true, Some((hub, stop))) => live::serve_follow(stream, &hub, &stop),
            (false, _) => {
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let (credit_tx, credit_rx) = sync_channel(1024);
                let pending = PendingSession {
                    spec,
                    credits,
                    down: stream,
                    credit_rx,
                };
                if handle.joiners.send(pending).is_ok() {
                    let (count, attached) = &*handle.attached;
                    *count.lock().unwrap() += 1;
                    attached.notify_all();
                    forward_credits(read_half, credit_tx);
                }
            }
            (true, None) => {
                let _ = protocol::write_down(&mut stream, &DownMsg::End);
            }
        }
    });
}

/// Forward one TCP session's credit grants to the service until the
/// client hangs up. Once the service is gone the grants are read and
/// discarded instead: closing a socket with unread inbound data makes the
/// kernel answer RST, and the RST throws away the frames and `End` the
/// client has not read yet. A client that never hangs up is cut off
/// [`CREDIT_WAIT`] after the service went away.
fn forward_credits(mut stream: TcpStream, tx: SyncSender<u32>) {
    let mut cutoff: Option<Instant> = None;
    loop {
        if let Some(cutoff) = cutoff {
            let left = cutoff.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            stream.set_read_timeout(Some(left)).ok();
        }
        match protocol::read_credit(&mut stream) {
            Ok(Some(n)) => {
                if cutoff.is_none() && tx.send(n).is_err() {
                    cutoff = Some(Instant::now() + CREDIT_WAIT);
                }
            }
            Ok(None) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StagingNetwork;
    use crate::link::StagingLink;
    use commsim::{run_ranks_with_state, MachineModel};
    use insitu::AnalysisAdaptor as _;
    use meshdata::{CellType, DataArray, UnstructuredGrid};

    fn block(rank: usize, nranks: usize) -> MultiBlock {
        let z0 = rank as f64;
        let mut g = UnstructuredGrid::new();
        for z in [z0, z0 + 1.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.0] {
                    g.add_point([x, y, z]);
                }
            }
        }
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64(
            "pressure",
            (0..8).map(|i| i as f64 + 100.0 * rank as f64).collect(),
        ))
        .unwrap();
        MultiBlock::local(rank, nranks, g)
    }

    fn drive_writers(writers: Vec<crate::SstWriter>, steps: u64) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), writers, move |comm, writer| {
                let mut analysis =
                    crate::TransportAnalysis::new("mesh", vec!["pressure".into()], writer);
                for step in 1..=steps {
                    let mut da = insitu::data_adaptor::StaticDataAdaptor::new(
                        "mesh",
                        block(comm.rank(), comm.size()),
                        step as f64 * 0.1,
                        step,
                    );
                    analysis.execute(comm, &mut da).unwrap();
                }
            });
        })
    }

    /// Serve consumer sessions on a fresh loopback port of `service`.
    fn consumer_addr(service: &StagingService) -> String {
        let (listener, port) = crate::wire::loopback_listener().unwrap();
        service.listen_consumers(listener);
        format!("127.0.0.1:{port}")
    }

    /// Open a session with `credits` initial credits and wait until it is
    /// the service's `nth` attached one.
    fn attach(service: &StagingService, addr: &str, credits: u32, nth: usize) -> ConsumerClient {
        let client = ConsumerClient::connect(addr, &SessionSpec::default(), credits).unwrap();
        assert!(service.handle().wait_attached(nth, Duration::from_secs(10)));
        client
    }

    #[test]
    fn three_identical_sessions_share_one_render() {
        let dir = tempdir("staging_share");
        let (writers, mut readers) = StagingNetwork::build(2, 1, 16, StagingLink::test_tiny());
        let service = StagingService::new(readers.remove(0), 2, &dir, 16);
        let addr = consumer_addr(&service);
        // Enough initial credits that sequential draining below never
        // stalls the service (credit-stall behavior is tested separately).
        let mut clients: Vec<ConsumerClient> =
            (1..=3).map(|n| attach(&service, &addr, 8, n)).collect();
        let sim = drive_writers(writers, 3);
        let svc = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
                s.run(comm).unwrap()
            })
            .remove(0)
        });
        let mut collected = Vec::new();
        for client in &mut clients {
            collected.push(client.drain(Duration::from_secs(20)).unwrap());
        }
        sim.join().unwrap();
        let report = svc.join().unwrap();
        assert_eq!(report.steps, 3);
        for frames in &collected {
            assert_eq!(frames.len(), 3, "each session sees every step");
            assert!(frames.iter().all(|f| !f.png.is_empty()));
        }
        // 3 steps rendered once each; the other two sessions hit.
        assert_eq!(report.cache_misses, 3);
        assert_eq!(report.cache_hits, 6);
        assert!(report.cache_hit_rate() > 0.6);
        // Identical specs ⇒ byte-identical frames (only the hit flag may
        // differ — the first session renders, the others hit the cache).
        let pixels = |frames: &[FrameMsg]| {
            frames
                .iter()
                .map(|f| (f.step, f.name.clone(), f.png.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pixels(&collected[0]), pixels(&collected[1]));
        assert_eq!(pixels(&collected[1]), pixels(&collected[2]));
        assert!(collected[1].iter().all(|f| f.cache_hit));
        assert!(collected[2].iter().all(|f| f.cache_hit));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn late_joiner_catches_up_from_parked_files() {
        let dir = tempdir("staging_late");
        let (writers, mut readers) = StagingNetwork::build(1, 1, 16, StagingLink::test_tiny());
        let service = StagingService::new(readers.remove(0), 1, &dir, 16);
        let addr = consumer_addr(&service);
        // One credit: after the first frame the service waits on `early`,
        // which holds the stream until `late` is attached.
        let mut early = attach(&service, &addr, 1, 1);
        let handle = service.handle();
        let hub = telemetry::TelemetryHub::default();
        let service_hub = hub.clone();
        let sim = drive_writers(writers, 4);
        let svc = std::thread::spawn(move || {
            run_ranks_with_state(
                MachineModel::test_tiny(),
                vec![service],
                move |comm, mut s| {
                    comm.enable_telemetry(&service_hub, 0);
                    s.run(comm).unwrap()
                },
            )
            .remove(0)
        });
        let first = early.next_frame(Duration::from_secs(20)).unwrap().unwrap();
        assert_eq!(first.step, 1);
        // A session is admitted at the first step boundary after it
        // attaches. Join only once the service has parked step 2 and stalls
        // on `early`'s credit, so `late` is admitted after step 2.
        while hub.counter_sum("staging/credit_stalls") < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut late = ConsumerClient::connect(&addr, &SessionSpec::default(), 8).unwrap();
        assert!(handle.wait_attached(2, Duration::from_secs(10)));
        early.grant(8).unwrap();
        let mut late_frames = vec![];
        while let Some(f) = late.next_frame(Duration::from_secs(20)).unwrap() {
            late_frames.push(f);
            // The service may already be gone after its last frame.
            let _ = late.grant(1);
        }
        let mut early_frames = vec![first];
        early_frames.extend(early.drain(Duration::from_secs(20)).unwrap());
        sim.join().unwrap();
        let report = svc.join().unwrap();
        // Both sessions saw the full step sequence, the late one partly
        // via catch-up replay.
        let steps: Vec<u64> = late_frames.iter().map(|f| f.step).collect();
        assert_eq!(steps, vec![1, 2, 3, 4]);
        assert_eq!(early_frames.len(), 4);
        // Admitted at the boundary after step 2, which it replays.
        let late_stats = &report.sessions[1];
        assert_eq!(late_stats.catchup_steps, 2);
        // Catch-up steps the early session already rendered are hits.
        assert!(report.cache_hits >= late_stats.catchup_steps);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follow_session_on_consumer_port_streams_and_detaches_unharmed() {
        let dir = tempdir("staging_follow");
        let (writers, mut readers) = StagingNetwork::build(1, 1, 16, StagingLink::test_tiny());
        let hub = telemetry::TelemetryHub::default();
        let mut service = StagingService::new(readers.remove(0), 1, &dir, 16);
        service.set_live_hub(hub.clone());
        let addr = consumer_addr(&service);
        let mut frames_client = attach(&service, &addr, 8, 1);

        // Attach a follow session on the same port before the stream starts.
        let mut follow = live::FollowClient::connect(&addr).unwrap();
        let first = follow
            .next_snapshot(Duration::from_secs(10))
            .unwrap()
            .expect("initial snapshot");
        assert_eq!(first.seq, 0);
        let doc = telemetry::json::parse(&first.json).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(live::SNAPSHOT_SCHEMA)
        );
        assert_eq!(doc.get("full"), Some(&telemetry::json::Value::Bool(true)));

        let sim = drive_writers(writers, 3);
        let hub2 = hub.clone();
        let svc = std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), vec![service], move |comm, mut s| {
                comm.enable_telemetry(&hub2, 0);
                s.run(comm).unwrap()
            })
            .remove(0)
        });

        // Watch until a delta carries the staging counters (they appear
        // only once the service runs, after the full snapshot), then
        // detach mid-run by dropping the client.
        let mut saw_metrics = false;
        for _ in 0..100 {
            let Some(snap) = follow.next_snapshot(Duration::from_secs(10)).unwrap() else {
                break;
            };
            let doc = telemetry::json::parse(&snap.json).unwrap();
            // Service-side counters are rank-scoped on the hub.
            if doc
                .get("metrics")
                .unwrap()
                .get("rank0/staging/frames_sent")
                .is_some()
            {
                assert!(snap.seq > 0, "counters arrived in the full snapshot");
                assert_eq!(doc.get("full"), Some(&telemetry::json::Value::Bool(false)));
                saw_metrics = true;
                break;
            }
        }
        drop(follow);

        let frames = frames_client.drain(Duration::from_secs(20)).unwrap();
        sim.join().unwrap();
        let report = svc.join().unwrap();
        assert!(saw_metrics, "live snapshots never showed staging counters");
        // The frame session is untouched by the follow attach/detach.
        assert_eq!(report.steps, 3);
        assert_eq!(frames.len(), 3);
        assert!(!report.sessions[0].detached);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nek_{}_{}_{}",
            tag,
            std::process::id(),
            std::thread::current().name().unwrap_or("t").replace("::", "_")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
