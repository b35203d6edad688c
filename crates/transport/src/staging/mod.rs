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
//!   the same cache before live frames resume; a joiner whose replay fails
//!   is detached alone, and the live sessions still run to `End`.
//!
//! Every session attaches over TCP ([`StagingService::listen_consumers`] +
//! [`ConsumerClient::connect`], a loopback listener when the consumers
//! share the process), using the protocol in [`protocol`]. All
//! potentially blocking waits on sockets and channels run under
//! `Comm::external_wait`, so the service works in both `NEK_SCHED_MODE`s,
//! and none polls: a stalled session's credit is awaited to one
//! `CREDIT_WAIT` deadline, an attach signals a condvar.

pub mod protocol;

pub use protocol::{DownMsg, FrameMsg, SessionSpec};

use crate::bp::StepData;
use crate::engine::SstReader;
use crate::file_engine::{BpFileReader, BpFileWriter};
use commsim::Comm;
use meshdata::MultiBlock;
use render::pipeline::{FilterKind, RenderPass};
use render::{Colormap, FrameCache, RenderPipeline, RenderScratch};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
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
        protocol::write_hello(&mut stream, spec, credits)?;
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
    /// the stream: the service's explicit `End`.
    ///
    /// # Errors
    /// Wire/protocol failures; a plain timeout is
    /// `ErrorKind::TimedOut`, and a link the service closed before `End`
    /// (a detached session) is `ErrorKind::UnexpectedEof`.
    pub fn next_frame(&mut self, timeout: Duration) -> std::io::Result<Option<FrameMsg>> {
        self.stream.set_read_timeout(Some(timeout)).ok();
        match protocol::read_down(&mut self.stream)? {
            Some(DownMsg::Frame(f)) => Ok(Some(f)),
            Some(DownMsg::End) => Ok(None),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "staging link closed before End",
            )),
        }
    }

    /// Drain the whole stream, granting one credit back per frame.
    ///
    /// # Errors
    /// Wire/protocol failures, a link closed before `End`, or `timeout`
    /// expiring between frames.
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
    next_session: usize,
}

impl StagingService {
    /// Wrap `reader` into a staging service parking steps under
    /// `park_dir` and caching up to `cache_frames` rendered frame sets.
    /// Caps the malloc arenas first, as the drivers do: the service's
    /// threads are not spawned yet.
    pub fn new(
        reader: SstReader,
        n_sim_ranks: usize,
        park_dir: impl Into<PathBuf>,
        cache_frames: usize,
    ) -> Self {
        memtrack::cap_malloc_arenas();
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
            next_session: 0,
        }
    }

    /// The attach point for consumer sessions (cloneable, thread-safe).
    pub fn handle(&self) -> StagingHandle {
        self.handle.clone()
    }

    /// Accept TCP consumer sessions off `listener`. Each connection sends
    /// a `Hello` and is served on a thread of its own (see
    /// [`serve_connection`]), which then forwards the session's credit
    /// grants.
    pub fn listen_consumers(&self, listener: TcpListener) {
        let handle = self.handle();
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                serve_connection(stream, handle.clone());
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
    /// steps through the cache, then it rides the live stream. A joiner
    /// whose replay fails is detached as a stalled session is, and its link
    /// closed without `End`; the first such error is returned.
    fn admit_joiners(&mut self, comm: &mut Comm) -> Option<insitu::Error> {
        let mut failure = None;
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
            if let Err(e) = self.catch_up(comm, &mut session) {
                session.open = false;
                session.stats.detached = true;
                session.down.shutdown(std::net::Shutdown::Write).ok();
                failure.get_or_insert(e);
            }
            self.sessions.push(session);
        }
        failure
    }

    /// Replay every parked step to one late-joining session, through the
    /// frame cache (a spec another session already watches replays as
    /// pure cache hits).
    ///
    /// The per-producer park files are merged by step one step at a time
    /// ([`Replay`]), so one decoded step is alive at once. That rests on
    /// each file holding its steps in delivery order, which
    /// [`SstReader::next_step`] makes ascending; a file whose steps go
    /// backwards fails the catch-up as a read error.
    fn catch_up(&mut self, comm: &mut Comm, session: &mut Session) -> insitu::Result<()> {
        if self.parkers.is_empty() {
            return Ok(());
        }
        let _span = comm.span("staging/catchup");
        let mut replay = Replay::open(&self.parkers, self.n_sim_ranks)?;
        while let Some((step, mb)) = replay.next_step()? {
            let (images, hit) = session.pipeline.execute_cached(
                comm,
                &mb,
                step,
                &mut self.scratch,
                &mut self.cache,
            );
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
    /// Park/unmarshal failures; fatal transport errors; a late joiner's
    /// catch-up failure, returned only after every live session got `End`.
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
        // The first late joiner's catch-up failure, returned once every
        // live session has its `End`.
        let mut catch_up_failure = None;
        let failed = |e| insitu::Error::Analysis(format!("staging transport: {e}"));
        loop {
            catch_up_failure = catch_up_failure.or(self.admit_joiners(comm));
            let Some(delivery) = self.reader.next_step(comm).map_err(failed)? else {
                break;
            };
            steps += 1;
            if delivery.packets.is_empty() {
                continue;
            }
            // Park first — the catch-up source must contain every step the
            // live sessions saw — then rebuild and render.
            for packet in &delivery.packets {
                parked_appends += self.park(comm, packet.producer, &packet.payload)?;
            }
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
        catch_up_failure = catch_up_failure.or(self.admit_joiners(comm));
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
        if let Some(e) = catch_up_failure {
            return Err(e);
        }
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

/// The park files merged back into per-step datasets, one step at a time:
/// a k-way merge by step that keeps one decoded head per file.
struct Replay {
    files: Vec<ParkFile>,
    n_sim_ranks: usize,
}

fn catch_up_error(what: &str, path: &Path, e: &dyn std::fmt::Display) -> insitu::Error {
    insitu::Error::Analysis(format!("catch-up {what} {path:?}: {e}"))
}

/// One producer's park file and the next step it holds.
struct ParkFile {
    path: PathBuf,
    reader: BpFileReader,
    head: Option<StepData>,
}

impl ParkFile {
    /// Open `path` and read its first step.
    fn open(path: PathBuf) -> insitu::Result<Self> {
        let reader = BpFileReader::open(&path).map_err(|e| catch_up_error("open", &path, &e))?;
        let mut file = Self {
            path,
            reader,
            head: None,
        };
        file.advance(0)?;
        Ok(file)
    }

    /// Read the next record into `head`. A step below `after`, the step
    /// just taken, breaks delivery order.
    fn advance(&mut self, after: u64) -> insitu::Result<()> {
        self.head = self
            .reader
            .next_step()
            .map_err(|e| catch_up_error("read", &self.path, &e))?;
        match &self.head {
            Some(head) if head.step < after => {
                let step = head.step;
                let e = format!("step {step} after step {after}");
                Err(catch_up_error("read", &self.path, &e))
            }
            _ => Ok(()),
        }
    }
}

impl Replay {
    /// Open the park files of `parkers`, in producer order, and read each
    /// one's first step.
    fn open(parkers: &BTreeMap<usize, BpFileWriter>, n_sim_ranks: usize) -> insitu::Result<Self> {
        let files = parkers
            .values()
            .map(|writer| ParkFile::open(writer.path().to_path_buf()))
            .collect::<insitu::Result<_>>()?;
        Ok(Self { files, n_sim_ranks })
    }

    /// The smallest step any file holds next, with every file's blocks of
    /// it placed in producer order (a file that repeats the step places
    /// each copy in file order); `None` once every file is read.
    fn next_step(&mut self) -> insitu::Result<Option<(u64, MultiBlock)>> {
        let Some(step) = self
            .files
            .iter()
            .filter_map(|f| f.head.as_ref().map(|h| h.step))
            .min()
        else {
            return Ok(None);
        };
        let mut mb = MultiBlock::new(self.n_sim_ranks);
        for file in &mut self.files {
            while let Some(head) = file.head.take_if(|h| h.step == step) {
                head.place_into(&mut mb)
                    .map_err(|e| catch_up_error("read", &file.path, &e))?;
                file.advance(step)?;
            }
        }
        Ok(Some((step, mb)))
    }
}

/// How long a fresh connection may take to deliver its `Hello`.
const HELLO_WAIT: Duration = Duration::from_secs(5);

/// Serve one accepted connection on a thread of its own, so a peer that
/// connects and says nothing holds up nobody else: read its `Hello` under
/// [`HELLO_WAIT`], then attach its frame session to `handle`.
fn serve_connection(mut stream: TcpStream, handle: StagingHandle) {
    std::thread::spawn(move || {
        stream.set_nonblocking(false).ok();
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(HELLO_WAIT)).ok();
        let Ok((spec, credits)) = protocol::read_hello(&mut stream) else {
            return;
        };
        stream.set_read_timeout(None).ok();
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
        while hub.counter("rank0/staging/credit_stalls").get() < 1 {
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

    /// Producer `producer`'s block of a two-producer step, stamped with the
    /// step so a block placed under the wrong step shows.
    fn stamped(producer: usize, step: u64) -> MultiBlock {
        let mut mb = block(producer, 2);
        let grid = mb.blocks[producer].as_mut().unwrap();
        grid.add_point_data(DataArray::scalars_f64("step", vec![step as f64; 8]))
            .unwrap();
        mb
    }

    /// Park `steps[p]` for each producer `p` under `dir`, as the service's
    /// own writers would.
    fn park_files(dir: &Path, steps: &[&[u64]]) -> BTreeMap<usize, BpFileWriter> {
        let (dir, steps): (PathBuf, Vec<Vec<u64>>) =
            (dir.into(), steps.iter().map(|s| s.to_vec()).collect());
        commsim::run_ranks(1, MachineModel::test_tiny(), move |comm| {
            let mut parkers = BTreeMap::new();
            for (producer, steps) in steps.iter().enumerate() {
                let mut writer = BpFileWriter::create(&dir, producer).unwrap();
                for &step in steps {
                    let mb = stamped(producer, step);
                    let payload = crate::bp::marshal_blocks(producer as u32, step, 0.1, &mb);
                    writer.append(comm, &payload).unwrap();
                }
                parkers.insert(producer, writer);
            }
            parkers
        })
        .remove(0)
    }

    /// Chop the last `n` bytes off a park file.
    fn truncate(writer: &BpFileWriter, n: usize) {
        let bytes = std::fs::read(writer.path()).unwrap();
        std::fs::write(writer.path(), &bytes[..bytes.len() - n]).unwrap();
    }

    #[test]
    fn replay_merges_park_files_by_step_with_exactly_their_blocks() {
        let dir = tempdir("staging_merge");
        let files: [&[u64]; 2] = [&[1, 2, 4], &[1, 3, 4]];
        let parkers = park_files(&dir, &files);
        let mut replay = Replay::open(&parkers, 2).unwrap();
        let mut seen = Vec::new();
        while let Some((step, mb)) = replay.next_step().unwrap() {
            let expected: Vec<Option<UnstructuredGrid>> = (0..2)
                .map(|p| {
                    files[p]
                        .contains(&step)
                        .then(|| stamped(p, step).blocks[p].take().unwrap())
                })
                .collect();
            assert_eq!(mb.blocks, expected, "step {step}");
            seen.push(step);
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_fails_on_a_truncated_or_backward_file_instead_of_reordering() {
        let dir = tempdir("staging_merge_bad");
        let parkers = park_files(&dir, &[&[1, 2, 4], &[1, 3, 4]]);
        truncate(&parkers[&0], 10);
        let mut replay = Replay::open(&parkers, 2).unwrap();
        // Step 1 is whole; producer 0's next record after step 2 is cut.
        assert_eq!(replay.next_step().unwrap().unwrap().0, 1);
        let err = replay.next_step().unwrap_err().to_string();
        assert!(err.contains("catch-up read"), "{err}");

        let backward = park_files(&dir, &[&[1, 3, 2]]);
        let mut replay = Replay::open(&backward, 2).unwrap();
        assert_eq!(replay.next_step().unwrap().unwrap().0, 1);
        let err = replay.next_step().unwrap_err().to_string();
        assert!(err.contains("catch-up read") && err.contains("step 2 after step 3"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A late joiner over a park file whose last record was cut: `run`
    /// reports the catch-up read error, not a panic, and only after the
    /// session already riding the stream got its `End`. The joiner alone
    /// is cut off: its link closes before `End`.
    #[test]
    fn run_reports_a_truncated_park_file_as_a_catch_up_read_error() {
        let dir = tempdir("staging_trunc");
        let parkers = park_files(&dir, &[&[1, 2, 4], &[1, 3, 4]]);
        truncate(&parkers[&1], 10);
        let (writers, mut readers) = StagingNetwork::build(1, 1, 16, StagingLink::test_tiny());
        drop(writers);
        let service = StagingService::new(readers.remove(0), 2, &dir, 16);
        let addr = consumer_addr(&service);
        let mut live = attach(&service, &addr, 8, 1);
        let state = vec![(service, parkers)];
        let (result, mut late) = run_ranks_with_state(
            MachineModel::test_tiny(),
            state,
            move |comm, (mut s, parked)| {
                // Admitted before anything is parked: the live session
                // has nothing to catch up on.
                assert!(s.admit_joiners(comm).is_none());
                s.parkers = parked;
                let late = attach(&s, &addr, 8, 2);
                (s.run(comm), late)
            },
        )
        .remove(0);
        let err = result.unwrap_err().to_string();
        assert!(
            err.contains("catch-up read") && err.contains("producer_00001.bp4l"),
            "{err}"
        );
        let frames = live
            .drain(Duration::from_secs(20))
            .expect("the live session reads End");
        assert!(frames.is_empty(), "no step was streamed");
        let cut = late.drain(Duration::from_secs(20)).unwrap_err();
        assert_eq!(cut.kind(), std::io::ErrorKind::UnexpectedEof, "{cut}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hellos_with_bytes_past_the_credits_attach_nothing() {
        use std::io::{Read as _, Write as _};
        let (_writers, mut readers) = StagingNetwork::build(1, 1, 16, StagingLink::test_tiny());
        let dir = tempdir("staging_stale");
        let service = StagingService::new(readers.remove(0), 1, &dir, 16);
        let addr = consumer_addr(&service);
        let mut hello = Vec::new();
        protocol::write_hello(&mut hello, &SessionSpec::default(), 4).unwrap();
        // The earlier format's follow `Hello`, then a frame `Hello` plus one byte.
        for extra in [1, 0] {
            let mut peer = TcpStream::connect(&addr).unwrap();
            peer.write_all(&protocol::tests::with_trailing(&hello, extra))
                .unwrap();
            peer.set_read_timeout(Some(Duration::from_secs(10))).ok();
            let closed = peer.read(&mut [0u8; 1]);
            assert!(matches!(closed, Ok(0)), "not refused: {closed:?}");
        }
        assert_eq!(service.handle().attached(), 0);
        attach(&service, &addr, 4, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nek_{}_{}_{}",
            tag,
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "_")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
