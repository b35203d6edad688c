//! The §4.1 in situ experiment: pb146 under {Original, Checkpointing,
//! Catalyst} configurations.
//!
//! * **Original** — the solver runs bare: no SENSEI, no I/O.
//! * **Checkpointing** — NekRS-style raw field dumps every `trigger_every`
//!   steps ([`crate::checkpoint::FldCheckpointer`]).
//! * **Catalyst** — the SENSEI bridge drives the Catalyst-style rendering
//!   adaptor every `trigger_every` steps: device→host staging, VTK-model
//!   conversion, two images rendered and written per trigger.
//!
//! One driver runs them all. Every solver rank runs the same loop — step,
//! and on a trigger publish a [`FieldSnapshot`] into a sink — and one
//! `Consumer` (checkpoint writer or SENSEI bridge) eats the snapshots.
//! [`ExecMode`] only decides where that consumer sits:
//!
//! * **Synchronous** — the sink *is* the consumer, called inline before
//!   the next timestep, like classic tightly-coupled in situ.
//! * **Pipelined** — the sink is a link to the same consumer running in a
//!   second rank world on pool threads. The solver publishes a snapshot
//!   and immediately resumes stepping while the previous snapshot is
//!   rendered/written concurrently. Snapshots are owned and immutable, so
//!   no copy-on-publish beyond the single device→host staging is needed.
//!   A credit window ([`commsim::CreditWindow`], the one the staging
//!   writers use) bounds the pipeline at [`PIPELINE_DEPTH`] frames in
//!   flight: the producer's k-th frame waits for the consumer to finish
//!   frame k − [`PIPELINE_DEPTH`], and its virtual clock advances to that
//!   completion time, so per-step cost converges to `max(solve, consume)`
//!   + publish instead of `solve + consume`.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::adaptor::{NekGeometry, SnapshotAdaptor};
use crate::checkpoint::FldCheckpointer;
use crate::metrics::RunMetrics;
use crate::workflow::sampler::{catalyst_element, manifest, Run, SolverRank};
use commsim::{
    credit_window, Comm, CreditRelease, CreditWindow, FaultPlan, MachineModel, SchedMode,
};
use insitu::Bridge;
use render::CatalystAnalysis;
use sem::cases::CaseSetup;
use sem::snapshot::{FieldSnapshot, SnapshotPool, SnapshotSpec};
use telemetry::{EventKind, Manifest, RankTrace};

/// Maximum unacknowledged snapshots per rank in pipelined mode (double
/// buffering: one being consumed, one queued).
pub const PIPELINE_DEPTH: usize = 2;

/// The three §4.1 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InSituMode {
    /// Bare solver (the baseline the paper derives by subtraction).
    Original,
    /// NekRS built-in checkpointing.
    Checkpointing,
    /// SENSEI + Catalyst-style rendering.
    Catalyst,
}

impl InSituMode {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            InSituMode::Original => "Original",
            InSituMode::Checkpointing => "Checkpointing",
            InSituMode::Catalyst => "Catalyst",
        }
    }
}

/// How consumers run relative to the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Consumers run inline between timesteps.
    #[default]
    Synchronous,
    /// Consumers run concurrently on a second rank world, overlapped
    /// with the next timesteps (bounded by [`PIPELINE_DEPTH`]).
    Pipelined,
}

impl ExecMode {
    /// Display label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Synchronous => "synchronous",
            ExecMode::Pipelined => "pipelined",
        }
    }
}

/// One run configuration.
#[derive(Clone)]
pub struct InSituConfig {
    /// The workload (typically [`sem::cases::pb146`]).
    pub case: CaseSetup,
    /// MPI ranks (one GPU each in the paper's mapping).
    pub ranks: usize,
    /// Timesteps to run.
    pub steps: usize,
    /// Checkpoint / in situ trigger period in steps.
    pub trigger_every: u64,
    /// Testbed model (Polaris for §4.1).
    pub machine: MachineModel,
    /// Rendered image size.
    pub image_size: (usize, usize),
    /// Mode under test.
    pub mode: InSituMode,
    /// Synchronous or pipelined consumer execution.
    pub exec: ExecMode,
    /// How rank worlds are driven: free-running threads or the
    /// discrete-event scheduler (`NEK_SCHED_MODE`). Virtual-time output
    /// is bitwise identical either way; event mode scales to far larger
    /// worlds. Applies to every world this run spawns (producer and
    /// pipelined consumer alike).
    pub sched: SchedMode,
    /// Injected consumer faults (stalls slow the pipelined consumer;
    /// ignored by the synchronous paths).
    pub faults: FaultPlan,
    /// Write real artifacts here when set (None → cost model only).
    pub output_dir: Option<std::path::PathBuf>,
    /// Record per-phase spans against the virtual clock (see
    /// `telemetry::Tracer`).
    pub trace: bool,
    /// Run with the telemetry bus attached: typed metrics, the per-step
    /// flight recorder, and the structured event log, collected into
    /// [`InSituReport::run_report`]. Telemetry observes the virtual clock
    /// but never advances it, so solver output is bitwise identical with
    /// this on or off.
    pub telemetry: bool,
    /// Inert; see [`RecoveryOptions`].
    pub recovery: RecoveryOptions,
}

/// A fieldless stand-in: no run restarts from a checkpoint. The type and
/// the two `recovery` config fields stay because the benchmark names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryOptions {}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct InSituReport {
    /// Which configuration ran.
    pub mode: InSituMode,
    /// Which execution mode ran.
    pub exec: ExecMode,
    /// Rank count.
    pub ranks: usize,
    /// Steps run.
    pub steps: usize,
    /// Timing + traffic + memory.
    pub metrics: RunMetrics,
    /// Total bytes written to the filesystem (storage economy).
    pub bytes_written: u64,
    /// Files written (images for Catalyst, dumps for Checkpointing).
    pub files_written: u64,
    /// Raw per-rank span traces (empty unless `trace` was set);
    /// [`telemetry::PhaseBreakdown::from_traces`] attributes them to phases.
    pub traces: Vec<RankTrace>,
    /// Largest single-rank peak of the `snapshot-pool` accountant: the
    /// staging-buffer high-water mark. A synchronous rank holds one
    /// snapshot's worth of buffers; a pipelined rank that published at
    /// least [`PIPELINE_DEPTH`] frames holds exactly [`PIPELINE_DEPTH`]
    /// snapshots' worth.
    pub snapshot_pool_rank_peak: u64,
    /// The unified telemetry artifact (None unless `telemetry` was set):
    /// per-step flight-recorder series, metric registry dump, structured
    /// event log, and memory watermarks.
    pub run_report: Option<telemetry::RunReport>,
}

impl InSituReport {
    /// Memory breakdown shortcut.
    pub fn memory(&self) -> telemetry::MemorySummary {
        self.metrics.memory
    }
}

/// What eats published snapshots: the same object whether it is called
/// inline on the solver rank or from the consumer world's frame loop.
enum Consumer {
    Checkpoint(FldCheckpointer),
    Catalyst(Bridge),
}

impl Consumer {
    /// `cfg.mode`'s consumer. The Catalyst runtime configuration is
    /// generated here: a pressure slice plus a velocity contour, every
    /// `trigger_every` steps.
    fn new(comm: &mut Comm, cfg: &InSituConfig) -> Self {
        match cfg.mode {
            InSituMode::Original => unreachable!("original mode has no consumer"),
            InSituMode::Checkpointing => {
                Consumer::Checkpoint(FldCheckpointer::new(comm, cfg.output_dir.clone()))
            }
            InSituMode::Catalyst => {
                let analysis = catalyst_element(
                    cfg.trigger_every.max(1),
                    cfg.image_size,
                    "pressure",
                    cfg.output_dir.as_deref(),
                    "\n            ",
                );
                let xml = format!("<sensei>\n  {analysis}\n</sensei>");
                Consumer::Catalyst(
                    Bridge::initialize(comm, &xml, &[CatalystAnalysis::factory()])
                        .expect("valid generated config"),
                )
            }
        }
    }

    /// Consume one step. Takes the snapshot by value so this consumer's
    /// hold on it ends when this returns.
    fn consume(
        &mut self,
        comm: &mut Comm,
        step: u64,
        snapshot: Arc<FieldSnapshot>,
        geometry: Option<Arc<NekGeometry>>,
    ) {
        match self {
            Consumer::Checkpoint(chk) => {
                let _sp = comm.span("insitu/checkpoint");
                chk.write(comm, &snapshot);
            }
            Consumer::Catalyst(bridge) => {
                let geometry = geometry.expect("catalyst frames carry geometry");
                let mut da = SnapshotAdaptor::new(comm, snapshot, geometry);
                bridge.update(comm, step, &mut da).expect("in situ update");
            }
        }
    }

    fn finish(self, comm: &mut Comm) {
        if let Consumer::Catalyst(mut bridge) = self {
            bridge.finalize(comm).expect("finalize");
        }
    }
}

/// One published step on its way to the consumer.
struct PublishedFrame {
    snapshot: Arc<FieldSnapshot>,
    /// Catalyst frames carry the (immutable, shared) geometry.
    geometry: Option<Arc<NekGeometry>>,
    step: u64,
    /// Producer virtual time at publish; the consumer clock advances to
    /// this before consuming (the data cannot arrive before it exists).
    published_at: f64,
}

enum ToConsumer {
    Frame(PublishedFrame),
    /// No more frames; `at` is the producer's final virtual time.
    Done {
        at: f64,
    },
}

/// Producer-side endpoint of one rank's pipeline.
struct ProducerLink {
    frames: mpsc::Sender<ToConsumer>,
    window: CreditWindow,
    /// The snapshot of every frame whose credit has not come back, oldest
    /// first. Holding them until then returns their pooled buffers on this
    /// thread at a fixed point of its program, so the pool's size never
    /// depends on when the consumer world ran.
    in_flight: VecDeque<Arc<FieldSnapshot>>,
    /// Cumulative virtual seconds this producer spent blocked on a full
    /// pipeline (the flight recorder diffs this per step).
    backpressure_wait: f64,
}

impl ProducerLink {
    /// Take a pipeline slot; the wait is charged to the virtual clock (see
    /// [`CreditWindow::reserve`]). With the window full, the slot is the
    /// oldest frame's, and its snapshot drops here.
    fn reserve(&mut self, comm: &mut Comm) {
        self.backpressure_wait += self
            .window
            .reserve(comm, "snapshot/backpressure", Duration::MAX)
            .expect("consumer rank alive");
        if self.in_flight.len() == PIPELINE_DEPTH {
            self.in_flight.pop_front();
        }
    }

    fn send(&mut self, frame: PublishedFrame) {
        self.in_flight.push_back(Arc::clone(&frame.snapshot));
        self.frames
            .send(ToConsumer::Frame(frame))
            .expect("consumer rank alive");
    }

    /// Wait for the outstanding frames (without advancing the solver
    /// clock — the simulation is finished; the consumer world finishes on
    /// its own time) and signal end of stream. Their snapshots drop with
    /// `self`.
    fn finish(mut self, comm: &Comm) {
        self.window.finish(comm);
        let _ = self.frames.send(ToConsumer::Done { at: comm.now() });
    }
}

/// Consumer-side endpoint of one rank's pipeline.
struct ConsumerLink {
    frames: mpsc::Receiver<ToConsumer>,
    credits: CreditRelease,
}

fn pipeline_links(ranks: usize) -> (Vec<ProducerLink>, Vec<ConsumerLink>) {
    (0..ranks)
        .map(|_| {
            let (frame_tx, frame_rx) = mpsc::channel();
            let (window, credits) = credit_window(PIPELINE_DEPTH);
            let producer = ProducerLink {
                frames: frame_tx,
                window,
                in_flight: VecDeque::with_capacity(PIPELINE_DEPTH),
                backpressure_wait: 0.0,
            };
            let consumer = ConsumerLink {
                frames: frame_rx,
                credits,
            };
            (producer, consumer)
        })
        .unzip()
}

/// Advance the consumer clock to the frame's publish time, then apply any
/// injected stall for this (rank, step).
fn consumer_arrive(comm: &mut Comm, faults: &FaultPlan, frame: &PublishedFrame) {
    {
        // Idle time waiting for the producer to publish: attributed so
        // traced pipelined runs account for every consumer second.
        let _sp = comm.span("insitu/wait");
        comm.advance_to(frame.published_at);
    }
    let stall = faults.stall_secs(comm.rank(), frame.step);
    if stall > 0.0 {
        // Stamped at the stall's onset: event time = when the fault bit.
        comm.telemetry_event(
            EventKind::FaultInjected,
            Some(frame.step),
            format!("consumer stall {stall}s"),
        );
        let _sp = comm.span("insitu/stall");
        comm.advance(stall);
    }
}

/// One rank of the pipelined consumer world: the [`Consumer`] behind its
/// link, crediting the producer after every frame.
fn consumer_rank(comm: &mut Comm, cfg: &InSituConfig, link: ConsumerLink) -> Option<RankTrace> {
    let mut consumer = Consumer::new(comm, cfg);
    // Frames come from the producer world: wait off-token (see
    // `Comm::external_wait`) so an event-scheduled producer can progress.
    while let Ok(msg) = comm.external_wait(|| link.frames.recv()) {
        match msg {
            ToConsumer::Frame(frame) => {
                consumer_arrive(comm, &cfg.faults, &frame);
                // The consumer's hold on the snapshot ends before the slot
                // is credited; the producer's ends when it takes the slot.
                consumer.consume(comm, frame.step, frame.snapshot, frame.geometry);
                link.credits.release(comm.now());
            }
            ToConsumer::Done { at } => {
                {
                    let _sp = comm.span("insitu/wait");
                    comm.advance_to(at);
                }
                consumer.finish(comm);
                break;
            }
        }
    }
    comm.take_trace()
}

/// Where a solver rank's published snapshots go.
enum Sink {
    /// Synchronous: straight into the consumer, on this rank's clock.
    Inline(Consumer),
    /// Pipelined: to the consumer world, bounded by credits.
    Linked(ProducerLink),
}

/// One rank of the solver world, in every mode: step, and on a trigger
/// publish into the sink. `link` is this rank's pipeline endpoint when
/// the run is pipelined.
fn solver_rank(
    comm: &mut Comm,
    cfg: &InSituConfig,
    link: Option<ProducerLink>,
) -> Option<RankTrace> {
    let (mut rank, ()) = SolverRank::open(comm, &cfg.case, |_| ());
    // Original publishes nothing: no staging pool, no sink, no geometry.
    let pool = (cfg.mode != InSituMode::Original)
        .then(|| SnapshotPool::new(comm.accountant("snapshot-pool")));
    let mut sink = pool.is_some().then(|| match link {
        Some(link) => Sink::Linked(link),
        None => Sink::Inline(Consumer::new(comm, cfg)),
    });
    // `run_insitu` generates the consumer configuration itself, so the
    // producer knows the requested fields up front: checkpoints dump
    // everything, the Catalyst config is a pressure slice + velocity
    // contour over the (immutable, shared) geometry.
    let spec = SnapshotSpec {
        pressure: true,
        velocity: true,
        temperature: cfg.mode == InSituMode::Checkpointing,
        ..SnapshotSpec::default()
    };
    let geometry = (cfg.mode == InSituMode::Catalyst)
        .then(|| Arc::new(NekGeometry::build(comm, &rank.solver)));
    let trigger = cfg.trigger_every.max(1);
    rank.run(comm, cfg.steps, pool.as_ref(), |comm, solver, step| {
        let (Some(sink), Some(pool)) = (&mut sink, &pool) else {
            return 0.0;
        };
        if step.is_multiple_of(trigger) {
            if let Sink::Linked(link) = sink {
                link.reserve(comm);
            }
            let snapshot = solver.publish_snapshot(comm, &spec, pool);
            match sink {
                Sink::Inline(consumer) => consumer.consume(comm, step, snapshot, geometry.clone()),
                Sink::Linked(link) => link.send(PublishedFrame {
                    snapshot,
                    geometry: geometry.clone(),
                    step,
                    published_at: comm.now(),
                }),
            }
        }
        match sink {
            Sink::Inline(_) => 0.0,
            Sink::Linked(link) => link.backpressure_wait,
        }
    });
    match sink {
        Some(Sink::Inline(consumer)) => consumer.finish(comm),
        Some(Sink::Linked(link)) => link.finish(comm),
        None => {}
    }
    rank.close(comm, |_| {})
}

/// Execute one configuration and collect the paper's §4.1 metrics.
pub fn run_insitu(cfg: &InSituConfig) -> InSituReport {
    let run = Run::open(cfg, cfg.trace, cfg.telemetry);
    // Original has no consumer to overlap with: its pipelined run is the
    // synchronous run.
    let pipelined = cfg.exec == ExecMode::Pipelined && cfg.mode != InSituMode::Original;
    // Pipelined: the consumer world shares the solver world's registry:
    // the analysis threads live on the same node as the rank they serve,
    // so their memory charges land on the same per-rank accountants.
    let (producers, consumers) = pipeline_links(if pipelined { cfg.ranks } else { 0 });
    let mut producers = producers.into_iter();
    let links = (0..cfg.ranks).map(|_| producers.next()).collect();
    let (solver, consumer) = run.launch(
        cfg.sched,
        &cfg.machine,
        (run.registry.clone(), links, solver_rank),
        (run.registry.clone(), consumers, consumer_rank),
    );
    let snapshot_pool_rank_peak = (run.registry.snapshot().entries.iter())
        .filter(|(name, _, _)| name.ends_with("/snapshot-pool"))
        .map(|(_, _, peak)| *peak)
        .max()
        .unwrap_or(0);
    let (metrics, traces, run_report) = run.close(
        solver.into_iter().chain(consumer).collect(),
        Vec::new(),
        Manifest {
            workflow: "insitu".into(),
            mode: cfg.mode.label().to_ascii_lowercase(),
            exec: cfg.exec.label().into(),
            wire: "none".into(),
            ranks: cfg.ranks,
            // The pipelined consumer world mirrors the sim world 1:1.
            endpoint_ranks: if pipelined { cfg.ranks } else { 0 },
            pipeline_depth: if pipelined { PIPELINE_DEPTH } else { 0 },
            ..manifest!(cfg)
        },
    );
    InSituReport {
        mode: cfg.mode,
        exec: cfg.exec,
        ranks: cfg.ranks,
        steps: cfg.steps,
        bytes_written: metrics.totals.bytes_written_fs,
        files_written: metrics.totals.files_written,
        metrics,
        traces,
        snapshot_pool_rank_peak,
        run_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem::cases::{pb146, CaseParams};

    fn tiny_config(ranks: usize, mode: InSituMode) -> InSituConfig {
        let mut params = CaseParams::pb146_default();
        params.elems = [2, 2, 4];
        params.order = 2;
        InSituConfig {
            case: pb146(&params, 4),
            ranks,
            steps: 4,
            trigger_every: 2,
            machine: MachineModel::polaris(),
            image_size: (64, 48),
            mode,
            exec: ExecMode::Synchronous,
            sched: SchedMode::default(),
            faults: FaultPlan::none(),
            output_dir: None,
            trace: false,
            telemetry: false,
            recovery: RecoveryOptions::default(),
        }
    }

    #[test]
    fn original_is_fastest_and_writes_nothing() {
        let orig = run_insitu(&tiny_config(2, InSituMode::Original));
        let chk = run_insitu(&tiny_config(2, InSituMode::Checkpointing));
        let cat = run_insitu(&tiny_config(2, InSituMode::Catalyst));
        assert_eq!(orig.bytes_written, 0);
        assert_eq!(orig.files_written, 0);
        assert!(chk.bytes_written > 0);
        assert!(cat.bytes_written > 0);
        assert!(
            orig.metrics.time_to_solution < chk.metrics.time_to_solution,
            "checkpointing must cost time"
        );
        assert!(
            orig.metrics.time_to_solution < cat.metrics.time_to_solution,
            "in situ must cost time"
        );
    }

    #[test]
    fn catalyst_writes_far_less_storage_than_checkpointing() {
        // Needs a realistically sized mesh: the storage gap grows with
        // resolution (dump size ∝ nodes, image size ≈ constant).
        let mut cfg = tiny_config(2, InSituMode::Checkpointing);
        let mut params = CaseParams::pb146_default(); // [6,6,12] order 3
        params.elems = [4, 4, 6];
        cfg.case = pb146(&params, 20);
        cfg.steps = 2;
        cfg.trigger_every = 1;
        let chk = run_insitu(&cfg);
        cfg.mode = InSituMode::Catalyst;
        let cat = run_insitu(&cfg);
        assert!(
            chk.bytes_written > 3 * cat.bytes_written,
            "checkpoint {} vs catalyst {}",
            chk.bytes_written,
            cat.bytes_written
        );
    }

    #[test]
    fn catalyst_uses_more_host_memory_than_checkpointing() {
        let chk = run_insitu(&tiny_config(2, InSituMode::Checkpointing));
        let cat = run_insitu(&tiny_config(2, InSituMode::Catalyst));
        assert!(
            cat.memory().host_aggregate_peak > chk.memory().host_aggregate_peak,
            "catalyst {} vs checkpointing {}",
            cat.memory().host_aggregate_peak,
            chk.memory().host_aggregate_peak
        );
    }

    #[test]
    fn catalyst_stages_d2h_traffic() {
        let cat = run_insitu(&tiny_config(2, InSituMode::Catalyst));
        let orig = run_insitu(&tiny_config(2, InSituMode::Original));
        assert!(cat.metrics.totals.bytes_d2h > orig.metrics.totals.bytes_d2h);
    }

    #[test]
    fn pipelined_overlaps_consumers_with_stepping() {
        for mode in [InSituMode::Checkpointing, InSituMode::Catalyst] {
            let mut cfg = tiny_config(2, mode);
            cfg.exec = ExecMode::Synchronous;
            let sync = run_insitu(&cfg);
            cfg.exec = ExecMode::Pipelined;
            let piped = run_insitu(&cfg);
            assert!(
                piped.metrics.time_to_solution < sync.metrics.time_to_solution,
                "{}: pipelined {} vs synchronous {}",
                mode.label(),
                piped.metrics.time_to_solution,
                sync.metrics.time_to_solution
            );
            assert_eq!(piped.bytes_written, sync.bytes_written);
            assert_eq!(piped.files_written, sync.files_written);
            assert_eq!(
                piped.metrics.totals.bytes_d2h,
                sync.metrics.totals.bytes_d2h,
                "{}: publish stages the same bytes in both modes",
                mode.label()
            );
        }
    }

    #[test]
    fn pipelined_tolerates_consumer_stall_without_reordering() {
        use commsim::ConsumerStall;
        let mut cfg = tiny_config(2, InSituMode::Checkpointing);
        cfg.exec = ExecMode::Pipelined;
        cfg.steps = 8;
        cfg.faults = FaultPlan {
            stalls: vec![ConsumerStall {
                endpoint: 0,
                at_step: 2,
                seconds: 50.0,
            }],
            ..FaultPlan::none()
        };
        let stalled = run_insitu(&cfg);
        cfg.faults = FaultPlan::none();
        let clean = run_insitu(&cfg);
        // Every dump still lands, in order, despite the stall...
        assert_eq!(stalled.files_written, clean.files_written);
        assert_eq!(stalled.bytes_written, clean.bytes_written);
        // ...and the stall shows up as lost time (backpressure propagates
        // it to the producer once the pipeline fills).
        assert!(
            stalled.metrics.time_to_solution > clean.metrics.time_to_solution,
            "stalled {} vs clean {}",
            stalled.metrics.time_to_solution,
            clean.metrics.time_to_solution
        );
    }
}
