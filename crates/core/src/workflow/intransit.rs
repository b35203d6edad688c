//! The §4.2 in transit experiment: RBC under {No Transport, Checkpointing,
//! Catalyst} endpoint configurations with a 4:1 sim:endpoint ratio.
//!
//! Two worlds run concurrently: the simulation world (NekRS-SENSEI with
//! the ADIOS-SST-analogue transport analysis) and the endpoint world
//! (SENSEI data consumers driving either a VTU checkpoint writer or the
//! Catalyst-style renderer). The measured quantities are those of
//! Figures 5/6: mean time per timestep **on the simulation nodes**, and
//! the **per-simulation-node** memory footprint — both of which should be
//! (and are) nearly independent of the endpoint configuration, because the
//! heavy work happens on the other side of the staging link.

use crate::adaptor::{NekGeometry, SnapshotAdaptor};
use crate::metrics::{DegradationSummary, RunMetrics};
use crate::workflow::sampler::{attach_observability, collect_reports, fault_summary, SimLoop};
use crate::workflow::supervisor::RecoveryOptions;
use commsim::{
    run_ranks_with_registry, with_mode, Comm, CommStats, FaultPlan, MachineModel, PhaseBreakdown,
    RankTrace, SchedMode, TelemetryHub,
};
use insitu::Bridge;
use memtrack::Registry;
use render::CatalystAnalysis;
use sem::cases::CaseSetup;
use sem::snapshot::{SnapshotPool, SnapshotSpec};
use std::sync::{Arc, Mutex};
use transport::{
    QueuePolicy, ReportSink, SessionSpec, StagingLink, StagingNetwork, StagingReport,
    StagingService, TransportAnalysis, WireKind, WriterConfig,
};

/// What the SENSEI endpoint does with the received data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointMode {
    /// SENSEI runtime active on the simulation, no analysis enabled, no
    /// endpoint at all (the reference measurement).
    NoTransport,
    /// Endpoint writes pressure+velocity as VTU files.
    Checkpointing,
    /// Endpoint renders two images per step via the Catalyst-style
    /// pipeline.
    Catalyst,
}

impl EndpointMode {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            EndpointMode::NoTransport => "No Transport",
            EndpointMode::Checkpointing => "Checkpointing",
            EndpointMode::Catalyst => "Catalyst",
        }
    }
}

/// One in-transit run configuration.
#[derive(Clone)]
pub struct InTransitConfig {
    /// The workload (typically [`sem::cases::rbc`]).
    pub case: CaseSetup,
    /// Simulation ranks.
    pub sim_ranks: usize,
    /// Simulation:endpoint rank ratio (4 in the paper).
    pub ratio: usize,
    /// Timesteps to run.
    pub steps: usize,
    /// Transport trigger period in steps.
    pub trigger_every: u64,
    /// Testbed model (JUWELS Booster for §4.2).
    pub machine: MachineModel,
    /// Staging link parameters (UCX/TCP analogue).
    pub link: StagingLink,
    /// Staging queue bound, in packets per endpoint rank.
    pub queue_capacity: usize,
    /// Overflow policy.
    pub policy: QueuePolicy,
    /// Endpoint behavior under test.
    pub mode: EndpointMode,
    /// How the two rank worlds are driven: free-running threads or the
    /// discrete-event scheduler (`NEK_SCHED_MODE`). Bitwise-identical
    /// virtual-time output either way.
    pub sched: SchedMode,
    /// Which wire carries the staged frames between the worlds: the
    /// in-process channel engine (bitwise-identical to the original
    /// transport) or real loopback TCP sockets (`--wire tcp`).
    pub wire: WireKind,
    /// When > 0, replace the endpoint's fixed analysis with a
    /// [`StagingService`] fanning each step out to this many concurrent
    /// consumer sessions (requires a single endpoint rank). 0 keeps the
    /// classic one-consumer endpoint.
    pub staging_consumers: usize,
    /// Where the staging service parks delivered steps (late-joiner
    /// catch-up source). Defaults to a temp dir when unset.
    pub staging_dir: Option<std::path::PathBuf>,
    /// Rendered image size (Catalyst endpoint).
    pub image_size: (usize, usize),
    /// Write real artifacts here when set.
    pub output_dir: Option<std::path::PathBuf>,
    /// Seeded fault injection plan for the staging link and endpoints
    /// ([`FaultPlan::none`] for a healthy run).
    pub faults: FaultPlan,
    /// Writer retry/backoff/circuit-breaker parameters.
    pub writer_config: WriterConfig,
    /// When set, producers whose circuit breaker opens degrade to the BP
    /// file engine in this directory instead of dropping triggers.
    pub fallback_dir: Option<std::path::PathBuf>,
    /// Record per-phase spans against the virtual clock, on both the
    /// simulation and endpoint worlds (see `trace`).
    pub trace: bool,
    /// Attach the telemetry bus (metrics + flight recorder + event log)
    /// to both worlds and collect [`InTransitReport::run_report`].
    /// Endpoint-world instruments register under `endpoint<r>/` so the
    /// two worlds never collide on a name.
    pub telemetry: bool,
    /// Crash-recovery plumbing (supervised checkpoint cadence, restart
    /// point, externally owned hub); the default disables it all. See
    /// [`crate::workflow::supervisor`].
    pub recovery: RecoveryOptions,
}

/// What one in-transit run produced.
#[derive(Debug, Clone)]
pub struct InTransitReport {
    /// Which endpoint configuration ran.
    pub mode: EndpointMode,
    /// Simulation ranks.
    pub sim_ranks: usize,
    /// Endpoint ranks (0 for NoTransport).
    pub endpoint_ranks: usize,
    /// Steps run.
    pub steps: usize,
    /// Simulation-side timing/traffic/memory (Figures 5 and 6 read this).
    pub sim: RunMetrics,
    /// Per-simulation-node host memory peak: the Figure 6 quantity
    /// (max over ranks × ranks-per-node).
    pub sim_node_mem_peak: u64,
    /// Steps fully processed by the endpoint.
    pub endpoint_steps: u64,
    /// Payload bytes that crossed the staging link.
    pub endpoint_bytes_received: u64,
    /// Bytes the endpoint wrote to storage.
    pub endpoint_bytes_written: u64,
    /// Steps the endpoints processed with at least one producer missing.
    pub endpoint_partial_steps: u64,
    /// Frames the endpoints rejected on CRC mismatch.
    pub endpoint_corrupt_rejected: u64,
    /// Endpoint ranks whose scheduled crash fault fired.
    pub endpoint_crashes: usize,
    /// Per-endpoint-rank delivered step log, in delivery order — the
    /// determinism witness (same plan + seed ⇒ identical logs).
    pub endpoint_delivered: Vec<Vec<u64>>,
    /// Producer-side fault-tolerance outcome.
    pub degradation: DegradationSummary,
    /// Raw per-rank span traces, simulation world (pid 0) then endpoint
    /// world (pid 1); empty unless `trace` was set.
    pub traces: Vec<RankTrace>,
    /// Per-phase attribution of virtual wall time (None unless traced).
    pub phases: Option<PhaseBreakdown>,
    /// The unified telemetry artifact (None unless `telemetry` was set).
    pub run_report: Option<telemetry::RunReport>,
    /// Staging fan-out outcome (None unless `staging_consumers` > 0).
    pub staging: Option<StagingReport>,
}

/// What the endpoint world produced: the classic single consumer or the
/// staging fan-out service.
enum EndpointOutcome {
    Consumer(transport::EndpointReport),
    Staging(Box<StagingReport>),
}

/// Execute one in-transit configuration.
pub fn run_intransit(cfg: &InTransitConfig) -> InTransitReport {
    assert!(cfg.ratio >= 1, "ratio must be >= 1");
    memtrack::cap_malloc_arenas();
    let endpoint_ranks = match cfg.mode {
        EndpointMode::NoTransport => 0,
        _ => (cfg.sim_ranks / cfg.ratio).max(1),
    };
    if cfg.staging_consumers > 0 {
        assert_eq!(
            endpoint_ranks, 1,
            "the staging service is a single-rank server; pick ratio >= sim_ranks"
        );
    }

    let registry = Registry::new();
    let hub = cfg
        .telemetry
        .then(|| cfg.recovery.hub.clone().unwrap_or_default());
    // The rank closures outlive this borrow ('static worlds).
    let shared = Arc::new(cfg.clone());

    // Endpoint world (when transporting).
    let (writers, endpoint_handle) = if endpoint_ranks > 0 {
        let (writers, readers) = StagingNetwork::build_wired(
            cfg.sim_ranks,
            endpoint_ranks,
            cfg.queue_capacity,
            cfg.link,
            cfg.policy,
            cfg.faults.clone(),
            cfg.writer_config,
            cfg.wire,
        )
        .expect("wire setup");
        let (cfg, hub) = (Arc::clone(&shared), hub.clone());
        let handle = std::thread::spawn(move || {
            with_mode(cfg.sched, || {
                commsim::run_ranks_with_state(cfg.machine.clone(), readers, move |comm, reader| {
                    endpoint_rank(comm, &cfg, hub.as_ref(), reader)
                })
            })
        });
        (writers.into_iter().map(Some).collect(), Some(handle))
    } else {
        (Vec::new(), None)
    };

    // Simulation world.
    let report_sink: ReportSink = Arc::new(Mutex::new(Vec::new()));
    let results = {
        let (cfg, hub) = (shared, hub.clone());
        let writers: Mutex<Vec<Option<transport::SstWriter>>> = Mutex::new(writers);
        let sink = Arc::clone(&report_sink);
        with_mode(cfg.sched, || {
            run_ranks_with_registry(
                cfg.sim_ranks,
                cfg.machine.clone(),
                registry.clone(),
                move |comm| {
                    let writer = writers
                        .lock()
                        .unwrap()
                        .get_mut(comm.rank())
                        .and_then(Option::take);
                    sim_rank(comm, &cfg, hub.as_ref(), writer, &sink)
                },
            )
        })
    };

    let times_stats: Vec<(f64, CommStats)> = results.iter().map(|r| (r.time, r.stats)).collect();
    let sim = RunMetrics::from_ranks(&times_stats, cfg.steps, &registry);
    let mut report = InTransitReport {
        mode: cfg.mode,
        sim_ranks: cfg.sim_ranks,
        endpoint_ranks,
        steps: cfg.steps,
        sim_node_mem_peak: sim.memory.host_max_rank_peak * cfg.machine.ranks_per_node as u64,
        sim,
        endpoint_steps: 0,
        endpoint_bytes_received: 0,
        endpoint_bytes_written: 0,
        endpoint_partial_steps: 0,
        endpoint_corrupt_rejected: 0,
        endpoint_crashes: 0,
        endpoint_delivered: Vec::new(),
        degradation: DegradationSummary::from_reports(&report_sink.lock().unwrap()),
        traces: results.into_iter().filter_map(|r| r.value).collect(),
        phases: None,
        run_report: None,
        staging: None,
    };
    let endpoint_results = endpoint_handle.map(|h| h.join().expect("endpoint world"));
    for (outcome, stats, trace) in endpoint_results.unwrap_or_default() {
        report.endpoint_bytes_written += stats.bytes_written_fs;
        report.traces.extend(trace);
        match outcome {
            EndpointOutcome::Consumer(r) => {
                report.endpoint_steps = report.endpoint_steps.max(r.steps_processed);
                report.endpoint_bytes_received += r.bytes_received;
                report.endpoint_partial_steps += r.partial_steps;
                report.endpoint_corrupt_rejected += r.corrupt_rejected;
                report.endpoint_crashes += usize::from(r.crashed);
                report.endpoint_delivered.push(r.delivered_steps);
            }
            EndpointOutcome::Staging(r) => {
                report.endpoint_steps = report.endpoint_steps.max(r.steps);
                report.endpoint_bytes_received += r.bytes_received;
                report.staging = Some(*r);
            }
        }
    }

    (report.phases, report.run_report) = collect_reports(
        &report.traces,
        hub.as_ref(),
        &registry,
        &report.sim.memory,
        telemetry::Manifest {
            case: cfg.case.name.clone(),
            workflow: "intransit".into(),
            mode: cfg.mode.label().to_ascii_lowercase(),
            exec: "concurrent".into(),
            sched: cfg.sched.label().into(),
            wire: cfg.wire.label().into(),
            ranks: cfg.sim_ranks,
            endpoint_ranks,
            steps: cfg.steps as u64,
            trigger_every: cfg.trigger_every.max(1),
            machine: cfg.machine.name.into(),
            fault_plan: fault_summary(&cfg.faults),
            pool_threads: rayon::pool::current_threads(),
            // The staging queue bound plays the credit-depth role here.
            pipeline_depth: cfg.queue_capacity,
        },
    );
    report
}

/// One endpoint rank: the classic single consumer, or the staging
/// fan-out service when `staging_consumers` > 0.
fn endpoint_rank(
    comm: &mut Comm,
    cfg: &InTransitConfig,
    hub: Option<&TelemetryHub>,
    mut reader: transport::SstReader,
) -> (EndpointOutcome, CommStats, Option<RankTrace>) {
    attach_observability(comm, cfg.trace, hub, 1);
    reader.set_accountant(comm.accountant("staging"));
    let outcome = if cfg.staging_consumers > 0 {
        // Fan-out mode: the staging service replaces the fixed analysis; N
        // local consumer sessions with identical specs drain concurrently
        // (one render per step, N−1 cache hits).
        let staging_dir = cfg.staging_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("nek-staging-{}", std::process::id()))
        });
        let mut service = StagingService::new(reader, cfg.sim_ranks, &staging_dir, 32);
        let handle = service.handle();
        let spec = SessionSpec {
            width: cfg.image_size.0,
            height: cfg.image_size.1,
            ..SessionSpec::default()
        };
        let drains: Vec<_> = (0..cfg.staging_consumers)
            .map(|_| {
                let mut client = handle.attach_local(spec.clone(), 4);
                std::thread::spawn(move || {
                    client
                        .drain(std::time::Duration::from_secs(120))
                        .expect("consumer drain")
                })
            })
            .collect();
        let report = service.run(comm).expect("staging run");
        for d in drains {
            d.join().expect("consumer thread");
        }
        EndpointOutcome::Staging(Box::new(report))
    } else {
        let factories = match cfg.mode {
            EndpointMode::Catalyst => vec![CatalystAnalysis::factory()],
            _ => vec![],
        };
        let xml = endpoint_xml(cfg);
        let mut consumer =
            transport::EndpointConsumer::new(reader, &xml, &factories, cfg.sim_ranks)
                .expect("valid endpoint config");
        EndpointOutcome::Consumer(consumer.run(comm).expect("endpoint run"))
    };
    (outcome, *comm.stats(), comm.take_trace())
}

/// One simulation rank: the solver with the SENSEI bridge configured for
/// the staging transport (`writer` is this rank's end of the link; None
/// only under NoTransport).
fn sim_rank(
    comm: &mut Comm,
    cfg: &InTransitConfig,
    hub: Option<&TelemetryHub>,
    writer: Option<transport::SstWriter>,
    report_sink: &ReportSink,
) -> Option<RankTrace> {
    attach_observability(comm, cfg.trace, hub, 0);
    let setup = comm.span("sim/setup");
    let mut solver = cfg.case.build(comm);
    let host_base = comm.accountant("host-base");
    let _base = host_base.charge(solver.n_nodes() as u64 * 8 * 60);

    let (xml, factories): (String, Vec<insitu::AdaptorFactory>) = match cfg.mode {
        EndpointMode::NoTransport => ("<sensei></sensei>".to_string(), vec![]),
        _ => {
            let writer = writer.expect("one staging writer per sim rank");
            let trigger = cfg.trigger_every.max(1);
            let arrays = if cfg.case.config.temperature.is_some() {
                "pressure,velocity,temperature"
            } else {
                "pressure,velocity"
            };
            (
                format!(
                    r#"<sensei><analysis type="adios-sst" frequency="{trigger}" arrays="{arrays}"/></sensei>"#
                ),
                vec![TransportAnalysis::factory_with_recovery(
                    writer,
                    cfg.fallback_dir.clone(),
                    Some(Arc::clone(report_sink)),
                )],
            )
        }
    };
    let mut bridge = Bridge::initialize(comm, &xml, &factories).expect("valid generated config");
    drop(setup);
    let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
    let mut sim = SimLoop::new(
        comm,
        &mut solver,
        &cfg.recovery,
        &cfg.faults,
        Some(pool.clone()),
    );
    // Built on the first trigger: NoTransport never pays for the VTK
    // geometry, matching its bare-solver memory profile.
    let mut geometry: Option<Arc<NekGeometry>> = None;
    sim.run(comm, &mut solver, cfg.steps, |comm, solver, step| {
        if bridge.triggers_at(step) {
            let geometry =
                geometry.get_or_insert_with(|| Arc::new(NekGeometry::build(comm, solver)));
            let spec = SnapshotSpec::from_names(bridge.arrays_at(step));
            let snap = solver.publish_snapshot(comm, &spec, &pool);
            let mut da = SnapshotAdaptor::new(comm, snap, Arc::clone(geometry));
            bridge.update(comm, step, &mut da).expect("update");
        }
        // No credit pipeline on this side of the staging link.
        0.0
    });
    {
        let _sp = comm.span("sim/finalize");
        bridge.finalize(comm).expect("finalize");
        comm.barrier();
    }
    comm.take_trace()
}

fn endpoint_xml(cfg: &InTransitConfig) -> String {
    let out_attr = cfg
        .output_dir
        .as_ref()
        .map(|d| format!(r#" output="{}""#, d.display()))
        .unwrap_or_default();
    match cfg.mode {
        EndpointMode::NoTransport => "<sensei></sensei>".to_string(),
        EndpointMode::Checkpointing => format!(
            r#"<sensei><analysis type="vtu-checkpoint" frequency="1" arrays="pressure,velocity"{out_attr}/></sensei>"#
        ),
        EndpointMode::Catalyst => {
            let (w, h) = cfg.image_size;
            format!(
                r#"<sensei><analysis type="catalyst" frequency="1" width="{w}" height="{h}"
   slice_array="temperature" contour_array="velocity"{out_attr}/></sensei>"#
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem::cases::{rbc, CaseParams};

    fn tiny_config(sim_ranks: usize, mode: EndpointMode) -> InTransitConfig {
        let mut params = CaseParams::rbc_default();
        params.elems = [2, 2, sim_ranks.max(2)];
        params.order = 2;
        InTransitConfig {
            case: rbc(&params, 1e4, 0.7),
            sim_ranks,
            ratio: 4,
            steps: 4,
            trigger_every: 2,
            machine: MachineModel::juwels_booster(),
            link: StagingLink::ucx_hdr200(),
            queue_capacity: 8,
            policy: QueuePolicy::Block,
            mode,
            sched: SchedMode::default(),
            wire: WireKind::default(),
            staging_consumers: 0,
            staging_dir: None,
            image_size: (64, 48),
            output_dir: None,
            faults: FaultPlan::none(),
            writer_config: WriterConfig::default(),
            fallback_dir: None,
            trace: false,
            telemetry: false,
            recovery: RecoveryOptions::default(),
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nek-sensei-intransit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn no_transport_has_no_endpoint_and_no_staging() {
        let r = run_intransit(&tiny_config(4, EndpointMode::NoTransport));
        assert_eq!(r.endpoint_ranks, 0);
        assert_eq!(r.endpoint_steps, 0);
        assert_eq!(r.endpoint_bytes_received, 0);
        assert!(r.sim.time_to_solution > 0.0);
    }

    #[test]
    fn checkpointing_endpoint_receives_and_writes() {
        let r = run_intransit(&tiny_config(4, EndpointMode::Checkpointing));
        assert_eq!(r.endpoint_ranks, 1);
        assert_eq!(r.endpoint_steps, 2, "2 triggers over 4 steps");
        assert!(r.endpoint_bytes_received > 0);
        assert!(r.endpoint_bytes_written > 0, "VTU files written");
        // Simulation ranks write nothing in transit.
        assert_eq!(r.sim.totals.bytes_written_fs, 0);
    }

    #[test]
    fn catalyst_endpoint_renders_without_sim_side_rendering() {
        let r = run_intransit(&tiny_config(4, EndpointMode::Catalyst));
        assert_eq!(r.endpoint_steps, 2);
        assert!(r.endpoint_bytes_written > 0, "PNGs written at the endpoint");
        // Images are far smaller than VTU checkpoints.
        let chk = run_intransit(&tiny_config(4, EndpointMode::Checkpointing));
        assert!(r.endpoint_bytes_written < chk.endpoint_bytes_written);
    }

    #[test]
    fn sim_overhead_of_transport_is_modest() {
        let none = run_intransit(&tiny_config(4, EndpointMode::NoTransport));
        let cat = run_intransit(&tiny_config(4, EndpointMode::Catalyst));
        let overhead = (cat.sim.mean_step_time - none.sim.mean_step_time) / none.sim.mean_step_time;
        // The paper's point: in transit costs the simulation little. At
        // this tiny scale allow a generous bound, but it must not blow up.
        assert!(
            overhead < 1.0,
            "in-transit sim-side overhead {overhead:.2} too large"
        );
    }

    #[test]
    fn total_link_failure_degrades_to_file_fallback_without_aborting() {
        use commsim::LinkFaultSpec;
        use transport::BpFileReader;

        let dir = scratch_dir("linkfail");
        let mut cfg = tiny_config(4, EndpointMode::Checkpointing);
        cfg.steps = 10; // triggers at 2,4,6,8,10
        cfg.faults = FaultPlan::with_link(
            42,
            LinkFaultSpec {
                drop_prob: 1.0,
                ..LinkFaultSpec::default()
            },
        );
        cfg.fallback_dir = Some(dir.clone());
        let r = run_intransit(&cfg);

        // Per producer: 2 triggers lost before the breaker trips at the
        // third consecutive failure, the rest parked to the file engine.
        let d = r.degradation;
        assert!(d.degraded(), "breaker must open under total loss");
        assert_eq!(d.degraded_producers, 4);
        assert_eq!(d.staged_steps, 0);
        assert_eq!(d.lost_steps, 8);
        assert_eq!(d.parked_steps, 12);
        assert_eq!(d.first_switch_step, Some(6));
        // The endpoint saw only skip markers — empty partial deliveries for
        // the two lost steps plus the breaker-tripping step.
        assert_eq!(r.endpoint_steps, 3);
        assert_eq!(r.endpoint_partial_steps, 3);
        assert_eq!(r.endpoint_bytes_received, 0);
        // Every parked trigger is a readable BP file step.
        for producer in 0..4 {
            let path = dir.join(format!("producer_{producer:05}.bp4l"));
            let mut reader = BpFileReader::open(&path).expect("fallback file");
            let mut steps = Vec::new();
            while let Some(sd) = reader.next_step().expect("valid BP frame") {
                steps.push(sd.step);
            }
            assert_eq!(steps, vec![6, 8, 10], "producer {producer}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn endpoint_crash_mid_run_parks_triggers_with_zero_loss() {
        use commsim::EndpointCrash;
        use transport::BpFileReader;

        let dir = scratch_dir("crash");
        let mut cfg = tiny_config(4, EndpointMode::Checkpointing);
        cfg.steps = 8; // triggers at 2,4,6,8
        cfg.faults = FaultPlan {
            crashes: vec![EndpointCrash {
                endpoint: 0,
                at_step: 2,
            }],
            ..FaultPlan::default()
        };
        cfg.fallback_dir = Some(dir.clone());
        let r = run_intransit(&cfg);

        assert_eq!(r.endpoint_crashes, 1);
        assert_eq!(r.endpoint_steps, 0, "endpoint died before processing");
        // The crash surfaces to producers as a disconnect: every trigger is
        // either staged before the crash or parked after it — none lost.
        let d = r.degradation;
        assert_eq!(d.lost_steps, 0, "disconnect must not lose triggers");
        assert!(d.degraded(), "producers must switch to the file engine");
        assert_eq!(d.degraded_producers, 4);
        assert_eq!(d.staged_steps + d.parked_steps, 16, "4 triggers x 4 ranks");
        assert!(d.first_switch_step.is_some());
        // Parked triggers round-trip through the BP files.
        let mut parked_total = 0u64;
        for producer in 0..4 {
            let path = dir.join(format!("producer_{producer:05}.bp4l"));
            let mut reader = BpFileReader::open(&path).expect("fallback file");
            while let Some(sd) = reader.next_step().expect("valid BP frame") {
                assert!(sd.step >= 2);
                parked_total += 1;
            }
        }
        assert_eq!(parked_total, d.parked_steps);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_node_memory_is_endpoint_independent_in_order_of_magnitude() {
        let none = run_intransit(&tiny_config(4, EndpointMode::NoTransport));
        let cat = run_intransit(&tiny_config(4, EndpointMode::Catalyst));
        let ratio = cat.sim_node_mem_peak as f64 / none.sim_node_mem_peak.max(1) as f64;
        assert!(
            (0.8..2.0).contains(&ratio),
            "sim-node memory must be endpoint-independent: ratio {ratio}"
        );
    }
}
