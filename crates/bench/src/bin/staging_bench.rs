//! `staging_bench` — 1-writer/N-consumer staging fan-out benchmark.
//!
//! Drives one simulation writer stream into a [`transport::StagingService`]
//! fanned out to N consumer sessions and reports measured throughput and
//! frame-cache hit rate. Two shapes:
//!
//! * **Single process** (default, `--role all`): writer world, staging
//!   service, and N local consumer sessions in one process, over the
//!   in-process channel wire or loopback TCP (`--wire tcp`).
//! * **Multi process** (`--role writer|staging|consumer`): each tier is
//!   its own OS process connected over real TCP sockets — the shape CI
//!   runs to prove the wire format is process-portable. The staging role
//!   writes its bound ports to `--port-file` as `data=<port>` /
//!   `consumer=<port>` lines; writers `--connect` to the data port and
//!   consumers to the consumer port.
//!
//! With `--report-out DIR` the staging side emits a `nekstat`-readable
//! RunReport (workflow `staging`) carrying the `staging/*` counters.

use commsim::{run_ranks_with_state, Comm, FaultPlan, MachineModel, TelemetryHub};
use insitu::AnalysisAdaptor as _;
use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use transport::wire::loopback_listener;
use transport::{
    ConsumerClient, QueuePolicy, SessionSpec, SstWriter, StagingLink, StagingNetwork,
    StagingReport, StagingService, TransportAnalysis, WireKind, WriterConfig,
};

const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Clone)]
struct Args {
    wire: WireKind,
    consumers: usize,
    steps: u64,
    step_delay: Duration,
    role: String,
    connect: Option<String>,
    port_file: Option<PathBuf>,
    report_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        wire: WireKind::default(),
        consumers: 3,
        steps: 6,
        step_delay: Duration::ZERO,
        role: "all".into(),
        connect: None,
        port_file: None,
        report_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--wire" => {
                if let Some(v) = it.next() {
                    match WireKind::parse(&v) {
                        Some(w) => args.wire = w,
                        None => eprintln!("warning: unknown --wire '{v}' (channel|tcp)"),
                    }
                }
            }
            "--consumers" => {
                args.consumers = it.next().and_then(|v| v.parse().ok()).unwrap_or(3)
            }
            "--steps" => args.steps = it.next().and_then(|v| v.parse().ok()).unwrap_or(6),
            "--step-delay-ms" => {
                args.step_delay =
                    Duration::from_millis(it.next().and_then(|v| v.parse().ok()).unwrap_or(0))
            }
            "--role" => args.role = it.next().unwrap_or_else(|| "all".into()),
            "--connect" => args.connect = it.next(),
            "--port-file" => args.port_file = it.next().map(Into::into),
            "--report-out" => args.report_out = it.next().map(Into::into),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --wire channel|tcp | --consumers N | --steps N | --step-delay-ms N | --report-out DIR | --role all|writer|staging|consumer | --connect HOST:PORT | --port-file FILE"
                );
                std::process::exit(0);
            }
            other => eprintln!("warning: ignoring unknown flag '{other}'"),
        }
    }
    args
}

/// One hex element per producer rank, same shape the staging tests use.
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

/// Drive `writers` through `steps` triggered steps on their own sim
/// world. A nonzero `step_delay` sleeps real time between steps so a
/// live follower has a running process to watch (the virtual clock is
/// untouched — pacing changes wall time only).
fn drive_writers(
    writers: Vec<SstWriter>,
    steps: u64,
    step_delay: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        run_ranks_with_state(MachineModel::test_tiny(), writers, move |comm, writer| {
            let mut analysis = TransportAnalysis::new("mesh", vec!["pressure".into()], writer);
            for step in 1..=steps {
                if !step_delay.is_zero() {
                    comm.external_wait(|| std::thread::sleep(step_delay));
                }
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

/// Run `service` on a fresh single-rank world with telemetry attached.
fn run_service(service: StagingService, hub: TelemetryHub) -> StagingReport {
    run_ranks_with_state(
        MachineModel::test_tiny(),
        vec![service],
        move |comm: &mut Comm, mut s| {
            comm.enable_telemetry(&hub, 0);
            s.run(comm).expect("staging service")
        },
    )
    .remove(0)
}

fn park_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nek_staging_bench_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("park dir");
    dir
}

fn write_report(args: &Args, report: &StagingReport, hub: &TelemetryHub, endpoint_sessions: usize) {
    let Some(dir) = &args.report_out else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let run_report = telemetry::RunReport::collect(
        telemetry::Manifest {
            case: "staging-fanout".into(),
            workflow: "staging".into(),
            mode: "fanout".into(),
            exec: "concurrent".into(),
            sched: commsim::SchedMode::default().label().into(),
            wire: args.wire.label().into(),
            ranks: 1,
            endpoint_ranks: 1,
            steps: report.steps,
            trigger_every: 1,
            machine: "test_tiny".into(),
            fault_plan: "none".into(),
            pool_threads: rayon::pool::current_threads(),
            pipeline_depth: endpoint_sessions,
        },
        hub,
        Vec::new(),
        telemetry::MemorySummary::default(),
    );
    let path = dir.join("staging_bench.report.json");
    if std::fs::write(&path, run_report.to_json()).is_ok() {
        println!("wrote {}", path.display());
    }
}

fn print_summary(report: &StagingReport, elapsed: Duration) {
    let frames = report.frames_sent();
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "staging: {} steps, {} sessions, {} frames fanned out ({:.1} frames/s wall, {:.1} KiB received)",
        report.steps,
        report.sessions.len(),
        frames,
        frames as f64 / secs,
        report.bytes_received as f64 / 1024.0,
    );
    println!(
        "cache: {} hits / {} misses (hit rate {:.1}%)",
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate() * 100.0,
    );
    for s in &report.sessions {
        println!(
            "  session {}: {} frames, {} B, {} cache hits, {} catch-up steps{}",
            s.id,
            s.frames_sent,
            s.bytes_sent,
            s.cache_hits,
            s.catchup_steps,
            if s.detached { " (detached)" } else { "" },
        );
    }
}

/// Single process: writer world + staging service + N local sessions.
fn run_all(args: &Args) {
    let dir = park_dir("all");
    let (writers, mut readers) = StagingNetwork::build_wired(
        1,
        1,
        16,
        StagingLink::test_tiny(),
        QueuePolicy::Block,
        FaultPlan::none(),
        WriterConfig::default(),
        args.wire,
    )
    .expect("wire setup");
    let service = StagingService::new(readers.remove(0), 1, &dir, 32);
    let handle = service.handle();
    let drains: Vec<_> = (0..args.consumers.max(1))
        .map(|_| {
            let mut client = handle.attach_local(SessionSpec::default(), 4);
            std::thread::spawn(move || client.drain(DRAIN_TIMEOUT).expect("drain"))
        })
        .collect();
    let hub = TelemetryHub::default();
    let start = Instant::now();
    let sim = drive_writers(writers, args.steps, args.step_delay);
    let report = run_service(service, hub.clone());
    sim.join().unwrap();
    let elapsed = start.elapsed();
    for (i, d) in drains.into_iter().enumerate() {
        let frames = d.join().unwrap();
        assert_eq!(
            frames.len() as u64,
            report.steps,
            "consumer {i} missed frames"
        );
    }
    print_summary(&report, elapsed);
    write_report(args, &report, &hub, args.consumers);
    assert!(
        report.cache_hit_rate() > 0.0,
        "fan-out produced no cache hits"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Multi-process writer tier: stream `--steps` steps to the staging
/// service's data port.
fn run_writer(args: &Args) {
    let addr = args.connect.clone().expect("--connect HOST:PORT required");
    let writer = StagingNetwork::tcp_writer(
        &addr,
        0,
        StagingLink::test_tiny(),
        QueuePolicy::Block,
        FaultPlan::none(),
        WriterConfig::default(),
    )
    .expect("connect to staging data port");
    drive_writers(vec![writer], args.steps, args.step_delay)
        .join()
        .unwrap();
    println!("writer: {} steps sent to {addr}", args.steps);
}

/// Multi-process staging tier: bind the data + consumer ports, publish
/// them via `--port-file`, serve until the writer stream ends.
fn run_staging(args: &Args) {
    // The split-process tiers always talk over real sockets; record that
    // in the report regardless of `--wire`.
    let args = Args {
        wire: WireKind::Tcp,
        ..args.clone()
    };
    let args = &args;
    let dir = park_dir("staging");
    let (data_listener, data_port) = loopback_listener().expect("bind data port");
    let (consumer_listener, consumer_port) = loopback_listener().expect("bind consumer port");
    if let Some(path) = &args.port_file {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("data={data_port}\nconsumer={consumer_port}\n"))
            .expect("write port file");
        std::fs::rename(&tmp, path).expect("publish port file");
    }
    println!("staging: data port {data_port}, consumer port {consumer_port}");
    let reader = StagingNetwork::tcp_reader(data_listener, vec![0], 16, FaultPlan::none());
    let mut service = StagingService::new(reader, 1, &dir, 32);
    let hub = TelemetryHub::default();
    // Follow sessions (`nekstat --follow`) share the consumer port.
    service.set_live_hub(hub.clone());
    service.listen_consumers(consumer_listener);
    let start = Instant::now();
    let report = run_service(service, hub.clone());
    print_summary(&report, start.elapsed());
    write_report(args, &report, &hub, report.sessions.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// Multi-process consumer tier: attach one session and drain it.
fn run_consumer(args: &Args) {
    let addr = args.connect.clone().expect("--connect HOST:PORT required");
    let mut client =
        ConsumerClient::connect(&addr, &SessionSpec::default(), 4).expect("connect to staging");
    let frames = client.drain(DRAIN_TIMEOUT).expect("drain");
    let hits = frames.iter().filter(|f| f.cache_hit).count();
    println!(
        "consumer: {} frames from {addr} ({} cache hits)",
        frames.len(),
        hits
    );
    assert!(!frames.is_empty(), "consumer saw no frames");
}

fn main() {
    let args = parse_args();
    match args.role.as_str() {
        "all" => run_all(&args),
        "writer" => run_writer(&args),
        "staging" => run_staging(&args),
        "consumer" => run_consumer(&args),
        other => {
            eprintln!("unknown --role '{other}' (all|writer|staging|consumer)");
            std::process::exit(2);
        }
    }
}
