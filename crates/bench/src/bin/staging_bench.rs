//! `staging_bench` — 1-writer/N-consumer staging fan-out benchmark.
//!
//! Drives one simulation writer stream into a [`transport::StagingService`]
//! fanned out to N consumer sessions and reports measured throughput and
//! frame-cache hit rate. Two shapes:
//!
//! * **Single process** (default, `--role all`): writer world, staging
//!   service, and N consumer sessions in one process; the writer uses the
//!   in-process channel wire or loopback TCP (`--wire tcp`), the sessions
//!   attach over loopback TCP either way.
//! * **Multi process** (`--role writer|staging|consumer`): each tier is
//!   its own OS process connected over real TCP sockets — the shape CI
//!   runs to prove the wire format is process-portable. The staging role
//!   writes its bound ports to `--port-file` as `data=<port>` /
//!   `consumer=<port>` lines; writers `--connect` to the data port and
//!   consumers to the consumer port.
//!
//! With `--report-out DIR` the staging side emits a `nekstat`-readable
//! RunReport (workflow `staging`) carrying the `staging/*` counters.

use bench_harness::{cli, HarnessArgs};
use commsim::{run_ranks_with_state, Comm, FaultPlan, MachineModel};
use insitu::AnalysisAdaptor as _;
use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use telemetry::TelemetryHub;
use transport::wire::loopback_listener;
use transport::{
    ConsumerClient, QueuePolicy, SessionSpec, SstWriter, StagingLink, StagingNetwork,
    StagingReport, StagingService, TransportAnalysis, WireKind, WriterConfig,
};

const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// `--steps` (default 6).
fn steps(args: &HarnessArgs) -> u64 {
    args.steps.unwrap_or(6) as u64
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
/// world.
fn drive_writers(writers: Vec<SstWriter>, steps: u64) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        run_ranks_with_state(MachineModel::test_tiny(), writers, move |comm, writer| {
            let mut analysis = TransportAnalysis::new("mesh", vec!["pressure".into()], writer);
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

fn write_report(
    args: &HarnessArgs,
    wire: WireKind,
    report: &StagingReport,
    hub: &TelemetryHub,
    endpoint_sessions: usize,
) {
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
            wire: wire.label().into(),
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

/// Single process: writer world + staging service + N loopback sessions.
fn run_all(args: &HarnessArgs) {
    let dir = park_dir("all");
    let (writers, mut readers) = StagingNetwork::build_wired(
        1,
        1,
        16,
        StagingLink::test_tiny(),
        QueuePolicy::Block,
        FaultPlan::none(),
        WriterConfig::default(),
        args.wire_kind(),
    )
    .expect("wire setup");
    let service = StagingService::new(readers.remove(0), 1, &dir, 32);
    let (listener, port) = loopback_listener().expect("bind consumer port");
    service.listen_consumers(listener);
    let consumers = args.consumers.unwrap_or(3);
    let sessions = consumers.max(1);
    let drains: Vec<_> = (0..sessions)
        .map(|_| {
            let mut client =
                ConsumerClient::connect(&format!("127.0.0.1:{port}"), &SessionSpec::default(), 4)
                    .expect("connect to staging");
            std::thread::spawn(move || client.drain(DRAIN_TIMEOUT).expect("drain"))
        })
        .collect();
    assert!(
        service
            .handle()
            .wait_attached(sessions, Duration::from_secs(10)),
        "consumer sessions did not attach"
    );
    let hub = TelemetryHub::default();
    let start = Instant::now();
    let sim = drive_writers(writers, steps(args));
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
    write_report(args, args.wire_kind(), &report, &hub, consumers);
    assert!(
        report.cache_hit_rate() > 0.0,
        "fan-out produced no cache hits"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--connect`, which the `role` tier cannot run without.
fn connect_addr<'a>(args: &'a HarnessArgs, role: &str) -> &'a str {
    args.connect.as_deref().unwrap_or_else(|| {
        cli::STAGING_BENCH.refuse(&format!("--role {role} needs --connect HOST:PORT"))
    })
}

/// Multi-process writer tier: stream `--steps` steps to the staging
/// service's data port.
fn run_writer(args: &HarnessArgs) {
    let addr = connect_addr(args, "writer");
    let writer = StagingNetwork::tcp_writer(addr, 0, StagingLink::test_tiny(), FaultPlan::none())
        .expect("connect to staging data port");
    drive_writers(vec![writer], steps(args)).join().unwrap();
    println!("writer: {} steps sent to {addr}", steps(args));
}

/// Multi-process staging tier: bind the data + consumer ports, publish
/// them via `--port-file`, serve until the writer stream ends.
fn run_staging(args: &HarnessArgs) {
    let dir = park_dir("staging");
    let (data_listener, data_port) = loopback_listener().expect("bind data port");
    let (consumer_listener, consumer_port) = loopback_listener().expect("bind consumer port");
    if let Some(path) = &args.port_file {
        let tmp = path.with_extension("tmp");
        std::fs::write(
            &tmp,
            format!("data={data_port}\nconsumer={consumer_port}\n"),
        )
        .expect("write port file");
        std::fs::rename(&tmp, path).expect("publish port file");
    }
    println!("staging: data port {data_port}, consumer port {consumer_port}");
    let reader = StagingNetwork::tcp_reader(data_listener, vec![0], 16, FaultPlan::none());
    let service = StagingService::new(reader, 1, &dir, 32);
    let hub = TelemetryHub::default();
    service.listen_consumers(consumer_listener);
    let start = Instant::now();
    let report = run_service(service, hub.clone());
    print_summary(&report, start.elapsed());
    // The split-process tiers always talk over real sockets; record that
    // in the report whatever `--wire` says.
    write_report(args, WireKind::Tcp, &report, &hub, report.sessions.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// Multi-process consumer tier: attach one session and drain it.
fn run_consumer(args: &HarnessArgs) {
    let addr = connect_addr(args, "consumer");
    let mut client =
        ConsumerClient::connect(addr, &SessionSpec::default(), 4).expect("connect to staging");
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
    let args = HarnessArgs::parse(&cli::STAGING_BENCH);
    match args.role.unwrap_or("all") {
        "writer" => run_writer(&args),
        "staging" => run_staging(&args),
        "consumer" => run_consumer(&args),
        _ => run_all(&args),
    }
}
