//! Integration: the staging tier — one writer stream fanned out to N
//! consumer sessions over both wire engines, with cached rendering,
//! late-joiner catch-up, and typed short-read surfacing.

use commsim::{run_ranks_with_state, with_mode, FaultPlan, MachineModel, SchedMode, TelemetryHub};
use insitu::AnalysisAdaptor as _;
use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
use nek_sensei::{run_intransit, EndpointMode, InTransitConfig};
use sem::cases::{rbc, CaseParams};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;
use transport::wire::loopback_listener;
use transport::{
    ConsumerClient, FrameMsg, QueuePolicy, SessionSpec, SstWriter, StagingLink, StagingNetwork,
    StagingReport, StagingService, TransportAnalysis, TransportError, WireKind, WriterConfig,
};

const STEPS: u64 = 4;
const CONSUMERS: usize = 3;

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

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nek_fanout_{}_{}_{}",
        tag,
        std::process::id(),
        std::thread::current().name().unwrap_or("t").replace("::", "_")
    ));
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

fn assert_full_fanout(report: &StagingReport, collected: &[Vec<FrameMsg>]) {
    assert_eq!(report.steps, STEPS);
    assert_eq!(report.sessions.len(), CONSUMERS);
    for frames in collected {
        let steps: Vec<u64> = frames.iter().map(|f| f.step).collect();
        assert_eq!(steps, (1..=STEPS).collect::<Vec<_>>());
        assert!(frames.iter().all(|f| !f.png.is_empty()));
    }
    // Identical specs: each step rasterizes once, every other session
    // hits the shared frame cache.
    assert_eq!(report.cache_misses, STEPS);
    assert_eq!(report.cache_hits, (CONSUMERS as u64 - 1) * STEPS);
    assert!(report.cache_hit_rate() > 0.0);
}

/// Channel-wire fan-out: three concurrent local sessions all see every
/// step, rendered once per step.
#[test]
fn channel_fanout_three_concurrent_consumers() {
    let dir = tempdir("channel");
    let (writers, mut readers) = StagingNetwork::build_wired(
        2,
        1,
        16,
        StagingLink::test_tiny(),
        QueuePolicy::Block,
        FaultPlan::none(),
        WriterConfig::default(),
        WireKind::Channel,
    )
    .expect("channel wiring is infallible");
    let service = StagingService::new(readers.remove(0), 2, &dir, 16);
    let handle = service.handle();
    let drains: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let mut client = handle.attach_local(SessionSpec::default(), 4);
            std::thread::spawn(move || client.drain(Duration::from_secs(120)).expect("drain"))
        })
        .collect();
    let sim = drive_writers(writers, STEPS);
    let report = run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
        s.run(comm).unwrap()
    })
    .remove(0);
    sim.join().unwrap();
    let collected: Vec<Vec<FrameMsg>> = drains.into_iter().map(|d| d.join().unwrap()).collect();
    assert_full_fanout(&report, &collected);
    std::fs::remove_dir_all(&dir).ok();
}

/// `sim_ranks` TCP writers into one staging service that accepts TCP
/// consumer sessions at the returned address.
fn tcp_service(sim_ranks: usize, dir: &Path) -> (Vec<SstWriter>, StagingService, String) {
    let (writers, mut readers) = StagingNetwork::build_wired(
        sim_ranks,
        1,
        16,
        StagingLink::test_tiny(),
        QueuePolicy::Block,
        FaultPlan::none(),
        WriterConfig::default(),
        WireKind::Tcp,
    )
    .expect("loopback sockets");
    let service = StagingService::new(readers.remove(0), sim_ranks, dir, 16);
    let (consumer_listener, port) = loopback_listener().expect("consumer port");
    service.listen_consumers(consumer_listener);
    (writers, service, format!("127.0.0.1:{port}"))
}

/// TCP everywhere: writers reach the service over loopback sockets AND
/// the three consumer sessions attach over the TCP consumer protocol.
/// Runs under both rank schedulers — all socket waits sit behind
/// `external_wait`, so the event-driven world must not deadlock.
fn tcp_fanout(mode: SchedMode, tag: &str) {
    let dir = tempdir(tag);
    let report = with_mode(mode, || {
        let (writers, service, addr) = tcp_service(2, &dir);
        let drains: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = ConsumerClient::connect(&addr, &SessionSpec::default(), 4)
                        .expect("connect");
                    client.drain(Duration::from_secs(120)).expect("drain")
                })
            })
            .collect();
        // Hold the stream until every session is attached so all three
        // ride from step 1 (otherwise late joiners would catch up from
        // the parked files and the hit counts would be timing-dependent).
        let handle = service.handle();
        while handle.attached() < CONSUMERS {
            std::thread::sleep(Duration::from_millis(5));
        }
        let sim = drive_writers(writers, STEPS);
        let report =
            run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
                s.run(comm).unwrap()
            })
            .remove(0);
        sim.join().unwrap();
        let collected: Vec<Vec<FrameMsg>> = drains.into_iter().map(|d| d.join().unwrap()).collect();
        assert_full_fanout(&report, &collected);
        report
    });
    assert_eq!(report.short_reads, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_fanout_three_consumers_thread_sched() {
    tcp_fanout(SchedMode::Thread, "tcp_thread");
}

#[test]
fn tcp_fanout_three_consumers_event_sched() {
    tcp_fanout(SchedMode::Event, "tcp_event");
}

/// A late joiner over TCP replays the parked BP files before riding the
/// live stream: it still sees the full step sequence from step 1.
#[test]
fn tcp_late_joiner_replays_parked_steps() {
    let dir = tempdir("tcp_late");
    let (writers, service, addr) = tcp_service(1, &dir);
    let mut early = ConsumerClient::connect(&addr, &SessionSpec::default(), 8).expect("connect");
    let handle = service.handle();
    while handle.attached() < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let sim = drive_writers(writers, STEPS);
    let svc = std::thread::spawn(move || {
        run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
            s.run(comm).unwrap()
        })
        .remove(0)
    });
    // Join late: only after the first live frame is out.
    let first = early.next_frame(Duration::from_secs(120)).unwrap().unwrap();
    assert_eq!(first.step, 1);
    let mut late = ConsumerClient::connect(&addr, &SessionSpec::default(), 8).expect("connect");
    let late_frames = late.drain(Duration::from_secs(120)).expect("drain");
    let mut early_frames = vec![first];
    early_frames.extend(early.drain(Duration::from_secs(120)).expect("drain"));
    sim.join().unwrap();
    let report = svc.join().unwrap();
    let steps: Vec<u64> = late_frames.iter().map(|f| f.step).collect();
    assert_eq!(steps, (1..=STEPS).collect::<Vec<_>>());
    assert_eq!(early_frames.len(), STEPS as usize);
    assert!(
        report.sessions[1].catchup_steps >= 1,
        "late joiner never caught up from the parked files: {:?}",
        report.sessions
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The service sends every frame and `End` and is gone before the client
/// reads anything; the client then reads slowly, granting one credit per
/// frame. Grants that arrive after the service left must not reset the
/// connection: every buffered frame and a clean end of stream come out.
#[test]
fn tcp_slow_reader_drains_after_the_service_is_gone() {
    let dir = tempdir("tcp_slow");
    let (writers, service, addr) = tcp_service(1, &dir);
    let mut client =
        ConsumerClient::connect(&addr, &SessionSpec::default(), STEPS as u32).expect("connect");
    let handle = service.handle();
    while handle.attached() < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let sim = drive_writers(writers, STEPS);
    let report = run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
        s.run(comm).unwrap()
    })
    .remove(0);
    sim.join().unwrap();
    assert_eq!(report.sessions[0].frames_sent, STEPS);
    for step in 1..=STEPS {
        let frame = client.next_frame(Duration::from_secs(120));
        assert_eq!(frame.expect("no reset").expect("a frame").step, step);
        client.grant(1).expect("grant");
        // Slow reader: time for a reset to overtake the buffered frames.
        std::thread::sleep(Duration::from_millis(20));
    }
    let end = client.next_frame(Duration::from_secs(120));
    assert!(end.expect("clean end of stream").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// Drive `STEPS` steps through `service` with `client` attached, and
/// return what the client drained next to the service's report.
fn run_with_one_consumer(
    writers: Vec<SstWriter>,
    service: StagingService,
    mut client: ConsumerClient,
) -> (Vec<FrameMsg>, StagingReport) {
    let drain = std::thread::spawn(move || client.drain(Duration::from_secs(120)).expect("drain"));
    let sim = drive_writers(writers, STEPS);
    let report = run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
        s.run(comm).unwrap()
    })
    .remove(0);
    sim.join().unwrap();
    (drain.join().unwrap(), report)
}

/// Wait for `n` sessions to be attached; false after two seconds.
fn attached_within_2s(service: &StagingService, n: usize) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while service.handle().attached() < n {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// A peer that connects and never sends its `Hello` used to sit on the
/// accept thread forever; every later consumer was locked out. Now each
/// handshake runs on its own thread under a deadline.
#[test]
fn tcp_silent_peer_does_not_lock_out_later_consumers() {
    let dir = tempdir("tcp_silent");
    let (writers, service, addr) = tcp_service(1, &dir);
    // Connected first, so accepted first.
    let silent = std::net::TcpStream::connect(&addr).expect("silent peer");
    let client = ConsumerClient::connect(&addr, &SessionSpec::default(), 4).expect("connect");
    assert!(
        attached_within_2s(&service, 1),
        "a silent peer kept a real consumer from attaching"
    );
    let (frames, report) = run_with_one_consumer(writers, service, client);
    let steps: Vec<u64> = frames.iter().map(|f| f.step).collect();
    assert_eq!(steps, (1..=STEPS).collect::<Vec<_>>());
    assert_eq!(report.sessions.len(), 1);
    assert!(!report.sessions[0].detached);
    drop(silent);
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Hello` no session can be built from — an image that would size a
/// 40 GB framebuffer, a NaN camera — is refused at the handshake: the
/// connection is closed, nothing attaches, and the next session runs as
/// if the refused ones had never called.
#[test]
fn tcp_unusable_hellos_are_refused_and_the_next_session_is_unaffected() {
    use std::io::Read as _;
    use transport::staging::protocol::write_hello;
    let dir = tempdir("tcp_refused");
    let (writers, service, addr) = tcp_service(1, &dir);
    let oversized = SessionSpec {
        width: 100_000,
        height: 100_000,
        ..SessionSpec::default()
    };
    let zero_height = SessionSpec {
        height: 0,
        ..SessionSpec::default()
    };
    let nan_camera = SessionSpec {
        camera_dir: [0.0, f64::NAN, 1.0],
        ..SessionSpec::default()
    };
    for spec in [oversized, zero_height, nan_camera] {
        let mut peer = std::net::TcpStream::connect(&addr).expect("connect");
        write_hello(&mut peer, &spec, 4, false).expect("hello");
        peer.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let closed = peer.read(&mut [0u8; 1]);
        assert!(
            matches!(closed, Ok(0)),
            "{spec:?} was not refused: {closed:?}"
        );
    }
    assert_eq!(service.handle().attached(), 0);
    let client = ConsumerClient::connect(&addr, &SessionSpec::default(), 4).expect("connect");
    assert!(attached_within_2s(&service, 1));
    let (frames, report) = run_with_one_consumer(writers, service, client);
    assert_eq!(frames.len(), STEPS as usize);
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.cache_misses, STEPS);
    std::fs::remove_dir_all(&dir).ok();
}

/// A connection that dies mid-frame surfaces as a typed transient
/// `TransportError::ShortRead`, counted under `transport/short_reads`,
/// and the stream still drains to a clean end afterwards.
#[test]
fn mid_frame_disconnect_is_a_typed_short_read() {
    let (listener, port) = loopback_listener().expect("data port");
    let reader = StagingNetwork::tcp_reader(listener, vec![0], 8, FaultPlan::none());
    let writer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(format!("127.0.0.1:{port}")).unwrap();
        // Claim a 64-byte frame body but send only 10 bytes, then die.
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&[7u8; 10]).unwrap();
    });
    let hub = TelemetryHub::default();
    let hub_for_rank = hub.clone();
    run_ranks_with_state(
        MachineModel::test_tiny(),
        vec![reader],
        move |comm, mut r| {
            comm.enable_telemetry(&hub_for_rank, 0);
            let err = loop {
                match r.recv_step(comm) {
                    Err(e) => break e,
                    Ok(None) => panic!("short read swallowed as clean end-of-stream"),
                    Ok(Some(_)) => {}
                }
            };
            assert!(
                matches!(err, TransportError::ShortRead { wanted: 64, got: 10 }),
                "unexpected error: {err:?}"
            );
            assert!(!err.is_fatal(), "short reads must be survivable");
            assert_eq!(r.short_reads(), 1);
            // The dead connection then reads as end-of-stream.
            assert!(matches!(r.recv_step(comm), Ok(None)));
        },
    );
    writer.join().unwrap();
    let count = hub
        .metrics_snapshot()
        .into_iter()
        .find(|(name, _)| name.ends_with("transport/short_reads"))
        .map(|(_, v)| v);
    assert!(
        matches!(count, Some(telemetry::MetricValue::Counter(1))),
        "transport/short_reads not counted: {count:?}"
    );
}

/// The full in-transit workflow with `staging_consumers > 0`: the
/// endpoint world runs the staging service instead of the fixed
/// analysis, and the run report carries the fan-out accounting.
#[test]
fn intransit_workflow_with_staging_fanout() {
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    let dir = tempdir("intransit");
    let cfg = InTransitConfig {
        case: rbc(&params, 1e4, 0.7),
        sim_ranks: 4,
        ratio: 4,
        steps: 6,
        trigger_every: 3,
        machine: MachineModel::juwels_booster(),
        link: StagingLink::ucx_hdr200(),
        queue_capacity: 8,
        policy: QueuePolicy::Block,
        mode: EndpointMode::Catalyst,
        sched: Default::default(),
        wire: Default::default(),
        staging_consumers: CONSUMERS,
        staging_dir: Some(dir.clone()),
        image_size: (80, 60),
        output_dir: None,
        faults: FaultPlan::none(),
        writer_config: WriterConfig::default(),
        fallback_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    };
    let report = run_intransit(&cfg);
    let staging = report.staging.expect("staging report present");
    assert_eq!(staging.steps, 2, "triggers at steps 3 and 6");
    assert_eq!(staging.sessions.len(), CONSUMERS);
    assert_eq!(staging.cache_misses, 2);
    assert_eq!(staging.cache_hits, (CONSUMERS as u64 - 1) * 2);
    assert!(staging.cache_hit_rate() > 0.0);
    assert!(report.endpoint_bytes_received > 0);
    std::fs::remove_dir_all(&dir).ok();
}
