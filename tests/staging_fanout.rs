//! Integration: the staging tier — one writer stream fanned out to N
//! consumer sessions over both wire engines, with cached rendering,
//! late-joiner catch-up, and typed short-read surfacing.

use commsim::{run_ranks_with_state, with_mode, FaultPlan, MachineModel, SchedMode};
use insitu::AnalysisAdaptor as _;
use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;
use telemetry::TelemetryHub;
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

/// Stream `steps` steps from `writers`; yields each writer's final clock.
fn drive_writers(writers: Vec<SstWriter>, steps: u64) -> std::thread::JoinHandle<Vec<f64>> {
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
            comm.now()
        })
    })
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nek_fanout_{}_{}_{}",
        tag,
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "_")
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

/// `sim_ranks` writers over `wire` into one staging service that accepts
/// TCP consumer sessions at the returned address.
fn service_over(
    wire: WireKind,
    sim_ranks: usize,
    dir: &Path,
) -> (Vec<SstWriter>, StagingService, String) {
    let (writers, mut readers) = StagingNetwork::build_wired(
        sim_ranks,
        1,
        16,
        StagingLink::test_tiny(),
        QueuePolicy::Block,
        FaultPlan::none(),
        WriterConfig::default(),
        wire,
    )
    .expect("loopback sockets");
    let service = StagingService::new(readers.remove(0), sim_ranks, dir, 16);
    let (consumer_listener, port) = loopback_listener().expect("consumer port");
    service.listen_consumers(consumer_listener);
    (writers, service, format!("127.0.0.1:{port}"))
}

/// `n` consumer sessions at `addr`, each draining on a thread of its own;
/// returns once `service` has attached them all, so every one rides the
/// stream from step 1 (a late joiner would catch up from the parked files
/// and the hit counts would depend on timing).
fn drain_sessions(
    service: &StagingService,
    addr: &str,
    n: usize,
) -> Vec<std::thread::JoinHandle<Vec<FrameMsg>>> {
    let before = service.handle().attached();
    let drains = (0..n)
        .map(|_| {
            let mut client =
                ConsumerClient::connect(addr, &SessionSpec::default(), 4).expect("connect");
            std::thread::spawn(move || client.drain(Duration::from_secs(120)).expect("drain"))
        })
        .collect();
    assert!(service
        .handle()
        .wait_attached(before + n, Duration::from_secs(10)));
    drains
}

/// Run `service` over `writers`' stream and collect what `drains` got.
fn run_fanout(
    writers: Vec<SstWriter>,
    service: StagingService,
    drains: Vec<std::thread::JoinHandle<Vec<FrameMsg>>>,
) -> (StagingReport, Vec<Vec<FrameMsg>>, Vec<f64>) {
    let sim = drive_writers(writers, STEPS);
    let report = run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
        s.run(comm).unwrap()
    })
    .remove(0);
    let clocks = sim.join().unwrap();
    let collected = drains.into_iter().map(|d| d.join().unwrap()).collect();
    (report, collected, clocks)
}

/// Channel writer wire, TCP sessions: three concurrent consumers all see
/// every step, rendered once per step.
#[test]
fn channel_fanout_three_concurrent_consumers() {
    let dir = tempdir("channel");
    let (writers, service, addr) = service_over(WireKind::Channel, 2, &dir);
    let drains = drain_sessions(&service, &addr, CONSUMERS);
    let (report, collected, _) = run_fanout(writers, service, drains);
    assert_full_fanout(&report, &collected);
    std::fs::remove_dir_all(&dir).ok();
}

/// TCP everywhere: writers reach the service over loopback sockets AND
/// the three consumer sessions attach over the TCP consumer protocol.
/// Runs under both rank schedulers — all socket waits sit behind
/// `external_wait`, so the event-driven world must not deadlock.
fn tcp_fanout(mode: SchedMode, tag: &str) {
    let dir = tempdir(tag);
    let report = with_mode(mode, || {
        let (writers, service, addr) = service_over(WireKind::Tcp, 2, &dir);
        let drains = drain_sessions(&service, &addr, CONSUMERS);
        let (report, collected, _) = run_fanout(writers, service, drains);
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
    let (writers, service, addr) = service_over(WireKind::Tcp, 1, &dir);
    // One credit: after its first frame the service waits on `early`, so
    // the stream cannot end before `late` is attached.
    let mut early = ConsumerClient::connect(&addr, &SessionSpec::default(), 1).expect("connect");
    let handle = service.handle();
    assert!(handle.wait_attached(1, Duration::from_secs(10)));
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
    assert!(handle.wait_attached(2, Duration::from_secs(10)));
    early.grant(8).expect("grant");
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

/// Four producers park four files. A late joiner with a camera no live
/// session has, attached once every step is parked, replays them all
/// merged back by step: every frame a cache miss rendered from the files.
/// Its frames are, byte for byte, those of a session with that camera
/// attached from step 1 in a second run.
#[test]
fn tcp_late_joiner_over_four_producers_gets_the_frames_of_a_live_session() {
    const PRODUCERS: usize = 4;
    let late_spec = SessionSpec {
        camera_dir: [0.4, -1.0, 0.6],
        ..SessionSpec::default()
    };

    let dir = tempdir("tcp_late_merge");
    let (writers, service, addr) = service_over(WireKind::Tcp, PRODUCERS, &dir);
    // Credits for all steps but the last: the service waits on `early`
    // with every step parked.
    let mut early =
        ConsumerClient::connect(&addr, &SessionSpec::default(), STEPS as u32 - 1).expect("connect");
    let handle = service.handle();
    assert!(handle.wait_attached(1, Duration::from_secs(10)));
    let hub = TelemetryHub::default();
    let service_hub = hub.clone();
    let sim = drive_writers(writers, STEPS);
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
    while hub.counter("rank0/staging/credit_stalls").get() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut late = ConsumerClient::connect(&addr, &late_spec, 4).expect("connect");
    assert!(handle.wait_attached(2, Duration::from_secs(10)));
    early.grant(1).expect("grant");
    let late_frames = late.drain(Duration::from_secs(120)).expect("drain");
    let early_frames = early.drain(Duration::from_secs(120)).expect("drain");
    sim.join().unwrap();
    let report = svc.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(early_frames.len(), STEPS as usize);
    assert_eq!(report.sessions[1].catchup_steps, STEPS);
    assert!(late_frames.iter().all(|f| !f.cache_hit));
    assert_eq!(report.cache_misses, 2 * STEPS);

    let dir = tempdir("tcp_live_merge");
    let (writers, service, addr) = service_over(WireKind::Tcp, PRODUCERS, &dir);
    let client = ConsumerClient::connect(&addr, &late_spec, 4).expect("connect");
    assert!(service.handle().wait_attached(1, Duration::from_secs(10)));
    let (live_frames, _) = run_with_one_consumer(writers, service, client);
    std::fs::remove_dir_all(&dir).ok();
    let pixels = |frames: &[FrameMsg]| {
        frames
            .iter()
            .map(|f| (f.step, f.name.clone(), f.png.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(live_frames.len(), STEPS as usize);
    assert!(
        pixels(&late_frames) == pixels(&live_frames),
        "the replayed frames differ from the live ones"
    );
}

/// The service sends every frame and `End` and is gone before the client
/// reads anything; the client then reads slowly, granting one credit per
/// frame. Grants that arrive after the service left must not reset the
/// connection: every buffered frame and a clean end of stream come out.
#[test]
fn tcp_slow_reader_drains_after_the_service_is_gone() {
    let dir = tempdir("tcp_slow");
    let (writers, service, addr) = service_over(WireKind::Tcp, 1, &dir);
    let mut client =
        ConsumerClient::connect(&addr, &SessionSpec::default(), STEPS as u32).expect("connect");
    assert!(service.handle().wait_attached(1, Duration::from_secs(10)));
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

/// A slow peer: one TCP consumer grants its credits one at a time, long
/// after each frame. The service waits on it, yet every other session
/// still gets every frame, and the writers' virtual clocks are
/// bit-identical to a run without the slow consumer — a consumer
/// session's back-pressure never reaches the simulation's clock.
#[test]
fn tcp_slow_consumer_moves_no_writer_clock_and_starves_no_session() {
    let run = |slow: bool| {
        let dir = tempdir(if slow { "slow_peer" } else { "no_slow_peer" });
        let (writers, service, addr) = service_over(WireKind::Tcp, 2, &dir);
        let mut drains = drain_sessions(&service, &addr, 2);
        if slow {
            let mut client =
                ConsumerClient::connect(&addr, &SessionSpec::default(), 1).expect("connect");
            drains.push(std::thread::spawn(move || {
                let mut frames = Vec::new();
                while let Some(f) = client.next_frame(Duration::from_secs(120)).expect("frame") {
                    frames.push(f);
                    std::thread::sleep(Duration::from_millis(100));
                    let _ = client.grant(1);
                }
                frames
            }));
            assert!(service.handle().wait_attached(3, Duration::from_secs(10)));
        }
        let (report, collected, clocks) = run_fanout(writers, service, drains);
        for frames in &collected {
            let steps: Vec<u64> = frames.iter().map(|f| f.step).collect();
            assert_eq!(steps, (1..=STEPS).collect::<Vec<_>>());
        }
        let stalls: u64 = report.sessions.iter().map(|s| s.credit_stalls).sum();
        assert_eq!(stalls > 0, slow, "{:?}", report.sessions);
        std::fs::remove_dir_all(&dir).ok();
        clocks.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(run(true), run(false));
}

/// Drive `STEPS` steps through `service` with `client` attached, and
/// return what the client drained next to the service's report.
fn run_with_one_consumer(
    writers: Vec<SstWriter>,
    service: StagingService,
    mut client: ConsumerClient,
) -> (Vec<FrameMsg>, StagingReport) {
    let drain = std::thread::spawn(move || client.drain(Duration::from_secs(120)).expect("drain"));
    let (report, mut collected, _) = run_fanout(writers, service, vec![drain]);
    (collected.remove(0), report)
}

/// A peer that connects and never sends its `Hello` used to sit on the
/// accept thread forever; every later consumer was locked out. Now each
/// handshake runs on its own thread under a deadline.
#[test]
fn tcp_silent_peer_does_not_lock_out_later_consumers() {
    let dir = tempdir("tcp_silent");
    let (writers, service, addr) = service_over(WireKind::Tcp, 1, &dir);
    // Connected first, so accepted first.
    let silent = std::net::TcpStream::connect(&addr).expect("silent peer");
    let client = ConsumerClient::connect(&addr, &SessionSpec::default(), 4).expect("connect");
    assert!(
        service.handle().wait_attached(1, Duration::from_secs(2)),
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
    let (writers, service, addr) = service_over(WireKind::Tcp, 1, &dir);
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
        write_hello(&mut peer, &spec, 4).expect("hello");
        peer.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let closed = peer.read(&mut [0u8; 1]);
        assert!(
            matches!(closed, Ok(0)),
            "{spec:?} was not refused: {closed:?}"
        );
    }
    assert_eq!(service.handle().attached(), 0);
    let client = ConsumerClient::connect(&addr, &SessionSpec::default(), 4).expect("connect");
    assert!(service.handle().wait_attached(1, Duration::from_secs(2)));
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
                matches!(
                    err,
                    TransportError::ShortRead {
                        wanted: 64,
                        got: 10
                    }
                ),
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
