//! `staging_fanout_tcp`: one writer → `StagingService` (TCP wire) →
//! `nproc` live TCP consumer sessions with identical specs, then one late
//! joiner with a different camera replaying every parked step.
//!
//! One product "call" is the whole scenario, service start to last `End`:
//!
//! * phase A — closed loop: the generator publishes `free_steps` steps as
//!   fast as the service's back-pressure lets it (throughput);
//! * phase B — open loop: `paced_steps` steps at a fixed rate, each
//!   frame's latency taken from the time its step was *due*, so a stall
//!   counts against every step it delays; generator lateness is reported
//!   beside it;
//! * late join — after every live session has the last step, a session
//!   with another camera attaches; the service replays the park files to
//!   it through the frame cache (all misses), then the stream ends.
//!
//! Load comes from this one process: one generator thread and one thread
//! per consumer connection.

use super::{alternate, measure_end_to_end, pct_over, timed, RunArgs};
use crate::host;
use crate::metrics::Outcome;
use crate::spans::{self, Recorder, Span};
use crate::stations;
use crate::stats::{median, percentile};
use crate::surface::*;
use crate::verify::Checks;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a consumer waits for its next frame before giving up.
const FRAME_TIMEOUT: Duration = Duration::from_secs(60);
/// Frame credits a session opens with (it grants one back per frame).
const CREDITS: u32 = 4;
/// Frame sets the service's cache holds.
const CACHE_FRAMES: usize = 32;

/// One scenario's inputs, all derived from the seed and the size.
#[derive(Clone)]
pub struct Scenario {
    consumers: usize,
    free_steps: u64,
    paced_steps: u64,
    period: Duration,
    /// Hex cells per edge of the synthetic block.
    cells: usize,
    live_spec: SessionSpec,
    late_spec: SessionSpec,
    /// Spatial phases of the synthetic pressure and velocity fields.
    phases: [f64; 4],
    park_dir: PathBuf,
}

fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

impl Scenario {
    pub fn new(seed: u64, smoke: bool, tmp: &Path) -> Self {
        let mut rng = seed;
        let phases = [0; 4].map(|_| std::f64::consts::TAU * splitmix(&mut rng));
        let (width, height) = if smoke { (100, 75) } else { (400, 300) };
        let live_spec = SessionSpec {
            width,
            height,
            ..SessionSpec::default()
        };
        // Never the live camera: x stays off the live spec's 0.
        let late_spec = SessionSpec {
            camera_dir: [
                0.3 + 0.4 * splitmix(&mut rng),
                -1.0,
                0.25 + 0.5 * splitmix(&mut rng),
            ],
            ..live_spec.clone()
        };
        Self {
            consumers: host::nproc(),
            free_steps: if smoke { 4 } else { 16 },
            paced_steps: if smoke { 4 } else { 12 },
            // 25 steps/s: about 60% of what phase A sustains on the
            // reference host, so the open loop's backlog does not grow.
            period: Duration::from_millis(40),
            cells: if smoke { 8 } else { 24 },
            live_spec,
            late_spec,
            phases,
            park_dir: tmp.join("park"),
        }
    }

    pub fn steps(&self) -> u64 {
        self.free_steps + self.paced_steps
    }

    /// The zero-step scenario `setup_s` times: every thread, socket and
    /// session of the full one, and nothing published.
    pub fn without_steps(&self) -> Self {
        Self {
            free_steps: 0,
            paced_steps: 0,
            ..self.clone()
        }
    }

    /// The unit cube as `cells`³ hexahedra, no fields yet.
    fn geometry(&self) -> UnstructuredGrid {
        let n = self.cells;
        let mut g = UnstructuredGrid::new();
        for k in 0..=n {
            for j in 0..=n {
                for i in 0..=n {
                    g.add_point([i, j, k].map(|c| c as f64 / n as f64));
                }
            }
        }
        let id = |i: usize, j: usize, k: usize| ((k * (n + 1) + j) * (n + 1) + i) as i64;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    g.add_cell(
                        CellType::Hexahedron,
                        &[
                            id(i, j, k),
                            id(i + 1, j, k),
                            id(i + 1, j + 1, k),
                            id(i, j + 1, k),
                            id(i, j, k + 1),
                            id(i + 1, j, k + 1),
                            id(i + 1, j + 1, k + 1),
                            id(i, j + 1, k + 1),
                        ],
                    );
                }
            }
        }
        g
    }

    /// Step `step`'s block: travelling waves over `geometry`.
    fn block(&self, geometry: &UnstructuredGrid, step: u64) -> MultiBlock {
        let t = 0.1 * step as f64;
        let [a, b, c, d] = self.phases;
        let tau = std::f64::consts::TAU;
        let mut g = geometry.clone();
        let pressure = g
            .points
            .iter()
            .map(|p| (tau * p[0] + a + t).sin() * (tau * p[2] + b).cos())
            .collect();
        let velocity = g
            .points
            .iter()
            .flat_map(|p| {
                [
                    (tau * p[1] + c + t).sin(),
                    (tau * p[2] + d - t).cos(),
                    (tau * p[0] + a).sin() * (tau * p[1] + b + t).cos(),
                ]
            })
            .collect();
        g.add_point_data(DataArray::scalars_f64("pressure", pressure))
            .expect("one value per point");
        g.add_point_data(DataArray::vectors_f64("velocity", velocity))
            .expect("three values per point");
        MultiBlock::local(0, 1, g)
    }
}

/// What one consumer session saw.
#[derive(Default)]
struct SessionLog {
    steps: Vec<u64>,
    /// `(crc32, length)` of each frame's PNG.
    digests: Vec<(u32, usize)>,
    arrivals: Vec<Instant>,
    error: Option<String>,
}

/// What one scenario produced.
pub struct ScenarioRun {
    wall_s: f64,
    /// First publish to the last live session holding the last free step.
    phase_a_s: f64,
    report: StagingReport,
    live: Vec<SessionLog>,
    late: SessionLog,
    /// Phase B: ms from a step's due time to each live session holding it.
    latencies_ms: Vec<f64>,
    /// Phase B: ms the generator published after a step's due time.
    lateness_ms: Vec<f64>,
    connect_ms: Vec<f64>,
}

/// Progress the threads share: how many live sessions hold the last free
/// step and the last step of all, and when phase B began.
#[derive(Default)]
struct Progress {
    hold_last_free: AtomicUsize,
    hold_last: AtomicUsize,
    phase_a_started: Mutex<Option<Instant>>,
    phase_b_started: Mutex<Option<Instant>>,
}

fn wait_until(cond: impl Fn() -> bool) {
    let deadline = Instant::now() + FRAME_TIMEOUT;
    while !cond() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Connect one TCP session and wait until the service has registered it.
fn connect(
    addr: &str,
    spec: &SessionSpec,
    handle_count: impl Fn() -> usize,
) -> (ConsumerClient, f64) {
    let before = handle_count();
    let (secs, client) = timed(|| {
        let client = ConsumerClient::connect(addr, spec, CREDITS).expect("connect to the service");
        wait_until(|| handle_count() > before);
        client
    });
    (client, secs * 1e3)
}

/// Receive until `End`, granting one credit per frame.
fn consume(
    mut client: ConsumerClient,
    scenario: &Scenario,
    progress: Option<&Progress>,
    rec: &Recorder,
) -> SessionLog {
    let mut log = SessionLog::default();
    loop {
        let frame = {
            let _s = rec.span("transport.consumer_next_frame", 0);
            client.next_frame(FRAME_TIMEOUT)
        };
        match frame {
            Ok(Some(frame)) => {
                log.arrivals.push(Instant::now());
                log.steps.push(frame.step);
                log.digests.push((crc32(&frame.png), frame.png.len()));
                // The service may already be gone after its last frame.
                let _ = client.grant(1);
                if let Some(p) = progress {
                    if frame.step == scenario.free_steps {
                        p.hold_last_free.fetch_add(1, Ordering::SeqCst);
                    }
                    if frame.step == scenario.steps() {
                        p.hold_last.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            Ok(None) => return log,
            Err(e) => {
                log.error = Some(e.to_string());
                return log;
            }
        }
    }
}

/// Run the scenario once.
pub fn run_scenario(scenario: &Scenario, rec: &Arc<Recorder>) -> ScenarioRun {
    let _ = std::fs::remove_dir_all(&scenario.park_dir);
    let started = Instant::now();
    let (writers, mut readers) = StagingNetwork::build_wired(
        1,
        1,
        16,
        StagingLink::test_tiny(),
        QueuePolicy::Block,
        FaultPlan::none(),
        WriterConfig::default(),
        WireKind::Tcp,
    )
    .expect("loopback wire");
    let service = StagingService::new(readers.remove(0), 1, &scenario.park_dir, CACHE_FRAMES);
    let (listener, port) = loopback_listener().expect("consumer port");
    service.listen_consumers(listener);
    let handle = service.handle();
    let addr = format!("127.0.0.1:{port}");
    let service_thread = std::thread::spawn(move || {
        run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
            s.run(comm).expect("staging service")
        })
        .swap_remove(0)
    });

    let progress = Arc::new(Progress::default());
    let mut connect_ms = Vec::new();
    let live_threads: Vec<_> = (0..scenario.consumers)
        .map(|_| {
            let (client, ms) = connect(&addr, &scenario.live_spec, || handle.attached());
            connect_ms.push(ms);
            let (scenario, progress, rec) =
                (scenario.clone(), Arc::clone(&progress), Arc::clone(rec));
            std::thread::spawn(move || consume(client, &scenario, Some(&progress), &rec))
        })
        .collect();

    // The generator: its own one-rank world, as a simulation's writer is.
    let (published_tx, published_rx) = mpsc::channel::<Vec<f64>>();
    let (finish_tx, finish_rx) = mpsc::channel::<()>();
    let generator = {
        let (scenario, progress, rec) = (scenario.clone(), Arc::clone(&progress), Arc::clone(rec));
        let finish_rx = Mutex::new(finish_rx);
        std::thread::spawn(move || {
            run_ranks_with_state(MachineModel::test_tiny(), writers, move |comm, writer| {
                let geometry = scenario.geometry();
                let arrays = vec!["pressure".to_string(), "velocity".to_string()];
                let mut analysis = TransportAnalysis::new(MESH_NAME, arrays, writer);
                let mut publish = |comm: &mut Comm, step: u64| {
                    let block = scenario.block(&geometry, step);
                    let mut da = StaticDataAdaptor::new(MESH_NAME, block, 0.1 * step as f64, step);
                    let _s = rec.span("transport.writer_put", step);
                    analysis.execute(comm, &mut da).expect("publish");
                };
                *progress.phase_a_started.lock().expect("progress") = Some(Instant::now());
                for step in 1..=scenario.free_steps {
                    publish(comm, step);
                }
                if scenario.free_steps > 0 {
                    comm.external_wait(|| {
                        wait_until(|| {
                            progress.hold_last_free.load(Ordering::SeqCst) >= scenario.consumers
                        });
                    });
                }
                let phase_b = Instant::now();
                *progress.phase_b_started.lock().expect("progress") = Some(phase_b);
                let mut lateness_ms = Vec::new();
                for i in 0..scenario.paced_steps {
                    let due = phase_b + scenario.period * i as u32;
                    comm.external_wait(|| {
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    });
                    lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    publish(comm, scenario.free_steps + 1 + i);
                }
                let _ = published_tx.send(lateness_ms);
                // Hold the stream open until the late joiner is attached;
                // dropping the writer then ends it.
                let finish_rx = finish_rx.lock().expect("finish channel");
                let _ = comm.external_wait(|| finish_rx.recv_timeout(FRAME_TIMEOUT));
            });
        })
    };

    let lateness_ms = published_rx
        .recv_timeout(FRAME_TIMEOUT)
        .expect("the generator publishes every step");
    if scenario.steps() > 0 {
        wait_until(|| progress.hold_last.load(Ordering::SeqCst) >= scenario.consumers);
    }
    // Every live session holds every step, so the service is idle and the
    // joiner's catch-up is a pure replay of the park files.
    let (late_client, ms) = connect(&addr, &scenario.late_spec, || handle.attached());
    connect_ms.push(ms);
    let late_thread = {
        let (scenario, rec) = (scenario.clone(), Arc::clone(rec));
        std::thread::spawn(move || consume(late_client, &scenario, None, &rec))
    };
    let _ = finish_tx.send(());

    generator.join().expect("generator world");
    let report = service_thread.join().expect("service world");
    let live: Vec<SessionLog> = live_threads
        .into_iter()
        .map(|t| t.join().expect("consumer thread"))
        .collect();
    let late = late_thread.join().expect("late consumer thread");
    let wall_s = started.elapsed().as_secs_f64();

    let phase_a_started = progress
        .phase_a_started
        .lock()
        .expect("progress")
        .expect("generator ran");
    let phase_b_started = progress
        .phase_b_started
        .lock()
        .expect("progress")
        .expect("generator ran");
    let arrival = |log: &SessionLog, step: u64| {
        log.steps
            .iter()
            .position(|s| *s == step)
            .map(|i| log.arrivals[i])
    };
    let phase_a_s = live
        .iter()
        .filter_map(|log| arrival(log, scenario.free_steps))
        .max()
        .map_or(0.0, |t| t.duration_since(phase_a_started).as_secs_f64());
    let latencies_ms = (0..scenario.paced_steps)
        .flat_map(|i| {
            let due = phase_b_started + scenario.period * i as u32;
            let step = scenario.free_steps + 1 + i;
            live.iter()
                .filter_map(move |log| arrival(log, step))
                .map(move |t| t.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect();
    ScenarioRun {
        wall_s,
        phase_a_s,
        report,
        live,
        late,
        latencies_ms,
        lateness_ms,
        connect_ms,
    }
}

impl ScenarioRun {
    /// Every consumer saw every step once and in order; identical specs
    /// got byte-identical frames; the late joiner caught up on exactly the
    /// parked steps; every cache lookup was a hit or a miss; nothing lost.
    fn check(&self, scenario: &Scenario, checks: &mut Checks) {
        let all_steps: Vec<u64> = (1..=scenario.steps()).collect();
        for (who, log) in self
            .live
            .iter()
            .map(|l| ("live", l))
            .chain([("late", &self.late)])
        {
            checks.count(
                scenario.steps(),
                log.steps.len() as u64,
                "frames a session received",
            );
            checks.check(log.steps == all_steps && log.error.is_none(), || {
                format!(
                    "a {who} session saw steps {:?} (error: {:?})",
                    log.steps, log.error
                )
            });
        }
        for log in &self.live[1..] {
            checks.check(log.digests == self.live[0].digests, || {
                "two sessions with one spec received different frames".into()
            });
        }
        if scenario.steps() > 0 {
            checks.check(self.late.digests != self.live[0].digests, || {
                "the late joiner's camera rendered the live sessions' frames".into()
            });
        }
        let r = &self.report;
        checks.count(scenario.steps(), r.steps, "steps the service drained");
        checks.count(scenario.steps(), r.parked_appends, "steps parked");
        checks.check(r.sessions.len() == scenario.consumers + 1, || {
            format!("{} sessions admitted", r.sessions.len())
        });
        let late = r.sessions.last().expect("the late session");
        checks.count(
            scenario.steps(),
            late.catchup_steps,
            "steps the late joiner caught up on",
        );
        checks.check(r.cache_hits + r.cache_misses == r.frames_sent(), || {
            format!(
                "{} hits + {} misses, {} frames sent",
                r.cache_hits,
                r.cache_misses,
                r.frames_sent()
            )
        });
        checks.check(
            r.short_reads == 0 && r.sessions.iter().all(|s| !s.detached),
            || format!("{} short reads; a session was detached", r.short_reads),
        );
    }
}

pub fn run_untraced(args: &RunArgs) -> Outcome {
    let tmp = host::temp_dir(args.workload.name()).expect("create the scratch directory");
    let scenario = Scenario::new(args.seed, args.smoke, &tmp);
    let zero = scenario.without_steps();
    let off = Arc::new(Recorder::off());
    let mut out = Outcome::default();
    let mut phase_a = Vec::new();
    let measured = measure_end_to_end(
        args,
        || {
            run_scenario(&zero, &off);
        },
        || {
            let run = run_scenario(&scenario, &off);
            run.check(&scenario, &mut out.checks);
            phase_a.push(run.phase_a_s);
            run.wall_s
        },
    );
    let _ = std::fs::remove_dir_all(&tmp);
    // The closed-loop phase is this workload's throughput; the paced phase
    // runs at the generator's rate by construction.
    let steps_per_s = scenario.free_steps as f64 / (median(&phase_a) * measured.speed);
    measured.record(steps_per_s, &mut out.metrics);
    out
}

pub fn run_traced(args: &RunArgs) -> Outcome {
    let tmp = host::temp_dir(args.workload.name()).expect("create the scratch directory");
    let scenario = Scenario::new(args.seed, args.smoke, &tmp);
    let off = Arc::new(Recorder::off());
    let on = Arc::new(Recorder::on());
    let mut out = Outcome::default();
    let mut runs: Vec<ScenarioRun> = Vec::new();
    let checks = &mut out.checks;
    let walls = alternate(
        args.seconds,
        2,
        &mut [
            &mut || {
                let run = run_scenario(&scenario, &off);
                run.check(&scenario, checks);
                let wall = run.wall_s;
                runs.push(run);
                wall
            },
            &mut || run_scenario(&scenario, &on).wall_s,
        ],
    );
    let spans: Vec<Span> = on.take();
    let m = &mut out.metrics;
    let pooled = |f: fn(&ScenarioRun) -> &Vec<f64>| -> Vec<f64> {
        runs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let last = runs.last().expect("one round");
    let frames_a = (scenario.free_steps * scenario.consumers as u64) as f64;
    m.set(
        "e2e.frames_per_s",
        frames_a / median(&runs.iter().map(|r| r.phase_a_s).collect::<Vec<_>>()),
    );
    m.set(
        "e2e.bytes_per_trigger",
        last.report.bytes_received as f64 / scenario.steps() as f64,
    );
    let latencies_ms = pooled(|r| &r.latencies_ms);
    m.set("e2e.frame_latency_ms_p50", median(&latencies_ms));
    m.set("e2e.frame_latency_ms_p95", percentile(&latencies_ms, 95.0));
    m.set(
        "e2e.generator_lateness_ms_p95",
        percentile(&pooled(|r| &r.lateness_ms), 95.0),
    );
    m.set("render.frame_cache_hit_ratio", last.report.cache_hit_rate());
    m.set(
        "transport.session_connect_ms",
        median(&pooled(|r| &r.connect_ms)),
    );
    let late = last.report.sessions.last().expect("the late session");
    m.set("transport.catchup_steps", late.catchup_steps as f64);
    m.set("transport.short_reads", last.report.short_reads as f64);
    m.set(
        "transport.writer_put_ms_p50",
        median(&spans::durations_ms(&spans, "transport.writer_put")),
    );
    m.set(
        "bench.trace_overhead_pct",
        pct_over(median(&walls[1]), median(&walls[0])),
    );

    // The park file, on this scenario's real frame.
    let frame = marshal_blocks(0, 1, 0.1, &scenario.block(&scenario.geometry(), 1));
    m.set("transport.bp_bytes_per_step", frame.len() as f64);
    let (append_ms, read_ms) =
        stations::park_file(&tmp.join("station"), &frame, scenario.steps() as usize);
    m.set("transport.park_append_ms", append_ms);
    m.set("transport.catchup_read_ms", read_ms);

    spans::write_trace(args.workload.name(), &spans);
    let _ = std::fs::remove_dir_all(&tmp);
    out
}
