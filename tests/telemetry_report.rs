//! Integration: the unified telemetry bus end to end — a pipelined in situ
//! run with fault injection and a degraded in-transit run each emit one
//! `RunReport` that answers the observability questions (per-step series,
//! p95 step time, backpressure, virtual fault timestamps, memory
//! watermarks) without scraping stdout, and attaching the bus never
//! perturbs the solver.

use commsim::{ConsumerStall, FaultPlan, LinkFaultSpec, MachineModel};
use nek_sensei::{
    run_insitu, run_intransit, EndpointMode, ExecMode, InSituConfig, InSituMode, InTransitConfig,
};
use sem::cases::{pb146, rbc, CaseParams};
use telemetry::{EventKind, RunReport, REPORT_SCHEMA};
use transport::{QueuePolicy, StagingLink, WriterConfig};

/// Pipelined checkpointing run with a 50-virtual-second consumer stall at
/// step 2 — the ISSUE's flagship scenario.
fn stalled_insitu_config(telemetry: bool, output_dir: Option<std::path::PathBuf>) -> InSituConfig {
    let mut params = CaseParams::pb146_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    InSituConfig {
        case: pb146(&params, 4),
        ranks: 2,
        steps: 8,
        trigger_every: 2,
        machine: MachineModel::polaris(),
        image_size: (64, 48),
        mode: InSituMode::Checkpointing,
        exec: ExecMode::Pipelined,
        sched: Default::default(),
        faults: FaultPlan {
            stalls: vec![ConsumerStall {
                endpoint: 0,
                at_step: 2,
                seconds: 50.0,
            }],
            ..FaultPlan::none()
        },
        output_dir,
        trace: true,
        telemetry,
        recovery: Default::default(),
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nek-sensei-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn pipelined_fault_run_emits_complete_run_report() {
    let r = run_insitu(&stalled_insitu_config(true, None));
    let report = r.run_report.expect("telemetry: true collects a report");

    // Manifest describes the run.
    assert_eq!(report.manifest.workflow, "insitu");
    assert_eq!(report.manifest.mode, "checkpointing");
    assert_eq!(report.manifest.exec, "pipelined");
    assert_eq!(report.manifest.ranks, 2);
    assert_eq!(report.manifest.steps, 8);
    assert!(report.manifest.fault_plan.contains("stalls=1"));

    // Series/step-count agreement: one sample per solver step, none
    // evicted at this size, steps contiguous from 1.
    assert_eq!(report.series.len(), 8);
    assert_eq!(report.evicted_samples, 0);
    let steps: Vec<u64> = report.series.iter().map(|s| s.step).collect();
    assert_eq!(steps, (1..=8).collect::<Vec<_>>());
    // The series timeline is contiguous on rank 0's clock.
    for w in report.series.windows(2) {
        assert_eq!(
            w[0].t_end.to_bits(),
            w[1].t_start.to_bits(),
            "sample boundaries must chain"
        );
    }

    // The p95 readout works and the stall's backpressure reached the
    // producer (50 s parked in a <1 s/step run must dominate).
    assert!(report.step_time_p95() > 0.0);
    assert!(
        report.total_backpressure_wait() > 10.0,
        "50 s stall must back up into the producer: got {}",
        report.total_backpressure_wait()
    );

    // Traced phase self-times landed in the samples.
    assert!(
        report
            .series
            .iter()
            .any(|s| s.phase_self.iter().any(|(n, t)| n == "sem/cg" && *t > 0.0)),
        "per-step phase attribution missing"
    );

    // So did the pressure multigrid's coarse solve, and the report says
    // what it solved: the 3×3×5 order-1 grid less its Dirichlet outflow
    // plane and five vertices inside the pebbles, one plane to the band.
    assert!(
        (report.series.iter()).all(|s| s
            .phase_self
            .iter()
            .any(|(n, t)| n == "sem/mg_coarse" && *t > 0.0)),
        "every step's coarse solves must be attributed"
    );
    let gauge = |name: &str| match report.metric(name) {
        Some(telemetry::MetricValue::Gauge(g)) => Some(*g),
        None => None,
        other => panic!("{name} is not a gauge: {other:?}"),
    };
    assert_eq!(gauge("rank0/sem/coarse_dofs"), Some(31.0));
    assert_eq!(gauge("rank0/sem/coarse_band"), Some(9.0));
    assert_eq!(gauge("rank1/sem/coarse_dofs"), None, "reported once");

    // The injected stall is a structured event with its virtual onset
    // time, and checkpoint writes are logged too.
    let stalls: Vec<_> = report.events_of(EventKind::FaultInjected).collect();
    assert_eq!(stalls.len(), 1, "one stall injected");
    assert_eq!(stalls[0].step, Some(2));
    assert!(stalls[0].at > 0.0, "virtual timestamp recorded");
    assert_eq!(stalls[0].pid, 1, "stall happens on the consumer world");
    assert_eq!(
        report.events_of(EventKind::CheckpointWrite).count(),
        8,
        "4 triggers x 2 ranks"
    );

    // Events come out sorted by virtual time.
    for w in report.events.windows(2) {
        assert!(w[0].at <= w[1].at, "events must be time-ordered");
    }

    // Memory watermarks: every accountant present, roll-up consistent.
    assert!(!report.watermarks.is_empty());
    assert!(report
        .watermarks
        .iter()
        .any(|(name, _, peak)| name.ends_with("/snapshot-pool") && *peak > 0));
    assert!(report.memory.host_aggregate_peak > 0);

    // Instrument registry captured the solver histogram (sim world) and
    // the checkpoint counter (consumer world, `endpoint<r>/` scope).
    assert!(report.metric("rank0/sem/step_time").is_some());
    assert!(report
        .metric("endpoint0/checkpoint/bytes_written")
        .is_some());
}

#[test]
fn telemetry_is_invisible_to_the_solver() {
    // Bitwise-identical artifacts: the same faulted pipelined run, with
    // and without the bus attached, must write identical checkpoints and
    // finish at the identical virtual time.
    let dir_off = scratch_dir("off");
    let dir_on = scratch_dir("on");
    let off = run_insitu(&stalled_insitu_config(false, Some(dir_off.clone())));
    let on = run_insitu(&stalled_insitu_config(true, Some(dir_on.clone())));

    assert!(off.run_report.is_none());
    assert!(on.run_report.is_some());
    assert_eq!(
        off.metrics.time_to_solution.to_bits(),
        on.metrics.time_to_solution.to_bits(),
        "telemetry must never advance the virtual clock"
    );
    assert_eq!(off.bytes_written, on.bytes_written);

    let mut names_off: Vec<String> = std::fs::read_dir(&dir_off)
        .expect("dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names_off.sort();
    assert!(!names_off.is_empty(), "checkpoint files written");
    for name in &names_off {
        let a = std::fs::read(dir_off.join(name)).expect("read off");
        let b = std::fs::read(dir_on.join(name)).expect("read on");
        assert_eq!(a, b, "{name} must be bitwise identical");
    }
    let _ = std::fs::remove_dir_all(&dir_off);
    let _ = std::fs::remove_dir_all(&dir_on);
}

#[test]
fn intransit_degradation_is_visible_in_the_event_log() {
    // Total link failure: every producer's circuit breaker opens and it
    // switches to the BP file engine — all visible as timestamped events.
    let dir = scratch_dir("intransit");
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    let cfg = InTransitConfig {
        case: rbc(&params, 1e4, 0.7),
        sim_ranks: 4,
        ratio: 4,
        steps: 10,
        trigger_every: 2,
        machine: MachineModel::juwels_booster(),
        link: StagingLink::ucx_hdr200(),
        queue_capacity: 8,
        policy: QueuePolicy::Block,
        mode: EndpointMode::Checkpointing,
        sched: Default::default(),
        wire: Default::default(),
        staging_consumers: 0,
        staging_dir: None,
        image_size: (64, 48),
        output_dir: None,
        faults: FaultPlan::with_link(
            42,
            LinkFaultSpec {
                drop_prob: 1.0,
                ..LinkFaultSpec::default()
            },
        ),
        writer_config: WriterConfig::default(),
        fallback_dir: Some(dir.clone()),
        trace: false,
        telemetry: true,
        recovery: Default::default(),
    };
    let r = run_intransit(&cfg);
    let report = r.run_report.expect("telemetry: true collects a report");

    assert_eq!(report.manifest.workflow, "intransit");
    assert_eq!(report.manifest.endpoint_ranks, 1);

    // One breaker-open and one engine-switch per producer, each with a
    // positive virtual timestamp and ordered within each producer.
    let opens: Vec<_> = report.events_of(EventKind::CircuitBreakerOpen).collect();
    let switches: Vec<_> = report.events_of(EventKind::EngineSwitch).collect();
    assert_eq!(opens.len(), 4, "one per producer");
    assert_eq!(switches.len(), 4, "one per producer");
    for e in opens.iter().chain(&switches) {
        assert!(e.at > 0.0, "virtual timestamp recorded: {e:?}");
    }
    for producer in 0..4usize {
        let open = opens.iter().find(|e| e.rank == producer).expect("open");
        let sw = switches
            .iter()
            .find(|e| e.rank == producer)
            .expect("switch");
        assert!(open.at <= sw.at, "breaker opens before the engine switch");
        assert_eq!(sw.step, Some(6), "switch at the breaker-tripping trigger");
    }

    // Retries accumulated in the sim-world counters and the series.
    let retries: u64 = report
        .metrics
        .iter()
        .filter(|(n, _)| n.ends_with("/transport/retries"))
        .map(|(_, v)| match v {
            telemetry::MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum();
    assert!(retries > 0, "dropped frames must show up as retries");
    assert!(report.series.last().expect("series").retries > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_report_round_trips_through_json() {
    // A real report (not a fixture) survives serialize → parse losslessly.
    let r = run_insitu(&stalled_insitu_config(true, None));
    let report = r.run_report.expect("report");
    let json = report.to_json();
    assert!(json.contains(REPORT_SCHEMA));
    let back = RunReport::from_json(&json).expect("parse own output");
    assert_eq!(report, back, "JSON round trip must be lossless");
}

/// The event log is sorted by virtual timestamp with a stable
/// (pid, rank, step) tie-break — under both rank schedulers, and the
/// two schedulers produce the identical log.
#[test]
fn event_log_is_sorted_with_stable_tie_break_in_both_sched_modes() {
    let run = |sched: commsim::SchedMode| {
        let mut cfg = stalled_insitu_config(true, None);
        cfg.sched = sched;
        let r = run_insitu(&cfg);
        r.run_report
            .expect("telemetry: true collects a report")
            .events
    };
    let thread = run(commsim::SchedMode::Thread);
    let event = run(commsim::SchedMode::Event);
    for (label, events) in [("thread", &thread), ("event", &event)] {
        assert!(!events.is_empty(), "{label}: no events logged");
        for w in events.windows(2) {
            let a = (w[0].at, w[0].pid, w[0].rank, w[0].step);
            let b = (w[1].at, w[1].pid, w[1].rank, w[1].step);
            assert!(
                a <= b,
                "{label}: events out of order: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }
    assert_eq!(thread, event, "event logs differ across schedulers");
}

/// Every rank's row of the counter whose name ends in `base`.
fn counter_rows(report: &RunReport, base: &str) -> Vec<u64> {
    (report.metrics.iter())
        .filter(|(name, _)| name.ends_with(base))
        .map(|(_, v)| match v {
            telemetry::MetricValue::Counter(c) => *c,
            other => panic!("{base} is not a counter: {other:?}"),
        })
        .collect()
}

/// The event scheduler's hand-off counts ride the bus: an event-mode
/// report carries them per rank, and every collective parked exactly
/// all ranks but the one that completed it. A thread-mode run has no
/// scheduler and reports no such rows.
#[test]
fn event_mode_reports_carry_the_scheduler_hand_off_counts() {
    let run = |sched: commsim::SchedMode| {
        let mut cfg = stalled_insitu_config(true, None);
        cfg.exec = ExecMode::Synchronous;
        cfg.faults = FaultPlan::none();
        cfg.sched = sched;
        let r = run_insitu(&cfg);
        let sum = |base: &str| -> Option<u64> {
            let rows = counter_rows(r.run_report.as_ref().expect("telemetry: true"), base);
            (!rows.is_empty()).then(|| {
                assert_eq!(rows.len(), cfg.ranks, "one {base} row per rank");
                rows.iter().sum()
            })
        };
        (
            r.metrics.totals.collectives,
            sum("/sched/blocks_collective"),
            sum("/sched/blocks_message"),
        )
    };
    let (collectives, coll_parks, msg_parks) = run(commsim::SchedMode::Event);
    // `totals` sums over the two ranks; each collective parked one of them.
    assert_eq!(coll_parks, Some(collectives / 2));
    assert!(msg_parks.is_some());
    assert_eq!(run(commsim::SchedMode::Thread), (collectives, None, None));
}

/// Sort-last rendering reports the ratio it exploits: per rank, the
/// pixels of the tiles it rasterised and sent beside the whole images
/// (width × height × passes) it would have shipped.
#[test]
fn catalyst_reports_carry_the_active_pixel_counters() {
    let mut cfg = stalled_insitu_config(true, None);
    cfg.mode = InSituMode::Catalyst;
    cfg.exec = ExecMode::Synchronous;
    cfg.faults = FaultPlan::none();
    let report = run_insitu(&cfg).run_report.expect("telemetry: true");
    let per_rank = |base: &str| counter_rows(&report, base);
    // Four triggers of two passes at 64×48 on each of the two ranks.
    let image = 64 * 48 * 2 * 4;
    assert_eq!(per_rank("/render/image_pixels"), [image, image]);
    let tiles = per_rank("/render/tile_pixels");
    assert_eq!(tiles.len(), 2);
    for (rank, &tile) in tiles.iter().enumerate() {
        assert!(tile <= image, "rank {rank}: {tile} tile pixels of {image}");
    }
    let total: u64 = tiles.iter().sum();
    assert!(
        0 < total && total < 2 * image,
        "tiles must cover something and less than everything: {total}"
    );
}

/// `nekstat` parses reports from files and, under `--follow`, JSON a TCP
/// peer sent: the parser recurses once per nesting level, so the level
/// count must not be the sender's to choose. (Without the cap 100 000
/// brackets overflow the stack — an abort, not a panic.)
#[test]
fn json_depth_bomb_is_an_error_not_a_stack_overflow() {
    let bombs = [
        "[".repeat(100_000),
        "{\"a\":".repeat(100_000),
        "[{\"a\":".repeat(50_000),
    ];
    for bomb in &bombs {
        for parsed in [
            telemetry::json::parse(bomb).map(drop),
            RunReport::from_json(bomb).map(drop),
        ] {
            let err = parsed.expect_err("depth bomb must be refused");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }
    // The cap is on depth, not size: a legal document at the limit parses.
    let depth = telemetry::json::MAX_DEPTH;
    let legal = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    telemetry::json::parse(&legal).expect("nesting at the cap is legal");
}

mod report_json_boundary {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// A real report's JSON, produced once.
    fn real_report_json() -> &'static str {
        static JSON: OnceLock<String> = OnceLock::new();
        JSON.get_or_init(|| {
            let mut cfg = stalled_insitu_config(true, None);
            (cfg.ranks, cfg.steps) = (1, 2);
            run_insitu(&cfg).run_report.expect("report").to_json()
        })
    }

    /// Must not panic, whatever the text. `from_json` starts with
    /// `json::parse`, so every input goes through both.
    fn read(bytes: &[u8]) {
        let _ = RunReport::from_json(&String::from_utf8_lossy(bytes));
    }

    /// Every truncation of a real report, and the report with one bit
    /// flipped at every position, come back as `Ok` or `Err`.
    #[test]
    fn every_truncation_and_a_bit_flip_at_every_byte() {
        // Up to the closing brace, so that every strict prefix is broken.
        let real = real_report_json().trim_end().as_bytes();
        for cut in 0..real.len() {
            let prefix = String::from_utf8_lossy(&real[..cut]);
            assert!(RunReport::from_json(&prefix).is_err(), "cut at {cut}");
        }
        let mut flipped = real.to_vec();
        for at in 0..real.len() {
            flipped[at] ^= 1 << (at % 8);
            read(&flipped);
            flipped[at] = real[at];
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Arbitrary bytes, arbitrary JSON punctuation, and a real report
        /// with several bits flipped and its tail cut at once, come back
        /// as `Ok` or `Err`.
        #[test]
        fn report_json_never_panics(
            noise in vec(0u8..=255, 0..512),
            tokens in "[{}\\[:,\"\\\\a-z0-9 .+-]{0,64}",
            flips in vec((0.0..1.0f64, 0u8..8), 1..8),
            keep in 0.0..1.0f64,
        ) {
            read(&noise);
            read(tokens.as_bytes());
            let mut mutated = real_report_json().as_bytes().to_vec();
            for (at, bit) in flips {
                let at = (at * mutated.len() as f64) as usize;
                mutated[at] ^= 1 << bit;
            }
            read(&mutated);
            mutated.truncate((keep * mutated.len() as f64) as usize);
            read(&mutated);
        }
    }
}
