//! **Chaos soak** — the proof harness for the run supervisor: a matrix of
//! seeded randomized fault schedules (sim-rank crashes, consumer stalls,
//! on-disk checkpoint corruption) executed end-to-end under supervision.
//!
//! Every schedule must satisfy the recovery contract:
//!
//! 1. **Completion** — the run finishes all steps despite the schedule
//!    (the restart budget always covers the scheduled crash count).
//! 2. **Bounded loss** — every individual recovery replays at most one
//!    checkpoint interval of steps (crashes fire *before* that step's
//!    generation is cut, so the newest complete generation is never more
//!    than one interval behind).
//! 3. **No poisoned restores** — a restore never reads a generation that
//!    failed CRC/manifest validation: within each recovery, the resumed
//!    step is never one the scan just quarantined.
//! 4. **Observability** — restarts, lost steps, and quarantines all show
//!    up as supervisor counters and as `RecoveryStarted` /
//!    `RecoveryCompleted` / `GenerationQuarantined` events in the final
//!    attempt's RunReport.
//!
//! `--seeds N` sizes the matrix (default 24; CI runs a small fixed
//! subset), `--json-out FILE` writes a machine-readable summary.

use bench_harness::{cases, cli, format_table, HarnessArgs};
use commsim::{CheckpointCorruption, ConsumerStall, FaultPlan, MachineModel, SimRankCrash};
use nek_sensei::{
    run_supervised_insitu, run_supervised_intransit, EndpointMode, ExecMode, InSituConfig,
    InSituMode, InTransitConfig, RecoveryOptions, RecoveryStats, SupervisorConfig,
};
use sem::cases::{pb146, rbc, CaseParams};
use telemetry::{json, EventKind, RunReport, TelemetryHub};

const STEPS: usize = 12;
const INTERVAL: u64 = 2;
const MAX_RESTARTS: u32 = 3;

/// Deterministic splitmix64 stream; the workspace vendors no rand crate.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One seed's derived fault schedule.
struct Schedule {
    driver: Driver,
    faults: FaultPlan,
    crashes: usize,
    corruptions: usize,
    stalls: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Driver {
    InSitu,
    InTransit,
}

impl Driver {
    fn label(self) -> &'static str {
        match self {
            Self::InSitu => "insitu",
            Self::InTransit => "intransit",
        }
    }

    fn sim_ranks(self) -> usize {
        match self {
            Self::InSitu => 2,
            Self::InTransit => 4,
        }
    }
}

/// Derive a schedule from a seed. Crashes stay within the restart budget,
/// and scheduled disk corruption only ever hits generations at least two
/// intervals older than the first crash — the newest generation at any
/// crash is therefore always valid, which is what makes the ≤-one-interval
/// loss bound assertable per seed (older corrupted generations still get
/// audited and quarantined by the recovery scan).
fn schedule(seed: u64) -> Schedule {
    let mut rng = Rng::new(seed);
    let driver = if seed.is_multiple_of(3) {
        Driver::InTransit
    } else {
        Driver::InSitu
    };
    let ranks = driver.sim_ranks();
    let mut faults = FaultPlan::none();
    faults.seed = seed;

    let n_crashes = 1 + rng.below(2) as usize; // 1..=2 < MAX_RESTARTS + 1
    let mut at = 1 + rng.below(8); // first crash in 1..=8
    for _ in 0..n_crashes {
        faults.sim_crashes.push(SimRankCrash {
            rank: rng.below(ranks as u64) as usize,
            at_step: at,
        });
        // Later crashes land strictly after earlier ones so each consumes
        // exactly one restart.
        at += 2 + rng.below(3);
        if at > STEPS as u64 {
            break;
        }
    }
    let first_crash = faults.sim_crashes[0].at_step;

    // Corrupt a generation that is at least two intervals older than the
    // first crash (see above). Needs first_crash ≥ 2·INTERVAL + something
    // due, so it only fires on later-crashing seeds.
    let newest_safe = first_crash.saturating_sub(2 * INTERVAL);
    let corruptible = newest_safe / INTERVAL; // due generations ≤ newest_safe
    if corruptible > 0 {
        faults.disk_corruptions.push(CheckpointCorruption {
            rank: rng.below(ranks as u64) as usize,
            at_step: INTERVAL * (1 + rng.below(corruptible)),
        });
    }

    // A slow endpoint exercises staging backpressure on the in-transit
    // cells (the endpoint is transport-side, so in situ cells have none).
    if driver == Driver::InTransit {
        faults.stalls.push(ConsumerStall {
            endpoint: 0,
            at_step: 1 + rng.below(STEPS as u64 - 1),
            seconds: 0.5 + rng.below(25) as f64 / 10.0,
        });
    }

    Schedule {
        driver,
        crashes: faults.sim_crashes.len(),
        corruptions: faults.disk_corruptions.len(),
        stalls: faults.stalls.len(),
        faults,
    }
}

fn insitu_cfg(faults: FaultPlan, hub: TelemetryHub) -> InSituConfig {
    let mut params = CaseParams::pb146_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    InSituConfig {
        case: pb146(&params, 4),
        ranks: Driver::InSitu.sim_ranks(),
        steps: STEPS,
        trigger_every: 2,
        machine: MachineModel::test_tiny(),
        image_size: (32, 24),
        mode: InSituMode::Original,
        exec: ExecMode::Synchronous,
        sched: Default::default(),
        faults,
        output_dir: None,
        trace: false,
        telemetry: true,
        recovery: RecoveryOptions {
            hub: Some(hub),
            ..Default::default()
        },
    }
}

fn intransit_cfg(faults: FaultPlan, hub: TelemetryHub) -> InTransitConfig {
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    let (ranks, machine) = (Driver::InTransit.sim_ranks(), MachineModel::test_tiny());
    InTransitConfig {
        case: rbc(&params, 1e4, 0.7),
        image_size: (32, 24),
        faults,
        telemetry: true,
        recovery: RecoveryOptions {
            hub: Some(hub),
            ..Default::default()
        },
        ..cases::intransit_config(ranks, STEPS, 2, machine, EndpointMode::Checkpointing)
    }
}

/// Invariant 3: within each recovery, the resumed step is never one the
/// same scan quarantined. (A step quarantined in an *earlier* recovery may
/// legitimately be re-cut by the replay and restored later, so this is
/// checked per outcome, not against the union of all quarantines.)
fn assert_no_poisoned_restores(seed: u64, stats: &RecoveryStats) {
    for o in &stats.outcomes {
        assert!(
            o.resumed_from == 0 || !o.quarantined.contains(&o.resumed_from),
            "seed {seed}: resumed from step {} which that recovery's scan \
             quarantined ({:?})",
            o.resumed_from,
            o.quarantined
        );
    }
}

/// Check invariants 2–4 against the stats, counters and event log.
fn assert_contract(
    seed: u64,
    sched: &Schedule,
    stats: &RecoveryStats,
    hub: &TelemetryHub,
    report: &RunReport,
) {
    assert_eq!(
        stats.restarts as usize, sched.crashes,
        "seed {seed}: each scheduled crash consumes exactly one restart"
    );
    for o in &stats.outcomes {
        let lost = o.at_step.unwrap_or(0).saturating_sub(o.resumed_from);
        assert!(
            lost <= INTERVAL,
            "seed {seed}: recovery lost {lost} steps (> interval {INTERVAL}): {}",
            o.detail
        );
    }
    assert!(
        stats.lost_steps <= stats.restarts as u64 * INTERVAL,
        "seed {seed}: aggregate loss exceeds restarts × interval"
    );

    // Counters: the supervisor's ledger and the hub agree.
    assert_eq!(
        hub.counter_sum("supervisor/restarts"),
        stats.restarts as u64
    );
    assert_eq!(hub.counter_sum("supervisor/lost_steps"), stats.lost_steps);
    assert_eq!(
        hub.counter_sum("supervisor/quarantined_generations"),
        stats.quarantined
    );

    // Events: every recovery is visible in the final RunReport.
    let count = |kind: EventKind| report.events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(EventKind::RecoveryStarted), stats.restarts as usize);
    assert_eq!(count(EventKind::RecoveryCompleted), stats.restarts as usize);
    assert_eq!(
        count(EventKind::GenerationQuarantined),
        stats.quarantined as usize
    );
    assert_no_poisoned_restores(seed, stats);
}

struct SeedResult {
    seed: u64,
    driver: &'static str,
    crashes: usize,
    corruptions: usize,
    stalls: usize,
    restarts: u32,
    lost_steps: u64,
    quarantined: u64,
    max_lost: u64,
}

fn run_seed(seed: u64) -> SeedResult {
    let sched = schedule(seed);
    let dir = std::env::temp_dir().join(format!("chaos-soak-s{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sup = SupervisorConfig::new(dir.clone(), INTERVAL);
    sup.max_restarts = MAX_RESTARTS;
    let hub = TelemetryHub::default();

    let (stats, steps_done, report) = match sched.driver {
        Driver::InSitu => {
            let out = run_supervised_insitu(&insitu_cfg(sched.faults.clone(), hub.clone()), &sup);
            let report = out.report.run_report.expect("telemetry forced on");
            (out.recovery, out.report.steps, report)
        }
        Driver::InTransit => {
            let out =
                run_supervised_intransit(&intransit_cfg(sched.faults.clone(), hub.clone()), &sup);
            let report = out.report.run_report.expect("telemetry forced on");
            (out.recovery, out.report.steps, report)
        }
    };

    assert_eq!(
        steps_done, STEPS,
        "seed {seed}: run must complete all steps"
    );
    assert_contract(seed, &sched, &stats, &hub, &report);
    let _ = std::fs::remove_dir_all(&dir);

    let max_lost = stats
        .outcomes
        .iter()
        .map(|o| o.at_step.unwrap_or(0).saturating_sub(o.resumed_from))
        .max()
        .unwrap_or(0);
    SeedResult {
        seed,
        driver: sched.driver.label(),
        crashes: sched.crashes,
        corruptions: sched.corruptions,
        stalls: sched.stalls,
        restarts: stats.restarts,
        lost_steps: stats.lost_steps,
        quarantined: stats.quarantined,
        max_lost,
    }
}

fn main() {
    let args = HarnessArgs::parse(&cli::CHAOS_SOAK);
    let seeds = args.seeds.unwrap_or(24);
    println!(
        "chaos soak: {seeds} seeded fault schedules over supervised runs \
         ({STEPS} steps, checkpoint every {INTERVAL}, restart budget {MAX_RESTARTS})\n"
    );

    let mut results = Vec::new();
    for seed in 0..seeds {
        let r = run_seed(seed);
        println!(
            "seed {:>3} [{:>9}] crashes={} corruptions={} stalls={} -> \
             restarts={} lost={} quarantined={} (max single loss {})",
            r.seed,
            r.driver,
            r.crashes,
            r.corruptions,
            r.stalls,
            r.restarts,
            r.lost_steps,
            r.quarantined,
            r.max_lost,
        );
        results.push(r);
    }

    let headers = [
        "seed",
        "driver",
        "crashes",
        "corrupt",
        "stalls",
        "restarts",
        "lost",
        "quarantined",
    ];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.seed.to_string(),
                r.driver.to_string(),
                r.crashes.to_string(),
                r.corruptions.to_string(),
                r.stalls.to_string(),
                r.restarts.to_string(),
                r.lost_steps.to_string(),
                r.quarantined.to_string(),
            ]
        })
        .collect();
    println!("\n{}", format_table(&headers, &rows));

    let total_restarts: u32 = results.iter().map(|r| r.restarts).sum();
    let total_quarantined: u64 = results.iter().map(|r| r.quarantined).sum();
    println!(
        "all {seeds} schedules completed: {total_restarts} recoveries, \
         {total_quarantined} generations quarantined, every loss ≤ {INTERVAL} steps"
    );

    if let Some(path) = &args.json_out {
        let doc = json::object(|o| {
            o.text("schema", "nekstat/chaos-soak/v1")
                .uint("seeds", results.len() as u64)
                .uint("steps", STEPS as u64)
                .uint("interval", INTERVAL)
                .uint("max_restarts", MAX_RESTARTS.into())
                .bool("all_ok", true)
                .arr("results", &results, |o, r| {
                    o.uint("seed", r.seed)
                        .text("driver", r.driver)
                        .uint("crashes", r.crashes as u64)
                        .uint("corruptions", r.corruptions as u64)
                        .uint("stalls", r.stalls as u64)
                        .uint("restarts", r.restarts.into())
                        .uint("lost_steps", r.lost_steps)
                        .uint("quarantined", r.quarantined)
                        .num("max_lost_single_recovery", r.max_lost as f64)
                        .bool("ok", true);
                });
        });
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, doc).expect("write JSON summary");
        println!("\nwrote {}", path.display());
    }
}
