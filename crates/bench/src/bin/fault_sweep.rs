//! **Fault sweep** — the robustness companion to Figures 5/6: the
//! in-transit RBC pipeline under a grid of injected staging faults
//! (frame drop rate × endpoint crash step), reporting per cell how many
//! triggers were delivered in transit, degraded to the BP file engine,
//! or lost outright.
//!
//! Two invariants are checked on every run:
//!
//! 1. **Graceful degradation** — when the endpoint crashes mid-run, every
//!    trigger after the circuit breaker opens is parked to the file
//!    engine and reads back; the simulation itself never aborts.
//! 2. **Determinism** — the crash cell is executed twice with the same
//!    seed and must produce bit-identical endpoint delivery logs.

use bench_harness::{cases, cli, format_table, maybe_write_csv, HarnessArgs};
use commsim::{EndpointCrash, FaultPlan, LinkFaultSpec, MachineModel};
use nek_sensei::{run_intransit, EndpointMode, InTransitConfig, InTransitReport};
use sem::cases::{rbc, CaseParams};
use telemetry::json;
use transport::BpFileReader;

fn sweep_config(steps: usize, trigger: u64, faults: FaultPlan) -> InTransitConfig {
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    let machine = MachineModel::juwels_booster();
    InTransitConfig {
        case: rbc(&params, 1e4, 0.7),
        image_size: (64, 48),
        faults,
        ..cases::intransit_config(4, steps, trigger, machine, EndpointMode::Checkpointing)
    }
}

fn plan(seed: u64, drop_prob: f64, crash_step: Option<u64>) -> FaultPlan {
    let mut plan = FaultPlan::with_link(
        seed,
        LinkFaultSpec {
            drop_prob,
            ..LinkFaultSpec::default()
        },
    );
    if let Some(at_step) = crash_step {
        plan.crashes.push(EndpointCrash {
            endpoint: 0,
            at_step,
        });
    }
    plan
}

/// Count the steps parked in the fallback BP files and verify they read
/// back cleanly.
fn parked_on_disk(dir: &std::path::Path, producers: usize) -> u64 {
    let mut total = 0;
    for producer in 0..producers {
        let path = dir.join(format!("producer_{producer:05}.bp4l"));
        if !path.exists() {
            continue;
        }
        let mut reader = BpFileReader::open(&path).expect("fallback BP file");
        while let Some(_step) = reader.next_step().expect("valid BP frame") {
            total += 1;
        }
    }
    total
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fault-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_cell(steps: usize, trigger: u64, faults: FaultPlan, tag: &str) -> (InTransitReport, u64) {
    let dir = scratch(tag);
    let mut cfg = sweep_config(steps, trigger, faults);
    cfg.fallback_dir = Some(dir.clone());
    let report = run_intransit(&cfg);
    let parked = parked_on_disk(&dir, cfg.sim_ranks);
    let _ = std::fs::remove_dir_all(&dir);
    (report, parked)
}

fn main() {
    let args = HarnessArgs::parse(&cli::FAULT_SWEEP);
    let steps = args.steps.unwrap_or(12);
    let trigger = args.trigger.unwrap_or(2);
    let triggers_per_rank = steps as u64 / trigger.max(1);
    if triggers_per_rank == 0 {
        eprintln!(
            "--steps {steps} with trigger every {trigger} yields no transport triggers; \
             nothing to sweep"
        );
        return;
    }
    let seed = 2023;

    println!(
        "in-transit RBC under injected staging faults: 4 sim ranks, 1 endpoint, \
         {steps} steps, trigger every {trigger} ({triggers_per_rank} triggers/rank)\n"
    );

    let drop_rates = [0.0, 0.1, 0.3];
    let crash_steps = [None, Some(trigger + 1)];
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for crash in crash_steps {
        for drop_prob in drop_rates {
            let tag = format!("d{}c{}", (drop_prob * 100.0) as u32, crash.unwrap_or(0));
            let (r, parked_files) = run_cell(steps, trigger, plan(seed, drop_prob, crash), &tag);
            let d = r.degradation;
            assert_eq!(
                parked_files, d.parked_steps,
                "every parked trigger must read back from the file engine"
            );
            let total = triggers_per_rank * r.sim_ranks as u64;
            assert_eq!(
                d.staged_steps + d.lost_steps + d.parked_steps,
                total,
                "every trigger accounted for"
            );
            rows.push(vec![
                format!("{drop_prob:.2}"),
                crash.map_or("-".into(), |s| s.to_string()),
                d.staged_steps.to_string(),
                d.lost_steps.to_string(),
                d.parked_steps.to_string(),
                d.first_switch_step.map_or("-".into(), |s| s.to_string()),
                d.retries.to_string(),
                r.endpoint_steps.to_string(),
                r.endpoint_partial_steps.to_string(),
                r.endpoint_crashes.to_string(),
            ]);
            cells.push((drop_prob, crash, d, parked_files, r.endpoint_crashes));
        }
    }

    let headers = [
        "drop",
        "crash@",
        "staged",
        "lost",
        "parked",
        "switch@",
        "retries",
        "ep-steps",
        "ep-partial",
        "ep-crashes",
    ];
    println!("{}", format_table(&headers, &rows));
    maybe_write_csv(&args, "fault_sweep", &headers, &rows);

    // Machine-readable recovery-stats summary for CI (`--json-out FILE`).
    if let Some(path) = &args.json_out {
        let doc = json::object(|o| {
            o.text("schema", "nekstat/fault-sweep/v1")
                .uint("seed", seed)
                .uint("steps", steps as u64)
                .uint("trigger_every", trigger)
                .uint("triggers_per_rank", triggers_per_rank)
                .arr(
                    "cells",
                    &cells,
                    |o, (drop_prob, crash, d, parked_files, ep_crashes)| {
                        o.num("drop_prob", *drop_prob)
                            .opt_uint("crash_step", *crash)
                            .uint("staged", d.staged_steps)
                            .uint("lost", d.lost_steps)
                            .uint("parked", d.parked_steps)
                            .uint("parked_readback", *parked_files)
                            .opt_uint("switch_step", d.first_switch_step)
                            .uint("retries", d.retries)
                            .uint("endpoint_crashes", *ep_crashes as u64)
                            .bool("degraded", d.degraded());
                    },
                );
        });
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, doc).expect("write JSON summary");
        println!("wrote {}", path.display());
    }

    // Invariant 1: the crash cell degrades without losing triggers.
    let crash_at = trigger + 1;
    let (r, parked_files) = run_cell(steps, trigger, plan(seed, 0.0, Some(crash_at)), "inv1");
    let d = r.degradation;
    assert_eq!(r.endpoint_crashes, 1, "the scheduled crash must fire");
    assert!(d.degraded(), "producers must fall back to the file engine");
    assert_eq!(d.lost_steps, 0, "a crash is a disconnect: nothing is lost");
    assert_eq!(parked_files, d.parked_steps);
    assert!(parked_files > 0, "post-crash triggers must be parked");
    println!(
        "\ncrash at step {crash_at}: breaker opened, switch at step {}, \
         {} triggers staged in transit, {} parked to BP files (0 lost)",
        d.first_switch_step.expect("switch step"),
        d.staged_steps,
        d.parked_steps,
    );

    // Invariant 2: same plan + same seed => identical delivery logs.
    let faults = plan(seed, 0.25, Some(crash_at));
    let (first, _) = run_cell(steps, trigger, faults.clone(), "det-a");
    let (second, _) = run_cell(steps, trigger, faults, "det-b");
    assert_eq!(
        first.endpoint_delivered, second.endpoint_delivered,
        "fault injection must be deterministic under a fixed seed"
    );
    println!(
        "determinism: two seed-{seed} runs delivered identical step logs {:?}",
        first.endpoint_delivered
    );
}
