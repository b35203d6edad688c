//! The run supervisor: turns checkpoint generations into self-healing runs.
//!
//! [`run_supervised_insitu`] / [`run_supervised_intransit`] wrap the
//! workflow drivers in a recovery ladder:
//!
//! 1. **degrade** — transport-level faults are already absorbed inside the
//!    run (retry, circuit breaker, BP-file fallback); they never reach the
//!    supervisor.
//! 2. **restore** — a rank crash, a pipeline watchdog timeout, or a failed
//!    restore surfaces as a typed panic. The supervisor tears the attempt
//!    down, audits the checkpoint directory ([`scan_for_restore`] —
//!    quarantining every torn or CRC-invalid generation), restores every
//!    rank from the newest complete generation, strips the one-shot faults
//!    that already fired ([`FaultPlan::without_fired`]), and resumes.
//! 3. **give up** — when the bounded retry budget is exhausted, the last
//!    failure is re-raised unchanged.
//!
//! Every rung is visible on the telemetry bus: `RecoveryStarted` /
//! `RecoveryCompleted` / `GenerationQuarantined` events plus
//! `supervisor/*` counters, all collected into the final attempt's
//! [`telemetry::RunReport`] because one externally owned hub spans every
//! attempt.

use std::any::Any;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use commsim::{Comm, FaultPlan, InjectedCrash, WatchdogTimeout};
use sem::navier_stokes::FlowSolver;
use sem::snapshot::{SnapshotPool, SnapshotSpec};
use telemetry::{EventKind, TelemetryHub};

use crate::checkpoint::{
    quarantine_generation, scan_for_restore, CheckpointSpec, CheckpointStore, RestoredGeneration,
};
use crate::workflow::insitu::{run_insitu, InSituConfig, InSituReport};
use crate::workflow::intransit::{run_intransit, InTransitConfig, InTransitReport};

/// Per-driver recovery plumbing, carried inside the run configs. The
/// default disables everything — unsupervised runs behave exactly as
/// before.
#[derive(Clone, Default)]
pub struct RecoveryOptions {
    /// Cut crash-consistent checkpoint generations at this cadence, in
    /// every mode (independent of the Checkpointing consumer).
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume from this restored generation instead of step 0.
    pub resume_from: Option<Arc<RestoredGeneration>>,
    /// Virtual-seconds deadline for a single pipeline-credit wait; when a
    /// backpressure stall exceeds it the producer raises a typed
    /// [`WatchdogTimeout`] panic for the supervisor to classify.
    pub watchdog: Option<f64>,
    /// Externally owned hub so one telemetry stream (and one RunReport)
    /// spans every supervised attempt.
    pub hub: Option<TelemetryHub>,
}

/// Typed panic payload raised when a rank cannot restore from a
/// generation the scan had declared valid (e.g. a node-count mismatch
/// against the current case). The supervisor quarantines the generation
/// and falls back further.
#[derive(Debug, Clone)]
pub struct RestorePanic {
    /// Rank that failed to restore.
    pub rank: usize,
    /// Generation step it was restoring.
    pub step: u64,
    /// What went wrong.
    pub reason: String,
}

/// How the supervisor classified one failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A scheduled simulation-rank crash fired ([`InjectedCrash`]).
    InjectedCrash,
    /// The pipelined producer's credit wait blew its deadline.
    Watchdog,
    /// A rank failed to restore from a scanned generation.
    RestoreFailed,
    /// Any other rank panic.
    RankPanic,
}

impl FailureKind {
    /// Stable label for events and JSON summaries.
    pub fn label(self) -> &'static str {
        match self {
            Self::InjectedCrash => "injected_crash",
            Self::Watchdog => "watchdog",
            Self::RestoreFailed => "restore_failed",
            Self::RankPanic => "rank_panic",
        }
    }
}

/// One failed attempt, as recorded in [`RecoveryStats`].
#[derive(Debug, Clone)]
pub struct AttemptOutcome {
    /// Classification of the failure.
    pub failure: FailureKind,
    /// Step the failure was stamped with, when the payload carried one.
    pub at_step: Option<u64>,
    /// Step the next attempt resumed from (0 = from scratch).
    pub resumed_from: u64,
    /// Generation steps this recovery's scan quarantined. Disjoint from
    /// `resumed_from` by construction — the proof harness asserts it.
    pub quarantined: Vec<u64>,
    /// Human-readable failure description.
    pub detail: String,
}

/// What supervision did across the whole run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Restarts performed (failed attempts that were retried).
    pub restarts: u32,
    /// Steps recomputed because they post-dated the restored generation.
    pub lost_steps: u64,
    /// Generations quarantined across all recovery scans.
    pub quarantined: u64,
    /// Every failed attempt, in order.
    pub outcomes: Vec<AttemptOutcome>,
}

/// A driver report plus the supervision ledger.
#[derive(Debug, Clone)]
pub struct SupervisedReport<R> {
    /// The final (successful) attempt's report.
    pub report: R,
    /// What it took to get there.
    pub recovery: RecoveryStats,
}

/// Supervisor policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Where and how often generations are cut (and scanned on failure).
    pub checkpoint: CheckpointSpec,
    /// Failed attempts to retry before giving up.
    pub max_restarts: u32,
    /// Pipeline-credit watchdog deadline handed to the drivers.
    pub watchdog: Option<f64>,
}

impl SupervisorConfig {
    /// A policy writing generations under `dir` every `every` steps, with
    /// a 3-restart budget.
    pub fn new(dir: impl Into<std::path::PathBuf>, every: u64) -> Self {
        Self {
            checkpoint: CheckpointSpec::new(dir, every),
            max_restarts: 3,
            watchdog: None,
        }
    }
}

/// Run the in situ driver under supervision. Telemetry is forced on so
/// every recovery is visible in the returned report's RunReport.
pub fn run_supervised_insitu(
    cfg: &InSituConfig,
    sup: &SupervisorConfig,
) -> SupervisedReport<InSituReport> {
    let hub = cfg.recovery.hub.clone().unwrap_or_default();
    let ranks = cfg.ranks;
    supervise(sup, &hub, ranks, &cfg.faults, |faults, recovery| {
        let mut attempt = cfg.clone();
        attempt.telemetry = true;
        attempt.faults = faults;
        attempt.recovery = recovery;
        run_insitu(&attempt)
    })
}

/// Run the in transit driver under supervision (see
/// [`run_supervised_insitu`]).
pub fn run_supervised_intransit(
    cfg: &InTransitConfig,
    sup: &SupervisorConfig,
) -> SupervisedReport<InTransitReport> {
    let hub = cfg.recovery.hub.clone().unwrap_or_default();
    let ranks = cfg.sim_ranks;
    supervise(sup, &hub, ranks, &cfg.faults, |faults, recovery| {
        let mut attempt = cfg.clone();
        attempt.telemetry = true;
        attempt.faults = faults;
        attempt.recovery = recovery;
        run_intransit(&attempt)
    })
}

/// The retry loop shared by both drivers.
fn supervise<R>(
    sup: &SupervisorConfig,
    hub: &TelemetryHub,
    ranks: usize,
    base_faults: &FaultPlan,
    mut attempt: impl FnMut(FaultPlan, RecoveryOptions) -> R,
) -> SupervisedReport<R> {
    let mut faults = base_faults.clone();
    let mut resume: Option<Arc<RestoredGeneration>> = None;
    let mut stats = RecoveryStats::default();
    loop {
        let recovery = RecoveryOptions {
            checkpoint: Some(sup.checkpoint.clone()),
            resume_from: resume.clone(),
            watchdog: sup.watchdog,
            hub: Some(hub.clone()),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| attempt(faults.clone(), recovery)));
        let payload = match outcome {
            Ok(report) => {
                return SupervisedReport {
                    report,
                    recovery: stats,
                }
            }
            Err(payload) => payload,
        };
        let (kind, failed_step, detail) = classify(payload.as_ref());
        if stats.restarts >= sup.max_restarts {
            // Budget exhausted: the failure escapes unchanged (give up).
            resume_unwind(payload);
        }
        stats.restarts += 1;
        hub.counter("supervisor/restarts").inc();
        supervisor_event(
            hub,
            EventKind::RecoveryStarted,
            failed_step,
            format!("{}: {detail}", kind.label()),
        );

        // A restore failure means the scan trusted a generation the solver
        // could not load — quarantine it before rescanning so the fallback
        // can never pick it again.
        let mut quarantined_steps = Vec::new();
        if kind == FailureKind::RestoreFailed {
            if let Some(step) = failed_step {
                quarantine_generation(&sup.checkpoint.dir, step, ranks);
                stats.quarantined += 1;
                quarantined_steps.push(step);
                hub.counter("supervisor/quarantined_generations").inc();
                supervisor_event(
                    hub,
                    EventKind::GenerationQuarantined,
                    Some(step),
                    "restore failed on a scan-valid generation".to_string(),
                );
            }
        }

        let scan = scan_for_restore(&sup.checkpoint.dir, ranks);
        for q in &scan.quarantined {
            stats.quarantined += 1;
            quarantined_steps.push(q.step);
            hub.counter("supervisor/quarantined_generations").inc();
            supervisor_event(
                hub,
                EventKind::GenerationQuarantined,
                Some(q.step),
                q.reason.clone(),
            );
        }
        let resumed_from = scan.restored.as_ref().map(|g| g.step).unwrap_or(0);
        resume = scan.restored.map(Arc::new);

        let lost = failed_step
            .map(|f| f.saturating_sub(resumed_from))
            .unwrap_or(0);
        stats.lost_steps += lost;
        hub.counter("supervisor/lost_steps").add(lost);

        // One-shot faults at or before the failure already fired; a
        // replayed step must not re-trip them.
        if let Some(step) = failed_step {
            faults = faults.without_fired(step);
        }
        supervisor_event(
            hub,
            EventKind::RecoveryCompleted,
            Some(resumed_from),
            format!("resuming from step {resumed_from} ({lost} steps lost)"),
        );
        stats.outcomes.push(AttemptOutcome {
            failure: kind,
            at_step: failed_step,
            resumed_from,
            quarantined: quarantined_steps,
            detail,
        });
    }
}

/// Map a panic payload to a failure classification.
fn classify(payload: &(dyn Any + Send)) -> (FailureKind, Option<u64>, String) {
    if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
        return (
            FailureKind::InjectedCrash,
            Some(c.step),
            format!("sim rank {} crashed at step {}", c.rank, c.step),
        );
    }
    if let Some(w) = payload.downcast_ref::<WatchdogTimeout>() {
        return (
            FailureKind::Watchdog,
            Some(w.step),
            format!(
                "rank {} pipeline wait {:.1}s blew the deadline at step {}",
                w.rank, w.waited, w.step
            ),
        );
    }
    if let Some(r) = payload.downcast_ref::<RestorePanic>() {
        return (
            FailureKind::RestoreFailed,
            Some(r.step),
            format!(
                "rank {} could not restore generation {}: {}",
                r.rank, r.step, r.reason
            ),
        );
    }
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "opaque panic payload".to_string());
    (FailureKind::RankPanic, None, msg)
}

/// Push a supervisor event. The worlds are torn down between attempts, so
/// there is no rank clock: supervisor events carry `at = 0` and rely on
/// their step stamp for ordering context.
fn supervisor_event(hub: &TelemetryHub, kind: EventKind, step: Option<u64>, detail: String) {
    hub.push_event(telemetry::Event {
        at: 0.0,
        pid: 0,
        rank: 0,
        step,
        kind,
        detail,
    });
}

// ---------------------------------------------------------------------------
// Per-rank hooks the drivers call
// ---------------------------------------------------------------------------

/// Restore this rank's solver when the attempt resumes from a generation.
/// Returns the first step the loop should run (1 when starting fresh).
///
/// Restore problems raise a typed [`RestorePanic`] — the supervisor
/// quarantines the generation and falls back, rather than crashing.
pub(crate) fn resume_solver(
    comm: &mut Comm,
    solver: &mut FlowSolver,
    recovery: &RecoveryOptions,
) -> usize {
    let Some(gen) = &recovery.resume_from else {
        return 1;
    };
    if gen.dumps.len() != comm.size() {
        panic_any(RestorePanic {
            rank: comm.rank(),
            step: gen.step,
            reason: format!(
                "generation has {} dumps, world has {}",
                gen.dumps.len(),
                comm.size()
            ),
        });
    }
    let dump = &gen.dumps[comm.rank()];
    if let Err(err) = dump.restore_into(comm, solver) {
        panic_any(RestorePanic {
            rank: comm.rank(),
            step: gen.step,
            reason: err.to_string(),
        });
    }
    comm.telemetry().counter("supervisor/ranks_restored").inc();
    gen.step as usize + 1
}

/// Per-rank supervised-step state: the scheduled crash (if any) and the
/// generation writer. Owned by each rank's closure in the drivers.
pub(crate) struct SupervisedStepper {
    crash_at: Option<u64>,
    store: Option<(CheckpointStore, SnapshotPool, SnapshotSpec)>,
    faults: FaultPlan,
}

impl SupervisedStepper {
    pub(crate) fn new(comm: &Comm, recovery: &RecoveryOptions, faults: &FaultPlan) -> Self {
        let store = recovery.checkpoint.clone().map(|spec| {
            (
                CheckpointStore::new(spec),
                SnapshotPool::new(comm.accountant("ckpt-pool")),
                SnapshotSpec {
                    pressure: true,
                    velocity: true,
                    temperature: true,
                    ..SnapshotSpec::default()
                },
            )
        });
        Self {
            crash_at: faults.sim_crash_step(comm.rank()),
            store,
            faults: faults.clone(),
        }
    }

    /// Call after every solver step. Order matters for the lost-step
    /// bound: a crash scheduled at step *s* fires **before** step *s*'s
    /// generation is cut, so at most one checkpoint interval of work is
    /// ever rolled back.
    pub(crate) fn after_step(&mut self, comm: &mut Comm, solver: &mut FlowSolver, step: u64) {
        if self.crash_at == Some(step) {
            comm.telemetry_event(
                EventKind::FaultInjected,
                Some(step),
                format!("injected sim-rank crash (rank {})", comm.rank()),
            );
            panic_any(InjectedCrash {
                rank: comm.rank(),
                step,
            });
        }
        if let Some((store, pool, spec)) = &mut self.store {
            if store.spec().due(step) {
                let snap = solver.publish_snapshot(comm, spec, pool);
                let _sp = comm.span("supervisor/checkpoint");
                store.write_generation(comm, &snap, &self.faults);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::insitu::{ExecMode, InSituMode};
    use commsim::{MachineModel, SimRankCrash};
    use sem::cases::{pb146, CaseParams};

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("supervisor_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg(steps: usize, faults: FaultPlan) -> InSituConfig {
        let mut params = CaseParams::pb146_default();
        params.elems = [2, 2, 4];
        params.order = 2;
        InSituConfig {
            case: pb146(&params, 4),
            ranks: 2,
            steps,
            trigger_every: 2,
            machine: MachineModel::test_tiny(),
            image_size: (32, 24),
            mode: InSituMode::Original,
            exec: ExecMode::Synchronous,
            sched: Default::default(),
            faults,
            output_dir: None,
            trace: false,
            telemetry: false,
            recovery: RecoveryOptions::default(),
        }
    }

    #[test]
    fn crash_is_recovered_within_one_interval() {
        let dir = scratch("recover");
        let faults = FaultPlan {
            sim_crashes: vec![SimRankCrash {
                rank: 1,
                at_step: 5,
            }],
            ..FaultPlan::none()
        };
        let sup = SupervisorConfig::new(dir.clone(), 2);
        let out = run_supervised_insitu(&tiny_cfg(8, faults), &sup);
        assert_eq!(out.recovery.restarts, 1);
        assert_eq!(out.recovery.outcomes.len(), 1);
        assert_eq!(out.recovery.outcomes[0].failure, FailureKind::InjectedCrash);
        // Crash at 5, newest generation at 4: exactly 1 step recomputed.
        assert_eq!(out.recovery.outcomes[0].resumed_from, 4);
        assert_eq!(out.recovery.lost_steps, 1);
        assert!(out.recovery.lost_steps <= 2, "<= one interval");
        let report = out.report.run_report.expect("telemetry forced on");
        let started = report
            .events
            .iter()
            .filter(|e| e.kind == EventKind::RecoveryStarted)
            .count();
        let completed = report
            .events
            .iter()
            .filter(|e| e.kind == EventKind::RecoveryCompleted)
            .count();
        assert_eq!(started, 1);
        assert_eq!(completed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_exhaustion_reraises_the_typed_failure() {
        let dir = scratch("giveup");
        let faults = FaultPlan {
            sim_crashes: vec![
                SimRankCrash {
                    rank: 0,
                    at_step: 1,
                },
                SimRankCrash {
                    rank: 0,
                    at_step: 2,
                },
            ],
            ..FaultPlan::none()
        };
        let mut sup = SupervisorConfig::new(dir.clone(), 2);
        sup.max_restarts = 1;
        let cfg = tiny_cfg(6, faults);
        let err = catch_unwind(AssertUnwindSafe(|| run_supervised_insitu(&cfg, &sup)))
            .expect_err("budget of 1 cannot absorb 2 crashes");
        let crash = err
            .downcast_ref::<InjectedCrash>()
            .expect("typed payload escapes unchanged");
        assert_eq!(crash.step, 2, "the second crash is the one that escapes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_any_checkpoint_restarts_from_scratch() {
        let dir = scratch("scratch");
        let faults = FaultPlan {
            sim_crashes: vec![SimRankCrash {
                rank: 0,
                at_step: 1,
            }],
            ..FaultPlan::none()
        };
        let sup = SupervisorConfig::new(dir.clone(), 4);
        let out = run_supervised_insitu(&tiny_cfg(6, faults), &sup);
        assert_eq!(out.recovery.restarts, 1);
        assert_eq!(out.recovery.outcomes[0].resumed_from, 0);
        assert_eq!(out.recovery.lost_steps, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
