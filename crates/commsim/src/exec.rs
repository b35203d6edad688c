//! Execution modes: how the ranks of a [`crate::World`] are driven.
//!
//! Two executors implement the same rank-per-OS-thread spawn/join contract
//! (see [`Executor`]):
//!
//! * [`ThreadExecutor`] — every rank thread runs freely and blocks in the
//!   rendezvous primitives (channel timeouts, condvars). This is the
//!   original commsim behavior: simple, parallel on real cores, but every
//!   blocked rank still burns a 50 ms wakeup poll, and collectives wake
//!   all waiters per phase flip — at thousands of ranks the host drowns
//!   in futile wakeups. A hard world-size cap (see
//!   [`ThreadExecutor::max_ranks`]) turns the eventual OS thread-spawn
//!   failure into an actionable error.
//!
//! * [`EventExecutor`] — discrete-event mode. Rank threads exist only as
//!   resumable tasks: a single *run token* is granted to one rank at a
//!   time by [`EventSched`], and a rank returns it only where it would
//!   otherwise wait — a `recv` with no matching message, a collective
//!   that is not complete yet, an `external_wait` — or when it finishes.
//!   Sends never give it up. The scheduler always resumes the runnable
//!   rank with the **earliest virtual clock** (a pending queue keyed by
//!   the clock's bit pattern), so the run repeats exactly. Blocked ranks
//!   are woken by targeted `unpark`s (O(1) per message, O(waiters) per
//!   completed collective), which is what makes 10k-rank worlds
//!   practical.
//!
//! Virtual-time output is bitwise identical across the two executors by
//! construction: both drive the *same* rendezvous code in `comm.rs`, and
//! the clock rules there depend only on operation order and sizes — never
//! on which thread happened to run first. The differential suite in
//! `tests/scheduler_parity.rs` enforces this end to end.
//!
//! Mode selection: `NEK_SCHED_MODE=event` (or `thread`, the default), or
//! programmatically via [`with_mode`], which takes precedence and is
//! propagated into spawned rank threads like the compute-pool override.

use crate::comm::{Comm, World};
use crate::machine::MachineModel;
use crate::runner::RankResult;
use crate::sched::EventSched;
use memtrack::Registry;
use std::cell::Cell;
use std::sync::Arc;
use std::thread;

/// Which executor drives the rank world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// One free-running OS thread per rank (the original behavior).
    Thread,
    /// Discrete-event scheduling: one rank runs at a time, earliest
    /// virtual clock first.
    Event,
}

impl SchedMode {
    /// Read `NEK_SCHED_MODE` (`"event"` / `"thread"`); defaults to
    /// [`SchedMode::Thread`] when unset or unrecognised.
    pub fn from_env() -> Self {
        match std::env::var("NEK_SCHED_MODE") {
            Ok(v) if v.eq_ignore_ascii_case("event") => SchedMode::Event,
            _ => SchedMode::Thread,
        }
    }

    /// The effective mode on this thread: a [`with_mode`] override wins,
    /// otherwise the environment default applies.
    pub fn current() -> Self {
        mode_override().unwrap_or_else(Self::from_env)
    }

    /// Display label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedMode::Thread => "thread",
            SchedMode::Event => "event",
        }
    }
}

impl Default for SchedMode {
    /// The ambient mode ([`SchedMode::current`]), so configuration
    /// structs built with `..Default::default()` follow the environment
    /// or an enclosing [`with_mode`] scope.
    fn default() -> Self {
        Self::current()
    }
}

thread_local! {
    static MODE_OVERRIDE: Cell<Option<SchedMode>> = const { Cell::new(None) };
}

/// The active [`with_mode`] override on this thread, if any. Capture it
/// before spawning helper threads that should inherit the scope.
pub fn mode_override() -> Option<SchedMode> {
    MODE_OVERRIDE.with(|c| c.get())
}

/// Run `f` with the scheduler mode forced to `mode` on this thread
/// (restores the previous override on exit, including on panic).
pub fn with_mode<R>(mode: SchedMode, f: impl FnOnce() -> R) -> R {
    with_mode_override(Some(mode), f)
}

/// Run `f` under a captured [`mode_override`] (no-op when `None`). Used
/// to carry an enclosing `with_mode` scope across thread spawns.
pub fn with_mode_override<R>(over: Option<SchedMode>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SchedMode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MODE_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = MODE_OVERRIDE.with(|c| c.get());
    let _restore = Restore(prev);
    if over.is_some() {
        MODE_OVERRIDE.with(|c| c.set(over));
    }
    f()
}

/// Spawn-and-join contract shared by both executors: run `f` on every
/// rank of a fresh world and return per-rank results indexed by rank,
/// re-raising the first rank panic after poisoning the world.
pub trait Executor {
    /// The mode this executor implements.
    fn mode(&self) -> SchedMode;

    /// Run `f` on `size` ranks over `machine`, sharing `registry`.
    fn run_world<R, F>(
        &self,
        size: usize,
        machine: MachineModel,
        registry: Registry,
        f: F,
    ) -> Vec<RankResult<R>>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static;
}

/// Default per-rank stack: ranks mostly block in rendezvous, so stacks
/// stay small and hundreds of ranks fit comfortably.
pub const RANK_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Default world-size cap for [`ThreadExecutor`] (overridable via
/// `NEK_THREAD_MAX_RANKS`). Beyond ~2k free-running threads the condvar
/// broadcast storms in the collective rendezvous dominate wall time long
/// before the OS refuses to spawn, so the cap fails fast with a pointer
/// to event mode instead.
pub const THREAD_MODE_DEFAULT_MAX_RANKS: usize = 2048;

/// The original rank-per-thread executor: all ranks run concurrently and
/// block inside the rendezvous primitives.
#[derive(Debug, Clone, Copy)]
pub struct ThreadExecutor {
    /// Stack bytes per rank thread.
    pub stack_bytes: usize,
    /// Largest world this executor accepts; exceeding it panics with an
    /// actionable error instead of failing thread-by-thread at spawn.
    pub max_ranks: usize,
}

impl Default for ThreadExecutor {
    fn default() -> Self {
        let max_ranks = std::env::var("NEK_THREAD_MAX_RANKS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(THREAD_MODE_DEFAULT_MAX_RANKS);
        Self {
            stack_bytes: RANK_STACK_BYTES,
            max_ranks,
        }
    }
}

impl Executor for ThreadExecutor {
    fn mode(&self) -> SchedMode {
        SchedMode::Thread
    }

    fn run_world<R, F>(
        &self,
        size: usize,
        machine: MachineModel,
        registry: Registry,
        f: F,
    ) -> Vec<RankResult<R>>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        assert!(
            size <= self.max_ranks,
            "thread executor: world size {size} exceeds the {} free-running \
             OS-thread cap ({} B stacks). Use NEK_SCHED_MODE=event (the \
             discrete-event executor handles 10k+ virtual ranks), or raise \
             NEK_THREAD_MAX_RANKS if the host really has the headroom.",
            self.max_ranks,
            self.stack_bytes,
        );
        spawn_and_join(size, machine, registry, self.stack_bytes, None, f)
    }
}

/// The discrete-event executor: rank threads are coroutine-style tasks
/// suspended wherever they would wait; an [`EventSched`] resumes the
/// runnable rank with the earliest virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct EventExecutor {
    /// Stack bytes per rank task. Only one rank runs at a time, but every
    /// suspended rank keeps its stack; tests that spawn 10k trivial ranks
    /// shrink this well below [`RANK_STACK_BYTES`].
    pub stack_bytes: usize,
}

impl Default for EventExecutor {
    fn default() -> Self {
        Self {
            stack_bytes: RANK_STACK_BYTES,
        }
    }
}

impl EventExecutor {
    /// An executor with `stack_bytes` per rank task (for very wide,
    /// trivial-workload worlds).
    pub fn with_stack_bytes(stack_bytes: usize) -> Self {
        Self { stack_bytes }
    }
}

impl Executor for EventExecutor {
    fn mode(&self) -> SchedMode {
        SchedMode::Event
    }

    fn run_world<R, F>(
        &self,
        size: usize,
        machine: MachineModel,
        registry: Registry,
        f: F,
    ) -> Vec<RankResult<R>>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        let sched = Arc::new(EventSched::new(size));
        spawn_and_join(size, machine, registry, self.stack_bytes, Some(sched), f)
    }
}

/// The spawn/join loop both executors share. With a scheduler, each rank
/// registers itself and waits for the run token before touching user
/// code, and releases its slot when it finishes or unwinds.
fn spawn_and_join<R, F>(
    size: usize,
    machine: MachineModel,
    registry: Registry,
    stack_bytes: usize,
    sched: Option<Arc<EventSched>>,
    f: F,
) -> Vec<RankResult<R>>
where
    R: Send + 'static,
    F: Fn(&mut Comm) -> R + Send + Sync + 'static,
{
    let world = World::new_with_sched(size, machine, registry, sched.clone());
    let f = Arc::new(f);
    // Rank threads share one global compute pool (see `rayon::pool`); the
    // spawning thread's pool-size override carries over so e.g.
    // `pool::with_threads(1, || run_ranks(..))` forces sequential kernels
    // inside every rank. The scheduler-mode override carries the same way
    // so nested worlds spawned from rank code stay in the chosen mode.
    let pool_override = rayon::pool::override_threads();
    let sched_override = mode_override();
    let mut handles = Vec::with_capacity(size);
    for rank in 0..size {
        let world = Arc::clone(&world);
        let f = Arc::clone(&f);
        let sched = sched.clone();
        let handle = thread::Builder::new()
            .name(format!("rank{rank}"))
            .stack_size(stack_bytes)
            .spawn(move || {
                let mut comm = world.attach(rank);
                if let Some(s) = &sched {
                    // Wait for the run token; on a world already poisoned
                    // by an earlier rank panic, fall through — the first
                    // communication attempt aborts with the poison error.
                    s.start(rank);
                }
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    rayon::pool::with_override(pool_override, || {
                        with_mode_override(sched_override, || f(&mut comm))
                    })
                }));
                let out = match outcome {
                    Ok(value) => {
                        let time = comm.now();
                        let stats = *comm.stats();
                        Ok(RankResult {
                            rank,
                            value,
                            time,
                            stats,
                        })
                    }
                    Err(payload) => {
                        // A rank that panics because the world was already
                        // poisoned is collateral damage; remember that so the
                        // runner re-raises the original panic, not this one.
                        let secondary = world.is_poisoned();
                        world.poison();
                        Err((secondary, payload))
                    }
                };
                if let Some(s) = &sched {
                    // The scheduler's hand-off counts ride the telemetry
                    // bus, not `CommStats`: that struct must compare
                    // equal across executors.
                    let blocks = s.rank_blocks(rank);
                    let telemetry = comm.telemetry();
                    telemetry
                        .counter("sched/blocks_message")
                        .add(blocks.message);
                    telemetry
                        .counter("sched/blocks_collective")
                        .add(blocks.collective);
                    s.finish(rank);
                }
                out
            })
            .expect("failed to spawn rank thread");
        handles.push(handle);
    }

    let mut results: Vec<Option<RankResult<R>>> = (0..size).map(|_| None).collect();
    let mut primary_panic: Option<Box<dyn std::any::Any + Send>> = None;
    let mut secondary_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(result)) => {
                let rank = result.rank;
                results[rank] = Some(result);
            }
            Ok(Err((secondary, payload))) => {
                if secondary {
                    secondary_panic.get_or_insert(payload);
                } else {
                    primary_panic.get_or_insert(payload);
                }
            }
            Err(payload) => {
                primary_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = primary_panic.or(secondary_panic) {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.expect("rank produced no result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::BlockCounts;

    #[test]
    fn env_default_is_thread() {
        // The test harness never sets NEK_SCHED_MODE=event globally for
        // this unit test binary; current() must fall back cleanly.
        let m = SchedMode::current();
        assert!(matches!(m, SchedMode::Thread | SchedMode::Event));
    }

    #[test]
    fn with_mode_scopes_and_restores() {
        let base = SchedMode::current();
        let inner = with_mode(SchedMode::Event, SchedMode::current);
        assert_eq!(inner, SchedMode::Event);
        assert_eq!(SchedMode::current(), base);
        let nested = with_mode(SchedMode::Event, || {
            with_mode(SchedMode::Thread, SchedMode::current)
        });
        assert_eq!(nested, SchedMode::Thread);
        assert_eq!(SchedMode::current(), base);
    }

    #[test]
    fn with_mode_restores_on_panic() {
        let base = mode_override();
        let _ = std::panic::catch_unwind(|| {
            with_mode(SchedMode::Event, || panic!("boom"));
        });
        assert_eq!(mode_override(), base);
    }

    #[test]
    fn labels_round_trip() {
        assert_eq!(SchedMode::Thread.label(), "thread");
        assert_eq!(SchedMode::Event.label(), "event");
    }

    #[test]
    #[should_panic(expected = "exceeds the 4 free-running OS-thread cap")]
    fn thread_executor_caps_world_size() {
        let exec = ThreadExecutor {
            stack_bytes: RANK_STACK_BYTES,
            max_ranks: 4,
        };
        exec.run_world(5, MachineModel::test_tiny(), Registry::new(), |comm| {
            comm.rank()
        });
    }

    #[test]
    fn event_executor_matches_thread_executor_on_a_ring() {
        let run = |exec: &dyn Fn() -> Vec<RankResult<f64>>| exec();
        let workload = |comm: &mut Comm| {
            let n = comm.size();
            let r = comm.rank();
            comm.advance(r as f64 * 1e-3);
            comm.send((r + 1) % n, 7, r as u64, 64);
            let got = comm.recv::<u64>((r + n - 1) % n, 7);
            assert_eq!(got as usize, (r + n - 1) % n);
            let s = comm.allreduce(1.0, crate::ReduceOp::Sum);
            assert_eq!(s, n as f64);
            comm.now()
        };
        let a = run(&|| {
            ThreadExecutor::default().run_world(
                6,
                MachineModel::test_tiny(),
                Registry::new(),
                workload,
            )
        });
        let b = run(&|| {
            EventExecutor::default().run_world(
                6,
                MachineModel::test_tiny(),
                Registry::new(),
                workload,
            )
        });
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time.to_bits(), y.time.to_bits(), "rank {}", x.rank);
            assert_eq!(x.stats, y.stats, "rank {}", x.rank);
        }
    }

    /// An event world over a scheduler the test keeps a handle on.
    fn event_world<R, F>(size: usize, f: F) -> (Vec<RankResult<R>>, Arc<EventSched>)
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        let sched = Arc::new(EventSched::new(size));
        let results = spawn_and_join(
            size,
            MachineModel::test_tiny(),
            Registry::new(),
            RANK_STACK_BYTES,
            Some(Arc::clone(&sched)),
            f,
        );
        (results, sched)
    }

    #[test]
    fn each_allreduce_parks_all_ranks_but_the_last_to_arrive() {
        const RANKS: usize = 6;
        const ROUNDS: usize = 40;
        let (results, sched) = event_world(RANKS, |comm| {
            (0..ROUNDS)
                .map(|i| comm.allreduce((comm.rank() * i) as f64, crate::ReduceOp::Sum))
                .sum::<f64>()
        });
        let expected: f64 = (0..ROUNDS).map(|i| (15 * i) as f64).sum();
        assert!(results.iter().all(|r| r.value == expected));
        // Nobody waits to enter a collective and nobody is woken early:
        // one park per rank per collective, minus the rank that completes it.
        assert_eq!(
            sched.blocks(),
            BlockCounts {
                message: 0,
                collective: ((RANKS - 1) * ROUNDS) as u64,
            }
        );
    }

    #[test]
    fn a_rank_that_only_sends_keeps_the_token() {
        const SENDS: u32 = 50;
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let (_, sched) = event_world(4, move |comm| match comm.rank() {
            0 => {
                // Later in virtual time than every other rank: ordering
                // execution by timestamp would interleave them here.
                comm.advance(1.0);
                for i in 0..SENDS {
                    comm.send(1, 9, i, 4);
                    log2.lock().unwrap().push(0);
                }
            }
            1 => {
                for i in 0..SENDS {
                    assert_eq!(comm.recv::<u32>(0, 9), i);
                    log2.lock().unwrap().push(1);
                }
            }
            r => log2.lock().unwrap().push(r),
        });
        let log = log.lock().unwrap().clone();
        let first = log.iter().position(|&r| r == 0).unwrap();
        assert!(
            log[first..first + SENDS as usize].iter().all(|&r| r == 0),
            "another rank ran between two sends: {log:?}"
        );
        // Rank 1 parks once if it got to its first recv before rank 0 ran.
        let blocks = sched.blocks();
        assert!(blocks.message <= 1 && blocks.collective == 0, "{blocks:?}");
    }

    #[test]
    #[should_panic(expected = "scheduler deadlock")]
    fn one_collective_short_is_a_diagnosed_deadlock() {
        // Rank 2 leaves after the first barrier; ranks 0 and 1 park in the
        // second one, in the slot nobody will ever complete.
        event_world(3, |comm| {
            comm.barrier();
            if comm.rank() != 2 {
                comm.barrier();
            }
        });
    }

    /// Back-to-back collectives of five result types, every result
    /// depending on the round, folded into one checksum per rank. Rank 3
    /// stalls in real time now and then so the others pile up a full
    /// collective ahead of it.
    fn mixed_collective_laps(comm: &mut Comm) -> u64 {
        let (n, r) = (comm.size(), comm.rank());
        let mut sum = 0u64;
        for i in 0..2000usize {
            if r == 3 && i % 64 == 0 {
                thread::sleep(std::time::Duration::from_micros(200));
            }
            comm.advance((r + 1) as f64 * 1e-6);
            comm.barrier();
            let a = comm.allreduce((r * i) as f64, crate::ReduceOp::Sum);
            let mut v = [r as f64, i as f64, (r ^ i) as f64];
            comm.allreduce_vec(&mut v, crate::ReduceOp::Max);
            let g = comm.allgather(vec![r as u8; i % 5], (i % 5) as u64);
            let b = comm.bcast(i % n, (r * 1000 + i) as u64, 8);
            assert_eq!(b, ((i % n) * 1000 + i) as u64, "round {i}");
            assert!(g
                .iter()
                .enumerate()
                .all(|(q, x)| *x == vec![q as u8; i % 5]));
            sum = sum
                .wrapping_mul(31)
                .wrapping_add(a.to_bits() ^ v[2].to_bits() ^ b);
        }
        sum
    }

    #[test]
    fn two_slot_rendezvous_holds_up_under_laps_in_thread_mode() {
        // A slot reused a generation early trips the reuse assertion or
        // hands some rank another round's result (wrong value, failed
        // downcast); one reset before its last reader leaves that reader
        // without a result — a diagnosed deadlock in the event world, which
        // therefore runs first.
        let (event, _) = event_world(8, mixed_collective_laps);
        let thread = ThreadExecutor::default().run_world(
            8,
            MachineModel::test_tiny(),
            Registry::new(),
            mixed_collective_laps,
        );
        for (t, e) in thread.iter().zip(&event) {
            assert_eq!(t.value, e.value, "rank {}", t.rank);
            assert_eq!(t.time.to_bits(), e.time.to_bits(), "rank {}", t.rank);
            assert_eq!(t.stats, e.stats, "rank {}", t.rank);
        }
        assert_eq!(thread[0].stats.collectives, 10_000);
    }
}
