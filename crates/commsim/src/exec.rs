//! Execution modes: how the ranks of a world are driven.
//!
//! [`run_world`] spawns one OS thread per rank and joins them under one
//! run-token scheduler, [`EventSched`]. A rank holds a token while it
//! runs and gives it back only where it would otherwise wait — a `recv`
//! with no matching message, a collective that is not complete yet, an
//! `external_wait` — or when it finishes; a free token goes to the ready
//! rank with the **earliest virtual clock**. The [`SchedMode`] decides
//! only how many tokens there are:
//!
//! * [`SchedMode::Thread`] — one token per rank: every rank runs freely,
//!   in parallel on real cores, and parks only where it must wait.
//!
//! * [`SchedMode::Event`] — one token: one rank runs at a time, so a run
//!   repeats hand-off for hand-off and 10k-rank worlds cost 10k parked
//!   threads and no contention.
//!
//! Virtual-time output is bitwise identical across the two modes by
//! construction: both drive the *same* rendezvous code in `comm.rs`, and
//! the clock rules there depend only on operation order and sizes — never
//! on which thread happened to run first. The differential suite in
//! `tests/scheduler_parity.rs` enforces this end to end. Under either
//! mode a world whose ranks all wait with nobody left to wake them
//! panics with the scheduler's deadlock diagnostic.
//!
//! Mode selection: `NEK_SCHED_MODE=event` (or `thread`, the default when
//! unset; any other value panics), or programmatically via [`with_mode`],
//! which takes precedence and is propagated into spawned rank threads
//! like the compute-pool override.

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
    /// A run token per rank: every rank runs freely.
    Thread,
    /// One run token: one rank runs at a time, earliest virtual clock
    /// first.
    Event,
}

impl SchedMode {
    /// Read `NEK_SCHED_MODE` (`"event"` / `"thread"`, any case);
    /// [`SchedMode::Thread`] when unset.
    ///
    /// # Panics
    /// When the variable is set to anything else, so a misspelt mode
    /// never runs the default one.
    pub fn from_env() -> Self {
        let value = std::env::var_os("NEK_SCHED_MODE");
        Self::parse_env(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// [`Self::from_env`] on the variable's value, `None` when unset.
    fn parse_env(value: Option<&str>) -> Self {
        match value.map(str::trim) {
            None => SchedMode::Thread,
            Some(v) if v.eq_ignore_ascii_case("thread") => SchedMode::Thread,
            Some(v) if v.eq_ignore_ascii_case("event") => SchedMode::Event,
            Some(v) => panic!("NEK_SCHED_MODE={v:?}: expected `thread` or `event`"),
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

/// Default per-rank stack: ranks mostly block in rendezvous, so stacks
/// stay small and hundreds of ranks fit comfortably.
pub const RANK_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Run `f` on every rank of a fresh world of `size` ranks over `machine`,
/// sharing `registry`, each rank on a thread with `stack_bytes` of stack,
/// scheduled per `mode`. Returns per-rank results indexed by rank,
/// re-raising the first rank panic after poisoning the world.
///
/// # Panics
/// On any rank panic, a deadlock included.
pub fn run_world<R, F>(
    mode: SchedMode,
    size: usize,
    machine: MachineModel,
    registry: Registry,
    stack_bytes: usize,
    f: F,
) -> Vec<RankResult<R>>
where
    R: Send + 'static,
    F: Fn(&mut Comm) -> R + Send + Sync + 'static,
{
    let tokens = match mode {
        SchedMode::Thread => size,
        SchedMode::Event => 1,
    };
    let sched = Arc::new(EventSched::new(size, tokens));
    spawn_and_join(size, machine, registry, stack_bytes, sched, f)
}

/// The spawn/join loop: each rank registers itself with `sched` and waits
/// for a run token before touching user code, and releases its slot when
/// it finishes or unwinds.
fn spawn_and_join<R, F>(
    size: usize,
    machine: MachineModel,
    registry: Registry,
    stack_bytes: usize,
    sched: Arc<EventSched>,
    f: F,
) -> Vec<RankResult<R>>
where
    R: Send + 'static,
    F: Fn(&mut Comm) -> R + Send + Sync + 'static,
{
    let world = World::new(size, machine, registry, Arc::clone(&sched));
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
        let sched = Arc::clone(&sched);
        let handle = thread::Builder::new()
            .name(format!("rank{rank}"))
            .stack_size(stack_bytes)
            .spawn(move || {
                let mut comm = world.attach(rank);
                // Wait for a run token; on a world already poisoned by an
                // earlier rank panic, fall through — the first wait aborts
                // with the poison error.
                sched.start(rank);
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
                        let secondary = sched.is_poisoned();
                        sched.poison();
                        Err((secondary, payload))
                    }
                };
                // The scheduler's hand-off counts ride the telemetry bus,
                // not `CommStats`: that struct must compare equal across
                // modes.
                let blocks = sched.rank_blocks(rank);
                let telemetry = comm.telemetry();
                telemetry
                    .counter("sched/blocks_message")
                    .add(blocks.message);
                telemetry
                    .counter("sched/blocks_collective")
                    .add(blocks.collective);
                sched.finish(rank);
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
    fn env_value_parses_or_panics() {
        assert_eq!(SchedMode::parse_env(None), SchedMode::Thread);
        assert_eq!(SchedMode::parse_env(Some("thread")), SchedMode::Thread);
        assert_eq!(SchedMode::parse_env(Some("Event")), SchedMode::Event);
        assert_eq!(SchedMode::parse_env(Some(" event\n")), SchedMode::Event);
        for bad in ["", "evnet", "threads", "1"] {
            let err = std::panic::catch_unwind(|| SchedMode::parse_env(Some(bad)))
                .expect_err("an unparsable mode must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                msg.contains("NEK_SCHED_MODE") && msg.contains(&format!("{bad:?}")),
                "{msg}"
            );
        }
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
    fn event_executor_matches_thread_executor_on_a_ring() {
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
        let run = |mode| {
            run_world(
                mode,
                6,
                MachineModel::test_tiny(),
                Registry::new(),
                RANK_STACK_BYTES,
                workload,
            )
        };
        let (a, b) = (run(SchedMode::Thread), run(SchedMode::Event));
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
        let sched = Arc::new(EventSched::new(size, 1));
        let results = spawn_and_join(
            size,
            MachineModel::test_tiny(),
            Registry::new(),
            RANK_STACK_BYTES,
            Arc::clone(&sched),
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
    fn one_collective_short_is_a_diagnosed_deadlock() {
        // Rank 2 leaves after the first barrier; ranks 0 and 1 park in the
        // second one, in the slot nobody will ever complete.
        for mode in [SchedMode::Thread, SchedMode::Event] {
            let err = std::panic::catch_unwind(|| {
                run_world(
                    mode,
                    3,
                    MachineModel::test_tiny(),
                    Registry::new(),
                    RANK_STACK_BYTES,
                    |comm| {
                        comm.barrier();
                        if comm.rank() != 2 {
                            comm.barrier();
                        }
                    },
                )
            })
            .expect_err("a deadlocked world must panic");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                msg.contains("scheduler deadlock"),
                "{}: {msg}",
                mode.label()
            );
        }
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
            let b = comm.allgather((r * 1000 + i) as u64, 8)[i % n];
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

    /// A send/recv ring, every result depending on the round; rank 3
    /// stalls in real time now and then so its neighbours wait on it.
    fn ring_laps(comm: &mut Comm) -> u64 {
        let (n, r) = (comm.size(), comm.rank());
        let (right, left) = ((r + 1) % n, (r + n - 1) % n);
        let mut sum = 0u64;
        for i in 0..2000u64 {
            if r == 3 && i % 64 == 0 {
                thread::sleep(std::time::Duration::from_micros(200));
            }
            comm.advance((r + 1) as f64 * 1e-6);
            comm.send(right, 5, i * 100 + r as u64, 8);
            let got = comm.recv::<u64>(left, 5);
            assert_eq!(got, i * 100 + left as u64, "round {i}");
            sum = sum.wrapping_mul(31).wrapping_add(got);
        }
        sum
    }

    /// Run `laps` on 8 ranks under both modes, check that every rank's
    /// value, clock and counters agree, and return the thread-mode results.
    fn thread_matches_event(laps: fn(&mut Comm) -> u64) -> Vec<RankResult<u64>> {
        let (event, _) = event_world(8, laps);
        let thread = run_world(
            SchedMode::Thread,
            8,
            MachineModel::test_tiny(),
            Registry::new(),
            RANK_STACK_BYTES,
            laps,
        );
        for (t, e) in thread.iter().zip(&event) {
            assert_eq!(t.value, e.value, "rank {}", t.rank);
            assert_eq!(t.time.to_bits(), e.time.to_bits(), "rank {}", t.rank);
            assert_eq!(t.stats, e.stats, "rank {}", t.rank);
        }
        thread
    }

    #[test]
    fn ring_messages_are_not_lost_in_thread_mode() {
        // A notification that reaches a rank between its look at the
        // mailbox and its park must not be lost: a lost one leaves the
        // ring a diagnosed deadlock.
        let thread = thread_matches_event(ring_laps);
        assert_eq!(thread[0].stats.messages_received, 2000);
    }

    #[test]
    fn two_slot_rendezvous_holds_up_under_laps_in_thread_mode() {
        // A slot reused a generation early trips the reuse assertion or
        // hands some rank another round's result (wrong value, failed
        // downcast); one reset before its last reader leaves that reader
        // without a result — a diagnosed deadlock in either mode.
        let thread = thread_matches_event(mixed_collective_laps);
        assert_eq!(thread[0].stats.collectives, 10_000);
    }
}
