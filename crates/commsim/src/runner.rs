//! Spawn-join harness: run a closure on every rank of a world.
//!
//! Rank counts can exceed the physical core count — ranks are threads that
//! mostly park in rendezvous, on small (2 MiB) stacks, and the figure
//! harnesses rely on virtual time, not wall time. The actual spawn/park
//! mechanics live in [`crate::exec::run_world`]: these entry points pass
//! it the ambient [`SchedMode`] (the `NEK_SCHED_MODE` env var or a
//! [`crate::exec::with_mode`] override) — a run token per rank, or one
//! for the whole world.

use crate::comm::Comm;
use crate::exec::{run_world, SchedMode, RANK_STACK_BYTES};
use crate::lock;
use crate::machine::MachineModel;
use crate::stats::CommStats;
use memtrack::Registry;
use std::sync::Mutex;

/// Everything a rank produced: its closure's return value, final virtual
/// time, and operation counters.
#[derive(Debug, Clone)]
pub struct RankResult<R> {
    /// Rank id.
    pub rank: usize,
    /// The closure's return value.
    pub value: R,
    /// Virtual time when the rank finished.
    pub time: f64,
    /// Communication/IO counters.
    pub stats: CommStats,
}

/// Run `f` on `size` ranks; return just the closure values, indexed by rank.
///
/// # Panics
/// Re-raises the first rank panic after poisoning the world so the other
/// ranks abort instead of deadlocking.
pub fn run_ranks<R, F>(size: usize, machine: MachineModel, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&mut Comm) -> R + Send + Sync + 'static,
{
    run_ranks_with_registry(size, machine, Registry::new(), f)
        .into_iter()
        .map(|r| r.value)
        .collect()
}

/// Run `f` on one rank per element of `states`, moving each element into
/// its rank. Useful when ranks need owned, mutable resources (staging
/// writers/readers, solvers) that a shared `Fn` closure cannot provide.
///
/// # Panics
/// Re-raises rank panics like [`run_ranks`].
pub fn run_ranks_with_state<S, R, F>(machine: MachineModel, states: Vec<S>, f: F) -> Vec<R>
where
    S: Send + 'static,
    R: Send + 'static,
    F: Fn(&mut Comm, S) -> R + Send + Sync + 'static,
{
    let n = states.len();
    let slots = Mutex::new(states.into_iter().map(Some).collect::<Vec<_>>());
    run_ranks(n, machine, move |comm| {
        let state = lock(&slots)[comm.rank()]
            .take()
            .expect("state taken exactly once per rank");
        f(comm, state)
    })
}

/// Run `f` on `size` ranks with a caller-provided memory registry; return
/// full [`RankResult`]s including virtual times and stats.
///
/// Runs under [`SchedMode::current`]: `NEK_SCHED_MODE=event` (or an
/// enclosing [`crate::exec::with_mode`]) runs one rank at a time; the
/// default lets every rank run freely.
pub fn run_ranks_with_registry<R, F>(
    size: usize,
    machine: MachineModel,
    registry: Registry,
    f: F,
) -> Vec<RankResult<R>>
where
    R: Send + 'static,
    F: Fn(&mut Comm) -> R + Send + Sync + 'static,
{
    run_world(
        SchedMode::current(),
        size,
        machine,
        registry,
        RANK_STACK_BYTES,
        f,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_indexed_by_rank() {
        let res = run_ranks(6, MachineModel::test_tiny(), |comm| comm.rank() * 2);
        assert_eq!(res, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn rank_results_carry_time_and_stats() {
        let res = run_ranks_with_registry(2, MachineModel::test_tiny(), Registry::new(), |comm| {
            comm.advance(1.25);
            comm.barrier();
        });
        for r in &res {
            assert!(r.time >= 1.25);
            assert_eq!(r.stats.collectives, 1);
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates_without_deadlock() {
        run_ranks(3, MachineModel::test_tiny(), |comm| {
            if comm.rank() == 1 {
                panic!("deliberate");
            }
            // Other ranks block in a collective; poisoning must abort them.
            comm.barrier();
        });
    }

    #[test]
    fn many_ranks_oversubscribe_one_core() {
        // 64 ranks on however few cores the host has.
        let res = run_ranks(64, MachineModel::test_tiny(), |comm| {
            comm.allreduce(1.0, crate::ReduceOp::Sum)
        });
        for v in res {
            assert_eq!(v, 64.0);
        }
    }
}
