//! `commsim` — an MPI-like communication runtime for simulating
//! leadership-class jobs inside one process.
//!
//! The paper runs NekRS on 280–1120 MPI ranks of Polaris and on JUWELS
//! Booster. Neither machine (nor MPI itself) is available to this
//! reproduction, so `commsim` provides the same programming model with ranks
//! mapped to OS threads:
//!
//! * [`Comm`] — per-rank communicator handle: `send`/`recv` with tags and
//!   MPI-style (source, tag) ordering, plus collectives (`barrier`,
//!   `allreduce`, `allreduce_vec`, `gather`, `allgather`, and the general
//!   `reduce_with`).
//! * [`clock::Clock`] — a per-rank **virtual clock**. Every compute kernel,
//!   message, collective, device transfer, and file write advances the clock
//!   by a deterministic cost from the [`machine::MachineModel`]. Wall-clock
//!   results in the figure harnesses are *virtual seconds*, which makes
//!   280/560/1120-rank scaling curves reproducible on a single CPU core.
//! * [`machine`] — named parameter sets for the paper's two testbeds
//!   (Polaris A100 nodes, JUWELS Booster A100 nodes) and their file systems.
//! * [`runner`] — spawn-join harness that runs a closure on every rank and
//!   collects results, with panic propagation.
//! * [`fault`] — seeded, deterministic fault schedules ([`fault::FaultPlan`]):
//!   link drops/corruption/delay spikes, endpoint crashes, and consumer
//!   stalls, all costed in virtual time so faulty runs stay reproducible.
//!
//! Virtual time is deterministic: it depends only on the sequence of
//! operations each rank performs and the sizes involved, never on real
//! thread scheduling. Messages carry their send timestamp; a receive
//! completes at `max(local_time, send_time + latency + bytes/bandwidth)`;
//! collectives synchronize all participants to the maximum arrival time plus
//! a log₂(P) tree cost.

pub mod clock;
pub mod comm;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod reduce;
pub mod runner;
pub mod sched;
pub mod stats;

pub use clock::Clock;
pub use comm::Comm;
pub use exec::{run_world, with_mode, SchedMode, RANK_STACK_BYTES};
pub use fault::{
    AttemptFate, CheckpointCorruption, ConsumerStall, EndpointCrash, FaultPlan, InjectedCrash,
    LinkFaultSpec, SimRankCrash, WatchdogTimeout,
};
pub use machine::{FilesystemModel, GpuModel, MachineModel, NetworkModel};
pub use reduce::ReduceOp;
pub use runner::{run_ranks, run_ranks_with_registry, run_ranks_with_state, RankResult};
pub use stats::CommStats;
// Re-export the span-tracing vocabulary so instrumented crates need no
// direct `trace` dependency: they open spans through `Comm::span` and
// only name these types in signatures.
pub use trace::{
    unpack_ctx, CausalEdge, EdgeKind, PhaseBreakdown, PhaseStat, RankPhases, RankTrace, Span,
    SpanGuard, Tracer,
};
// Same deal for the telemetry vocabulary: instrumented crates reach the
// bus through `Comm::telemetry` / `Comm::telemetry_event` and only name
// these types in signatures.
pub use telemetry::chrome::chrome_trace_json;
pub use telemetry::{Counter, EventKind, Gauge, Histogram, RankTelemetry, TelemetryHub};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m` whether or not a holder panicked. A rank that unwinds inside a
/// collective or a scheduler call leaves its lock poisoned; the runner
/// poisons the *world* for that, and every other rank has to get through
/// these locks once more to see it and unwind in turn.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_survives_a_holder_that_panicked() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let holder = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("deliberate: unwind with the lock held");
        });
        assert!(holder.join().is_err());
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
    }

    #[test]
    fn end_to_end_ring_pass() {
        // Each rank sends its id around a ring; after `size` hops everyone
        // has their own id back and all virtual clocks agree via barrier.
        let results = run_ranks(4, MachineModel::test_tiny(), |comm| {
            let size = comm.size();
            let right = (comm.rank() + 1) % size;
            let left = (comm.rank() + size - 1) % size;
            let mut token = comm.rank();
            for _ in 0..size {
                comm.send(right, 7, token, 8);
                token = comm.recv::<usize>(left, 7);
            }
            comm.barrier();
            (token, comm.now())
        });
        let times: Vec<f64> = results.iter().map(|r| r.1).collect();
        for (rank, (token, _)) in results.iter().enumerate() {
            assert_eq!(*token, rank);
        }
        for t in &times {
            assert!((t - times[0]).abs() < 1e-12, "barrier must sync clocks");
        }
    }

    #[test]
    fn spans_track_virtual_time() {
        let results = run_ranks(2, MachineModel::test_tiny(), |comm| {
            comm.enable_tracing(0);
            {
                let _g = comm.span("work/compute");
                comm.compute_host(1e6, 1e6);
            }
            {
                let _g = comm.span("work/sync");
                comm.barrier();
            }
            let wall = comm.now();
            (comm.take_trace().unwrap(), wall)
        });
        for r in &results {
            let (trace, wall) = r;
            assert_eq!(trace.spans.len(), 2);
            let total: f64 = trace.spans.iter().map(|s| s.self_time).sum();
            assert!(*wall > 0.0, "virtual time must advance");
            // Both ops happen inside spans, so attribution is exact.
            assert!(
                (total - wall).abs() < 1e-12,
                "span time {total} != wall {wall}"
            );
        }
        // Virtual time is deterministic, so both ranks' compute spans agree.
        assert_eq!(
            results[0].0.spans[0].duration(),
            results[1].0.spans[0].duration()
        );
    }
}
