//! The six workloads and the measurement loops they share.

pub mod sim;
pub mod staging;

use crate::host;
use crate::metrics::Outcome;
use crate::stats::median;
use std::time::Instant;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolverPb146,
    InsituSync,
    InsituPipelined,
    ManyrankEvent,
    IntransitTcp,
    StagingFanoutTcp,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SolverPb146,
        Workload::InsituSync,
        Workload::InsituPipelined,
        Workload::ManyrankEvent,
        Workload::IntransitTcp,
        Workload::StagingFanoutTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolverPb146 => "solver_pb146",
            Workload::InsituSync => "insitu_sync",
            Workload::InsituPipelined => "insitu_pipelined",
            Workload::ManyrankEvent => "manyrank_event",
            Workload::IntransitTcp => "intransit_tcp",
            Workload::StagingFanoutTcp => "staging_fanout_tcp",
        }
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SolverPb146 => "order-7 pb146 on 2 ranks, no consumer: sem (operators, gather-scatter, CG, pool dispatch) does nearly all the work, so solver changes show here and nowhere else",
            Workload::InsituSync => "order-3 pb146 with a Catalyst trigger every step, synchronous: D2H staging, core adaptor, insitu bridge, render and PNG writes dominate a cheap solver (paper section 4.1)",
            Workload::InsituPipelined => "the insitu_sync cell under ExecMode::Pipelined: the same layers behind a second rank world and credits, so a driver change that helps one path and costs the other splits these rows",
            Workload::ManyrankEvent => "32 ranks of one element each under the event scheduler, pinned to one CPU: commsim spawn, rendezvous and hand-offs are the cost and sem is idle; proxy for the 560/1120-rank cells",
            Workload::IntransitTcp => "RBC on 8 sim and 2 endpoint ranks over loopback TCP with a Catalyst endpoint: BP marshal, CRC, engine queue, wire, unmarshal and endpoint render around a small solver (section 4.2)",
            Workload::StagingFanoutTcp => "one writer to a StagingService fanning PNG frames to nproc TCP consumers plus a late joiner: frame-cache hits beside misses, park-file writes beside catch-up reads",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The driver's arguments for one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny sizes: checks the plumbing, measures nothing worth keeping.
    pub smoke: bool,
}

/// Run one workload once, traced or not.
pub fn run(args: &RunArgs) -> Outcome {
    if !args.traced {
        return match args.workload {
            Workload::StagingFanoutTcp => staging::run_untraced(args),
            _ => sim::run_untraced(args),
        };
    }
    // A traced run's timings are raw; probes before and after say what
    // state the host was in while they were taken.
    let mut probes: Vec<f64> = (0..5).map(|_| host::speed_probe()).collect();
    let mut outcome = match args.workload {
        Workload::StagingFanoutTcp => staging::run_traced(args),
        _ => sim::run_traced(args),
    };
    probes.extend((0..5).map(|_| host::speed_probe()));
    outcome
        .metrics
        .set("bench.host_speed", host::speed_of(&probes));
    outcome
}

/// Share of `--seconds` spent, before the measured window, on repeating
/// the zero-step call for `setup_s`.
const SETUP_SHARE: f64 = 0.1;

/// What [`measure_end_to_end`] measured, times already at reference speed.
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// Reference probe time ÷ this run's mean probe time: multiply a raw
    /// timing of this run by it to get reference-speed seconds.
    pub speed: f64,
}

impl EndToEnd {
    /// Record the four end-to-end metrics (`steps_per_s` is the
    /// workload's own ratio, already at reference speed).
    pub fn record(&self, steps_per_s: f64, m: &mut crate::metrics::Metrics) {
        m.set("setup_s", self.setup_s);
        m.set("wall_s", self.wall_s);
        m.set("steps_per_s", steps_per_s);
        m.set("peak_rss_MB", self.peak_rss_mb);
    }
}

/// The end-to-end measurement every workload shares: time `setup` (the
/// product call with zero steps) repeatedly, then repeat `full` (one whole
/// product call, returning its own wall time) until `seconds` have
/// passed, and take the medians. Speed probes run between calls; the
/// medians are scaled by reference ÷ mean probe, so a run taken while
/// the host was slowed by a neighbour reads like one taken at rest.
/// `peak_rss_MB` is the median over the full calls of the peak RSS each
/// reached (the kernel's mark is reset before every call).
pub fn measure_end_to_end(
    args: &RunArgs,
    mut setup: impl FnMut(),
    mut full: impl FnMut() -> f64,
) -> EndToEnd {
    // Pool threads, lazy statics and the allocator warm up on a call the
    // medians never see: a user pays that once per process, not per run.
    setup();
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() < 5
        || (started.elapsed().as_secs_f64() < args.seconds * SETUP_SHARE && setups.len() < 200)
    {
        setups.push(timed(&mut setup).0);
    }
    // Two probes before every full call and two after the last. None in
    // the set-up phase: its calls are milliseconds long and back to back,
    // and a probe between them times their wake, not the host.
    let (mut probes, mut walls, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks_are_per_call = true;
    let started = Instant::now();
    while walls.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        probes.extend([host::speed_probe(), host::speed_probe()]);
        peaks_are_per_call &= host::reset_peak_rss();
        walls.push(full());
        peaks.push(host::peak_rss_mb());
    }
    probes.extend([host::speed_probe(), host::speed_probe()]);
    // Where the kernel refuses the reset the mark only ever rises, and the
    // last reading is the whole run's peak.
    let peak_rss_mb = if peaks_are_per_call {
        median(&peaks)
    } else {
        peaks[peaks.len() - 1]
    };
    let speed = host::speed_of(&probes);
    println!(
        "  raw medians: setup {:.6} s over {} zero-step calls, wall {:.6} s over {} calls in {:.1} s",
        median(&setups),
        setups.len(),
        median(&walls),
        walls.len(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "  host speed {speed:.3} of reference ({} probes): the timings below are scaled by it",
        probes.len()
    );
    EndToEnd {
        setup_s: median(&setups) * speed,
        wall_s: median(&walls) * speed,
        peak_rss_mb,
        speed,
    }
}

/// Run `variants` round-robin until `seconds` have passed (at least
/// `min_rounds` rounds), so slow drift of the host hits each variant
/// alike. Returns one wall-time series per variant.
pub fn alternate(
    seconds: f64,
    min_rounds: usize,
    variants: &mut [&mut dyn FnMut() -> f64],
) -> Vec<Vec<f64>> {
    let mut series = vec![Vec::new(); variants.len()];
    let started = Instant::now();
    while series[0].len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        for (walls, variant) in series.iter_mut().zip(variants.iter_mut()) {
            walls.push(variant());
        }
    }
    series
}

/// `(a − b) ÷ b`, in percent.
pub fn pct_over(a: f64, b: f64) -> f64 {
    100.0 * (a - b) / b
}

/// Time `f` once, in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::catalogue;

    /// Every workload, at smoke size, end to end and traced: checks pass
    /// and every catalogue metric comes out as a finite number.
    #[test]
    fn every_workload_runs_at_smoke_size() {
        std::fs::create_dir_all(crate::host::work_dir()).unwrap();
        for workload in Workload::ALL {
            for traced in [false, true] {
                let outcome = run(&RunArgs {
                    workload,
                    seed: 7,
                    seconds: 0.05,
                    traced,
                    smoke: true,
                });
                assert_eq!(
                    outcome.checks.failed,
                    0,
                    "{} traced={traced}",
                    workload.name()
                );
                assert!(outcome.checks.attempted > 0);
                for def in catalogue(traced) {
                    let v = outcome.metrics.get(def.name);
                    assert!(
                        v.is_none_or(f64::is_finite),
                        "{} {} = {v:?}",
                        workload.name(),
                        def.name
                    );
                    // The contract: an end-to-end metric is never 0.
                    assert!(
                        traced || v.is_some_and(|v| v > 0.0),
                        "{} {}",
                        workload.name(),
                        def.name
                    );
                }
            }
        }
    }
}
