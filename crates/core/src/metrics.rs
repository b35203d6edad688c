//! Aggregation of virtual-clock timings and memory high-water marks into
//! the quantities the paper's figures plot.

use commsim::CommStats;
use memtrack::Registry;
use telemetry::MemorySummary;

/// The host/device memory split of one run from the per-rank accountants
/// (`rank<r>/<subsystem>`). Host = every subsystem except `gpu` (the
/// paper's Figures 3/6 report CPU memory; the GPU footprint is identical
/// across configurations by construction). Accountants without a `rank<r>/`
/// prefix (shared or process-global allocations) stay out of the per-rank
/// host figures but are summed into `unscoped`, so nothing the registry
/// tracked disappears from the report.
pub fn memory_breakdown(registry: &Registry) -> MemorySummary {
    use std::collections::BTreeMap;
    let snap = registry.snapshot();
    let mut host_by_rank: BTreeMap<String, u64> = BTreeMap::new();
    let mut gpu = 0u64;
    let mut unscoped = 0u64;
    for (name, _cur, peak) in &snap.entries {
        let Some((rank, subsystem)) = name.split_once('/') else {
            // No `rank<r>/` prefix: count it instead of dropping it.
            unscoped += peak;
            continue;
        };
        if subsystem == "gpu" {
            gpu += peak;
        } else {
            *host_by_rank.entry(rank.to_string()).or_default() += peak;
        }
    }
    MemorySummary {
        host_aggregate_peak: host_by_rank.values().sum(),
        host_max_rank_peak: host_by_rank.values().copied().max().unwrap_or(0),
        gpu_aggregate_peak: gpu,
        unscoped,
    }
}

/// Fault-tolerance outcome of one run, aggregated over the simulation-side
/// producers: how many triggers were staged in transit, lost to exhausted
/// retries, or parked to the BP file fallback after a circuit breaker
/// opened (DESIGN.md "Fault model & degradation ladder").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationSummary {
    /// Producers reporting.
    pub producers: usize,
    /// Triggers delivered over the staging link, summed over producers.
    pub staged_steps: u64,
    /// Triggers lost to transient transport failures (no fallback ran).
    pub lost_steps: u64,
    /// Triggers appended to the BP file fallback after degradation.
    pub parked_steps: u64,
    /// Producers whose circuit breaker opened and who switched engines.
    pub degraded_producers: usize,
    /// Earliest step at which any producer switched to the fallback.
    pub first_switch_step: Option<u64>,
    /// Data-plane loss events endured (retried sends), summed.
    pub retries: u64,
}

impl DegradationSummary {
    /// Aggregate the per-producer staging reports.
    pub fn from_reports(reports: &[transport::ProducerReport]) -> Self {
        let mut s = Self {
            producers: reports.len(),
            ..Self::default()
        };
        for r in reports {
            s.staged_steps += r.staged_steps;
            s.lost_steps += r.lost_steps;
            s.parked_steps += r.parked_steps;
            s.retries += r.retries;
            if let Some(sw) = r.switch_step {
                s.degraded_producers += 1;
                s.first_switch_step = Some(match s.first_switch_step {
                    Some(cur) => cur.min(sw),
                    None => sw,
                });
            }
        }
        s
    }

    /// Did any producer fall back to the file engine?
    pub fn degraded(&self) -> bool {
        self.degraded_producers > 0
    }
}

/// The timing/traffic summary of one run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Max over ranks of final virtual time — the paper's elapsed
    /// wall-clock ("time to solution").
    pub time_to_solution: f64,
    /// `time_to_solution / steps`.
    pub mean_step_time: f64,
    /// Aggregated per-rank operation counters.
    pub totals: CommStats,
    /// Memory accountant breakdown.
    pub memory: MemorySummary,
}

impl RunMetrics {
    /// Build from per-rank `(virtual_time, stats)` pairs.
    pub fn from_ranks(
        times_and_stats: &[(f64, CommStats)],
        steps: usize,
        registry: &Registry,
    ) -> Self {
        let time_to_solution = times_and_stats.iter().map(|(t, _)| *t).fold(0.0, f64::max);
        let totals = CommStats::aggregate(times_and_stats.iter().map(|(_, s)| s));
        Self {
            time_to_solution,
            mean_step_time: time_to_solution / steps.max(1) as f64,
            totals,
            memory: memory_breakdown(registry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_splits_gpu_from_host_by_rank() {
        let reg = Registry::new();
        reg.accountant("rank0/gpu").charge_raw(1000);
        reg.accountant("rank0/vtk").charge_raw(100);
        reg.accountant("rank0/host-base").charge_raw(50);
        reg.accountant("rank1/gpu").charge_raw(1000);
        reg.accountant("rank1/vtk").charge_raw(300);
        reg.accountant("unscoped").charge_raw(7); // no rank prefix
        let b = memory_breakdown(&reg);
        assert_eq!(b.gpu_aggregate_peak, 2000);
        assert_eq!(
            b.host_aggregate_peak, 450,
            "unscoped stays out of per-rank host"
        );
        assert_eq!(b.host_max_rank_peak, 300);
        assert_eq!(b.unscoped, 7, "but is counted, not dropped");
    }

    #[test]
    fn run_metrics_take_slowest_rank() {
        let reg = Registry::new();
        let ranks = vec![
            (10.0, CommStats::default()),
            (12.5, CommStats::default()),
            (11.0, CommStats::default()),
        ];
        let m = RunMetrics::from_ranks(&ranks, 5, &reg);
        assert_eq!(m.time_to_solution, 12.5);
        assert_eq!(m.mean_step_time, 2.5);
    }

    #[test]
    fn degradation_summary_aggregates_producer_reports() {
        use transport::ProducerReport;
        let healthy = ProducerReport {
            producer: 0,
            staged_steps: 10,
            lost_steps: 0,
            parked_steps: 0,
            switch_step: None,
            retries: 2,
        };
        let degraded = ProducerReport {
            producer: 1,
            staged_steps: 4,
            lost_steps: 2,
            parked_steps: 4,
            switch_step: Some(7),
            retries: 9,
        };
        let late_degraded = ProducerReport {
            switch_step: Some(9),
            ..degraded
        };
        let s = DegradationSummary::from_reports(&[healthy, degraded, late_degraded]);
        assert_eq!(s.producers, 3);
        assert_eq!(s.staged_steps, 18);
        assert_eq!(s.lost_steps, 4);
        assert_eq!(s.parked_steps, 8);
        assert_eq!(s.degraded_producers, 2);
        assert_eq!(s.first_switch_step, Some(7));
        assert_eq!(s.retries, 20);
        assert!(s.degraded());
        assert!(!DegradationSummary::from_reports(&[healthy]).degraded());
    }

    #[test]
    fn empty_inputs_are_safe() {
        let reg = Registry::new();
        let m = RunMetrics::from_ranks(&[], 0, &reg);
        assert_eq!(m.time_to_solution, 0.0);
        assert_eq!(m.memory, MemorySummary::default());
    }
}
