//! Aggregation of [`RankTrace`]s into per-phase statistics.
//!
//! `PhaseBreakdown` answers the question the paper's Figures 2 and 5 pose
//! per bar segment: of one rank's virtual wall time, how much went to each
//! pipeline phase? Exclusive (self) time is what sums cleanly — every
//! instant inside any span is charged to exactly one name — so
//! [`RankPhases::attributed_fraction`] uses it, while `total` keeps the
//! inclusive view for nested phases like `sem/cg` under `sem/pressure`.

use crate::{RankTrace, Span};
use std::collections::BTreeMap;

/// Statistics for one span name on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStat {
    /// How many spans closed under this name.
    pub count: u64,
    /// Summed inclusive duration.
    pub total: f64,
    /// Summed exclusive duration (time not inside a child span).
    pub self_total: f64,
    /// Longest single inclusive duration.
    pub max: f64,
}

impl PhaseStat {
    fn add(&mut self, span: &Span) {
        self.count += 1;
        let d = span.duration();
        self.total += d;
        self.self_total += span.self_time;
        if d > self.max {
            self.max = d;
        }
    }
}

/// One rank's phase table.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPhases {
    /// World id (0 = simulation, 1 = endpoint).
    pub pid: u32,
    /// Rank within the world.
    pub rank: usize,
    /// Virtual wall time at which the trace was taken.
    pub wall: f64,
    /// Per-name statistics, sorted by name.
    pub phases: BTreeMap<String, PhaseStat>,
}

impl RankPhases {
    /// Fraction of `wall` covered by exclusive span time. 1.0 means every
    /// virtual second is attributed to exactly one named phase. A rank
    /// that spent zero virtual seconds (e.g. an endpoint whose run saw no
    /// triggers) has no time to attribute and is vacuously at 1.0.
    pub fn attributed_fraction(&self) -> f64 {
        if self.wall <= 0.0 {
            return 1.0;
        }
        crate::sum(self.phases.values().map(|p| p.self_total)) / self.wall
    }
}

/// Phase tables for every rank in a run (both worlds of an in-transit
/// run, concatenated).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// One entry per traced rank.
    pub ranks: Vec<RankPhases>,
}

impl PhaseBreakdown {
    /// Aggregate raw traces into phase tables.
    pub fn from_traces(traces: &[RankTrace]) -> Self {
        let mut ranks: Vec<RankPhases> = traces
            .iter()
            .map(|t| {
                let mut phases: BTreeMap<String, PhaseStat> = BTreeMap::new();
                for span in &t.spans {
                    phases.entry(span.name.clone()).or_default().add(span);
                }
                RankPhases {
                    pid: t.pid,
                    rank: t.rank,
                    wall: t.end,
                    phases,
                }
            })
            .collect();
        ranks.sort_by_key(|r| (r.pid, r.rank));
        Self { ranks }
    }

    /// Summed inclusive time of `name` across all ranks.
    pub fn total(&self, name: &str) -> f64 {
        crate::sum(
            self.ranks
                .iter()
                .filter_map(|r| r.phases.get(name))
                .map(|p| p.total),
        )
    }

    /// Summed exclusive time of `name` across all ranks.
    pub fn self_total(&self, name: &str) -> f64 {
        crate::sum(
            self.ranks
                .iter()
                .filter_map(|r| r.phases.get(name))
                .map(|p| p.self_total),
        )
    }

    /// Total span count of `name` across all ranks.
    pub fn count(&self, name: &str) -> u64 {
        self.ranks
            .iter()
            .filter_map(|r| r.phases.get(name))
            .map(|p| p.count)
            .sum()
    }

    /// Sorted union of span names seen on any rank.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .ranks
            .iter()
            .flat_map(|r| r.phases.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Minimum attributed fraction over ranks — the acceptance metric:
    /// "≥95% of per-rank virtual wall time attributed to named spans".
    pub fn attributed_fraction(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.attributed_fraction())
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Render a compact per-phase table (summed over ranks), largest
    /// exclusive time first — the breakdown the fig bins print.
    pub fn to_table(&self) -> String {
        let mut rows: Vec<(String, u64, f64, f64)> = self
            .names()
            .into_iter()
            .map(|n| {
                let (c, t, s) = (self.count(&n), self.total(&n), self.self_total(&n));
                (n, c, t, s)
            })
            .collect();
        rows.sort_by(|a, b| b.3.partial_cmp(&a.3).unwrap_or(std::cmp::Ordering::Equal));
        let mut out = String::from("  phase                     count    incl (s)    self (s)\n");
        for (name, count, total, self_total) in rows {
            out.push_str(&format!(
                "  {name:<24} {count:>7} {total:>11.4} {self_total:>11.4}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, depth: u32, self_time: f64) -> Span {
        Span {
            id: 0,
            name: name.to_string(),
            start,
            end,
            depth,
            self_time,
        }
    }

    fn two_rank_traces() -> Vec<RankTrace> {
        vec![
            RankTrace {
                pid: 0,
                rank: 1,
                end: 10.0,
                spans: vec![
                    span("sem/cg", 1.0, 4.0, 1, 3.0),
                    span("sem/pressure", 0.0, 5.0, 0, 2.0),
                    span("transport/send", 5.0, 10.0, 0, 5.0),
                ],
                edges: vec![],
            },
            RankTrace {
                pid: 0,
                rank: 0,
                end: 8.0,
                spans: vec![span("transport/send", 0.0, 8.0, 0, 8.0)],
                edges: vec![],
            },
        ]
    }

    #[test]
    fn aggregates_and_sorts_ranks() {
        let b = PhaseBreakdown::from_traces(&two_rank_traces());
        assert_eq!(b.ranks.len(), 2);
        assert_eq!(b.ranks[0].rank, 0);
        assert_eq!(b.ranks[1].rank, 1);
        assert_eq!(b.count("transport/send"), 2);
        assert!((b.total("transport/send") - 13.0).abs() < 1e-12);
        assert!((b.total("sem/pressure") - 5.0).abs() < 1e-12);
        // Inclusive child time double-counts; self time does not.
        assert!((b.self_total("sem/pressure") - 2.0).abs() < 1e-12);
        assert_eq!(b.total("no/such"), 0.0);
    }

    #[test]
    fn attribution_uses_self_time_per_rank() {
        let b = PhaseBreakdown::from_traces(&two_rank_traces());
        // rank 0: 8/8 = 1.0; rank 1: (3+2+5)/10 = 1.0 → min = 1.0.
        assert!((b.attributed_fraction() - 1.0).abs() < 1e-12);

        let sparse = vec![RankTrace {
            pid: 0,
            rank: 0,
            end: 10.0,
            spans: vec![span("a", 0.0, 5.0, 0, 5.0)],
            edges: vec![],
        }];
        let b = PhaseBreakdown::from_traces(&sparse);
        assert!((b.attributed_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn names_and_table() {
        let b = PhaseBreakdown::from_traces(&two_rank_traces());
        assert_eq!(b.names(), vec!["sem/cg", "sem/pressure", "transport/send"]);
        let table = b.to_table();
        assert!(table.contains("transport/send"));
        // Largest self time first.
        assert!(table.find("transport/send").unwrap() < table.find("sem/pressure").unwrap());
    }

    #[test]
    fn empty_trace_is_fully_attributed_at_zero_wall() {
        let b = PhaseBreakdown::from_traces(&[RankTrace {
            pid: 0,
            rank: 0,
            end: 0.0,
            spans: vec![],
            edges: vec![],
        }]);
        assert!((b.attributed_fraction() - 1.0).abs() < 1e-12);
        // Same for a zero-wall rank that opened spans which charged no
        // virtual time (an endpoint whose run saw no triggers): zero
        // seconds means zero unattributed seconds.
        let b = PhaseBreakdown::from_traces(&[RankTrace {
            pid: 1,
            rank: 0,
            end: 0.0,
            spans: vec![span("transport/recv", 0.0, 0.0, 0, 0.0)],
            edges: vec![],
        }]);
        assert!((b.attributed_fraction() - 1.0).abs() < 1e-12);
    }
}
