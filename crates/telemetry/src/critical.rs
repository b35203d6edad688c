//! Per-step critical-path analysis over the span + causal-edge graph.
//!
//! [`analyze`] walks the happens-before graph **backward** from the rank
//! that finishes last. At virtual time `t` on some rank, the latest
//! *binding* edge with `t_ready <= t` explains how that rank got to `t`:
//! everything in `[t_ready, t]` was rank-local work (no binding wait can
//! sit inside, or a later edge would have matched), `[t_send, t_ready]`
//! was the message/collective/wire in flight, and the walk jumps to the
//! sender at `t_send`. When no edge remains, `[0, t]` is local and the
//! walk ends. The chain is therefore time-contiguous by construction:
//! its segment lengths sum to the global virtual end time exactly.
//!
//! Rank-local chain segments are attributed to phases by projecting them
//! onto the rank's **leaf-span timeline** (the deepest open span as a
//! step function over virtual time); gaps covered by no span count as
//! `"(untracked)"`. Wait segments are attributed to `net/<kind>`.
//!
//! Per-rank *slack* is the total binding wait each rank endured
//! (`Σ t_ready − t_recv` over its binding edges): ranks with high slack
//! sat blocked on others and could absorb more work; ranks with ~zero
//! slack are the ones the critical chain runs through.
//!
//! The module owns the report's format too: [`write_critical`] and
//! [`parse_critical`] are the one writer and reader of the
//! [`CRITICAL_SCHEMA`] document.

use crate::json::{Obj, Value};
use crate::{unpack_ctx, CausalEdge, EdgeKind, RankTrace};
use std::collections::BTreeMap;

/// Schema tag for the JSON serialization of a [`CriticalReport`].
pub const CRITICAL_SCHEMA: &str = "nekstat/critical-path/v1";

/// Phase name used for time the chain spends inside a channel.
fn net_phase(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::Message => "net/message",
        EdgeKind::Collective => "net/collective",
        EdgeKind::Wire => "net/wire",
    }
}

/// Phase name for chain segments no span covered.
pub const UNTRACKED: &str = "(untracked)";

/// One (pid, rank, phase) contribution to the critical chain.
#[derive(Debug, Clone, PartialEq)]
pub struct CritContrib {
    /// World id (0 = simulation, 1 = endpoint).
    pub pid: u32,
    /// Rank within the world.
    pub rank: usize,
    /// Span name (or `net/*` / [`UNTRACKED`]).
    pub phase: String,
    /// Virtual seconds this (rank, phase) spent on the chain.
    pub secs: f64,
}

/// The critical chain restricted to one step window.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCritical {
    /// Timestep index (from the flight-recorder step samples).
    pub step: u64,
    /// Window start (virtual seconds).
    pub t_from: f64,
    /// Window end.
    pub t_to: f64,
    /// Chain time inside the window (= `t_to - t_from` whenever the
    /// chain spans the window, which it does by construction).
    pub total: f64,
    /// Top contributions inside the window, largest first (capped at
    /// [`STEP_CONTRIB_CAP`]; the cap is recorded in `dropped`).
    pub contrib: Vec<CritContrib>,
    /// Contribution entries elided by the cap.
    pub dropped: u64,
}

/// Total binding wait endured by one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSlack {
    /// World id.
    pub pid: u32,
    /// Rank within the world.
    pub rank: usize,
    /// `Σ (t_ready − t_recv)` over this rank's binding edges.
    pub wait_s: f64,
}

/// Per-step contribution entries kept per window.
pub const STEP_CONTRIB_CAP: usize = 8;

/// Everything [`analyze`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalReport {
    /// Chain total in virtual seconds (= the global virtual end time).
    pub total: f64,
    /// Number of chain segments walked (diagnostic).
    pub segments: u64,
    /// Whole-run (pid, rank, phase) aggregation, largest first.
    pub contrib: Vec<CritContrib>,
    /// The chain sliced by step windows (empty when no bounds given).
    pub steps: Vec<StepCritical>,
    /// Per-rank slack, sorted by (pid, rank).
    pub slack: Vec<RankSlack>,
}

impl CriticalReport {
    /// The dominant whole-run contribution, if any.
    pub fn dominant(&self) -> Option<&CritContrib> {
        self.contrib.first()
    }
}

/// One rank-local or in-flight stretch of the chain.
struct Segment {
    pid: u32,
    rank: usize,
    t_from: f64,
    t_to: f64,
    /// `Some(kind)` for in-flight (wait) segments, `None` for work.
    wire: Option<EdgeKind>,
}

/// Deepest-span step function plus the binding edges of one rank.
struct RankIndex<'a> {
    /// `(from, to, phase)` intervals, ascending, covering `[0, end]`.
    timeline: Vec<(f64, f64, &'a str)>,
    /// Binding edges in recorded (chronological) order.
    binding: Vec<&'a CausalEdge>,
}

impl<'a> RankIndex<'a> {
    fn build(trace: &'a RankTrace) -> Self {
        // Sort spans so parents precede children: by start, then depth.
        let mut order: Vec<&crate::Span> = trace.spans.iter().collect();
        order.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.depth.cmp(&b.depth))
                .then(a.id.cmp(&b.id))
        });
        let mut timeline: Vec<(f64, f64, &str)> = Vec::new();
        let mut stack: Vec<&crate::Span> = Vec::new();
        let mut pos = 0.0f64;
        for span in order {
            let target = span.start.max(pos);
            advance_to(&mut timeline, &mut stack, &mut pos, target);
            // Drop ancestors that ended exactly at this span's start.
            while stack.last().is_some_and(|top| top.end <= span.start) {
                stack.pop();
            }
            if span.end > pos {
                stack.push(span);
            }
        }
        let target = trace.end.max(pos);
        advance_to(&mut timeline, &mut stack, &mut pos, target);
        let binding = trace.edges.iter().filter(|e| e.binding).collect();
        Self { timeline, binding }
    }

    /// Accumulate phase coverage of `[a, b]` into `into`.
    fn attribute(&self, a: f64, b: f64, into: &mut BTreeMap<&'a str, f64>) {
        if b <= a {
            return;
        }
        let first = self.timeline.partition_point(|&(_, to, _)| to <= a);
        let mut covered = 0.0;
        for &(from, to, name) in &self.timeline[first..] {
            if from >= b {
                break;
            }
            let lo = from.max(a);
            let hi = to.min(b);
            if hi > lo {
                *into.entry(name).or_insert(0.0) += hi - lo;
                covered += hi - lo;
            }
        }
        let gap = (b - a) - covered;
        if gap > 1e-15 {
            *into.entry(UNTRACKED).or_insert(0.0) += gap;
        }
    }

    /// Latest binding edge with `t_ready <= t`, if any.
    fn last_binding_before(&self, t: f64) -> Option<&'a CausalEdge> {
        let idx = self.binding.partition_point(|e| e.t_ready <= t);
        idx.checked_sub(1).map(|i| self.binding[i])
    }
}

/// Emit deepest-span timeline intervals up to `target`, popping spans
/// off `stack` as their ends pass.
fn advance_to<'a>(
    timeline: &mut Vec<(f64, f64, &'a str)>,
    stack: &mut Vec<&'a crate::Span>,
    pos: &mut f64,
    target: f64,
) {
    while *pos < target {
        match stack.last() {
            Some(top) if top.end <= *pos => {
                stack.pop();
            }
            Some(top) => {
                let stop = top.end.min(target);
                if stop > *pos {
                    timeline.push((*pos, stop, &top.name));
                }
                let ended = top.end <= stop;
                *pos = stop;
                if ended {
                    stack.pop();
                }
            }
            None => {
                if target > *pos {
                    timeline.push((*pos, target, UNTRACKED));
                }
                *pos = target;
            }
        }
    }
}

/// Walk the critical chain over `traces` and slice it by `step_bounds`
/// (`(step, t_start, t_end)` windows, e.g. from the flight recorder's
/// step samples). Fully deterministic: same traces ⇒ identical report.
pub fn analyze(traces: &[RankTrace], step_bounds: &[(u64, f64, f64)]) -> CriticalReport {
    let mut index: BTreeMap<(u32, usize), RankIndex<'_>> = BTreeMap::new();
    for t in traces {
        index.insert((t.pid, t.rank), RankIndex::build(t));
    }

    // Start from the rank that finishes last (smallest (pid, rank) on
    // ties — BTreeMap iteration order makes this deterministic).
    let start = traces
        .iter()
        .map(|t| ((t.pid, t.rank), t.end))
        .fold(None::<((u32, usize), f64)>, |best, cur| match best {
            None => Some(cur),
            Some(b) if cur.1 > b.1 || (cur.1 == b.1 && cur.0 < b.0) => Some(cur),
            Some(b) => Some(b),
        });
    let Some(((mut pid, mut rank), total)) = start else {
        return CriticalReport {
            total: 0.0,
            segments: 0,
            contrib: Vec::new(),
            steps: Vec::new(),
            slack: Vec::new(),
        };
    };

    let mut chain: Vec<Segment> = Vec::new();
    let mut t = total;
    // Backstop against degenerate graphs; real chains are far shorter.
    let mut budget = 5_000_000u64;
    while budget > 0 {
        budget -= 1;
        let Some(ri) = index.get(&(pid, rank)) else {
            chain.push(Segment {
                pid,
                rank,
                t_from: 0.0,
                t_to: t,
                wire: None,
            });
            break;
        };
        match ri.last_binding_before(t) {
            Some(e) if e.t_send < t => {
                chain.push(Segment {
                    pid,
                    rank,
                    t_from: e.t_ready.min(t),
                    t_to: t,
                    wire: None,
                });
                chain.push(Segment {
                    pid,
                    rank,
                    t_from: e.t_send,
                    t_to: e.t_ready.min(t),
                    wire: Some(e.kind),
                });
                t = e.t_send;
                match unpack_ctx(e.src) {
                    Some((src_pid, src_rank, _)) => {
                        pid = src_pid;
                        rank = src_rank;
                    }
                    None => {
                        // Untraced sender: close the chain here.
                        chain.push(Segment {
                            pid,
                            rank,
                            t_from: 0.0,
                            t_to: t,
                            wire: None,
                        });
                        break;
                    }
                }
            }
            _ => {
                chain.push(Segment {
                    pid,
                    rank,
                    t_from: 0.0,
                    t_to: t,
                    wire: None,
                });
                break;
            }
        }
    }

    // Whole-run aggregation.
    let mut agg: BTreeMap<(u32, usize, String), f64> = BTreeMap::new();
    for seg in &chain {
        accumulate(&index, seg, seg.t_from, seg.t_to, &mut agg);
    }
    let contrib = sorted_contribs(agg, usize::MAX).0;

    // Per-step slices.
    let mut steps = Vec::with_capacity(step_bounds.len());
    for &(step, t0, t1) in step_bounds {
        let mut agg: BTreeMap<(u32, usize, String), f64> = BTreeMap::new();
        let mut covered = 0.0;
        for seg in &chain {
            let lo = seg.t_from.max(t0);
            let hi = seg.t_to.min(t1);
            if hi > lo {
                accumulate(&index, seg, lo, hi, &mut agg);
                covered += hi - lo;
            }
        }
        let (contrib, dropped) = sorted_contribs(agg, STEP_CONTRIB_CAP);
        steps.push(StepCritical {
            step,
            t_from: t0,
            t_to: t1,
            total: covered,
            contrib,
            dropped,
        });
    }

    // Per-rank slack over every trace (not only chain members).
    let mut slack = Vec::with_capacity(traces.len());
    for ((pid, rank), ri) in &index {
        let wait_s = ri.binding.iter().map(|e| e.t_ready - e.t_recv).sum();
        slack.push(RankSlack {
            pid: *pid,
            rank: *rank,
            wait_s,
        });
    }

    CriticalReport {
        total,
        segments: chain.len() as u64,
        contrib,
        steps,
        slack,
    }
}

/// Attribute `seg ∩ [lo, hi]` into `agg`.
fn accumulate(
    index: &BTreeMap<(u32, usize), RankIndex<'_>>,
    seg: &Segment,
    lo: f64,
    hi: f64,
    agg: &mut BTreeMap<(u32, usize, String), f64>,
) {
    match seg.wire {
        Some(kind) => {
            *agg.entry((seg.pid, seg.rank, net_phase(kind).to_string()))
                .or_insert(0.0) += hi - lo;
        }
        None => {
            let mut phases: BTreeMap<&str, f64> = BTreeMap::new();
            if let Some(ri) = index.get(&(seg.pid, seg.rank)) {
                ri.attribute(lo, hi, &mut phases);
            } else {
                phases.insert(UNTRACKED, hi - lo);
            }
            for (name, secs) in phases {
                *agg.entry((seg.pid, seg.rank, name.to_string())).or_insert(0.0) += secs;
            }
        }
    }
}

/// Sort contributions largest-first with a deterministic tie-break and
/// cap the list; returns the kept entries and the dropped count.
fn sorted_contribs(
    agg: BTreeMap<(u32, usize, String), f64>,
    cap: usize,
) -> (Vec<CritContrib>, u64) {
    let mut v: Vec<CritContrib> = agg
        .into_iter()
        .map(|((pid, rank, phase), secs)| CritContrib {
            pid,
            rank,
            phase,
            secs,
        })
        .collect();
    v.sort_by(|a, b| {
        b.secs
            .total_cmp(&a.secs)
            .then(a.pid.cmp(&b.pid))
            .then(a.rank.cmp(&b.rank))
            .then(a.phase.cmp(&b.phase))
    });
    let dropped = v.len().saturating_sub(cap) as u64;
    v.truncate(cap);
    (v, dropped)
}

fn write_contrib(o: &mut Obj<'_>, c: &CritContrib) {
    o.uint("pid", c.pid.into())
        .uint("rank", c.rank as u64)
        .text("phase", &c.phase)
        .num("secs", c.secs);
}

/// Write a [`CriticalReport`]'s members into `o`: the
/// `nekstat/critical-path/v1` object the run report embeds and `nekstat
/// critical-path --json` prints.
pub fn write_critical(o: &mut Obj<'_>, c: &CriticalReport) {
    o.text("schema", CRITICAL_SCHEMA)
        .uint("segments", c.segments)
        .num("total", c.total)
        .arr("contrib", &c.contrib, write_contrib)
        .arr("steps", &c.steps, |o, s| {
            o.uint("step", s.step)
                .num("t_from", s.t_from)
                .num("t_to", s.t_to)
                .num("total", s.total)
                .uint("dropped", s.dropped)
                .arr("contrib", &s.contrib, write_contrib);
        })
        .arr("slack", &c.slack, |o, s| {
            o.uint("pid", s.pid.into())
                .uint("rank", s.rank as u64)
                .num("wait_s", s.wait_s);
        });
}

fn parse_contribs(v: Option<&Value>) -> Result<Vec<CritContrib>, String> {
    let mut out = Vec::new();
    for cv in v.and_then(Value::as_arr).ok_or("missing contrib list")? {
        out.push(CritContrib {
            pid: cv.uint("pid") as u32,
            rank: cv.uint("rank") as usize,
            phase: cv
                .get("phase")
                .and_then(Value::as_str)
                .ok_or("contrib without phase")?
                .to_string(),
            secs: cv.num("secs"),
        });
    }
    Ok(out)
}

/// Parse the `nekstat/critical-path/v1` object.
///
/// # Errors
/// Malformed JSON or a schema tag mismatch.
pub fn parse_critical(cv: &Value) -> Result<CriticalReport, String> {
    let schema = cv
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("critical block without schema tag")?;
    if schema != CRITICAL_SCHEMA {
        return Err(format!("unsupported critical-path schema {schema:?}"));
    }
    let mut steps = Vec::new();
    for sv in cv.get("steps").and_then(Value::as_arr).unwrap_or_default() {
        steps.push(StepCritical {
            step: sv.uint("step"),
            t_from: sv.num("t_from"),
            t_to: sv.num("t_to"),
            total: sv.num("total"),
            contrib: parse_contribs(sv.get("contrib"))?,
            dropped: sv.uint("dropped"),
        });
    }
    let slack = cv
        .get("slack")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|rv| RankSlack {
            pid: rv.uint("pid") as u32,
            rank: rv.uint("rank") as usize,
            wait_s: rv.num("wait_s"),
        })
        .collect();
    Ok(CriticalReport {
        total: cv.num("total"),
        segments: cv.uint("segments"),
        contrib: parse_contribs(cv.get("contrib"))?,
        steps,
        slack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pack_ctx, Span};

    fn span(id: u64, name: &str, start: f64, end: f64, depth: u32) -> Span {
        Span {
            id,
            name: name.into(),
            start,
            end,
            depth,
            self_time: 0.0,
        }
    }

    /// Rank 0 computes 0..4, sends at 4 (ready at 5); rank 1 waits from
    /// 1 and then post-processes 5..7. Critical chain: r1 [5,7] +
    /// wire [4,5] + r0 [0,4].
    #[test]
    fn two_rank_chain_is_time_contiguous_and_attributed() {
        let t0 = RankTrace {
            pid: 0,
            rank: 0,
            end: 5.0,
            spans: vec![span(0, "compute", 0.0, 4.0, 0)],
            edges: vec![],
        };
        let t1 = RankTrace {
            pid: 0,
            rank: 1,
            end: 7.0,
            spans: vec![span(0, "recv", 1.0, 5.0, 0), span(1, "post", 5.0, 7.0, 0)],
            edges: vec![CausalEdge {
                src: pack_ctx(0, 0, 0),
                dst_span: 0,
                t_send: 4.0,
                t_ready: 5.0,
                t_recv: 1.0,
                binding: true,
                kind: EdgeKind::Message,
            }],
        };
        let r = analyze(&[t0, t1], &[]);
        assert_eq!(r.total, 7.0);
        let sum: f64 = r.contrib.iter().map(|c| c.secs).sum();
        assert!((sum - 7.0).abs() < 1e-12, "chain must cover [0, end]: {sum}");
        let d = r.dominant().unwrap();
        assert_eq!((d.pid, d.rank, d.phase.as_str()), (0, 0, "compute"));
        assert!((d.secs - 4.0).abs() < 1e-12);
        assert!(r
            .contrib
            .iter()
            .any(|c| c.phase == "net/message" && (c.secs - 1.0).abs() < 1e-12));
        // Rank 1 waited 4s; rank 0 never waited.
        assert_eq!(r.slack.len(), 2);
        assert_eq!(r.slack[0].wait_s, 0.0);
        assert!((r.slack[1].wait_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn step_windows_slice_the_chain_exactly() {
        let t = RankTrace {
            pid: 0,
            rank: 0,
            end: 6.0,
            spans: vec![
                span(0, "a", 0.0, 2.0, 0),
                span(1, "b", 2.0, 6.0, 0),
                span(2, "b/inner", 3.0, 4.0, 1),
            ],
            edges: vec![],
        };
        let r = analyze(&[t], &[(1, 0.0, 3.0), (2, 3.0, 6.0)]);
        assert_eq!(r.steps.len(), 2);
        assert!((r.steps[0].total - 3.0).abs() < 1e-12);
        assert!((r.steps[1].total - 3.0).abs() < 1e-12);
        // Window 2 covers the leaf span: [3,4] goes to b/inner, not b.
        let w2: BTreeMap<&str, f64> = r.steps[1]
            .contrib
            .iter()
            .map(|c| (c.phase.as_str(), c.secs))
            .collect();
        assert!((w2["b/inner"] - 1.0).abs() < 1e-12);
        assert!((w2["b"] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn untracked_gaps_and_empty_input_are_handled() {
        let r = analyze(&[], &[]);
        assert_eq!(r.total, 0.0);
        assert!(r.contrib.is_empty());

        let t = RankTrace {
            pid: 0,
            rank: 0,
            end: 4.0,
            spans: vec![span(0, "a", 1.0, 2.0, 0)],
            edges: vec![],
        };
        let r = analyze(&[t], &[]);
        let m: BTreeMap<&str, f64> = r
            .contrib
            .iter()
            .map(|c| (c.phase.as_str(), c.secs))
            .collect();
        assert!((m["a"] - 1.0).abs() < 1e-12);
        assert!((m[UNTRACKED] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn non_binding_edges_do_not_redirect_the_chain() {
        let t0 = RankTrace {
            pid: 0,
            rank: 0,
            end: 3.0,
            spans: vec![span(0, "w", 0.0, 3.0, 0)],
            edges: vec![],
        };
        // Rank 1 received a message that was already waiting: no jump.
        let t1 = RankTrace {
            pid: 0,
            rank: 1,
            end: 5.0,
            spans: vec![span(0, "w", 0.0, 5.0, 0)],
            edges: vec![CausalEdge {
                src: pack_ctx(0, 0, 0),
                dst_span: 0,
                t_send: 1.0,
                t_ready: 2.0,
                t_recv: 4.0,
                binding: false,
                kind: EdgeKind::Message,
            }],
        };
        let r = analyze(&[t0, t1], &[]);
        assert_eq!(r.segments, 1, "one local segment, no jump");
        let d = r.dominant().unwrap();
        assert_eq!((d.rank, d.secs), (1, 5.0));
    }
}
