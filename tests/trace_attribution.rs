//! Integration: the span tracer's timing invariants over real workflow
//! runs — per-phase attribution against the virtual clock, transport
//! spans in in-transit runs, degraded-path spans, determinism, and the
//! Chrome trace-event emitter's structure.

use commsim::{chrome_trace_json, EndpointCrash, FaultPlan, MachineModel, PhaseBreakdown};
use nek_sensei::{
    run_insitu, run_intransit, EndpointMode, ExecMode, InSituConfig, InSituMode, InTransitConfig,
};
use sem::cases::{rbc, CaseParams};
use transport::{QueuePolicy, StagingLink, WriterConfig};

/// Tiny traced in-transit config (the fig5 pattern at miniature scale).
fn traced_intransit(sim_ranks: usize, mode: EndpointMode) -> InTransitConfig {
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, sim_ranks.max(2)];
    params.order = 2;
    InTransitConfig {
        case: rbc(&params, 1e4, 0.7),
        sim_ranks,
        ratio: 4,
        steps: 6,
        trigger_every: 3,
        machine: MachineModel::juwels_booster(),
        link: StagingLink::ucx_hdr200(),
        queue_capacity: 8,
        policy: QueuePolicy::Block,
        mode,
        sched: Default::default(),
        wire: Default::default(),
        staging_consumers: 0,
        staging_dir: None,
        image_size: (80, 60),
        output_dir: None,
        faults: FaultPlan::none(),
        writer_config: WriterConfig::default(),
        fallback_dir: None,
        trace: true,
        telemetry: false,
        recovery: Default::default(),
    }
}

/// Both execution modes, with the rank worlds a traced in situ run
/// produces in each: pipelined adds the consumer world (pid 1).
const EXEC_WORLDS: [(ExecMode, usize); 2] = [(ExecMode::Synchronous, 1), (ExecMode::Pipelined, 2)];

fn traced_insitu(ranks: usize, exec: ExecMode) -> InSituConfig {
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, ranks.max(2)];
    params.order = 2;
    InSituConfig {
        case: rbc(&params, 1e4, 0.7),
        ranks,
        steps: 6,
        trigger_every: 3,
        machine: MachineModel::test_tiny(),
        image_size: (80, 60),
        mode: InSituMode::Catalyst,
        exec,
        sched: Default::default(),
        faults: commsim::FaultPlan::none(),
        output_dir: None,
        trace: true,
        telemetry: false,
        recovery: Default::default(),
    }
}

/// Every rank's attributed self-time must not exceed its virtual wall
/// clock: spans measure the clock, they never invent time.
fn assert_phases_bounded_by_wall(phases: &PhaseBreakdown) {
    for rank in &phases.ranks {
        let attributed: f64 = rank.phases.values().map(|s| s.self_total).sum();
        assert!(
            attributed <= rank.wall * (1.0 + 1e-9) + 1e-12,
            "pid {} rank {}: attributed {attributed} > wall {}",
            rank.pid,
            rank.rank,
            rank.wall
        );
    }
}

#[test]
fn intransit_catalyst_attributes_virtual_time_to_phases() {
    let r = run_intransit(&traced_intransit(8, EndpointMode::Catalyst));
    assert_eq!(r.traces.len(), 10, "8 sim ranks + 2 endpoint ranks traced");
    let phases = r.phases.expect("trace: true produces a breakdown");
    assert_phases_bounded_by_wall(&phases);
    // The acceptance bar: at least 95% of every rank's virtual wall time
    // lands in a named span (ISSUE: per-phase overhead attribution).
    let frac = phases.attributed_fraction();
    assert!(
        frac >= 0.95,
        "worst-rank attributed fraction {frac:.4} < 0.95\n{}",
        phases.to_table()
    );
    // In-transit runs push data over the staging link: the send phase
    // must show up with real counts and real time.
    assert!(
        phases.count("transport/send") > 0,
        "no transport/send spans"
    );
    assert!(phases.total("transport/send") > 0.0);
    // Solver and render phases both appear (sim pid and endpoint pid).
    assert!(phases.count("sem/pressure") > 0);
    assert!(phases.count("render/raster") > 0);
    assert!(phases.count("transport/recv") > 0);
}

#[test]
fn insitu_catalyst_attribution_holds_without_transport() {
    for (exec, worlds) in EXEC_WORLDS {
        let r = run_insitu(&traced_insitu(4, exec));
        let phases = r.phases.expect("trace: true produces a breakdown");
        assert_eq!(phases.ranks.len(), 4 * worlds);
        assert_phases_bounded_by_wall(&phases);
        assert!(
            phases.attributed_fraction() >= 0.95,
            "{exec:?}\n{}",
            phases.to_table()
        );
        // In situ everything happens on the simulation node: in-situ copy
        // and render spans exist, transport spans do not.
        assert!(phases.count("insitu/execute") > 0);
        assert!(phases.count("render/raster") > 0);
        assert_eq!(phases.count("transport/send"), 0);
    }
}

/// A fig5 cell whose trigger never fires leaves the endpoint at virtual
/// time zero (nothing ever crosses the link). Zero seconds means zero
/// unattributed seconds — the endpoint must not drag the run's
/// attribution to 0.
#[test]
fn idle_endpoint_is_vacuously_attributed() {
    let mut cfg = traced_intransit(4, EndpointMode::Checkpointing);
    cfg.trigger_every = 100; // > steps: no trigger ever fires
    let r = run_intransit(&cfg);
    assert_eq!(r.endpoint_steps, 0);
    let phases = r.phases.expect("traced");
    assert_phases_bounded_by_wall(&phases);
    assert!(
        phases.attributed_fraction() >= 0.95,
        "{}",
        phases.to_table()
    );
}

#[test]
fn untraced_runs_carry_no_breakdown() {
    let mut cfg = traced_intransit(4, EndpointMode::NoTransport);
    cfg.trace = false;
    let r = run_intransit(&cfg);
    assert!(r.traces.is_empty());
    assert!(r.phases.is_none());
}

/// Satellite-4 regression: a fault-injected run (endpoint crash mid-flight,
/// producers degrade to the BP file fallback) with tracing enabled must
/// neither panic nor deadlock — span guards are dropped out of creation
/// order on the crash/degrade paths — and the degraded path must show up
/// as `transport/park` time.
#[test]
fn degraded_run_traces_park_spans_without_panicking() {
    let dir =
        std::env::temp_dir().join(format!("nek-sensei-trace-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let mut cfg = traced_intransit(4, EndpointMode::Checkpointing);
    cfg.steps = 10;
    cfg.trigger_every = 2;
    cfg.faults = FaultPlan {
        crashes: vec![EndpointCrash {
            endpoint: 0,
            at_step: 3,
        }],
        ..FaultPlan::default()
    };
    cfg.fallback_dir = Some(dir.clone());
    let r = run_intransit(&cfg);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(r.endpoint_crashes, 1, "scheduled crash must fire");
    assert!(r.degradation.degraded(), "producers must switch engines");
    let phases = r.phases.expect("tracing survives the fault path");
    assert_phases_bounded_by_wall(&phases);
    assert!(
        phases.count("transport/park") > 0,
        "parked triggers must be attributed to transport/park\n{}",
        phases.to_table()
    );
    assert!(phases.total("transport/park") > 0.0);
}

#[test]
fn same_seed_runs_produce_identical_breakdowns() {
    let a = run_intransit(&traced_intransit(4, EndpointMode::Catalyst));
    let b = run_intransit(&traced_intransit(4, EndpointMode::Catalyst));
    // The virtual clock makes timing deterministic: not just "close", the
    // two breakdowns are bit-identical (PhaseBreakdown: PartialEq on f64).
    assert_eq!(a.phases.expect("traced"), b.phases.expect("traced"));
}

/// Minimal structural validation of a JSON value: balanced brackets and
/// quotes outside strings. Not a full parser — enough to catch emitter
/// bugs (unescaped quotes, trailing garbage, unbalanced arrays).
fn assert_structurally_valid_json(s: &str) {
    let mut depth_sq = 0i64;
    let mut depth_br = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' => depth_sq += 1,
            ']' => depth_sq -= 1,
            '{' => depth_br += 1,
            '}' => depth_br -= 1,
            _ => {}
        }
        assert!(depth_sq >= 0 && depth_br >= 0, "close before open");
    }
    assert!(!in_str, "unterminated string");
    assert_eq!(depth_sq, 0, "unbalanced [");
    assert_eq!(depth_br, 0, "unbalanced {{");
}

#[test]
fn chrome_trace_for_four_ranks_is_well_formed() {
    for (exec, worlds) in EXEC_WORLDS {
        let r = run_insitu(&traced_insitu(4, exec));
        assert_eq!(r.traces.len(), 4 * worlds);
        let json = chrome_trace_json(&r.traces);
        let t = json.trim();
        assert!(t.starts_with('['), "trace-event format is a JSON array");
        assert!(t.ends_with(']'));
        assert_structurally_valid_json(t);
        // One thread-name metadata record per rank, on the simulation pid.
        for rank in 0..4 {
            let needle = format!(r#""name":"thread_name","ph":"M","pid":0,"tid":{rank}"#);
            assert!(json.contains(&needle), "missing metadata for rank {rank}");
        }
        assert!(json.contains(r#""name":"process_name""#));
        // Complete events carry the fields Perfetto requires.
        let x_events = json.matches(r#""ph":"X""#).count();
        assert!(x_events > 0, "no complete events emitted");
        for field in [r#""ts":"#, r#""dur":"#, r#""cat":"#] {
            assert!(
                json.matches(field).count() >= x_events,
                "every X event needs {field}"
            );
        }
    }
}

/// Sentinel span id a context word carries when the sender had no span
/// open (mirrors the tracer's internal `CTX_SPAN_MASK`).
const NO_SPAN: u64 = (1 << 40) - 1;

/// Cross-rank causal edges: every recorded edge must point back at a
/// real sender, the sender's span (when one was open) must bracket the
/// send time, and the happens-before direction must hold — under both
/// rank schedulers, with identical edge sets (edges derive purely from
/// virtual clocks, which the schedulers agree on).
#[test]
fn cross_rank_edges_link_send_to_recv_in_both_sched_modes() {
    use commsim::{unpack_ctx, EdgeKind, SchedMode};

    let run = |sched: SchedMode| {
        let mut cfg = traced_intransit(4, EndpointMode::Catalyst);
        cfg.sched = sched;
        run_intransit(&cfg).traces
    };

    let validate = |traces: &[commsim::RankTrace], label: &str| {
        let by_id: std::collections::BTreeMap<(u32, usize), &commsim::RankTrace> =
            traces.iter().map(|t| ((t.pid, t.rank), t)).collect();
        let mut total_edges = 0usize;
        let mut cross_rank = 0usize;
        let mut wire_cross_world = 0usize;
        for t in traces {
            for e in &t.edges {
                total_edges += 1;
                let (spid, srank, span) =
                    unpack_ctx(e.src).expect("recorded edges always carry a sender ctx");
                let sender = by_id
                    .get(&(spid, srank))
                    .unwrap_or_else(|| panic!("{label}: edge from untraced ({spid},{srank})"));
                if span != NO_SPAN {
                    let s = sender
                        .spans
                        .iter()
                        .find(|s| s.id == span)
                        .unwrap_or_else(|| {
                            panic!("{label}: sender span {span} missing on ({spid},{srank})")
                        });
                    assert!(
                        s.start <= e.t_send && e.t_send <= s.end,
                        "{label}: send at {} outside sender span [{}, {}]",
                        e.t_send,
                        s.start,
                        s.end
                    );
                }
                // Happens-before: the payload cannot be ready before it
                // was sent, and a binding edge really advanced the
                // receiver.
                assert!(e.t_ready >= e.t_send, "{label}: t_ready < t_send");
                assert_eq!(e.binding, e.t_ready > e.t_recv, "{label}: binding flag");
                if (spid, srank) != (t.pid, t.rank) {
                    cross_rank += 1;
                }
                if e.kind == EdgeKind::Wire && spid != t.pid {
                    wire_cross_world += 1;
                }
            }
        }
        assert!(total_edges > 0, "{label}: no causal edges recorded");
        assert!(
            cross_rank > 0,
            "{label}: no cross-rank edge (send on A happens-before recv on B)"
        );
        assert!(
            wire_cross_world > 0,
            "{label}: no wire edge from the sim world into the endpoint world"
        );
    };

    let thread = run(SchedMode::Thread);
    let event = run(SchedMode::Event);
    validate(&thread, "thread");
    validate(&event, "event");

    // Scheduler parity: the edge sets are identical, not just similar.
    let key = |ts: &[commsim::RankTrace]| {
        let mut v: Vec<_> = ts
            .iter()
            .map(|t| ((t.pid, t.rank), t.edges.clone()))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    };
    assert_eq!(key(&thread), key(&event), "edge sets differ across schedulers");
}

/// Critical-path analysis is deterministic: the same seed produces
/// byte-identical critical-path JSON, in either scheduler mode — and
/// the two modes agree with each other.
#[test]
fn critical_path_json_is_byte_identical_across_runs_and_schedulers() {
    use commsim::SchedMode;

    let run = |sched: SchedMode| {
        let mut cfg = traced_intransit(4, EndpointMode::Catalyst);
        cfg.sched = sched;
        cfg.telemetry = true;
        let r = run_intransit(&cfg);
        let report = r.run_report.expect("telemetry: true collects a report");
        let critical = report.critical.expect("traced run embeds a critical block");
        let mut json = String::new();
        telemetry::push_critical(&mut json, &critical);
        (critical, json)
    };

    let (crit_a, json_a) = run(SchedMode::Thread);
    let (_, json_b) = run(SchedMode::Thread);
    assert!(crit_a.total > 0.0, "critical path has no length");
    assert!(
        !crit_a.contrib.is_empty(),
        "critical path names no (rank, phase) contributors"
    );
    assert_eq!(json_a, json_b, "same seed, same mode: JSON must be identical");

    let (_, json_event) = run(SchedMode::Event);
    assert_eq!(
        json_a, json_event,
        "critical-path JSON differs across schedulers"
    );
}
