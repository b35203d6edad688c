//! **nekstat** — read one or two `RunReport` JSON artifacts (written by
//! the figure harnesses via `--report-out`) and print a human summary,
//! no stdout scraping required.
//!
//! ```text
//! nekstat reports/fig2_catalyst_7ranks.report.json            # summary
//! nekstat summary report.json --json                          # machine summary
//! nekstat before.report.json after.report.json                # diff
//! nekstat critical-path report.json [--json]                  # dominant chain
//! nekstat --follow 127.0.0.1:4455 [--json] [--max-snapshots N]
//! ```
//!
//! `critical-path` reads the `critical` block a traced run embeds in
//! its report and names the dominant (rank, phase) chain, per-step
//! breakdown, and per-rank slack. `--follow` attaches a live telemetry
//! session to a running `staging_bench`/figure process (its staging
//! consumer port) and prints one line per streamed delta snapshot;
//! detaching (ctrl-C or `--max-snapshots`) never perturbs the run.

use bench_harness::{fmt_secs, format_table};
use std::collections::BTreeMap;
use telemetry::{json, EventKind, MetricValue, RunReport};

/// Schema tag of `nekstat summary --json` output.
const SUMMARY_SCHEMA: &str = "nekstat/summary/v1";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("critical-path") => critical_path_cmd(&args[1..]),
        Some("summary") => summary_cmd(&args[1..]),
        Some("--follow") => follow_cmd(&args[1..]),
        Some("diff") if args.len() == 3 => diff(&load(&args[1]), &load(&args[2])),
        _ => match args.as_slice() {
            [path] => summarize(&load(path)),
            [a, b] => diff(&load(a), &load(b)),
            _ => usage(),
        },
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: nekstat <report.json> [other-report.json]\n\
         \x20      nekstat summary <report.json> [--json]\n\
         \x20      nekstat critical-path <report.json> [--json]\n\
         \x20      nekstat --follow <host:port> [--json] [--max-snapshots N]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> RunReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("nekstat: cannot read {path}: {e}");
        std::process::exit(1);
    });
    RunReport::from_json(&text).unwrap_or_else(|e| {
        eprintln!("nekstat: {path}: {e}");
        std::process::exit(1);
    })
}

/// Strip a `rank<k>/` or `endpoint<k>/` prefix so per-rank instruments
/// aggregate into one row per logical metric.
///
/// Prefix rules:
/// * `rank<k>/<metric>` — simulation-world rank scope; stripped, and the
///   remainder aggregates (counters sum, ratio gauges average,
///   histograms combine) across ranks.
/// * `endpoint<k>/<metric>` — endpoint-world rank scope; stripped the
///   same way but kept separate from the simulation rows by an
///   `endpoint:` marker, so sim and endpoint totals never mix.
/// * Anything else (including `staging/session<k>/…`, which scopes a
///   *consumer session*, not a rank) passes through untouched —
///   session rows are per-session facts and must not sum.
fn base_name(name: &str) -> (&str, bool) {
    if let Some((scope, rest)) = name.split_once('/') {
        let endpoint = scope.starts_with("endpoint");
        let scoped = (scope.starts_with("rank") || endpoint)
            && scope
                .trim_start_matches("rank")
                .trim_start_matches("endpoint")
                .chars()
                .all(|c| c.is_ascii_digit());
        if scoped {
            return (rest, endpoint);
        }
    }
    (name, false)
}

/// One aggregated row per logical metric: counters sum over ranks;
/// gauges sum too, except ratio-valued gauges (name ending in `ratio`,
/// e.g. `sem/overlap_ratio`), which average — a sum of per-rank ratios
/// is meaningless; histograms combine counts exactly and keep the worst
/// p95.
enum Agg {
    Counter(u64),
    Gauge { sum: f64, ranks: u64, avg: bool },
    Histogram {
        count: u64,
        p50: f64,
        p90: f64,
        p95: f64,
        p99: f64,
        max: f64,
    },
}

impl Agg {
    /// The displayed gauge value: per-rank average for ratios, sum
    /// otherwise.
    fn gauge_value(sum: f64, ranks: u64, avg: bool) -> f64 {
        if avg && ranks > 0 {
            sum / ranks as f64
        } else {
            sum
        }
    }
}

/// Ratio-valued gauges are averaged over ranks instead of summed.
fn gauge_is_ratio(key: &str) -> bool {
    key.ends_with("ratio")
}

fn aggregate(report: &RunReport) -> BTreeMap<String, Agg> {
    let mut out: BTreeMap<String, Agg> = BTreeMap::new();
    for (name, value) in &report.metrics {
        let (base, endpoint) = base_name(name);
        let key = if endpoint {
            format!("endpoint:{base}")
        } else {
            base.to_string()
        };
        match (out.get_mut(&key), value) {
            (None, MetricValue::Counter(c)) => {
                out.insert(key, Agg::Counter(*c));
            }
            (None, MetricValue::Gauge(g)) => {
                let avg = gauge_is_ratio(&key);
                out.insert(
                    key,
                    Agg::Gauge {
                        sum: *g,
                        ranks: 1,
                        avg,
                    },
                );
            }
            (None, MetricValue::Histogram(h)) => {
                out.insert(
                    key,
                    Agg::Histogram {
                        count: h.count,
                        p50: h.p50,
                        p90: h.p90,
                        p95: h.p95,
                        p99: h.p99,
                        max: h.max,
                    },
                );
            }
            (Some(Agg::Counter(total)), MetricValue::Counter(c)) => *total += c,
            (Some(Agg::Gauge { sum, ranks, .. }), MetricValue::Gauge(g)) => {
                *sum += g;
                *ranks += 1;
            }
            (
                Some(Agg::Histogram {
                    count,
                    p50,
                    p90,
                    p95,
                    p99,
                    max,
                }),
                MetricValue::Histogram(h),
            ) => {
                *count += h.count;
                *p50 = p50.max(h.p50);
                *p90 = p90.max(h.p90);
                *p95 = p95.max(h.p95);
                *p99 = p99.max(h.p99);
                *max = max.max(h.max);
            }
            // Mixed types under one base name: keep the first.
            _ => {}
        }
    }
    out
}

/// Split a `staging/session<k>/<field>` metric into `(k, field)`; the
/// session scope is a consumer id, not a rank prefix (see [`base_name`]).
fn session_scope(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix("staging/session")?;
    let (id, field) = rest.split_once('/')?;
    Some((id.parse().ok()?, field))
}

/// Build the per-session fan-out rows from `staging/session<k>/*`
/// counters: one row per session, columns in a fixed order.
fn session_table(aggs: &BTreeMap<String, Agg>) -> Vec<Vec<String>> {
    let mut sessions: BTreeMap<usize, BTreeMap<&str, u64>> = BTreeMap::new();
    for (name, agg) in aggs {
        if let (Some((id, field)), Agg::Counter(c)) = (session_scope(name), agg) {
            sessions.entry(id).or_default().insert(field, *c);
        }
    }
    sessions
        .iter()
        .map(|(id, fields)| {
            let get = |f: &str| fields.get(f).copied().unwrap_or(0).to_string();
            vec![
                id.to_string(),
                get("frames_sent"),
                get("bytes_sent"),
                get("cache_hits"),
                get("catchup_steps"),
            ]
        })
        .collect()
}

/// Seconds for the `*_time` histograms, a bare number for the rest
/// (iteration counts, relative residuals).
fn fmt_observed(name: &str, v: f64) -> String {
    if name.ends_with("_time") {
        fmt_secs(v)
    } else if v >= 1.0 || v == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.1e}")
    }
}

fn agg_cell(name: &str, a: &Agg) -> String {
    let fmt = |v: &f64| fmt_observed(name, *v);
    match a {
        Agg::Counter(c) => c.to_string(),
        Agg::Gauge { sum, ranks, avg } => {
            format!("{:.3}", Agg::gauge_value(*sum, *ranks, *avg))
        }
        Agg::Histogram {
            count,
            p50,
            p90,
            p95,
            p99,
            max,
        } => format!(
            "n={count} p50={} p90={} p95={} p99={} max={}",
            fmt(p50),
            fmt(p90),
            fmt(p95),
            fmt(p99),
            fmt(max)
        ),
    }
}

fn summarize(r: &RunReport) {
    let m = &r.manifest;
    println!(
        "{} / {} / {} ({}) — {} ranks (+{} endpoint), {} steps, trigger every {}, machine {}",
        m.case,
        m.workflow,
        m.mode,
        m.exec,
        m.ranks,
        m.endpoint_ranks,
        m.steps,
        m.trigger_every,
        m.machine
    );
    println!(
        "faults: {} | sched: {} | wire: {} | pool threads: {} | pipeline depth: {}",
        m.fault_plan, m.sched, m.wire, m.pool_threads, m.pipeline_depth
    );

    if !r.series.is_empty() {
        let n = r.series.len();
        let total: f64 = r.series.iter().map(|s| s.t_end - s.t_start).sum();
        let max = r
            .series
            .iter()
            .map(|s| s.t_end - s.t_start)
            .fold(0.0, f64::max);
        println!(
            "\nstep series: {n} samples ({} evicted), mean {} p95 {} max {}",
            r.evicted_samples,
            fmt_secs(total / n as f64),
            fmt_secs(r.step_time_p95()),
            fmt_secs(max)
        );
        let bp = r.total_backpressure_wait();
        if bp > 0.0 {
            println!("backpressure wait (rank 0, total): {}", fmt_secs(bp));
        }
        let retries = r.series.last().map(|s| s.retries).unwrap_or(0);
        if retries > 0 {
            println!("transport retries by final step: {retries}");
        }
    }

    let aggs = aggregate(r);
    // Event-mode runs only: how often a rank gave up the run token.
    if let (Some(Agg::Counter(msg)), Some(Agg::Counter(coll))) = (
        aggs.get("sched/blocks_message"),
        aggs.get("sched/blocks_collective"),
    ) {
        println!(
            "\nscheduler hand-offs: {msg} recv parks + {coll} collective parks ({:.0} per step)",
            (msg + coll) as f64 / m.steps.max(1) as f64
        );
    }
    if let Some(line) = solver_convergence(&aggs) {
        println!("\n{line}");
    }
    // Sort-last rendering: the share of the image the ranks' tiles covered
    // (rasterised and sent) against a whole image per rank and pass.
    for world in ["", "endpoint:"] {
        if let (Some(Agg::Counter(tile)), Some(Agg::Counter(image))) = (
            aggs.get(&format!("{world}render/tile_pixels")),
            aggs.get(&format!("{world}render/image_pixels")),
        ) {
            println!(
                "\n{world}render: {:.1} % of image pixels active ({tile} of {image})",
                100.0 * *tile as f64 / (*image).max(1) as f64
            );
        }
    }
    if !aggs.is_empty() {
        let rows: Vec<Vec<String>> = aggs
            .iter()
            .filter(|(name, _)| session_scope(name).is_none())
            .map(|(name, a)| vec![name.clone(), agg_cell(name, a)])
            .collect();
        println!("\nmetrics (summed over ranks; endpoint world prefixed)");
        print!("{}", format_table(&["metric", "value"], &rows));
    }

    let sessions = session_table(&aggs);
    if !sessions.is_empty() {
        println!("\nstaging fan-out (per consumer session)");
        print!(
            "{}",
            format_table(
                &["session", "frames", "bytes", "cache hits", "catch-up steps"],
                &sessions
            )
        );
    }

    if !r.events.is_empty() {
        println!("\nevents ({}):", r.events.len());
        for e in &r.events {
            let step = e.step.map(|s| format!(" step {s}")).unwrap_or_default();
            println!(
                "  t={:<12} pid{} rank{}{} {}: {}",
                format!("{:.4}s", e.at),
                e.pid,
                e.rank,
                step,
                e.kind.as_str(),
                e.detail
            );
        }
    }

    let mem = &r.memory;
    if mem.host_aggregate_peak + mem.gpu_aggregate_peak + mem.unscoped > 0 {
        println!(
            "\nmemory peaks: host aggregate {} (max rank {}), gpu {}, unscoped {}",
            mem.host_aggregate_peak, mem.host_max_rank_peak, mem.gpu_aggregate_peak, mem.unscoped
        );
    }
}

/// The summary's "solver convergence:" line: how hard the solves were and
/// whether any gave up. A report whose pressure multigrid published its
/// coarse gauges also gets how that multigrid smooths and solves.
fn solver_convergence(aggs: &BTreeMap<String, Agg>) -> Option<String> {
    let (
        Some(Agg::Histogram {
            p50: p_p50,
            max: p_max,
            ..
        }),
        Some(Agg::Histogram { max: res_max, .. }),
        Some(Agg::Histogram {
            p50: v_p50,
            max: v_max,
            ..
        }),
        Some(Agg::Counter(unconverged)),
    ) = (
        aggs.get("sem/pressure_iters"),
        aggs.get("sem/pressure_residual"),
        aggs.get("sem/velocity_iters"),
        aggs.get("sem/unconverged_solves"),
    )
    else {
        return None;
    };
    let multigrid = match (aggs.get("sem/coarse_dofs"), aggs.get("sem/coarse_band")) {
        (Some(Agg::Gauge { sum: dofs, .. }), Some(Agg::Gauge { sum: band, .. })) => format!(
            "; smoother element Schwarz (FDM), ω 5/6; \
             coarse grid {dofs:.0} dofs, band {band:.0}, solved exactly"
        ),
        _ => String::new(),
    };
    Some(format!(
        "solver convergence: pressure p50 {p_p50:.1} / max {p_max:.0} iterations \
         (final residual ≤ {res_max:.1e} of the rhs), velocity p50 {v_p50:.1} / max {v_max:.0}, \
         {unconverged} unconverged solves{multigrid}"
    ))
}

fn pct(old: f64, new: f64) -> String {
    if old == 0.0 {
        if new == 0.0 {
            "±0.0%".into()
        } else {
            "new".into()
        }
    } else {
        format!("{:+.1}%", (new / old - 1.0) * 100.0)
    }
}

fn diff(a: &RunReport, b: &RunReport) {
    let (ma, mb) = (&a.manifest, &b.manifest);
    println!(
        "A: {} {} {} ({}) ranks={} steps={} wire={}",
        ma.case, ma.workflow, ma.mode, ma.exec, ma.ranks, ma.steps, ma.wire
    );
    println!(
        "B: {} {} {} ({}) ranks={} steps={} wire={}",
        mb.case, mb.workflow, mb.mode, mb.exec, mb.ranks, mb.steps, mb.wire
    );
    if ma != mb {
        println!("note: manifests differ — deltas compare different configurations");
    }

    println!(
        "\nstep time p95: {} -> {} ({})",
        fmt_secs(a.step_time_p95()),
        fmt_secs(b.step_time_p95()),
        pct(a.step_time_p95(), b.step_time_p95())
    );
    println!(
        "backpressure wait: {} -> {} ({})",
        fmt_secs(a.total_backpressure_wait()),
        fmt_secs(b.total_backpressure_wait()),
        pct(a.total_backpressure_wait(), b.total_backpressure_wait())
    );
    println!("events: {} -> {}", a.events.len(), b.events.len());

    let (aa, ab) = (aggregate(a), aggregate(b));
    let mut rows = Vec::new();
    for (name, va) in &aa {
        let Some(vb) = ab.get(name) else {
            rows.push(vec![
                name.clone(),
                agg_cell(name, va),
                "-".into(),
                "removed".into(),
            ]);
            continue;
        };
        let delta = match (va, vb) {
            (Agg::Counter(x), Agg::Counter(y)) => pct(*x as f64, *y as f64),
            (
                Agg::Gauge {
                    sum: xs,
                    ranks: xr,
                    avg: xa,
                },
                Agg::Gauge {
                    sum: ys,
                    ranks: yr,
                    avg: ya,
                },
            ) => pct(
                Agg::gauge_value(*xs, *xr, *xa),
                Agg::gauge_value(*ys, *yr, *ya),
            ),
            (Agg::Histogram { p95: x, .. }, Agg::Histogram { p95: y, .. }) => pct(*x, *y),
            _ => "type-changed".into(),
        };
        rows.push(vec![
            name.clone(),
            agg_cell(name, va),
            agg_cell(name, vb),
            delta,
        ]);
    }
    for (name, vb) in &ab {
        if !aa.contains_key(name) {
            rows.push(vec![
                name.clone(),
                "-".into(),
                agg_cell(name, vb),
                "new".into(),
            ]);
        }
    }
    if !rows.is_empty() {
        println!("\nmetric deltas (A -> B)");
        print!("{}", format_table(&["metric", "A", "B", "delta"], &rows));
    }

    // Fault-visibility digest: where the interesting events moved.
    for kind in [
        EventKind::FaultInjected,
        EventKind::CircuitBreakerOpen,
        EventKind::EngineSwitch,
        EventKind::CheckpointWrite,
        EventKind::EndpointCrash,
    ] {
        let ca = a.events_of(kind).count();
        let cb = b.events_of(kind).count();
        if ca + cb > 0 {
            println!("{}: {ca} -> {cb}", kind.as_str());
        }
    }
}

/// `nekstat summary <report> [--json]` — the human summary, or a
/// machine-readable `nekstat/summary/v1` document.
fn summary_cmd(args: &[String]) {
    let json_out = args.iter().any(|a| a == "--json");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        usage();
    };
    let r = load(path);
    if !json_out {
        summarize(&r);
        return;
    }
    let aggs = aggregate(&r);
    let m = &r.manifest;
    let mut o = String::from("{\n  \"schema\": ");
    json::push_str(&mut o, SUMMARY_SCHEMA);
    o.push_str(",\n  \"manifest\": {");
    for (i, (key, val)) in [
        ("case", &m.case),
        ("workflow", &m.workflow),
        ("mode", &m.mode),
        ("exec", &m.exec),
        ("sched", &m.sched),
        ("wire", &m.wire),
        ("machine", &m.machine),
        ("fault_plan", &m.fault_plan),
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            o.push_str(", ");
        }
        o.push_str(&format!("\"{key}\": "));
        json::push_str(&mut o, val);
    }
    o.push_str(&format!(
        ", \"ranks\": {}, \"endpoint_ranks\": {}, \"steps\": {}, \"trigger_every\": {}, \"pool_threads\": {}, \"pipeline_depth\": {}}}",
        m.ranks, m.endpoint_ranks, m.steps, m.trigger_every, m.pool_threads, m.pipeline_depth
    ));
    let n = r.series.len();
    let total: f64 = r.series.iter().map(|s| s.t_end - s.t_start).sum();
    let max = r
        .series
        .iter()
        .map(|s| s.t_end - s.t_start)
        .fold(0.0, f64::max);
    o.push_str(&format!(
        ",\n  \"series\": {{\"samples\": {n}, \"evicted\": {}, \"mean_s\": ",
        r.evicted_samples
    ));
    json::push_f64(&mut o, if n > 0 { total / n as f64 } else { 0.0 });
    o.push_str(", \"p95_s\": ");
    json::push_f64(&mut o, r.step_time_p95());
    o.push_str(", \"max_s\": ");
    json::push_f64(&mut o, max);
    o.push_str(", \"backpressure_wait_s\": ");
    json::push_f64(&mut o, r.total_backpressure_wait());
    o.push_str("},\n  \"metrics\": {");
    for (i, (name, agg)) in aggs.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        o.push('\n');
        o.push_str("    ");
        json::push_str(&mut o, name);
        o.push_str(": ");
        match agg {
            Agg::Counter(c) => o.push_str(&format!("{{\"kind\": \"counter\", \"value\": {c}}}")),
            Agg::Gauge { sum, ranks, avg } => {
                o.push_str("{\"kind\": \"gauge\", \"value\": ");
                json::push_f64(&mut o, Agg::gauge_value(*sum, *ranks, *avg));
                o.push('}');
            }
            Agg::Histogram {
                count,
                p50,
                p90,
                p95,
                p99,
                max,
            } => {
                o.push_str(&format!("{{\"kind\": \"histogram\", \"count\": {count}"));
                for (key, v) in [
                    ("p50", *p50),
                    ("p90", *p90),
                    ("p95", *p95),
                    ("p99", *p99),
                    ("max", *max),
                ] {
                    o.push_str(&format!(", \"{key}\": "));
                    json::push_f64(&mut o, v);
                }
                o.push('}');
            }
        }
    }
    o.push_str("\n  },\n  \"sessions\": [");
    for (i, row) in session_table(&aggs).iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        o.push_str(&format!(
            "{{\"id\": {}, \"frames_sent\": {}, \"bytes_sent\": {}, \"cache_hits\": {}, \"catchup_steps\": {}}}",
            row[0], row[1], row[2], row[3], row[4]
        ));
    }
    o.push_str(&format!("],\n  \"events\": {}\n}}\n", r.events.len()));
    print!("{o}");
}

/// `nekstat critical-path <report> [--json]` — name the dominant
/// (rank, phase) chain from the report's embedded critical block.
fn critical_path_cmd(args: &[String]) {
    let json_out = args.iter().any(|a| a == "--json");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        usage();
    };
    let r = load(path);
    let Some(c) = &r.critical else {
        eprintln!(
            "nekstat: {path} has no critical block (run with tracing enabled: \
             the workflow drivers embed it when --trace is on)"
        );
        std::process::exit(1);
    };
    if json_out {
        let mut o = String::new();
        telemetry::push_critical(&mut o, c);
        o.push('\n');
        print!("{o}");
        return;
    }
    println!(
        "critical path: {} across {} segments ({} steps analyzed)",
        fmt_secs(c.total),
        c.segments,
        c.steps.len()
    );
    if let Some(d) = c.dominant() {
        println!(
            "dominant: pid{} rank{} {} — {} ({:.1}% of the chain)",
            d.pid,
            d.rank,
            d.phase,
            fmt_secs(d.secs),
            if c.total > 0.0 { d.secs / c.total * 100.0 } else { 0.0 }
        );
    }
    if !c.contrib.is_empty() {
        let rows: Vec<Vec<String>> = c
            .contrib
            .iter()
            .map(|x| {
                vec![
                    x.pid.to_string(),
                    x.rank.to_string(),
                    x.phase.clone(),
                    fmt_secs(x.secs),
                    if c.total > 0.0 {
                        format!("{:.1}%", x.secs / c.total * 100.0)
                    } else {
                        "0.0%".into()
                    },
                ]
            })
            .collect();
        println!("\ncritical-path contributors");
        print!(
            "{}",
            format_table(&["pid", "rank", "phase", "time", "share"], &rows)
        );
    }
    if !c.steps.is_empty() {
        let rows: Vec<Vec<String>> = c
            .steps
            .iter()
            .map(|s| {
                let top = s
                    .contrib
                    .first()
                    .map(|x| format!("{} @ pid{} rank{}", x.phase, x.pid, x.rank))
                    .unwrap_or_else(|| "-".into());
                vec![
                    s.step.to_string(),
                    format!("{}..{}", fmt_secs(s.t_from), fmt_secs(s.t_to)),
                    fmt_secs(s.total),
                    top,
                ]
            })
            .collect();
        println!("\nper-step critical path");
        print!(
            "{}",
            format_table(&["step", "window", "total", "top contributor"], &rows)
        );
    }
    if !c.slack.is_empty() {
        let mut slack = c.slack.clone();
        slack.sort_by(|a, b| b.wait_s.total_cmp(&a.wait_s));
        let rows: Vec<Vec<String>> = slack
            .iter()
            .take(8)
            .map(|s| {
                vec![
                    s.pid.to_string(),
                    s.rank.to_string(),
                    fmt_secs(s.wait_s),
                ]
            })
            .collect();
        println!("\nper-rank slack (blocking wait off the critical path, top {})", rows.len());
        print!("{}", format_table(&["pid", "rank", "wait"], &rows));
    }
}

/// Sum every counter whose rank-stripped base name equals `base` over a
/// merged live-metric state.
fn live_counter_sum(state: &BTreeMap<String, json::Value>, base: &str) -> u64 {
    state
        .iter()
        .filter(|(name, _)| base_name(name).0 == base)
        .filter_map(|(_, v)| {
            (v.get("kind")?.as_str()? == "counter").then(|| v.get("value")?.as_u64())?
        })
        .sum()
}

/// `nekstat --follow <host:port> [--json] [--max-snapshots N]` — attach
/// a live telemetry session and print one line per delta snapshot.
fn follow_cmd(args: &[String]) {
    let json_out = args.iter().any(|a| a == "--json");
    let max_snapshots: Option<u64> = args
        .iter()
        .position(|a| a == "--max-snapshots")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let Some(addr) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--")
                && args.get(i.wrapping_sub(1)).map(String::as_str) != Some("--max-snapshots")
        })
        .map(|(_, a)| a)
    else {
        usage();
    };
    let mut client = transport::FollowClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("nekstat: cannot attach to {addr}: {e}");
        std::process::exit(1);
    });
    let mut state: BTreeMap<String, json::Value> = BTreeMap::new();
    let mut received = 0u64;
    loop {
        let snap = match client.next_snapshot(std::time::Duration::from_secs(30)) {
            Ok(Some(s)) => s,
            Ok(None) => {
                if !json_out {
                    println!("stream ended after {received} snapshots");
                }
                return;
            }
            Err(e) => {
                eprintln!("nekstat: follow stream error: {e}");
                std::process::exit(1);
            }
        };
        received += 1;
        if json_out {
            println!("{}", snap.json);
        } else {
            let doc = json::parse(&snap.json).unwrap_or_else(|e| {
                eprintln!("nekstat: malformed snapshot: {e}");
                std::process::exit(1);
            });
            let mut changed = 0usize;
            if let Some(json::Value::Obj(metrics)) = doc.get("metrics").cloned() {
                changed = metrics.len();
                state.extend(metrics);
            }
            println!(
                "snap {:>4} ({}, {} changed) | steps={} frames={} KiB={:.1} credit_stalls={} retries={}",
                snap.seq,
                if snap.seq == 0 { "full" } else { "delta" },
                changed,
                live_counter_sum(&state, "staging/steps"),
                live_counter_sum(&state, "staging/frames_sent"),
                live_counter_sum(&state, "staging/bytes_sent") as f64 / 1024.0,
                live_counter_sum(&state, "staging/credit_stalls"),
                live_counter_sum(&state, "transport/retries"),
            );
        }
        if max_snapshots.is_some_and(|m| received >= m) {
            if !json_out {
                println!("detaching after {received} snapshots (run continues unharmed)");
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{aggregate, solver_convergence};
    use commsim::{FaultPlan, MachineModel};
    use nek_sensei::{run_insitu, ExecMode, InSituConfig, InSituMode};
    use sem::cases::{pb146, CaseParams};

    /// A two-step pb146 run's report names the pressure multigrid's
    /// smoother and its coarse solve: the 3×3×5 order-1 grid less its
    /// Dirichlet outflow plane and five vertices inside the pebbles.
    #[test]
    fn convergence_line_names_the_smoother_and_the_coarse_solve() {
        let mut params = CaseParams::pb146_default();
        (params.elems, params.order) = ([2, 2, 4], 2);
        let report = run_insitu(&InSituConfig {
            case: pb146(&params, 4),
            ranks: 1,
            steps: 2,
            trigger_every: 2,
            machine: MachineModel::test_tiny(),
            image_size: (64, 48),
            mode: InSituMode::Original,
            exec: ExecMode::Synchronous,
            sched: Default::default(),
            faults: FaultPlan::none(),
            output_dir: None,
            trace: false,
            telemetry: true,
            recovery: Default::default(),
        })
        .run_report
        .expect("telemetry: true collects a report");
        let line = solver_convergence(&aggregate(&report)).expect("the report has solves");
        assert!(
            line.starts_with("solver convergence: pressure p50 "),
            "{line}"
        );
        assert!(
            line.ends_with(
                " 0 unconverged solves; smoother element Schwarz (FDM), ω 5/6; \
                 coarse grid 31 dofs, band 9, solved exactly"
            ),
            "{line}"
        );
    }
}
