//! **nekstat** — read one or two `RunReport` JSON artifacts (written by
//! the figure harnesses via `--report-out`) and print a human summary,
//! no stdout scraping required.
//!
//! ```text
//! nekstat reports/fig2_catalyst_7ranks.report.json            # summary
//! nekstat summary report.json --json                          # machine summary
//! nekstat before.report.json after.report.json                # diff
//! nekstat critical-path report.json [--json]                  # dominant chain
//! ```
//!
//! `--help` prints these lines and the flags; any other flag, a flag a
//! command does not read, or a missing or malformed value exits 2.
//!
//! `critical-path` reads the `critical` block a traced run embeds in
//! its report and names the dominant (rank, phase) chain, per-step
//! breakdown, and per-rank slack.

use bench_harness::{cli, fmt_secs, format_table, HarnessArgs};
use std::collections::BTreeMap;
use telemetry::{json, EventKind, HistogramSnapshot, MetricValue, RunReport};

/// Schema tag of `nekstat summary --json` output.
const SUMMARY_SCHEMA: &str = "nekstat/summary/v1";

fn main() {
    let cli = &cli::NEKSTAT;
    let args = HarnessArgs::parse(cli);
    let operands: Vec<&str> = args.operands.iter().map(String::as_str).collect();
    match operands.as_slice() {
        ["critical-path", path] => critical_path_cmd(path, args.json),
        ["summary", path] | [path] => summary_cmd(path, args.json),
        ["diff", a, b] | [a, b] if !args.json => diff(&load(a), &load(b)),
        ["diff", _, _] | [_, _] => cli.refuse("--json: a diff has no JSON form"),
        _ => cli.refuse("the arguments match none of the usage lines"),
    }
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
/// * Anything else passes through untouched.
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
/// is meaningless; histograms combine counts, sums and minima exactly
/// and keep the worst quantiles and maximum.
enum Agg {
    Counter(u64),
    Gauge { sum: f64, ranks: u64, avg: bool },
    Histogram(HistogramSnapshot),
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

    /// Write the aggregate's members into a `nekstat/summary/v1` metric.
    fn write(&self, o: &mut json::Obj<'_>) {
        match *self {
            Agg::Counter(c) => o.text("kind", "counter").uint("value", c),
            Agg::Gauge { sum, ranks, avg } => o
                .text("kind", "gauge")
                .num("value", Agg::gauge_value(sum, ranks, avg)),
            Agg::Histogram(h) => o
                .text("kind", "histogram")
                .uint("count", h.count)
                .num("p50", h.p50)
                .num("p90", h.p90)
                .num("p95", h.p95)
                .num("p99", h.p99)
                .num("max", h.max),
        };
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
                out.insert(key, Agg::Histogram(*h));
            }
            (Some(Agg::Counter(total)), MetricValue::Counter(c)) => *total += c,
            (Some(Agg::Gauge { sum, ranks, .. }), MetricValue::Gauge(g)) => {
                *sum += g;
                *ranks += 1;
            }
            (Some(Agg::Histogram(total)), MetricValue::Histogram(h)) => {
                total.count += h.count;
                total.sum += h.sum;
                total.p50 = total.p50.max(h.p50);
                total.p90 = total.p90.max(h.p90);
                total.p95 = total.p95.max(h.p95);
                total.p99 = total.p99.max(h.p99);
                total.min = total.min.min(h.min);
                total.max = total.max.max(h.max);
            }
            // Mixed types under one base name: keep the first.
            _ => {}
        }
    }
    out
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
        Agg::Histogram(h) => format!(
            "n={} p50={} p90={} p95={} p99={} max={}",
            h.count,
            fmt(&h.p50),
            fmt(&h.p90),
            fmt(&h.p95),
            fmt(&h.p99),
            fmt(&h.max)
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
    // How often a rank gave up its run token.
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
            .map(|(name, a)| vec![name.clone(), agg_cell(name, a)])
            .collect();
        println!("\nmetrics (summed over ranks; endpoint world prefixed)");
        print!("{}", format_table(&["metric", "value"], &rows));
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
        Some(Agg::Histogram(pressure)),
        Some(Agg::Histogram(residual)),
        Some(Agg::Histogram(velocity)),
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
        "solver convergence: pressure p50 {:.1} / max {:.0} iterations \
         (final residual ≤ {:.1e} of the rhs), velocity p50 {:.1} / max {:.0}, \
         {unconverged} unconverged solves{multigrid}",
        pressure.p50, pressure.max, residual.max, velocity.p50, velocity.max
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
            (Agg::Histogram(x), Agg::Histogram(y)) => pct(x.p95, y.p95),
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
fn summary_cmd(path: &str, json_out: bool) {
    let r = load(path);
    if !json_out {
        summarize(&r);
        return;
    }
    let aggs = aggregate(&r);
    let n = r.series.len();
    let total: f64 = r.series.iter().map(|s| s.t_end - s.t_start).sum();
    let max = r
        .series
        .iter()
        .map(|s| s.t_end - s.t_start)
        .fold(0.0, f64::max);
    let doc = json::object(|o| {
        o.text("schema", SUMMARY_SCHEMA)
            .obj("manifest", |o| r.manifest.write(o))
            .obj("series", |o| {
                o.uint("samples", n as u64)
                    .uint("evicted", r.evicted_samples)
                    .num("mean_s", if n > 0 { total / n as f64 } else { 0.0 })
                    .num("p95_s", r.step_time_p95())
                    .num("max_s", max)
                    .num("backpressure_wait_s", r.total_backpressure_wait());
            })
            .obj("metrics", |o| {
                for (name, agg) in &aggs {
                    o.obj(name, |o| agg.write(o));
                }
            })
            .uint("events", r.events.len() as u64);
    });
    println!("{doc}");
}

/// `nekstat critical-path <report> [--json]` — name the dominant
/// (rank, phase) chain from the report's embedded critical block.
fn critical_path_cmd(path: &str, json_out: bool) {
    let r = load(path);
    let Some(c) = &r.critical else {
        eprintln!(
            "nekstat: {path} has no critical block (run with tracing enabled: \
             the workflow drivers embed it when --trace is on)"
        );
        std::process::exit(1);
    };
    if json_out {
        println!(
            "{}",
            json::object(|o| telemetry::critical::write_critical(o, c))
        );
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
            if c.total > 0.0 {
                d.secs / c.total * 100.0
            } else {
                0.0
            }
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
            .map(|s| vec![s.pid.to_string(), s.rank.to_string(), fmt_secs(s.wait_s)])
            .collect();
        println!(
            "\nper-rank slack (blocking wait off the critical path, top {})",
            rows.len()
        );
        print!("{}", format_table(&["pid", "rank", "wait"], &rows));
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
