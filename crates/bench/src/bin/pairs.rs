//! **The perf ledger's writer** — compares two `nekbench` binaries, each
//! built from its own tree, the way a claimed gain must be shown: in
//! alternating pairs, read by the benchmark's own bounds.
//!
//! For each workload, pair i runs both binaries once at seed `--seed` + i
//! for the benchmark's `run_seconds` (read from `BENCHMARK.json` in the
//! working directory, which is also where `nekbench` keeps its scratch
//! files): the parent first on even pairs, the change first on odd ones.
//! Each run's last stdout line holds its metrics. For every metric it
//! prints both sides' median and quartiles, the pairs the change won
//! (ties count for neither side) and the parent's interquartile range,
//! and gives a verdict:
//!
//! * `gain` — at least ten pairs ran, the change won nine tenths of them
//!   and its median is better than the parent's by more than the
//!   parent's IQR;
//! * `loss` — the same the other way round;
//! * `within bound` — neither, and the change's median is no worse than
//!   the parent's by more than the metric's bound in `BENCHMARK.json`;
//! * `beyond bound` — neither, and it is.
//!
//! With `--ledger`, one row per (workload, metric) is appended to that
//! file, a JSON array that only ever gains rows (`BENCH_trajectory.json`
//! at the repository root; CI refuses a change that edits or drops one).
//! Earlier rows are kept byte for byte: the new ones go in before the
//! closing bracket.
//!
//! ```bash
//! cargo run --release --offline -p bench-harness --bin pairs -- \
//!     --parent ../parent/target/release/nekbench --change target/release/nekbench \
//!     --parent-rev 50cb64e --change-rev HEAD --pr 38 \
//!     --workloads staging_fanout_tcp --seed 101 --pairs 10 --ledger BENCH_trajectory.json
//! ```

use bench_harness::{cli, format_table, HarnessArgs};
use std::path::{Path, PathBuf};
use std::process::Command;
use telemetry::json::{self, Obj, Value};

/// A share of the pairs the winner must take for a verdict either way.
const DECISIVE_SHARE: f64 = 0.9;

/// Fewest pairs a verdict either way may rest on.
const MIN_PAIRS: usize = 10;

/// What `BENCHMARK.json` says about one metric.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Relative worsening a change may show; end-to-end metrics only.
    bound: Option<f64>,
}

/// One pair: which side ran first and each side's reading.
struct Pair {
    seed: u64,
    parent_first: bool,
    parent: f64,
    change: f64,
}

/// One side's last stdout line.
struct Run {
    metrics: Value,
    failed: u64,
}

fn main() {
    let cli = &cli::PAIRS;
    let args = HarnessArgs::parse(cli);
    let required = |flag: &str| -> ! { cli.refuse(&format!("{flag} is required")) };
    let parent = args.parent.clone().unwrap_or_else(|| required("--parent"));
    let change = args.change.clone().unwrap_or_else(|| required("--change"));
    let workloads = args
        .workloads
        .clone()
        .unwrap_or_else(|| required("--workloads"));
    let pr = args.pr.unwrap_or_else(|| required("--pr"));
    let first_seed = args.seed.unwrap_or_else(|| required("--seed"));
    let n = args.pairs.unwrap_or(10);
    if n == 0 {
        cli.refuse("--pairs needs at least one pair");
    }
    let parent_rev = args
        .parent_rev
        .clone()
        .unwrap_or_else(|| required("--parent-rev"));
    let change_rev = args
        .change_rev
        .clone()
        .unwrap_or_else(|| required("--change-rev"));

    let bench = read_json(Path::new("BENCHMARK.json"));
    let seconds = bench.num("run_seconds");
    let metrics = benchmark_metrics(&bench);
    let host = host();
    let seeds = format!("{first_seed}-{}", first_seed + n as u64 - 1);

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for workload in workloads.split(',').filter(|w| !w.is_empty()) {
        let mut runs = Vec::new();
        let (mut parent_failed, mut change_failed) = (0, 0);
        for i in 0..n {
            let seed = first_seed + i as u64;
            let parent_first = i % 2 == 0;
            let run = |bin: &Path| run_once(bin, workload, seed, seconds);
            let (p, c) = if parent_first {
                let p = run(&parent);
                (p, run(&change))
            } else {
                let c = run(&change);
                (run(&parent), c)
            };
            eprintln!("pairs: {workload} seed {seed} done");
            parent_failed += p.failed;
            change_failed += c.failed;
            runs.push((seed, parent_first, p.metrics, c.metrics));
        }
        for metric in &metrics {
            let read = |metrics: &Value| {
                let m = metrics.get(&metric.name)?;
                m.get("value").and_then(Value::as_f64)
            };
            let pairs: Option<Vec<Pair>> = runs
                .iter()
                .map(|(seed, parent_first, p, c)| {
                    Some(Pair {
                        seed: *seed,
                        parent_first: *parent_first,
                        parent: read(p)?,
                        change: read(c)?,
                    })
                })
                .collect();
            let Some(pairs) = pairs else { continue };
            let cmp = Comparison::of(metric, &pairs);
            table.push(vec![
                workload.to_string(),
                format!("{} ({})", metric.name, metric.unit),
                cmp.parent.show(),
                cmp.change.show(),
                format!("{}/{}", cmp.won, pairs.len()),
                format!("{:.4}", cmp.parent.iqr()),
                cmp.verdict.to_string(),
            ]);
            rows.push(json::object(|o| {
                o.uint("pr", pr)
                    .text("parent", &parent_rev)
                    .text("change", &change_rev)
                    .text("host", &host)
                    .text("source", "pairs")
                    .text("workload", workload)
                    .text("metric", &metric.name)
                    .text("unit", &metric.unit)
                    .text(
                        "better",
                        if metric.lower_is_better {
                            "lower"
                        } else {
                            "higher"
                        },
                    )
                    .num("seconds", seconds)
                    .text("seeds", &seeds)
                    .uint("n", pairs.len() as u64);
                cmp.write(o);
                o.uint("parent_failed", parent_failed)
                    .uint("change_failed", change_failed)
                    .arr("pairs", &pairs, |o, p| {
                        o.uint("seed", p.seed)
                            .text("first", if p.parent_first { "parent" } else { "change" })
                            .num("parent", p.parent)
                            .num("change", p.change);
                    });
            }));
        }
    }
    let headers = [
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "change won",
        "parent IQR",
        "verdict",
    ];
    print!("{}", format_table(&headers, &table));
    if let Some(ledger) = &args.ledger {
        append_rows(ledger, &rows);
        println!("{} rows appended to {}", rows.len(), ledger.display());
    }
}

/// Median and quartiles of one side's readings.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    fn of(values: impl Iterator<Item = f64>) -> Self {
        let mut v: Vec<f64> = values.collect();
        v.sort_by(f64::total_cmp);
        Self {
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    fn show(&self) -> String {
        format!("{:.4} [{:.4}, {:.4}]", self.median, self.q1, self.q3)
    }
}

/// The `q` quantile of sorted `v`, interpolated between neighbours.
fn quantile(v: &[f64], q: f64) -> f64 {
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Both sides of one metric on one workload, read by the benchmark's rule.
struct Comparison {
    parent: Spread,
    change: Spread,
    /// Pairs in which the change read better; ties count for neither.
    won: usize,
    lost: usize,
    verdict: &'static str,
}

impl Comparison {
    fn of(metric: &Metric, pairs: &[Pair]) -> Self {
        // Positive when the change reads better.
        let gain = |parent: f64, change: f64| match metric.lower_is_better {
            true => parent - change,
            false => change - parent,
        };
        let won = pairs
            .iter()
            .filter(|p| gain(p.parent, p.change) > 0.0)
            .count();
        let lost = pairs
            .iter()
            .filter(|p| gain(p.parent, p.change) < 0.0)
            .count();
        let parent = Spread::of(pairs.iter().map(|p| p.parent));
        let change = Spread::of(pairs.iter().map(|p| p.change));
        let moved = gain(parent.median, change.median);
        let decisive = |count: usize| {
            pairs.len() >= MIN_PAIRS && count as f64 >= DECISIVE_SHARE * pairs.len() as f64
        };
        let worse_share = -moved / parent.median.abs();
        let verdict = if decisive(won) && moved > parent.iqr() {
            "gain"
        } else if decisive(lost) && -moved > parent.iqr() {
            "loss"
        } else if metric.bound.is_some_and(|bound| worse_share > bound) {
            "beyond bound"
        } else {
            "within bound"
        };
        Self {
            parent,
            change,
            won,
            lost,
            verdict,
        }
    }

    fn write(&self, o: &mut Obj<'_>) {
        for (side, s) in [("parent", &self.parent), ("change", &self.change)] {
            o.num(&format!("{side}_median"), s.median)
                .num(&format!("{side}_q1"), s.q1)
                .num(&format!("{side}_q3"), s.q3);
        }
        o.num("parent_iqr", self.parent.iqr())
            .uint("change_won", self.won as u64)
            .uint("change_lost", self.lost as u64)
            .text("verdict", self.verdict);
    }
}

/// Every metric `BENCHMARK.json` names, end-to-end ones first, with its
/// direction and bound.
fn benchmark_metrics(bench: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    for (list, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in bench.get(list).and_then(Value::as_arr).unwrap_or_default() {
            out.push(Metric {
                name: m.text("name").to_string(),
                unit: m.text("unit").to_string(),
                lower_is_better: m.text("better") == "lower",
                bound: bounded.then(|| m.num("bound")),
            });
        }
    }
    out
}

/// Run `bin` once on `workload` and read its last stdout line.
fn run_once(bin: &Path, workload: &str, seed: u64, seconds: f64) -> Run {
    let out = Command::new(bin)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .unwrap_or_else(|e| fail(&format!("cannot run {}: {e}", bin.display())));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let doc = last.and_then(|l| json::parse(l).ok());
    match doc {
        Some(doc) if out.status.success() => Run {
            failed: doc.uint("failed"),
            metrics: doc.get("metrics").cloned().unwrap_or(Value::Null),
        },
        _ => fail(&format!(
            "{} --workload {workload} --seed {seed} exited {} without a metrics line:\n{}",
            bin.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// `nproc` and the CPU model, as the ledger records the host.
fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown CPU", str::trim);
    format!("{cpus} CPUs, {model}")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        fail(&format!(
            "cannot read {}: {e}; run pairs from the repository root, \
             where nekbench also keeps its scratch files",
            path.display()
        ))
    });
    json::parse(&text).unwrap_or_else(|e| fail(&format!("{} does not parse: {e}", path.display())))
}

/// Append `rows` to the ledger at `path` (created when absent), leaving
/// every earlier byte where it was.
fn append_rows(path: &PathBuf, rows: &[String]) {
    let old = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => "[]\n".to_string(),
        Err(e) => fail(&format!("cannot read {}: {e}", path.display())),
    };
    let text = with_rows(&old, rows).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    std::fs::write(path, text)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
}

/// `ledger` with `rows` added at the end of its array.
fn with_rows(ledger: &str, rows: &[String]) -> Result<String, String> {
    let held = match json::parse(ledger)? {
        Value::Arr(rows) => rows.len(),
        _ => return Err("the ledger is not a JSON array".into()),
    };
    let body = ledger
        .trim_end()
        .strip_suffix(']')
        .expect("a parsed array ends in ']'");
    let mut out = body.trim_end().to_string();
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if held + i == 0 { "\n" } else { ",\n" });
        out.push_str(row);
    }
    out.push_str("\n]\n");
    Ok(out)
}

fn fail(msg: &str) -> ! {
    eprintln!("pairs: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(0.25),
        }
    }

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<Pair> {
        let pair = |(i, (&parent, &change))| Pair {
            seed: i as u64,
            parent_first: i % 2 == 0,
            parent,
            change,
        };
        parent.iter().zip(change).enumerate().map(pair).collect()
    }

    #[test]
    fn quartiles_interpolate_between_readings() {
        let s = Spread::of([4.0, 1.0, 3.0, 2.0, 5.0].into_iter());
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = Spread::of([1.0, 2.0, 3.0, 4.0].into_iter());
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(Spread::of([7.0].into_iter()).iqr(), 0.0);
    }

    #[test]
    fn verdicts_follow_the_pairs_rule_and_the_bound() {
        let parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99];
        // Lower is better and every pair moved down by a third: a gain.
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.66).collect();
        let c = Comparison::of(&metric(true), &pairs(&parent, &faster));
        assert_eq!((c.won, c.lost, c.verdict), (10, 0, "gain"));
        // The same readings where higher is better: a loss.
        let c = Comparison::of(&metric(false), &pairs(&parent, &faster));
        assert_eq!((c.won, c.lost, c.verdict), (0, 10, "loss"));
        // 8 of 10 pairs is not enough either way.
        let mut mixed = faster.clone();
        mixed[0] = 2.0;
        mixed[1] = 2.0;
        let c = Comparison::of(&metric(true), &pairs(&parent, &mixed));
        assert_eq!((c.won, c.verdict), (8, "within bound"));
        // Worse in 8 of 10 pairs by half: not decisive, but past the bound.
        let mut slower: Vec<f64> = parent.iter().map(|p| p * 1.5).collect();
        slower[0] = 0.5;
        slower[1] = 0.5;
        let c = Comparison::of(&metric(true), &pairs(&parent, &slower));
        assert_eq!(c.verdict, "beyond bound");
        // Three pairs decide nothing, however they read.
        let c = Comparison::of(&metric(true), &pairs(&parent[..3], &faster[..3]));
        assert_eq!((c.won, c.verdict), (3, "within bound"));
        // A tie counts for neither side.
        let c = Comparison::of(&metric(true), &pairs(&parent, &parent));
        assert_eq!((c.won, c.lost, c.verdict), (0, 0, "within bound"));
    }

    #[test]
    fn appended_rows_leave_every_earlier_byte_in_place() {
        let row = |v: u64| {
            json::object(|o| {
                o.uint("pr", v);
            })
        };
        let first = with_rows("[]\n", &[row(1)]).unwrap();
        assert_eq!(first, "[\n{\"pr\":1}\n]\n");
        let second = with_rows(&first, &[row(2), row(3)]).unwrap();
        let rows_before = first.trim_end().strip_suffix(']').unwrap().trim_end();
        assert!(second.starts_with(rows_before));
        let rows = json::parse(&second).unwrap();
        let prs: Vec<u64> = rows
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.uint("pr"))
            .collect();
        assert_eq!(prs, [1, 2, 3]);
        assert!(with_rows("{}", &[row(1)]).is_err());
        assert!(with_rows("[", &[row(1)]).is_err());
    }
}
