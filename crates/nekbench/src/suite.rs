//! The whole benchmark from one command: every workload in a fresh child
//! process of this binary (so `peak_rss_MB` and the pool are per
//! workload), untraced then traced; or, with `--aa`, two full sets of
//! untraced runs compared against the bounds.

use crate::host;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, spread};
use crate::surface::json::{self, push_f64, push_str};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub aa: bool,
    /// Runs per workload in each A/A set.
    pub runs: usize,
    /// Where to write the result set as JSON.
    pub out: Option<PathBuf>,
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    args: &SuiteArgs,
    workload: Workload,
    seed: u64,
    traced: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    for line in stdout.lines().filter(|l| *l != last) {
        println!("    {line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let doc = json::parse(last).map_err(|e| format!("result line does not parse: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("result line has no '{key}'"));
    let json::Value::Obj(entries) = field("metrics")? else {
        return Err("'metrics' is not an object".into());
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: field("correct")? == &json::Value::Bool(true),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// metric → workload → value.
type Table = BTreeMap<&'static str, BTreeMap<&'static str, f64>>;

fn print_table(title: &str, defs: &[MetricDef], table: &Table) {
    println!("\n{title}");
    print!("{:<46}{:>8}", "metric", "unit");
    for w in Workload::ALL {
        print!("{:>20}", w.name());
    }
    println!();
    for def in defs {
        print!("{:<46}{:>8}", def.name, def.unit);
        for w in Workload::ALL {
            match table.get(def.name).and_then(|row| row.get(w.name())) {
                Some(v) => print!("{v:>20.5}"),
                None => print!("{:>20}", "-"),
            }
        }
        println!();
    }
}

fn table_json(out: &mut String, table: &Table) {
    out.push('{');
    for (i, (metric, row)) in table.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str(out, metric);
        out.push_str(": {");
        for (j, (workload, value)) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_str(out, workload);
            out.push_str(": ");
            push_f64(out, *value);
        }
        out.push('}');
    }
    out.push('}');
}

/// Run the suite; `false` when a workload failed its checks, a child
/// died, or (`--aa`) a pair of sets disagreed beyond its bound.
pub fn run(args: &SuiteArgs) -> bool {
    println!(
        "nekbench suite: seed {}, {} s per run{}; host {}",
        args.seed,
        args.seconds,
        if args.smoke { ", smoke sizes" } else { "" },
        host::facts_json()
    );
    let mut doc = format!(
        "{{\"host\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}",
        host::facts_json(),
        args.seed,
        args.seconds,
        args.smoke
    );
    let ok = if args.aa {
        run_aa(args, &mut doc)
    } else {
        run_once(args, &mut doc)
    };
    doc.push_str("}\n");
    if let Some(path) = &args.out {
        match std::fs::write(path, &doc) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => {
                println!("\ncannot write {}: {e}", path.display());
                return false;
            }
        }
    }
    println!("\nnekbench suite: {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn run_once(args: &SuiteArgs, doc: &mut String) -> bool {
    let mut ok = true;
    let (mut attempted, mut failed) = (0, 0);
    for (traced, key, title, defs) in [
        (false, "end_to_end", "End to end (tracing off)", END_TO_END),
        (
            true,
            "per_layer",
            "Per layer (traced run; 0 = layer not exercised)",
            PER_LAYER,
        ),
    ] {
        let mut table = Table::new();
        for workload in Workload::ALL {
            println!(
                "\n== {} ({}) ==",
                workload.name(),
                if traced { "traced" } else { "untraced" }
            );
            match run_child(args, workload, args.seed, traced) {
                Ok(result) => {
                    ok &= result.correct;
                    attempted += result.attempted;
                    failed += result.failed;
                    for def in defs {
                        if let Some(v) = result.metrics.get(def.name) {
                            table
                                .entry(def.name)
                                .or_default()
                                .insert(workload.name(), *v);
                        }
                    }
                }
                Err(e) => {
                    println!("  {e}");
                    ok = false;
                }
            }
        }
        print_table(title, defs, &table);
        doc.push_str(&format!(", \"{key}\": "));
        table_json(doc, &table);
    }
    println!("\nfail_share: {failed} failed of {attempted} operations and checks");
    doc.push_str(&format!(
        ", \"attempted\": {attempted}, \"failed\": {failed}"
    ));
    ok
}

/// Two sets of `runs` untraced runs per workload, seeds `seed..seed+runs`
/// in both. A pair agrees when the second median is no worse than the
/// first by more than the bound and (except `setup_s`, as in the contract)
/// each set's quartile spread stays within it.
fn run_aa(args: &SuiteArgs, doc: &mut String) -> bool {
    let mut ok = true;
    // set → workload → metric → values
    let mut sets: [BTreeMap<&str, BTreeMap<&str, Vec<f64>>>; 2] = Default::default();
    for (i, set) in sets.iter_mut().enumerate() {
        for workload in Workload::ALL {
            for run in 0..args.runs as u64 {
                println!("\n== set {} {} run {} ==", i + 1, workload.name(), run + 1);
                match run_child(args, workload, args.seed + run, false) {
                    Ok(result) => {
                        ok &= result.correct;
                        for def in END_TO_END {
                            if let Some(v) = result.metrics.get(def.name) {
                                set.entry(workload.name())
                                    .or_default()
                                    .entry(def.name)
                                    .or_default()
                                    .push(*v);
                            }
                        }
                    }
                    Err(e) => {
                        println!("  {e}");
                        ok = false;
                    }
                }
            }
        }
    }
    println!(
        "\nA/A: {} runs per set\n{:<20}{:<14}{:>36}{:>36}{:>9}{:>9}{:>8}{:>7}",
        args.runs,
        "workload",
        "metric",
        "set 1 q1/median/q3",
        "set 2 q1/median/q3",
        "spread1",
        "spread2",
        "bound",
        ""
    );
    doc.push_str(", \"aa\": [");
    let mut first = true;
    for workload in Workload::ALL {
        for def in END_TO_END {
            let series = |set: &BTreeMap<&str, BTreeMap<&str, Vec<f64>>>| {
                set.get(workload.name())
                    .and_then(|m| m.get(def.name))
                    .filter(|v| v.len() >= 2)
                    .cloned()
            };
            let (Some(a), Some(b)) = (series(&sets[0]), series(&sets[1])) else {
                ok = false;
                continue;
            };
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let (sa, sb) = (spread(&a), spread(&b));
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let steady = def.name == "setup_s" || (sa <= bound && sb <= bound);
            let agree = steady && def.better.worsening(qa[1], qb[1]) <= bound;
            ok &= agree;
            println!(
                "{:<20}{:<14}{:>36}{:>36}{:>8.1}%{:>8.1}%{:>7.0}%{:>7}",
                workload.name(),
                def.name,
                format!("{:.4}/{:.4}/{:.4}", qa[0], qa[1], qa[2]),
                format!("{:.4}/{:.4}/{:.4}", qb[0], qb[1], qb[2]),
                100.0 * sa,
                100.0 * sb,
                100.0 * bound,
                if agree { "ok" } else { "FAIL" }
            );
            if !first {
                doc.push_str(", ");
            }
            first = false;
            doc.push_str(&format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"bound\": {bound}, \"agree\": {agree}",
                workload.name(),
                def.name
            ));
            for (key, q, s) in [("set1", qa, sa), ("set2", qb, sb)] {
                doc.push_str(&format!(", \"{key}\": {{\"q1\": "));
                push_f64(doc, q[0]);
                doc.push_str(", \"median\": ");
                push_f64(doc, q[1]);
                doc.push_str(", \"q3\": ");
                push_f64(doc, q[2]);
                doc.push_str(", \"spread\": ");
                push_f64(doc, s);
                doc.push('}');
            }
            doc.push('}');
        }
    }
    doc.push(']');
    ok
}
