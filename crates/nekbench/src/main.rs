//! `nekbench` — the repository's real-clock benchmark.
//!
//! ```text
//! nekbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's call)
//! nekbench [--seed <n>] [--seconds <s>] [--out <file>]                every workload, untraced then traced
//! nekbench --aa [--runs <k>] ...                                      two sets of untraced runs, compared
//! ```
//!
//! `--smoke` shrinks every size so the whole suite takes seconds. One run
//! prints each metric by name with its unit and, as its last line, the
//! result object `BENCHMARK.json`'s contract asks for. README.md has the
//! glossary.

mod host;
mod metrics;
mod simloop;
mod spans;
mod stations;
mod stats;
mod suite;
mod surface;
mod verify;
mod workloads;

use workloads::{RunArgs, Workload};

/// The seed the committed results were taken with (the paper's 146
/// pebbles).
pub const DEFAULT_SEED: u64 = 146;

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    aa: bool,
    runs: usize,
    out: Option<std::path::PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        aa: false,
        runs: 10,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--runs" => {
                cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if cli.runs < 2 {
                    return Err("--runs needs at least 2 (quartiles)".into());
                }
            }
            "--out" => cli.out = Some(value()?.into()),
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("nekbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(host::work_dir()) {
        eprintln!(
            "nekbench: cannot create {}: {e}",
            host::work_dir().display()
        );
        std::process::exit(2);
    }
    let seconds = cli
        .seconds
        .unwrap_or(if cli.smoke { 1.0 } else { DEFAULT_SECONDS });
    let Some(workload) = cli.workload else {
        let ok = suite::run(&suite::SuiteArgs {
            seed: cli.seed,
            seconds,
            smoke: cli.smoke,
            aa: cli.aa,
            runs: cli.runs,
            out: cli.out,
        });
        std::process::exit(if ok { 0 } else { 1 });
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        traced: cli.traced,
        smoke: cli.smoke,
    };
    println!(
        "nekbench {} seed {} for {seconds} s, {} ({} CPUs, pool width {})",
        workload.name(),
        cli.seed,
        if cli.traced { "traced" } else { "untraced" },
        host::nproc(),
        surface::pool::default_threads()
    );
    println!("  why: {}", workload.why());
    let outcome = workloads::run(&args);
    outcome.print(cli.traced);
    println!(
        "  fail_share {} of {} operations and checks",
        outcome.checks.failed, outcome.checks.attempted
    );
    println!("{}", outcome.result_line(cli.traced));
}
