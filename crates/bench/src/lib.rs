//! Shared utilities for the figure-regeneration harnesses.
//!
//! Every figure binary accepts the same flags (anything else — an
//! unknown flag, a missing or malformed value — is a usage error, exit 2):
//!
//! * `--scale <N>` — divide the paper's rank counts by `N` (default: a
//!   scale that fits a laptop; see each binary). The mesh scales with the
//!   rank count so per-rank load matches the paper's regime.
//! * `--steps <N>` / `--trigger <N>` — override timestep/trigger counts.
//! * `--out <DIR>` — write real artifacts (images, checkpoints, CSV).
//! * `--full` — the paper's full rank counts (280/560/1120); hundreds of
//!   oversubscribed threads, only sensible on a large machine.
//!
//! Output convention: each binary prints the figure's series as an aligned
//! table (and a CSV when `--out` is given) so the paper's plot can be
//! regenerated directly from the rows.

use std::fmt::Write as _;

pub mod cases;

/// Parsed common CLI flags.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Rank-count divisor relative to the paper.
    pub scale: Option<usize>,
    /// Timestep override.
    pub steps: Option<usize>,
    /// Trigger-period override.
    pub trigger: Option<u64>,
    /// Artifact output directory.
    pub out: Option<std::path::PathBuf>,
    /// Run at the paper's full scale.
    pub full: bool,
    /// Directory for Chrome trace-event JSON files (one per run cell);
    /// also enables the per-phase breakdown printout.
    pub trace_out: Option<std::path::PathBuf>,
    /// Directory for RunReport JSON artifacts (one per run cell); also
    /// enables the telemetry bus on the instrumented runs.
    pub report_out: Option<std::path::PathBuf>,
    /// Run consumers pipelined (overlapped with stepping).
    pub pipelined: bool,
    /// Seed count for the chaos soak matrix.
    pub seeds: Option<u64>,
    /// File for a machine-readable JSON summary of the run.
    pub json_out: Option<std::path::PathBuf>,
    /// Resume from the newest valid checkpoint generation in this
    /// directory instead of starting from step 0.
    pub restart_from: Option<std::path::PathBuf>,
    /// Cut crash-consistent checkpoint generations under this directory
    /// (enables the run supervisor).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Checkpoint cadence in steps (default 2 when supervision is on).
    pub checkpoint_every: Option<u64>,
    /// Rank scheduler override (`--sched thread|event`); `None` follows
    /// `NEK_SCHED_MODE`.
    pub sched: Option<commsim::SchedMode>,
    /// Run the sweep at exactly this rank count instead of the scaled
    /// paper series (`--ranks N`).
    pub ranks: Option<usize>,
    /// Wire engine (`--wire channel|tcp`); `None` is the channel engine.
    pub wire: Option<transport::WireKind>,
}

/// The flag list printed by `--help` and after a usage error.
const USAGE: &str = "flags: --scale N | --ranks N | --steps N | --trigger N | --out DIR | --trace-out DIR | --report-out DIR | --full | --pipelined | --sched thread|event | --wire channel|tcp | --seeds N | --json-out FILE | --restart-from DIR | --checkpoint-dir DIR | --checkpoint-every N";

/// The value following `flag`, read as a `T`. A value that is absent,
/// looks like the next flag, or does not read as a `T` is an error: these
/// binaries regenerate the paper's tables, and running the defaults
/// instead of what was asked for is a wrong table with exit code 0.
fn value<T: std::str::FromStr>(
    flag: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let v = rest
        .next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: cannot read '{v}' as a value"))
}

impl HarnessArgs {
    /// Parse from `std::env::args`. `--help` prints the flag list and
    /// exits 0; anything [`Self::parse_from`] refuses prints the reason
    /// and the flag list and exits 2.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Self::parse_from(argv).unwrap_or_else(|msg| {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parse a flag list (without the program name).
    ///
    /// # Errors
    /// An unknown flag, a flag whose value is missing, and a value that
    /// does not parse (`--steps abc`, `--sched evnt`) each name the flag.
    pub fn parse_from(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Self::default();
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            match flag {
                "--scale" => args.scale = Some(value(flag, &mut it)?),
                "--steps" => args.steps = Some(value(flag, &mut it)?),
                "--trigger" => args.trigger = Some(value(flag, &mut it)?),
                "--out" => args.out = Some(value(flag, &mut it)?),
                "--full" => args.full = true,
                "--pipelined" => args.pipelined = true,
                "--trace-out" => args.trace_out = Some(value(flag, &mut it)?),
                "--report-out" => args.report_out = Some(value(flag, &mut it)?),
                "--seeds" => args.seeds = Some(value(flag, &mut it)?),
                "--json-out" => args.json_out = Some(value(flag, &mut it)?),
                "--restart-from" => args.restart_from = Some(value(flag, &mut it)?),
                "--checkpoint-dir" => args.checkpoint_dir = Some(value(flag, &mut it)?),
                "--checkpoint-every" => args.checkpoint_every = Some(value(flag, &mut it)?),
                "--sched" => {
                    let v: String = value(flag, &mut it)?;
                    args.sched = Some(if v.eq_ignore_ascii_case("event") {
                        commsim::SchedMode::Event
                    } else if v.eq_ignore_ascii_case("thread") {
                        commsim::SchedMode::Thread
                    } else {
                        return Err(format!("--sched: '{v}' is neither thread nor event"));
                    });
                }
                "--ranks" => args.ranks = Some(value(flag, &mut it)?),
                "--wire" => {
                    let v: String = value(flag, &mut it)?;
                    args.wire = Some(
                        transport::WireKind::parse(&v)
                            .ok_or_else(|| format!("--wire: '{v}' is neither channel nor tcp"))?,
                    );
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(args)
    }

    /// Execution mode for the in situ runners: pipelined with
    /// `--pipelined`, synchronous without. The flag is the only selector.
    pub fn exec_mode(&self) -> nek_sensei::ExecMode {
        if self.pipelined {
            nek_sensei::ExecMode::Pipelined
        } else {
            nek_sensei::ExecMode::Synchronous
        }
    }

    /// Should the runs attach the telemetry bus? (`--report-out` implies
    /// yes; there is nowhere to put the artifact otherwise.)
    pub fn telemetry(&self) -> bool {
        self.report_out.is_some()
    }

    /// Rank-scheduler mode: `--sched` wins, otherwise the
    /// `NEK_SCHED_MODE` default applies.
    pub fn sched_mode(&self) -> commsim::SchedMode {
        self.sched.unwrap_or_default()
    }

    /// Wire engine: `--wire channel|tcp`, the channel engine without
    /// the flag. The flag is the only selector.
    pub fn wire_kind(&self) -> transport::WireKind {
        self.wire.unwrap_or_default()
    }
}

/// Run one in situ cell honoring the crash-recovery flags: resume from the
/// newest valid generation under `--restart-from`, and run under the
/// supervisor (cutting generations into `--checkpoint-dir/<cell>`) when
/// supervision is requested. Without either flag this is plain
/// [`nek_sensei::run_insitu`].
pub fn run_insitu_cell(
    args: &HarnessArgs,
    cell: &str,
    mut cfg: nek_sensei::InSituConfig,
) -> nek_sensei::InSituReport {
    if let Some(dir) = &args.restart_from {
        let scan = nek_sensei::scan_for_restore(dir, cfg.ranks);
        for q in &scan.quarantined {
            eprintln!(
                "warning: quarantined generation {} in {}: {}",
                q.step,
                dir.display(),
                q.reason
            );
        }
        for f in &scan.foreign {
            eprintln!(
                "note: skipping generation {} in {}: {}",
                f.step,
                dir.display(),
                f.reason
            );
        }
        match scan.restored {
            Some(generation) => {
                println!(
                    "  resuming from generation {} in {}",
                    generation.step,
                    dir.display()
                );
                cfg.recovery.resume_from = Some(std::sync::Arc::new(generation));
            }
            None => eprintln!(
                "warning: no restorable generation in {}; starting from step 0",
                dir.display()
            ),
        }
    }
    let Some(dir) = &args.checkpoint_dir else {
        return nek_sensei::run_insitu(&cfg);
    };
    // Each cell gets its own generation directory: sweeps mix rank counts,
    // and generations are only restorable into an equally sized world.
    let every = args.checkpoint_every.unwrap_or(2);
    let sup = nek_sensei::SupervisorConfig::new(dir.join(cell), every);
    let out = nek_sensei::run_supervised_insitu(&cfg, &sup);
    if out.recovery.restarts > 0 {
        println!(
            "  supervisor: {} restarts, {} steps lost, {} generations quarantined",
            out.recovery.restarts, out.recovery.lost_steps, out.recovery.quarantined
        );
    }
    out.report
}

/// Render an aligned text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+-{:-<w$}-", "", w = w);
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {:w$} ", h, w = widths[i]);
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "| {:w$} ", cell, w = widths[i]);
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Write a CSV alongside the table when `--out` is set.
pub fn maybe_write_csv(args: &HarnessArgs, name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let Some(dir) = &args.out else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut csv = headers.join(",");
    csv.push('\n');
    for row in rows {
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    if std::fs::write(&path, csv).is_ok() {
        println!("wrote {}", path.display());
    }
}

/// When `--trace-out DIR` is set, write one Chrome trace-event JSON per
/// run cell (`<name>.trace.json`, loadable in Perfetto) and print the
/// per-phase virtual-time breakdown.
pub fn maybe_write_trace(
    args: &HarnessArgs,
    name: &str,
    traces: &[commsim::RankTrace],
    phases: Option<&commsim::PhaseBreakdown>,
) {
    let Some(dir) = &args.trace_out else {
        return;
    };
    if traces.is_empty() {
        return;
    }
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.trace.json"));
    if std::fs::write(&path, commsim::chrome_trace_json(traces)).is_ok() {
        println!("wrote {}", path.display());
    }
    if let Some(p) = phases {
        println!(
            "  phase breakdown ({} ranks, {:.1}% of wall attributed):",
            p.ranks.len(),
            p.attributed_fraction() * 100.0
        );
        print!("{}", p.to_table());
    }
}

/// When `--report-out DIR` is set, write one RunReport JSON per run cell
/// (`<name>.report.json`, readable by `nekstat`) and print a one-line
/// digest.
pub fn maybe_write_report(args: &HarnessArgs, name: &str, report: Option<&telemetry::RunReport>) {
    let Some(dir) = &args.report_out else {
        return;
    };
    let Some(report) = report else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.report.json"));
    if std::fs::write(&path, report.to_json()).is_ok() {
        println!(
            "wrote {} ({} samples, {} events, p95 step {})",
            path.display(),
            report.series.len(),
            report.events.len(),
            fmt_secs(report.step_time_p95()),
        );
    }
}

/// Format seconds for table cells.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_flag_ci_and_the_readme_pass_is_understood() {
        let a =
            parse("--steps 6 --trigger 3 --scale 140 --trace-out traces/ --report-out reports/")
                .unwrap();
        assert_eq!((a.steps, a.trigger, a.scale), (Some(6), Some(3), Some(140)));
        assert_eq!(a.trace_out.as_deref(), Some("traces/".as_ref()));
        assert_eq!(a.report_out.as_deref(), Some("reports/".as_ref()));
        assert!(a.telemetry());

        let a = parse("--ranks 1120 --sched event --steps 1 --trigger 1 --report-out r/").unwrap();
        assert_eq!(a.ranks, Some(1120));
        assert_eq!(a.sched_mode(), commsim::SchedMode::Event);
        assert_eq!(
            parse("--full --sched THREAD").unwrap().sched,
            Some(commsim::SchedMode::Thread)
        );

        let a = parse("--seeds 8 --json-out soak.json").unwrap();
        assert_eq!(a.seeds, Some(8));
        assert_eq!(a.json_out.as_deref(), Some("soak.json".as_ref()));

        let a = parse("--checkpoint-dir ck/ --checkpoint-every 2 --restart-from ck/cell").unwrap();
        assert_eq!(a.checkpoint_dir.as_deref(), Some("ck/".as_ref()));
        assert_eq!(a.checkpoint_every, Some(2));
        assert_eq!(a.restart_from.as_deref(), Some("ck/cell".as_ref()));

        let a = parse("--out out/fig1 --pipelined --wire tcp").unwrap();
        assert_eq!(a.out.as_deref(), Some("out/fig1".as_ref()));
        assert_eq!(a.exec_mode(), nek_sensei::ExecMode::Pipelined);
        assert_eq!(a.wire_kind(), transport::WireKind::Tcp);

        let none = parse("").unwrap();
        assert!(none.steps.is_none() && !none.full && none.sched.is_none());
    }

    #[test]
    fn malformed_values_are_usage_errors_that_name_the_flag() {
        for (line, flag) in [
            ("--steps abc", "--steps"),
            ("--ranks 1120x", "--ranks"),
            ("--trigger -1", "--trigger"),
            ("--checkpoint-every 2.5", "--checkpoint-every"),
            ("--sched evnt", "--sched"),
            ("--wire udp", "--wire"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(flag), "{line}: {err}");
        }
        // An empty value (`--scale ""`) is malformed too.
        let err = HarnessArgs::parse_from(["--scale".to_string(), String::new()]).unwrap_err();
        assert!(err.contains("--scale"), "{err}");
    }

    #[test]
    fn missing_values_are_usage_errors() {
        for line in [
            "--steps",
            "--out",
            "--steps --full",
            "--sched",
            "--out --trace-out t/",
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("needs a value"), "{line}: {err}");
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for line in ["--stpes 6", "--steps 6 --quick", "extra", "--steps=6"] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("unknown flag"), "{line}: {err}");
        }
    }

    #[test]
    fn table_is_aligned() {
        let t = format_table(
            &["ranks", "time"],
            &[
                vec!["280".into(), "12.5 s".into()],
                vec!["1120".into(), "4.2 s".into()],
            ],
        );
        assert!(t.contains("| ranks | time"));
        assert!(t.contains("| 1120  | 4.2 s"));
        // Every line has equal width.
        let widths: Vec<usize> = t.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0021), "2.10 ms");
        assert_eq!(fmt_secs(3.4e-5), "34.0 µs");
    }
}
