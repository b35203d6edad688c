//! Shared utilities for the figure-regeneration harnesses.
//!
//! Every binary parses its command line with [`HarnessArgs`] under its own
//! [`cli::Cli`]: it accepts exactly the flags it reads, `--help` lists
//! them, and anything else is a usage error with exit code 2 (see
//! [`cli`]). The common ones:
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
pub mod cli;

pub use cli::{Cli, HarnessArgs};

/// The flag [`maybe_write_csv`] reads.
pub const CSV_FLAGS: &[&str] = &["--out"];
/// The flag [`maybe_write_trace`] reads.
pub const TRACE_FLAGS: &[&str] = &["--trace-out"];
/// The flag [`maybe_write_report`] reads.
pub const REPORT_FLAGS: &[&str] = &["--report-out"];

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
pub fn maybe_write_trace(args: &HarnessArgs, name: &str, traces: &[telemetry::RankTrace]) {
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
    if std::fs::write(&path, telemetry::chrome::chrome_trace_json(traces)).is_ok() {
        println!("wrote {}", path.display());
    }
    let p = telemetry::PhaseBreakdown::from_traces(traces);
    println!(
        "  phase breakdown ({} ranks, {:.1}% of wall attributed):",
        p.ranks.len(),
        p.attributed_fraction() * 100.0
    );
    print!("{}", p.to_table());
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
