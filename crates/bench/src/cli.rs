//! The one command-line parser of the `crates/bench` binaries.
//!
//! Each binary declares, as a [`Cli`], the flags its code path reads —
//! those of the helpers it calls included — and accepts nothing else. A
//! flag it does not declare, a missing value or a value that does not
//! parse prints the reason and the binary's flag list and exits 2;
//! `--help` prints the same list and exits 0. These binaries regenerate
//! the paper's tables, and a run of the defaults instead of what was asked
//! for is a wrong table with exit code 0.

use crate::cases::PB146_SWEEP_FLAGS;
use crate::{CSV_FLAGS, REPORT_FLAGS, TRACE_FLAGS};
use commsim::SchedMode;
use std::fmt::Write as _;
use std::path::PathBuf;
use transport::WireKind;

/// Every flag a binary can read, parsed. A binary reads only the fields
/// of the flags its [`Cli`] declares; the others stay at their defaults.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Rank-count divisor relative to the paper.
    pub scale: Option<usize>,
    /// Timestep override.
    pub steps: Option<usize>,
    /// Trigger-period override.
    pub trigger: Option<u64>,
    /// Artifact output directory.
    pub out: Option<PathBuf>,
    /// Run at the paper's full scale.
    pub full: bool,
    /// Directory for Chrome trace-event JSON files (one per run cell);
    /// also enables the per-phase breakdown printout.
    pub trace_out: Option<PathBuf>,
    /// Directory for RunReport JSON artifacts (one per run cell); also
    /// enables the telemetry bus on the instrumented runs.
    pub report_out: Option<PathBuf>,
    /// Run consumers pipelined (overlapped with stepping).
    pub pipelined: bool,
    /// File for a machine-readable JSON summary of the run.
    pub json_out: Option<PathBuf>,
    /// Rank scheduler override (`--sched thread|event`); `None` follows
    /// `NEK_SCHED_MODE`.
    pub sched: Option<SchedMode>,
    /// Run the sweep at exactly this rank count instead of the scaled
    /// paper series (`--ranks N`).
    pub ranks: Option<usize>,
    /// Wire engine (`--wire channel|tcp`); `None` is the channel engine.
    pub wire: Option<WireKind>,
    /// `nekstat`: print JSON instead of the human view.
    pub json: bool,
    /// `pairs`: the `nekbench` built from the parent commit's tree.
    pub parent: Option<PathBuf>,
    /// `pairs`: the `nekbench` built from the change's tree.
    pub change: Option<PathBuf>,
    /// `pairs`: the parent commit, as the ledger records it.
    pub parent_rev: Option<String>,
    /// `pairs`: the change's commit, as the ledger records it.
    pub change_rev: Option<String>,
    /// `pairs`: the PR the rows belong to.
    pub pr: Option<u64>,
    /// `pairs`: comma-separated `nekbench` workloads.
    pub workloads: Option<String>,
    /// `pairs`: the first pair's seed; pair i runs seed + i.
    pub seed: Option<u64>,
    /// `pairs`: alternating parent/change pairs per workload.
    pub pairs: Option<usize>,
    /// `pairs`: the ledger the rows are appended to.
    pub ledger: Option<PathBuf>,
    /// Positional arguments, for a binary whose [`Cli`] takes operands.
    pub operands: Vec<String>,
}

impl HarnessArgs {
    /// Parse `std::env::args` under `cli`. `--help` prints the binary's
    /// usage and exits 0; anything [`Self::parse_from`] refuses prints the
    /// reason and the usage and exits 2.
    pub fn parse(cli: &Cli) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", cli.usage());
            std::process::exit(0);
        }
        Self::parse_from(cli, argv).unwrap_or_else(|msg| cli.refuse(&msg))
    }

    /// Parse an argument list (without the program name) under `cli`.
    ///
    /// # Errors
    /// A flag `cli` does not declare, a flag whose value is missing, a
    /// value that does not parse (`--steps abc`, `--sched evnt`), and an
    /// operand given to a binary that takes none each name the argument.
    pub fn parse_from(cli: &Cli, argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Self::default();
        let mut it = argv.into_iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if cli.operands.is_empty() {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                args.operands.push(arg);
                continue;
            }
            let Some(&(flag, placeholder, set)) = FLAGS.iter().find(|f| f.0 == arg) else {
                return Err(format!("unknown flag '{arg}'"));
            };
            if !cli.declares(flag) {
                return Err(format!("{flag}: {} does not read this flag", cli.name));
            }
            let value = if placeholder.is_empty() {
                String::new()
            } else {
                it.next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))?
            };
            set(&mut args, &value).map_err(|e| format!("{flag}: {e}"))?;
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
    pub fn sched_mode(&self) -> SchedMode {
        self.sched.unwrap_or_default()
    }

    /// Wire engine: `--wire channel|tcp`, the channel engine without
    /// the flag. The flag is the only selector.
    pub fn wire_kind(&self) -> WireKind {
        self.wire.unwrap_or_default()
    }
}

/// Where one flag's value goes; a switch ignores the value.
type Setter = fn(&mut HarnessArgs, &str) -> Result<(), String>;

/// Every flag, the placeholder `--help` prints for its value (empty for a
/// switch), and its setter.
const FLAGS: &[(&str, &str, Setter)] = &[
    ("--scale", "N", |a, v| set(&mut a.scale, v)),
    ("--ranks", "N", |a, v| set(&mut a.ranks, v)),
    ("--steps", "N", |a, v| set(&mut a.steps, v)),
    ("--trigger", "N", |a, v| set(&mut a.trigger, v)),
    ("--full", "", |a, _| on(&mut a.full)),
    ("--pipelined", "", |a, _| on(&mut a.pipelined)),
    ("--sched", "thread|event", |a, v| {
        choose(
            &mut a.sched,
            v,
            &[("thread", SchedMode::Thread), ("event", SchedMode::Event)],
        )
    }),
    ("--wire", "channel|tcp", |a, v| {
        choose(
            &mut a.wire,
            v,
            &[("channel", WireKind::Channel), ("tcp", WireKind::Tcp)],
        )
    }),
    ("--out", "DIR", |a, v| set(&mut a.out, v)),
    ("--trace-out", "DIR", |a, v| set(&mut a.trace_out, v)),
    ("--report-out", "DIR", |a, v| set(&mut a.report_out, v)),
    ("--json-out", "FILE", |a, v| set(&mut a.json_out, v)),
    ("--json", "", |a, _| on(&mut a.json)),
    ("--parent", "FILE", |a, v| set(&mut a.parent, v)),
    ("--change", "FILE", |a, v| set(&mut a.change, v)),
    ("--parent-rev", "REV", |a, v| set(&mut a.parent_rev, v)),
    ("--change-rev", "REV", |a, v| set(&mut a.change_rev, v)),
    ("--pr", "N", |a, v| set(&mut a.pr, v)),
    ("--workloads", "A,B", |a, v| set(&mut a.workloads, v)),
    ("--seed", "N", |a, v| set(&mut a.seed, v)),
    ("--pairs", "N", |a, v| set(&mut a.pairs, v)),
    ("--ledger", "FILE", |a, v| set(&mut a.ledger, v)),
];

fn set<T: std::str::FromStr>(slot: &mut Option<T>, v: &str) -> Result<(), String> {
    let value = v
        .parse()
        .map_err(|_| format!("cannot read '{v}' as a value"))?;
    *slot = Some(value);
    Ok(())
}

fn on(slot: &mut bool) -> Result<(), String> {
    *slot = true;
    Ok(())
}

/// Store the option `v` names (case-insensitively).
fn choose<T: Copy>(slot: &mut Option<T>, v: &str, options: &[(&str, T)]) -> Result<(), String> {
    let found = options
        .iter()
        .find(|(name, _)| v.eq_ignore_ascii_case(name));
    *slot = Some(
        found
            .ok_or_else(|| format!("'{v}' is none of its choices"))?
            .1,
    );
    Ok(())
}

/// What one binary accepts on its command line.
pub struct Cli {
    /// The binary's name, as its usage prints it.
    name: &'static str,
    /// The flags its code path reads, in groups: those of each shared
    /// helper it calls, then its own.
    flags: &'static [&'static [&'static str]],
    /// Usage lines for a binary that takes positional operands (each
    /// without the binary's name); empty when it takes none.
    operands: &'static [&'static str],
}

impl Cli {
    /// A binary that takes flags only.
    const fn new(name: &'static str, flags: &'static [&'static [&'static str]]) -> Self {
        Self {
            name,
            flags,
            operands: &[],
        }
    }

    fn declares(&self, flag: &str) -> bool {
        self.flags.iter().any(|group| group.contains(&flag))
    }

    /// What `--help` prints: the usage lines, then every declared flag
    /// with its value placeholder.
    fn usage(&self) -> String {
        let mut out = String::new();
        if self.operands.is_empty() {
            let _ = writeln!(out, "usage: {} [flags]", self.name);
        }
        for (i, line) in self.operands.iter().enumerate() {
            let lead = if i == 0 { "usage:" } else { "      " };
            let _ = writeln!(out, "{lead} {} {line}", self.name);
        }
        let flags: Vec<String> = FLAGS
            .iter()
            .filter(|(flag, _, _)| self.declares(flag))
            .map(|(flag, value, _)| format!("{flag} {value}").trim_end().to_string())
            .collect();
        let _ = writeln!(out, "flags: {}", flags.join(" | "));
        out
    }

    /// Print `msg` and the usage to stderr and exit 2.
    pub fn refuse(&self, msg: &str) -> ! {
        eprint!("error: {msg}\n{}", self.usage());
        std::process::exit(2);
    }
}

// One `Cli` per binary. A group named after a helper is the flags that
// helper reads; the binary's own reads follow it.

/// What the in situ harnesses read to pick their execution mode and
/// scheduler ([`HarnessArgs::exec_mode`], [`HarnessArgs::sched_mode`]).
const INSITU_EXEC: &[&str] = &["--pipelined", "--sched"];
/// What fig5 reads to size and run the §4.2 sweep.
const INTRANSIT_SWEEP: &[&str] = &["--full", "--steps", "--trigger", "--sched", "--wire"];
/// What the two render harnesses read besides `--report-out`.
const RENDER: &[&str] = &["--out", "--steps", "--sched"];

pub const FIG1_PB146_RENDER: Cli = Cli::new("fig1_pb146_render", &[REPORT_FLAGS, RENDER]);
pub const FIG2_TIME_TO_SOLUTION: Cli = Cli::new(
    "fig2_time_to_solution",
    &[
        PB146_SWEEP_FLAGS,
        CSV_FLAGS,
        TRACE_FLAGS,
        REPORT_FLAGS,
        INSITU_EXEC,
    ],
);
pub const FIG4_RBC_RENDER: Cli = Cli::new("fig4_rbc_render", &[REPORT_FLAGS, RENDER]);
pub const FIG5_INTRANSIT_TIME: Cli = Cli::new(
    "fig5_intransit_time",
    &[CSV_FLAGS, TRACE_FLAGS, REPORT_FLAGS, INTRANSIT_SWEEP],
);
pub const STORAGE_ECONOMY: Cli = Cli::new(
    "storage_economy",
    &[CSV_FLAGS, INSITU_EXEC, &["--steps", "--trigger"]],
);
pub const FAULT_SWEEP: Cli = Cli::new(
    "fault_sweep",
    &[CSV_FLAGS, &["--steps", "--trigger", "--json-out"]],
);
pub const PAIRS: Cli = Cli::new(
    "pairs",
    &[&[
        "--parent",
        "--change",
        "--parent-rev",
        "--change-rev",
        "--pr",
        "--workloads",
        "--seed",
        "--pairs",
        "--ledger",
    ]],
);
pub const NEKSTAT: Cli = Cli {
    name: "nekstat",
    flags: &[&["--json"]],
    operands: &[
        "<report.json> [<other.report.json>]",
        "summary <report.json> [--json]",
        "critical-path <report.json> [--json]",
        "diff <a.report.json> <b.report.json>",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every binary in `crates/bench`.
    const BINARIES: [&Cli; 8] = [
        &FIG1_PB146_RENDER,
        &FIG2_TIME_TO_SOLUTION,
        &FIG4_RBC_RENDER,
        &FIG5_INTRANSIT_TIME,
        &STORAGE_ECONOMY,
        &FAULT_SWEEP,
        &PAIRS,
        &NEKSTAT,
    ];

    #[test]
    fn every_binary_has_a_cli() {
        let bins = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin")).unwrap();
        let names: Vec<String> = bins
            .map(|e| e.unwrap().file_name().to_string_lossy().replace(".rs", ""))
            .collect();
        assert_eq!(names.len(), BINARIES.len(), "{names:?}");
        for cli in BINARIES {
            assert!(names.iter().any(|n| n == cli.name), "{}", cli.name);
        }
    }

    fn parse(cli: &Cli, line: &str) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(cli, line.split_whitespace().map(String::from))
    }

    /// The documents whose command lines must run unedited.
    const DOCS: [(&str, &str); 5] = [
        ("README.md", include_str!("../../../README.md")),
        ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        (
            ".claude/skills/verify/SKILL.md",
            include_str!("../../../.claude/skills/verify/SKILL.md"),
        ),
        (
            ".github/workflows/ci.yml",
            include_str!("../../../.github/workflows/ci.yml"),
        ),
    ];

    /// The document's lines with `\` continuations joined and, in
    /// markdown, a line that leaves an inline code span open joined to
    /// the next.
    fn logical_lines(text: &str, markdown: bool) -> Vec<String> {
        let mut lines = Vec::new();
        let mut cur = String::new();
        for line in text.lines() {
            cur.push_str(line);
            let fence = line.trim_start().starts_with("```");
            if cur.ends_with('\\') {
                cur.pop();
                cur.push(' ');
            } else if markdown && !fence && cur.matches('`').count() % 2 == 1 {
                cur.push(' ');
            } else {
                lines.push(std::mem::take(&mut cur));
            }
        }
        lines
    }

    /// The words of the shell command starting at `rest`: a `$(...)`
    /// substitution is one word, and `|`, `;`, `&`, `>`, `#`, a backtick
    /// or `)` ends the command.
    fn words(rest: &str) -> Vec<String> {
        let mut cmd = String::new();
        let mut chars = rest.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '$' if chars.peek() == Some(&'(') => {
                    chars.by_ref().find(|&c| c == ')');
                    cmd.push('X');
                }
                '|' | ';' | '&' | '>' | '#' | '`' | ')' => break,
                c => cmd.push(c),
            }
        }
        cmd.split_whitespace().map(String::from).collect()
    }

    /// The argument lists `line` runs `name` with: everything after
    /// `release/<name>`, and what follows `--` after `--bin <name>`.
    fn invocations(line: &str, name: &str) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        for prefix in ["release/", "--bin "] {
            let pattern = format!("{prefix}{name}");
            for (at, _) in line.match_indices(&pattern) {
                let rest = &line[at + pattern.len()..];
                if rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                let words = words(rest);
                out.push(if prefix == "release/" {
                    words
                } else {
                    words
                        .into_iter()
                        .skip_while(|w| w != "--")
                        .skip(1)
                        .collect()
                });
            }
        }
        out
    }

    #[test]
    fn every_binarys_documented_command_lines_parse_under_its_flags() {
        for cli in BINARIES {
            let mut runs = 0;
            for (doc, text) in DOCS {
                for line in logical_lines(text, doc.ends_with(".md")) {
                    for argv in invocations(&line, cli.name) {
                        runs += 1;
                        if let Err(e) = HarnessArgs::parse_from(cli, argv.clone()) {
                            panic!("{doc}: `{} {}`: {e}", cli.name, argv.join(" "));
                        }
                    }
                }
            }
            assert!(runs > 0, "no document runs {}", cli.name);
        }
    }

    #[test]
    fn documented_values_land_in_their_fields() {
        let a = parse(
            &FIG2_TIME_TO_SOLUTION,
            "--steps 6 --trigger 3 --scale 140 --trace-out traces/ --report-out reports/",
        )
        .unwrap();
        assert_eq!((a.steps, a.trigger, a.scale), (Some(6), Some(3), Some(140)));
        assert_eq!(a.trace_out.as_deref(), Some("traces/".as_ref()));
        assert_eq!(a.report_out.as_deref(), Some("reports/".as_ref()));
        assert!(a.telemetry());

        let a = parse(
            &FIG2_TIME_TO_SOLUTION,
            "--ranks 1120 --sched event --steps 1",
        )
        .unwrap();
        assert_eq!(a.ranks, Some(1120));
        assert_eq!(a.sched_mode(), SchedMode::Event);
        let a = parse(&FIG2_TIME_TO_SOLUTION, "--full --sched THREAD --pipelined").unwrap();
        assert_eq!(a.sched, Some(SchedMode::Thread));
        assert_eq!(a.exec_mode(), nek_sensei::ExecMode::Pipelined);

        let a = parse(&FAULT_SWEEP, "--steps 8 --json-out sweep.json").unwrap();
        assert_eq!(a.json_out.as_deref(), Some("sweep.json".as_ref()));
        let a = parse(&FIG1_PB146_RENDER, "--out out/fig1").unwrap();
        assert_eq!(a.out.as_deref(), Some("out/fig1".as_ref()));
        let a = parse(&FIG5_INTRANSIT_TIME, "--wire tcp").unwrap();
        assert_eq!(a.wire_kind(), WireKind::Tcp);

        let a = parse(&NEKSTAT, "critical-path r.json --json").unwrap();
        assert_eq!(a.operands, ["critical-path", "r.json"]);
        assert!(a.json);

        let none = parse(&FAULT_SWEEP, "").unwrap();
        assert!(none.steps.is_none() && none.json_out.is_none());
    }

    #[test]
    fn refusals_name_the_flag() {
        for (cli, line, flag) in [
            // Flags another binary reads, and flags nothing reads.
            (&STORAGE_ECONOMY, "--trace-out t/", "--trace-out"),
            (&FAULT_SWEEP, "--wire tcp", "--wire"),
            (&PAIRS, "--bogus", "--bogus"),
            (&NEKSTAT, "summary --jsno r.json", "--jsno"),
            (&FIG2_TIME_TO_SOLUTION, "--stpes 6", "--stpes"),
            (&FIG2_TIME_TO_SOLUTION, "--steps 6 --quick", "--quick"),
            (&FIG2_TIME_TO_SOLUTION, "--steps=6", "--steps=6"),
            (&FIG2_TIME_TO_SOLUTION, "extra", "extra"),
            // Flags of the deleted crash-recovery ladder, spelled in two
            // pieces so that a search of the tree for them finds nothing.
            (
                &FIG2_TIME_TO_SOLUTION,
                concat!("--checkpoint", "-dir ck/"),
                concat!("--checkpoint", "-dir"),
            ),
            (
                &FIG2_TIME_TO_SOLUTION,
                "--checkpoint-every 2",
                "--checkpoint-every",
            ),
            (
                &FIG2_TIME_TO_SOLUTION,
                concat!("--restart", "-from ck/"),
                concat!("--restart", "-from"),
            ),
            // Flags of the deleted live telemetry follow plane.
            (
                &NEKSTAT,
                concat!("--fol", "low 127.0.0.1:9"),
                concat!("--fol", "low"),
            ),
            (
                &NEKSTAT,
                concat!("--max", "-snapshots 4"),
                concat!("--max", "-snapshots"),
            ),
            // Values that do not parse.
            (&FIG2_TIME_TO_SOLUTION, "--steps abc", "--steps"),
            (&FIG2_TIME_TO_SOLUTION, "--ranks 1120x", "--ranks"),
            (&FIG2_TIME_TO_SOLUTION, "--trigger -1", "--trigger"),
            (&FIG2_TIME_TO_SOLUTION, "--sched evnt", "--sched"),
            (&FIG5_INTRANSIT_TIME, "--wire udp", "--wire"),
            // Missing values.
            (&FIG2_TIME_TO_SOLUTION, "--steps", "--steps"),
            (&FIG2_TIME_TO_SOLUTION, "--out", "--out"),
            (&FIG2_TIME_TO_SOLUTION, "--steps --full", "--steps"),
            (&FIG2_TIME_TO_SOLUTION, "--out --trace-out t/", "--out"),
        ] {
            let err = parse(cli, line).expect_err(line);
            assert!(err.contains(flag), "{} {line}: {err}", cli.name);
        }
        // Flags of the deleted staging fan-out binary and the follow plane's
        // step delay, refused by every binary that is left.
        for flag in [
            concat!("--consum", "ers"),
            concat!("--ro", "le"),
            concat!("--con", "nect"),
            concat!("--port", "-file"),
            concat!("--step", "-delay-ms"),
        ] {
            for cli in BINARIES {
                let err = parse(cli, &format!("{flag} 1")).expect_err(flag);
                assert!(err.contains(flag), "{} {flag}: {err}", cli.name);
            }
        }
        // An empty value (`--scale ""`) is malformed too.
        let argv = ["--scale".to_string(), String::new()];
        let err = HarnessArgs::parse_from(&FIG2_TIME_TO_SOLUTION, argv).unwrap_err();
        assert!(err.contains("--scale"), "{err}");
    }

    #[test]
    fn help_lists_exactly_the_declared_flags() {
        for cli in BINARIES {
            let usage = cli.usage();
            let listed: Vec<&str> = usage
                .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
                .filter(|w| w.starts_with("--"))
                .collect();
            for (flag, _, _) in FLAGS {
                assert_eq!(
                    listed.contains(flag),
                    cli.declares(flag),
                    "{}: {flag} in --help",
                    cli.name
                );
            }
            for &flag in cli.flags.iter().copied().flatten() {
                assert!(FLAGS.iter().any(|f| f.0 == flag), "{}: {flag}", cli.name);
            }
        }
        // Every flag has a binary that reads it.
        for (flag, _, _) in FLAGS {
            assert!(BINARIES.iter().any(|cli| cli.declares(flag)), "{flag}");
        }
    }

    #[test]
    fn switches_take_no_value_and_the_rest_need_one() {
        for &(flag, placeholder, _) in FLAGS {
            let cli = BINARIES.into_iter().find(|cli| cli.declares(flag)).unwrap();
            let alone = HarnessArgs::parse_from(cli, [flag.to_string()]);
            assert_eq!(alone.is_ok(), placeholder.is_empty(), "{flag}: {alone:?}");
        }
    }
}
