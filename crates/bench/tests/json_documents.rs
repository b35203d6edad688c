//! Golden documents: one fixture per `nekstat/*/v1` schema, plus the
//! Chrome trace, each built from fixed inputs and compared with its file
//! under `tests/fixtures/`.
//!
//! The comparison removes whitespace outside strings first, so a writer
//! may lay a document out differently, but every key, its order, every
//! escape and every number's form must stay. The Chrome trace must match
//! byte for byte.
//!
//! The summary and critical-path documents come from the `nekstat` binary
//! run on the run-report fixture. The fault-sweep document comes from its
//! binary, under the thread scheduler.
//!
//! When a document changes on purpose, the failure names the file the new
//! one was written to; copy it over the fixture.
//!
//! The same fixtures, damaged, check that the readers `nekstat` runs on
//! a report from disk never panic.

use std::path::{Path, PathBuf};
use std::process::Command;
use telemetry::chrome::chrome_trace_json;
use telemetry::critical::{parse_critical, CritContrib, CriticalReport, RankSlack, StepCritical};
use telemetry::json;
use telemetry::{
    Event, EventKind, HistogramSnapshot, Manifest, MemorySummary, MetricValue, RankTrace,
    RunReport, Span, StepSample,
};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_documents");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// `text` without the whitespace that lies outside string literals.
fn strip(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let (mut in_str, mut escaped) = (false, false);
    for c in text.chars() {
        if in_str {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
        } else if !c.is_whitespace() {
            in_str = c == '"';
            out.push(c);
        }
    }
    out
}

/// Compare `actual` with fixture `name`, whitespace outside strings
/// aside (byte for byte when `exact`).
fn check(name: &str, actual: &str, exact: bool) {
    let expected = std::fs::read_to_string(fixture(name)).unwrap_or_default();
    let same = if exact {
        actual == expected
    } else {
        strip(actual) == strip(&expected)
    };
    if !same {
        let path = scratch(name);
        std::fs::write(&path, actual).expect("write the new document");
        panic!(
            "{name} differs from tests/fixtures/{name}; the new document is at {}",
            path.display()
        );
    }
}

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env("NEK_SCHED_MODE", "thread")
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn histogram() -> HistogramSnapshot {
    HistogramSnapshot {
        count: 4,
        sum: 1.5,
        p50: 0.3125,
        p90: 0.75,
        p95: 0.8,
        p99: 0.9,
        min: 0.1,
        max: 0.9,
    }
}

/// Every metric kind, a non-finite gauge among them, and two counters
/// under no rank scope, which the summary passes through unsummed.
fn metrics() -> Vec<(String, MetricValue)> {
    vec![
        ("rank0/pool/free".into(), MetricValue::Gauge(2.5)),
        ("rank0/sem/overlap_ratio".into(), MetricValue::Gauge(0.25)),
        (
            "rank0/sem/step_time".into(),
            MetricValue::Histogram(histogram()),
        ),
        ("rank0/transport/retries".into(), MetricValue::Counter(3)),
        (
            "rank1/sem/overlap_ratio".into(),
            MetricValue::Gauge(f64::NAN),
        ),
        ("rank1/transport/retries".into(), MetricValue::Counter(4)),
        (
            "staging/session1/bytes_sent".into(),
            MetricValue::Counter(2048),
        ),
        (
            "staging/session1/frames_sent".into(),
            MetricValue::Counter(6),
        ),
    ]
}

fn report() -> RunReport {
    RunReport {
        manifest: Manifest {
            case: "pb146".into(),
            workflow: "intransit".into(),
            mode: "catalyst".into(),
            exec: "concurrent".into(),
            sched: "event".into(),
            wire: "tcp".into(),
            ranks: 4,
            endpoint_ranks: 1,
            steps: 2,
            trigger_every: 1,
            machine: "polaris".into(),
            fault_plan: "none".into(),
            pool_threads: 2,
            pipeline_depth: 0,
        },
        metrics: metrics(),
        series: vec![
            StepSample {
                step: 1,
                t_start: 0.0,
                t_end: 0.4,
                pool_resident_bytes: 1024,
                backpressure_wait: 0.0,
            },
            StepSample {
                step: 2,
                t_start: 0.4,
                t_end: 1.1,
                backpressure_wait: 0.25,
                ..StepSample::default()
            },
        ],
        evicted_samples: 1,
        events: vec![
            Event {
                at: 0.5,
                pid: 0,
                rank: 1,
                step: None,
                kind: EventKind::FaultInjected,
                detail: "stall \"50s\"\non\u{1}link".into(),
            },
            Event {
                at: 1.0,
                pid: 1,
                rank: 0,
                step: Some(2),
                kind: EventKind::EndpointCrash,
                detail: "crash".into(),
            },
        ],
        watermarks: vec![("rank0/solver".into(), 100, 200)],
        memory: MemorySummary {
            host_aggregate_peak: 200,
            host_max_rank_peak: 150,
            gpu_aggregate_peak: 50,
            unscoped: 7,
        },
        critical: Some(CriticalReport {
            total: 1.1,
            segments: 3,
            contrib: vec![
                CritContrib {
                    pid: 0,
                    rank: 2,
                    phase: "sem/cg".into(),
                    secs: 0.75,
                },
                CritContrib {
                    pid: 1,
                    rank: 0,
                    phase: "net/wire".into(),
                    secs: 0.35,
                },
            ],
            steps: vec![StepCritical {
                step: 2,
                t_from: 0.4,
                t_to: 1.1,
                total: 0.7,
                contrib: vec![CritContrib {
                    pid: 1,
                    rank: 0,
                    phase: "net/wire".into(),
                    secs: 0.35,
                }],
                dropped: 1,
            }],
            slack: vec![
                RankSlack {
                    pid: 0,
                    rank: 0,
                    wait_s: 0.125,
                },
                RankSlack {
                    pid: 1,
                    rank: 0,
                    wait_s: 0.5,
                },
            ],
        }),
    }
}

#[test]
fn run_report() {
    check("run-report.json", &report().to_json(), false);
}

#[test]
fn critical_path() {
    let doc = run(
        env!("CARGO_BIN_EXE_nekstat"),
        &[
            "critical-path",
            fixture("run-report.json").to_str().unwrap(),
            "--json",
        ],
    );
    check("critical-path.json", &doc, false);
}

#[test]
fn summary() {
    let doc = run(
        env!("CARGO_BIN_EXE_nekstat"),
        &[
            "summary",
            fixture("run-report.json").to_str().unwrap(),
            "--json",
        ],
    );
    check("summary.json", &doc, false);
}

#[test]
fn fault_sweep() {
    let path = scratch("fault-sweep.out.json");
    run(
        env!("CARGO_BIN_EXE_fault_sweep"),
        &["--steps", "8", "--json-out", path.to_str().unwrap()],
    );
    check(
        "fault-sweep.json",
        &std::fs::read_to_string(path).unwrap(),
        false,
    );
}

#[test]
fn chrome_trace() {
    let span = |id, name: &str, start, end| Span {
        id,
        name: name.into(),
        start,
        end,
        depth: 0,
        self_time: end - start,
    };
    let traces = [
        RankTrace {
            pid: 1,
            rank: 0,
            end: 2.0,
            spans: vec![span(0, "endpoint/\"render\"\\1\n", 0.25, 1.75)],
            edges: vec![],
        },
        RankTrace {
            pid: 0,
            rank: 1,
            end: 2.0,
            spans: vec![
                span(0, "sem/pressure", 0.5, 1.5),
                span(1, "io\twrite", 1.5, 1.5000015),
            ],
            edges: vec![],
        },
    ];
    check("chrome-trace.json", &chrome_trace_json(&traces), true);
}

#[test]
fn strip_keeps_whitespace_inside_strings() {
    assert_eq!(strip("{ \"a b\" : [ 1 ,\n 2 ] }"), "{\"a b\":[1,2]}");
    assert_eq!(strip("[\"q\\\" x\", \"\\\\\" ]"), "[\"q\\\" x\",\"\\\\\"]");
}

/// Every reader a report or a critical-path document meets; must not
/// panic, whatever `text` is.
fn read_report_documents(text: &str) {
    if let Ok(doc) = json::parse(text) {
        let _ = parse_critical(&doc);
    }
    let _ = RunReport::from_json(text);
}

/// Every truncation of a committed document, and the document with one
/// bit flipped at every position, come back as `Ok` or `Err`. Mutants
/// that are not UTF-8 are skipped: the readers take `&str`.
#[test]
fn report_documents_survive_every_truncation_and_a_bit_flip_at_every_byte() {
    let read = |bytes: &[u8]| {
        if let Ok(text) = std::str::from_utf8(bytes) {
            read_report_documents(text);
        }
    };
    for name in ["run-report.json", "critical-path.json"] {
        let real = std::fs::read(fixture(name)).expect("committed fixture");
        for cut in 0..real.len() {
            read(&real[..cut]);
        }
        let mut flipped = real.clone();
        for at in 0..real.len() {
            flipped[at] ^= 1 << (at % 8);
            read(&flipped);
            flipped[at] = real[at];
        }
        // The undamaged document still reads.
        let text = String::from_utf8(real).expect("fixtures are UTF-8");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        match name {
            "run-report.json" => {
                let report = RunReport::from_json(&text).expect("the run report reads back");
                assert!(
                    report.critical.is_some(),
                    "the fixture embeds a critical block"
                );
            }
            "critical-path.json" => {
                parse_critical(&doc).expect("the critical-path document reads back");
            }
            _ => {}
        }
    }
}
