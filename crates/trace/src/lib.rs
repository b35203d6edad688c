//! Vestigial: the tracer, phase breakdown and critical path live in
//! `telemetry`. This package is kept only because the benchmark
//! (`crates/nekbench`) still names `trace::critical::analyze`; the
//! benchmark change of ROADMAP item 3 deletes it.

pub use telemetry::critical;
