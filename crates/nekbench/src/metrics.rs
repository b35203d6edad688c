//! The metric catalogue: every name the benchmark prints, with its unit,
//! its better direction and (end to end) its regression bound.
//! `BENCHMARK.json` at the repository root lists the same metrics; a unit
//! test keeps the two equal.

use crate::surface::json::{push_f64, push_str};
use crate::verify::Checks;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Relative change from `base` to `new`, positive when worse.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
        match self {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Measured with tracing off, on every workload; median over the repeats
/// of one run. The bounds are set from the measured A/A spreads on the
/// 2-CPU reference host (README, "Bounds").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("steps_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_MB", "MB", Better::Lower, 0.20),
];

/// Measured in the traced run. A workload reports 0 for a metric of a
/// layer it does not exercise (README has the layer × workload table).
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end quantities that exist on some workloads only, so the
    // contract cannot bound them; measured with the recorder off.
    lower("e2e.trigger_ms", "ms"),
    higher("e2e.frames_per_s", "1/s"),
    lower("e2e.bytes_per_trigger", "B"),
    lower("e2e.frame_latency_ms_p50", "ms"),
    lower("e2e.frame_latency_ms_p95", "ms"),
    lower("e2e.generator_lateness_ms_p95", "ms"),
    lower("e2e.virt_tts_s", "s"),
    lower("e2e.virt_host_peak_MB", "MB"),
    // sem
    lower("sem.step_ms_p50", "ms"),
    lower("sem.step_ms_p95", "ms"),
    lower("sem.pressure_iters_per_step", "count"),
    lower("sem.velocity_iters_per_step", "count"),
    lower("sem.stiffness_apply_ms", "ms"),
    higher("sem.stiffness_gflops", "Gflop/s"),
    lower("sem.gs_sum_us", "us"),
    lower("sem.build_ms", "ms"),
    higher("sem.pool_speedup_2t", "ratio"),
    lower("sem.self_ms_per_step", "ms"),
    // pool (rayon shim)
    lower("pool.dispatch_us", "us"),
    // devsim
    lower("devsim.d2h_ms_per_trigger", "ms"),
    lower("devsim.d2h_bytes_per_trigger", "B"),
    lower("devsim.self_ms_per_step", "ms"),
    // core
    lower("core.geometry_build_ms", "ms"),
    lower("core.adaptor_ms_per_trigger", "ms"),
    lower("core.driver_overhead_pct", "%"),
    higher("core.pipeline_overlap_ratio", "ratio"),
    lower("core.fld_encode_ms", "ms"),
    lower("core.fld_read_ms", "ms"),
    lower("core.fld_bytes", "B"),
    lower("core.self_ms_per_step", "ms"),
    // insitu
    lower("insitu.bridge_init_ms", "ms"),
    lower("insitu.bridge_update_self_ms", "ms"),
    lower("insitu.self_ms_per_step", "ms"),
    // render
    lower("render.execute_ms_per_trigger", "ms"),
    lower("render.filter_ms", "ms"),
    lower("render.raster_ms", "ms"),
    lower("render.composite_ms", "ms"),
    lower("render.encode_png_ms", "ms"),
    lower("render.file_write_ms", "ms"),
    lower("render.triangles_per_frame", "count"),
    lower("render.png_bytes_per_frame", "B"),
    higher("render.frame_cache_hit_ratio", "ratio"),
    lower("render.self_ms_per_step", "ms"),
    // transport
    lower("transport.marshal_ms", "ms"),
    lower("transport.unmarshal_ms", "ms"),
    higher("transport.crc_MBps", "MB/s"),
    lower("transport.bp_bytes_per_step", "B"),
    lower("transport.writer_put_ms_p50", "ms"),
    higher("transport.wire_tcp_MBps", "MB/s"),
    higher("transport.wire_channel_MBps", "MB/s"),
    lower("transport.park_append_ms", "ms"),
    lower("transport.catchup_read_ms", "ms"),
    lower("transport.catchup_steps", "count"),
    lower("transport.session_connect_ms", "ms"),
    lower("transport.endpoint_checkpoint_ms_per_trigger", "ms"),
    lower("transport.retries", "count"),
    lower("transport.short_reads", "count"),
    lower("transport.lost_steps", "count"),
    // commsim
    lower("commsim.world_spawn_ms_event", "ms"),
    lower("commsim.world_spawn_ms_thread", "ms"),
    lower("commsim.barrier_us_event", "us"),
    lower("commsim.barrier_us_thread", "us"),
    lower("commsim.allreduce_us_event", "us"),
    lower("commsim.sendrecv_ring_us_event", "us"),
    lower("commsim.collectives_per_step", "count"),
    lower("commsim.messages_per_step", "count"),
    lower("commsim.event_over_thread", "ratio"),
    higher("commsim.event_fast_share", "ratio"),
    lower("commsim.unpinned_over_pinned", "ratio"),
    // telemetry / trace
    lower("telemetry.on_overhead_pct", "%"),
    lower("trace.on_overhead_pct", "%"),
    lower("telemetry.report_json_ms", "ms"),
    lower("telemetry.report_parse_ms", "ms"),
    lower("telemetry.report_bytes", "B"),
    lower("trace.critical_path_ms", "ms"),
    // the benchmark's own tracing
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.loop_unattributed_pct", "%"),
    higher("bench.host_speed", "ratio"),
];

/// The catalogue a run reports against.
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Values measured by one run, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` for `name`.
    ///
    /// # Panics
    /// If `name` is not in the catalogue: every printed metric is named
    /// there first.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
}

impl Outcome {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being every entry of the
    /// run's catalogue (0 where the workload does not exercise the layer).
    pub fn result_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, def) in catalogue(traced).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str(&mut out, def.name);
            out.push_str(": {\"value\": ");
            push_f64(&mut out, self.metrics.get(def.name).unwrap_or(0.0));
            out.push_str(", \"unit\": ");
            push_str(&mut out, def.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self, traced: bool) {
        for def in catalogue(traced) {
            match self.metrics.get(def.name) {
                Some(v) => println!(
                    "  {:<44} {:>16.6} {:<8} ({} is better)",
                    def.name,
                    v,
                    def.unit,
                    def.better.label()
                ),
                None => println!("  {:<44} {:>16} {}", def.name, "-", def.unit),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::json;

    fn name_ok(s: &str) -> bool {
        let first_ok = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contracts_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        assert!(!name_ok("bad name") && !name_ok(".x") && !unit_ok("m s"));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for def in END_TO_END {
            let bound = def.bound.expect("every end-to-end metric is bounded");
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
    }

    #[test]
    fn result_line_parses_and_lists_exactly_the_catalogue() {
        let mut outcome = Outcome::default();
        outcome.metrics.set("wall_s", 1.2034);
        outcome.metrics.set("sem.step_ms_p50", 45.25);
        outcome.checks.count(10, 9, "frames");
        for traced in [false, true] {
            let doc = json::parse(&outcome.result_line(traced)).unwrap();
            assert_eq!(doc.get("correct"), Some(&json::Value::Bool(false)));
            assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(10));
            assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
            let metrics = doc.get("metrics").unwrap();
            for def in catalogue(traced) {
                let m = metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{} missing", def.name));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit));
                assert!(m.get("value").unwrap().as_f64().is_some());
            }
            let other = catalogue(!traced)[0].name;
            assert!(
                metrics.get(other).is_none(),
                "{other} belongs to the other run"
            );
        }
        let doc = json::parse(&outcome.result_line(false)).unwrap();
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.2034));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit));
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(def.better.label())
                );
                assert_eq!(entry.get("bound").and_then(json::Value::as_f64), def.bound);
            }
        }
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        for (entry, w) in workloads.iter().zip(crate::workloads::Workload::ALL) {
            assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }
}
