//! The `RunReport`: one serializable artifact per run.

use crate::critical::{parse_critical, write_critical, CriticalReport};
use crate::instruments::{MetricValue, TelemetryHub};
use crate::json::{self, Obj, Value};
use crate::recorder::{Event, EventKind, StepSample};

/// Schema tag written into every report (bump on breaking layout
/// changes; `nekstat` and CI validate it).
pub const REPORT_SCHEMA: &str = "nekstat/run-report/v1";

/// What was run: enough to reproduce the configuration and to label
/// the report in `nekstat` output. Each field's doc says what the in
/// situ and in transit drivers and the render showcases (fig1, fig4) put
/// there.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Case name (`pb146`, `rbc`, …).
    pub case: String,
    /// `insitu`, `intransit` or `render` (the showcases).
    pub workflow: String,
    /// In situ mode (`original` / `checkpointing` / `catalyst`), the in
    /// transit endpoint mode (`no transport` / `checkpointing` /
    /// `catalyst`) or the showcase's view.
    pub mode: String,
    /// Execution mode: in situ `synchronous` / `pipelined`; `concurrent`
    /// in transit, whose worlds run side by side; `synchronous` for the
    /// showcases.
    pub exec: String,
    /// Rank scheduler (`thread` / `event`): how the rank worlds were
    /// driven. Virtual-time results are bitwise identical either way;
    /// the label records which executor actually ran.
    pub sched: String,
    /// Wire engine carrying staged frames (`channel` / `tcp`; `none` for
    /// workflows with no staging transport).
    pub wire: String,
    /// Simulation ranks.
    pub ranks: usize,
    /// Consumer world ranks: the endpoint ranks in transit, as many as
    /// the simulation's when pipelined in situ, 0 when synchronous.
    pub endpoint_ranks: usize,
    /// Steps run.
    pub steps: u64,
    /// Analysis trigger cadence.
    pub trigger_every: u64,
    /// Machine model name.
    pub machine: String,
    /// Human-readable fault plan summary (`"none"` when clean).
    pub fault_plan: String,
    /// Shared thread-pool width on the host.
    pub pool_threads: usize,
    /// Pipeline credit depth when pipelined in situ, the staging queue
    /// bound in transit; 0 otherwise.
    pub pipeline_depth: usize,
}

/// Host/GPU memory roll-up of one run, the one type for it: `core`'s
/// run metrics carry it and the report writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemorySummary {
    /// Sum of host peaks over ranks.
    pub host_aggregate_peak: u64,
    /// Largest single-rank host peak.
    pub host_max_rank_peak: u64,
    /// Sum of GPU peaks over ranks.
    pub gpu_aggregate_peak: u64,
    /// Peak bytes in accountants with no `rank<r>/` prefix.
    pub unscoped: u64,
}

/// The single artifact a telemetry-enabled run emits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Run configuration.
    pub manifest: Manifest,
    /// Final value of every instrument, sorted by name.
    pub metrics: Vec<(String, MetricValue)>,
    /// Per-step time series (possibly ring-truncated to the newest
    /// steps; see `evicted_samples`).
    pub series: Vec<StepSample>,
    /// Samples dropped by the flight-recorder ring, oldest-first.
    pub evicted_samples: u64,
    /// Structured events sorted by virtual time.
    pub events: Vec<Event>,
    /// Per-accountant `(name, current, peak)` bytes, sorted by name.
    pub watermarks: Vec<(String, u64, u64)>,
    /// Memory roll-up.
    pub memory: MemorySummary,
    /// Critical-path analysis over the causal trace, when the run was
    /// traced (attached by the workflow driver after
    /// [`RunReport::collect`]; `None` when tracing was off).
    pub critical: Option<CriticalReport>,
}

impl RunReport {
    /// Drain `hub` into a report. `watermarks` and `memory` come from
    /// the caller's memtrack registry (core owns that translation).
    pub fn collect(
        manifest: Manifest,
        hub: &TelemetryHub,
        watermarks: Vec<(String, u64, u64)>,
        memory: MemorySummary,
    ) -> Self {
        let (series, evicted_samples) = hub.take_series();
        Self {
            manifest,
            metrics: hub.metrics_snapshot(),
            series,
            evicted_samples,
            events: hub.take_events_sorted(),
            watermarks,
            memory,
            critical: None,
        }
    }

    /// The final value of instrument `name`, if present.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Events of one kind, in report (virtual-time) order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Exact p95 of per-step wall (virtual) time from the series
    /// (zero when the series is empty).
    pub fn step_time_p95(&self) -> f64 {
        let mut times: Vec<f64> = self.series.iter().map(|s| s.t_end - s.t_start).collect();
        if times.is_empty() {
            return 0.0;
        }
        times.sort_by(f64::total_cmp);
        let idx = ((0.95 * times.len() as f64).ceil() as usize).max(1) - 1;
        times[idx.min(times.len() - 1)]
    }

    /// Total rank-0 backpressure wait over the series, in seconds.
    pub fn total_backpressure_wait(&self) -> f64 {
        crate::sum(self.series.iter().map(|s| s.backpressure_wait))
    }

    /// Serialize to the `nekstat/run-report/v1` JSON document.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.text("schema", REPORT_SCHEMA)
                .obj("manifest", |o| self.manifest.write(o))
                .arr("metrics", &self.metrics, |o, (name, v)| {
                    v.write(o.text("name", name));
                })
                .arr("series", &self.series, |o, s| {
                    o.uint("step", s.step)
                        .num("t_start", s.t_start)
                        .num("t_end", s.t_end)
                        .obj("phase_self", |o| {
                            for (name, secs) in &s.phase_self {
                                o.num(name, *secs);
                            }
                        })
                        .uint("pool_resident_bytes", s.pool_resident_bytes)
                        .uint("pool_free_buffers", s.pool_free_buffers)
                        .num("backpressure_wait", s.backpressure_wait)
                        .num("queue_depth", s.queue_depth)
                        .uint("retries", s.retries)
                        .uint("mem_current", s.mem_current)
                        .uint("mem_peak", s.mem_peak);
                })
                .uint("evicted_samples", self.evicted_samples)
                .arr("events", &self.events, |o, e| {
                    o.num("at", e.at)
                        .uint("pid", e.pid.into())
                        .uint("rank", e.rank as u64)
                        .opt_uint("step", e.step)
                        .text("kind", e.kind.as_str())
                        .text("detail", &e.detail);
                })
                .arr("watermarks", &self.watermarks, |o, (name, now, peak)| {
                    o.text("name", name)
                        .uint("current", *now)
                        .uint("peak", *peak);
                })
                .obj("memory", |o| {
                    let m = &self.memory;
                    o.uint("host_aggregate_peak", m.host_aggregate_peak)
                        .uint("host_max_rank_peak", m.host_max_rank_peak)
                        .uint("gpu_aggregate_peak", m.gpu_aggregate_peak)
                        .uint("unscoped", m.unscoped);
                });
            if let Some(c) = &self.critical {
                o.obj("critical", |o| write_critical(o, c));
            }
        })
    }

    /// Parse a `nekstat/run-report/v1` document.
    ///
    /// # Errors
    /// Malformed JSON or a layout that does not match the schema.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema tag")?;
        if schema != REPORT_SCHEMA {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let man = v.get("manifest").ok_or("missing manifest")?;
        let manifest = Manifest {
            case: man.text("case").into(),
            workflow: man.text("workflow").into(),
            mode: man.text("mode").into(),
            exec: man.text("exec").into(),
            sched: man.text("sched").into(),
            wire: man.text("wire").into(),
            ranks: man.uint("ranks") as usize,
            endpoint_ranks: man.uint("endpoint_ranks") as usize,
            steps: man.uint("steps"),
            trigger_every: man.uint("trigger_every"),
            machine: man.text("machine").into(),
            fault_plan: man.text("fault_plan").into(),
            pool_threads: man.uint("pool_threads") as usize,
            pipeline_depth: man.uint("pipeline_depth") as usize,
        };
        let mut metrics = Vec::new();
        for mv in v
            .get("metrics")
            .and_then(Value::as_arr)
            .ok_or("missing metrics")?
        {
            let name = mv
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            metrics.push((name.to_string(), MetricValue::read(mv)?));
        }
        let mut series = Vec::new();
        for sv in v
            .get("series")
            .and_then(Value::as_arr)
            .ok_or("missing series")?
        {
            let mut phase_self = Vec::new();
            if let Some(Value::Obj(m)) = sv.get("phase_self") {
                for (k, x) in m {
                    phase_self.push((k.clone(), x.as_f64().unwrap_or(0.0)));
                }
            }
            series.push(StepSample {
                step: sv.uint("step"),
                t_start: sv.num("t_start"),
                t_end: sv.num("t_end"),
                phase_self,
                pool_resident_bytes: sv.uint("pool_resident_bytes"),
                pool_free_buffers: sv.uint("pool_free_buffers"),
                backpressure_wait: sv.num("backpressure_wait"),
                queue_depth: sv.num("queue_depth"),
                retries: sv.uint("retries"),
                mem_current: sv.uint("mem_current"),
                mem_peak: sv.uint("mem_peak"),
            });
        }
        let mut events = Vec::new();
        for ev in v
            .get("events")
            .and_then(Value::as_arr)
            .ok_or("missing events")?
        {
            events.push(Event {
                at: ev.num("at"),
                pid: ev.uint("pid") as u32,
                rank: ev.uint("rank") as usize,
                step: ev.get("step").and_then(Value::as_u64),
                kind: EventKind::parse(ev.text("kind")).ok_or("event with unknown kind")?,
                detail: ev.text("detail").into(),
            });
        }
        let watermarks = v
            .get("watermarks")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|w| (w.text("name").into(), w.uint("current"), w.uint("peak")))
            .collect();
        let mem = v.get("memory").ok_or("missing memory")?;
        let critical = match v.get("critical") {
            Some(cv) => Some(parse_critical(cv)?),
            None => None,
        };
        Ok(Self {
            manifest,
            metrics,
            series,
            evicted_samples: v.uint("evicted_samples"),
            events,
            watermarks,
            memory: MemorySummary {
                host_aggregate_peak: mem.uint("host_aggregate_peak"),
                host_max_rank_peak: mem.uint("host_max_rank_peak"),
                gpu_aggregate_peak: mem.uint("gpu_aggregate_peak"),
                unscoped: mem.uint("unscoped"),
            },
            critical,
        })
    }
}

impl Manifest {
    /// Write the manifest's members into `o` (the RunReport and `nekstat
    /// summary --json` both carry it).
    pub fn write(&self, o: &mut Obj<'_>) {
        o.text("case", &self.case)
            .text("workflow", &self.workflow)
            .text("mode", &self.mode)
            .text("exec", &self.exec)
            .text("sched", &self.sched)
            .text("wire", &self.wire)
            .text("machine", &self.machine)
            .text("fault_plan", &self.fault_plan)
            .uint("ranks", self.ranks as u64)
            .uint("endpoint_ranks", self.endpoint_ranks as u64)
            .uint("steps", self.steps)
            .uint("trigger_every", self.trigger_every)
            .uint("pool_threads", self.pool_threads as u64)
            .uint("pipeline_depth", self.pipeline_depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::{CritContrib, RankSlack, StepCritical, CRITICAL_SCHEMA};

    fn fixture() -> RunReport {
        let hub = TelemetryHub::default();
        let rt = crate::RankTelemetry::new(&hub, 0, 0);
        rt.counter("transport/retries").add(3);
        rt.gauge("pool/free").set(2.0);
        let h = rt.histogram("sem/step_time");
        for v in [0.1, 0.2, 0.3, 0.9] {
            h.observe(v);
        }
        rt.event(1.25, EventKind::CircuitBreakerOpen, Some(6), "3 strikes");
        rt.event(0.5, EventKind::FaultInjected, Some(2), "stall 50s");
        hub.record(StepSample {
            step: 1,
            t_start: 0.0,
            t_end: 0.4,
            phase_self: vec![("sem/cg".into(), 0.3), ("snapshot/publish".into(), 0.05)],
            pool_resident_bytes: 1024,
            pool_free_buffers: 2,
            backpressure_wait: 0.0,
            queue_depth: 0.0,
            retries: 0,
            mem_current: 4096,
            mem_peak: 8192,
        });
        hub.record(StepSample {
            step: 2,
            t_start: 0.5,
            t_end: 1.5,
            backpressure_wait: 0.25,
            retries: 3,
            ..StepSample::default()
        });
        RunReport::collect(
            Manifest {
                case: "pb146".into(),
                workflow: "insitu".into(),
                mode: "checkpointing".into(),
                exec: "pipelined".into(),
                sched: "thread".into(),
                wire: "channel".into(),
                ranks: 4,
                endpoint_ranks: 0,
                steps: 2,
                trigger_every: 1,
                machine: "polaris-derated".into(),
                fault_plan: "consumer stall @2".into(),
                pool_threads: 4,
                pipeline_depth: 2,
            },
            &hub,
            vec![("rank0/solver".into(), 100, 200)],
            MemorySummary {
                host_aggregate_peak: 200,
                host_max_rank_peak: 200,
                gpu_aggregate_peak: 50,
                unscoped: 7,
            },
        )
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = fixture();
        let text = report.to_json();
        let parsed = RunReport::from_json(&text).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_round_trip_keeps_critical_block() {
        let mut report = fixture();
        report.critical = Some(CriticalReport {
            total: 1.5,
            segments: 3,
            contrib: vec![CritContrib {
                pid: 0,
                rank: 2,
                phase: "sem/cg".into(),
                secs: 1.25,
            }],
            steps: vec![StepCritical {
                step: 1,
                t_from: 0.0,
                t_to: 0.75,
                total: 0.75,
                contrib: vec![CritContrib {
                    pid: 1,
                    rank: 0,
                    phase: "net/wire".into(),
                    secs: 0.5,
                }],
                dropped: 2,
            }],
            slack: vec![RankSlack {
                pid: 0,
                rank: 0,
                wait_s: 0.25,
            }],
        });
        let text = report.to_json();
        assert!(text.contains(CRITICAL_SCHEMA));
        let parsed = RunReport::from_json(&text).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn collect_sorts_events_by_virtual_time() {
        let report = fixture();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].kind, EventKind::FaultInjected);
        assert_eq!(report.events[1].kind, EventKind::CircuitBreakerOpen);
        assert!(report.events[0].at < report.events[1].at);
    }

    #[test]
    fn derived_readouts_match_series() {
        let report = fixture();
        assert_eq!(report.step_time_p95(), 1.0, "slowest of two steps");
        assert_eq!(report.total_backpressure_wait(), 0.25);
        assert_eq!(
            report.metric("rank0/transport/retries"),
            Some(&MetricValue::Counter(3))
        );
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(RunReport::from_json("{\"schema\": \"other/v9\"}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }
}
