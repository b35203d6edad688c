//! Live telemetry streaming for follow sessions.
//!
//! A running figure harness or `staging_bench` owns a [`TelemetryHub`]
//! whose instruments are plain atomics. This module streams that hub to
//! `nekstat --follow` clients as **delta snapshots**: each tick, only
//! the metrics that changed since the previous tick go down the wire,
//! serialized as one `nekstat/telemetry-snapshot/v1` JSON document
//! inside a `Telemetry` protocol message. The first tick of a session
//! is always a full snapshot so a late joiner starts from complete
//! state.
//!
//! The streaming threads run on **real time** (the wall clock), read
//! nothing but atomics, and never touch the virtual clock or any
//! `Comm` — attaching, watching, and detaching a follow client is
//! invisible to the deterministic run being observed. A client that
//! disconnects simply kills its session thread at the next write; the
//! run keeps going.

use super::protocol::{self, DownMsg, SessionSpec, TelemetryMsg};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::{json, MetricValue, TelemetryHub};

/// Schema tag of one streamed snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "nekstat/telemetry-snapshot/v1";

/// Real-time interval between delta snapshots.
pub const FOLLOW_INTERVAL: Duration = Duration::from_millis(200);

/// Serialize one snapshot document: `seq`, whether it is a `full`
/// snapshot, and the (changed) metrics keyed by instrument name.
pub fn snapshot_json(seq: u64, full: bool, metrics: &[(String, MetricValue)]) -> String {
    let mut o = String::with_capacity(64 + metrics.len() * 48);
    o.push_str("{\"schema\": ");
    json::push_str(&mut o, SNAPSHOT_SCHEMA);
    o.push_str(&format!(", \"seq\": {seq}, \"full\": {full}, \"metrics\": {{"));
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        json::push_str(&mut o, name);
        o.push_str(": ");
        match value {
            MetricValue::Counter(c) => {
                o.push_str(&format!("{{\"kind\": \"counter\", \"value\": {c}}}"));
            }
            MetricValue::Gauge(g) => {
                o.push_str("{\"kind\": \"gauge\", \"value\": ");
                json::push_f64(&mut o, *g);
                o.push('}');
            }
            MetricValue::Histogram(h) => {
                o.push_str(&format!(
                    "{{\"kind\": \"histogram\", \"count\": {}, \"sum\": ",
                    h.count
                ));
                json::push_f64(&mut o, h.sum);
                for (key, v) in [
                    ("p50", h.p50),
                    ("p90", h.p90),
                    ("p95", h.p95),
                    ("p99", h.p99),
                    ("min", h.min),
                    ("max", h.max),
                ] {
                    o.push_str(&format!(", \"{key}\": "));
                    json::push_f64(&mut o, v);
                }
                o.push('}');
            }
        }
    }
    o.push_str("}}");
    o
}

/// Serve one follow session on `stream` until the client disconnects or
/// `stop` is raised. Sends a full snapshot immediately, then one delta
/// snapshot per [`FOLLOW_INTERVAL`] (possibly empty — the empty
/// snapshot doubles as a heartbeat, so a vanished client is detected
/// within one interval even when no metric moves).
pub fn serve_follow(mut stream: TcpStream, hub: &TelemetryHub, stop: &AtomicBool) {
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
    let mut prev: Vec<(String, MetricValue)> = Vec::new();
    let mut seq = 0u64;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let delta = hub.delta_snapshot(&mut prev);
        let msg = DownMsg::Telemetry(TelemetryMsg {
            seq,
            json: snapshot_json(seq, seq == 0, &delta),
        });
        if protocol::write_down(&mut stream, &msg).is_err() || stream.flush().is_err() {
            return;
        }
        seq += 1;
        if stopping {
            // The final delta (flushed above) carried the run's end
            // state; close the stream explicitly.
            let _ = protocol::write_down(&mut stream, &DownMsg::End);
            let _ = stream.flush();
            return;
        }
        std::thread::sleep(FOLLOW_INTERVAL);
    }
}

/// Consumer-side handle on one follow session: connect, pull snapshot
/// documents, drop to detach.
pub struct FollowClient {
    stream: TcpStream,
}

impl FollowClient {
    /// Attach a follow session to a staging service's consumer listener
    /// (or any other socket serving the staging protocol with a live
    /// hub).
    ///
    /// # Errors
    /// Socket connect/write failures.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        protocol::write_hello(&mut stream, &SessionSpec::default(), 0, true)?;
        Ok(Self { stream })
    }

    /// Wait up to `timeout` for the next snapshot. `Ok(None)` means the
    /// service ended the stream (explicit `End` or a closed socket).
    ///
    /// # Errors
    /// Wire/protocol failures; a plain timeout is `ErrorKind::TimedOut`.
    pub fn next_snapshot(&mut self, timeout: Duration) -> std::io::Result<Option<TelemetryMsg>> {
        self.stream.set_read_timeout(Some(timeout)).ok();
        loop {
            match protocol::read_down(&mut self.stream)? {
                Some(DownMsg::Telemetry(t)) => return Ok(Some(t)),
                // Frames never arrive on a follow session, but skipping
                // them keeps the client robust to a mixed-mode server.
                Some(DownMsg::Frame(_)) => continue,
                Some(DownMsg::End) | None => return Ok(None),
            }
        }
    }
}

/// A standalone real-time follow server: binds nothing itself, accepts
/// follow sessions off the listener it is given, one streaming thread
/// per connection. Used by harnesses that have no staging consumer port
/// (the staging service's own `listen_consumers` multiplexes follow
/// sessions onto the consumer port instead).
pub struct LiveServer {
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl LiveServer {
    /// Start accepting follow sessions on `listener`, streaming `hub`.
    pub fn start(listener: std::net::TcpListener, hub: TelemetryHub) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let accept = std::thread::spawn(move || {
            listener.set_nonblocking(true).ok();
            loop {
                if stop2.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    // This listener serves telemetry only.
                    Ok((stream, _)) => {
                        super::serve_connection(stream, Some((hub.clone(), stop2.clone())), None)
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => return,
                }
            }
        });
        Self {
            stop,
            accept: Some(accept),
        }
    }

    /// Stop accepting and signal every open session to send `End`.
    /// Session threads exit at their next tick.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::loopback_listener;

    #[test]
    fn snapshot_json_is_parseable_and_tagged() {
        let hub = TelemetryHub::default();
        hub.counter("staging/steps").add(3);
        hub.gauge("sem/critical_total").set(1.25);
        hub.histogram("step_time").observe(0.5);
        let mut prev = Vec::new();
        let full = hub.delta_snapshot(&mut prev);
        let doc = json::parse(&snapshot_json(0, true, &full)).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SNAPSHOT_SCHEMA));
        assert_eq!(doc.get("seq").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("full"), Some(&json::Value::Bool(true)));
        let metrics = doc.get("metrics").unwrap();
        let steps = metrics.get("staging/steps").unwrap();
        assert_eq!(steps.get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(steps.get("value").unwrap().as_u64(), Some(3));
        let hist = metrics.get("step_time").unwrap();
        assert_eq!(hist.get("kind").unwrap().as_str(), Some("histogram"));
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));

        // Nothing changed: the delta is empty but still a valid document.
        let delta = hub.delta_snapshot(&mut prev);
        assert!(delta.is_empty());
        let doc = json::parse(&snapshot_json(1, false, &delta)).unwrap();
        assert_eq!(doc.get("full"), Some(&json::Value::Bool(false)));
    }

    #[test]
    fn live_server_streams_full_then_delta_and_detach_is_clean() {
        let (listener, port) = loopback_listener().unwrap();
        let hub = TelemetryHub::default();
        hub.counter("staging/steps").add(1);
        let server = LiveServer::start(listener, hub.clone());

        let mut client = FollowClient::connect(&format!("127.0.0.1:{port}")).unwrap();
        let first = client
            .next_snapshot(Duration::from_secs(10))
            .unwrap()
            .expect("initial snapshot");
        assert_eq!(first.seq, 0);
        let doc = json::parse(&first.json).unwrap();
        assert_eq!(doc.get("full"), Some(&json::Value::Bool(true)));
        assert!(doc.get("metrics").unwrap().get("staging/steps").is_some());

        // Bump a metric; a later delta must carry it.
        hub.counter("staging/steps").add(5);
        let mut saw_update = false;
        for _ in 0..50 {
            let Some(snap) = client.next_snapshot(Duration::from_secs(10)).unwrap() else {
                break;
            };
            let doc = json::parse(&snap.json).unwrap();
            if let Some(m) = doc.get("metrics").unwrap().get("staging/steps") {
                assert_eq!(m.get("value").unwrap().as_u64(), Some(6));
                saw_update = true;
                break;
            }
        }
        assert!(saw_update, "delta with updated counter never arrived");

        // Detach by dropping the client; the hub keeps working and the
        // server shuts down cleanly.
        drop(client);
        hub.counter("staging/steps").add(1);
        assert_eq!(hub.counter("staging/steps").get(), 7);
        server.stop();
    }
}
