//! Consumer-session protocol for the staging service.
//!
//! A consumer opens a session by sending `Hello` (its render spec plus an
//! initial credit grant), then replenishes credits as it consumes frames;
//! the service answers with `Frame` messages (one per delivered step) and
//! a final `End`. Local sessions move these messages over in-process
//! channels; TCP sessions use length-prefixed frames:
//!
//! ```text
//! [u32 len][u8 tag][body…]        len counts everything after itself
//! ```
//!
//! Up (consumer → service): tag 0 `Hello`, tag 1 `Credit`.
//! Down (service → consumer): tag 10 `Frame`, tag 11 `End`,
//! tag 12 `Telemetry` (live snapshot JSON, follow sessions only).
//! All integers little-endian, like the BP marshaling.
//!
//! A `Hello` whose trailing follow byte is 1 opens a **follow session**:
//! the service sends no frames and ignores the spec/credits; instead a
//! real-time thread streams `Telemetry` messages (delta snapshots of the
//! run's metric hub) until either side disconnects. Follow sessions read
//! atomics only, so attaching and detaching never perturbs the
//! virtual-clock run being observed.

use crate::codec::{self, Prefix, Reader};
use std::io::{Read, Write};

/// What one consumer session wants rendered from every staged step.
///
/// Two sessions with equal specs produce identical pixels, so the second
/// is served from the staging service's frame cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// View direction for the framing camera.
    pub camera_dir: [f64; 3],
    /// Colormap name (see `render::Colormap::by_name`).
    pub colormap: String,
    /// Point array to color by.
    pub array: String,
}

impl Default for SessionSpec {
    fn default() -> Self {
        Self {
            width: 200,
            height: 150,
            camera_dir: [0.0, -1.0, 0.25],
            colormap: "cool-warm".into(),
            array: "pressure".into(),
        }
    }
}

/// One rendered frame delivered to a consumer session.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMsg {
    /// Simulation step the frame shows.
    pub step: u64,
    /// True when the frame came out of the staging cache (no re-raster).
    pub cache_hit: bool,
    /// `<pass>_<step>` image name.
    pub name: String,
    /// Encoded PNG bytes.
    pub png: Vec<u8>,
}

/// One live telemetry delta snapshot (follow sessions only).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryMsg {
    /// Snapshot sequence number, 0 for the initial full snapshot.
    pub seq: u64,
    /// Snapshot document (`nekstat/telemetry-snapshot/v1` JSON).
    pub json: String,
}

/// Service → consumer messages.
#[derive(Debug, Clone, PartialEq)]
pub enum DownMsg {
    /// One rendered step.
    Frame(FrameMsg),
    /// The stream is over; no more frames will arrive.
    End,
    /// One live telemetry snapshot (follow sessions only).
    Telemetry(TelemetryMsg),
}

const TAG_HELLO: u8 = 0;
const TAG_CREDIT: u8 = 1;
const TAG_FRAME: u8 = 10;
const TAG_END: u8 = 11;
const TAG_TELEMETRY: u8 = 12;

/// Largest image side a `Hello` may ask for: the spec sizes a
/// framebuffer on the service.
const MAX_IMAGE_SIDE: usize = 4096;

fn invalid(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// Write one `[u32 len][u8 tag][body…]` message; `capacity` is the room
/// to reserve for what `body` appends.
fn send(
    w: &mut impl Write,
    tag: u8,
    capacity: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    w.write_all(&codec::record(1 + capacity, |msg| {
        msg.push(tag);
        body(msg);
    }))
}

/// Write the session-opening `Hello` (spec + initial credits). A true
/// `follow` opens a telemetry follow session instead of a frame stream.
///
/// # Errors
/// I/O failures.
pub fn write_hello(
    w: &mut impl Write,
    spec: &SessionSpec,
    credits: u32,
    follow: bool,
) -> std::io::Result<()> {
    let room = 48 + spec.colormap.len() + spec.array.len();
    send(w, TAG_HELLO, room, |msg| {
        codec::put_u32(msg, spec.width as u32);
        codec::put_u32(msg, spec.height as u32);
        for d in spec.camera_dir {
            codec::put_f64(msg, d);
        }
        codec::put_bytes(msg, spec.colormap.as_bytes());
        codec::put_bytes(msg, spec.array.as_bytes());
        codec::put_u32(msg, credits);
        msg.push(u8::from(follow));
    })
}

/// Read a `Hello` off a fresh consumer connection; the final bool is the
/// follow flag.
///
/// # Errors
/// I/O failures, a non-Hello first frame, a malformed body, or a spec no
/// session can be built from (an image side of 0 or above
/// `MAX_IMAGE_SIDE`, a non-finite camera direction).
pub fn read_hello(r: &mut impl Read) -> std::io::Result<(SessionSpec, u32, bool)> {
    let Some(msg) = codec::read_record(r, Prefix::U32)? else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before Hello",
        ));
    };
    let mut c = Reader::new(&msg);
    let tag = c.u8()?;
    if tag != TAG_HELLO {
        return Err(invalid(format!("expected Hello, got tag {tag}")));
    }
    let spec = SessionSpec {
        width: c.u32()? as usize,
        height: c.u32()? as usize,
        camera_dir: [c.f64()?, c.f64()?, c.f64()?],
        colormap: c.str()?.to_owned(),
        array: c.str()?.to_owned(),
    };
    let (credits, follow) = (c.u32()?, c.u8()? != 0);
    let usable = [spec.width, spec.height]
        .iter()
        .all(|side| (1..=MAX_IMAGE_SIDE).contains(side))
        && spec.camera_dir.iter().all(|d| d.is_finite());
    if !usable {
        return Err(invalid(format!("no session can be built from {spec:?}")));
    }
    Ok((spec, credits, follow))
}

/// Write a credit replenishment.
///
/// # Errors
/// I/O failures.
pub fn write_credit(w: &mut impl Write, n: u32) -> std::io::Result<()> {
    send(w, TAG_CREDIT, 4, |msg| codec::put_u32(msg, n))
}

/// Read the next credit grant; `Ok(None)` when the consumer closed.
///
/// # Errors
/// I/O failures or a malformed/unexpected frame.
pub fn read_credit(r: &mut impl Read) -> std::io::Result<Option<u32>> {
    let Some(msg) = codec::read_record(r, Prefix::U32)? else {
        return Ok(None);
    };
    let mut c = Reader::new(&msg);
    match c.u8()? {
        TAG_CREDIT => Ok(Some(c.u32()?)),
        tag => Err(invalid(format!("expected Credit, got tag {tag}"))),
    }
}

/// Write a down message (frame or end-of-stream).
///
/// # Errors
/// I/O failures.
pub fn write_down(w: &mut impl Write, msg: &DownMsg) -> std::io::Result<()> {
    match msg {
        DownMsg::Frame(f) => send(w, TAG_FRAME, 17 + f.name.len() + f.png.len(), |msg| {
            codec::put_u64(msg, f.step);
            msg.push(u8::from(f.cache_hit));
            codec::put_bytes(msg, f.name.as_bytes());
            codec::put_bytes(msg, &f.png);
        }),
        DownMsg::End => send(w, TAG_END, 0, |_| ()),
        DownMsg::Telemetry(t) => send(w, TAG_TELEMETRY, 12 + t.json.len(), |msg| {
            codec::put_u64(msg, t.seq);
            codec::put_bytes(msg, t.json.as_bytes());
        }),
    }
}

/// Read the next down message; `Ok(None)` when the service closed the
/// socket without an explicit `End`.
///
/// # Errors
/// I/O failures or a malformed frame.
pub fn read_down(r: &mut impl Read) -> std::io::Result<Option<DownMsg>> {
    let Some(mut msg) = codec::read_record(r, Prefix::U32)? else {
        return Ok(None);
    };
    let mut c = Reader::new(&msg);
    match c.u8()? {
        TAG_FRAME => {
            let (step, cache_hit) = (c.u64()?, c.u8()? != 0);
            let name = c.str()?.to_owned();
            // The PNG is most of the message: keep the buffer it arrived
            // in and cut the header off its front.
            let png_len = c.bytes()?.len();
            let end = msg.len() - c.remaining();
            msg.truncate(end);
            msg.drain(..end - png_len);
            Ok(Some(DownMsg::Frame(FrameMsg {
                step,
                cache_hit,
                name,
                png: msg,
            })))
        }
        TAG_END => Ok(Some(DownMsg::End)),
        TAG_TELEMETRY => Ok(Some(DownMsg::Telemetry(TelemetryMsg {
            seq: c.u64()?,
            json: c.str()?.to_owned(),
        }))),
        tag => Err(invalid(format!("unexpected down tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let spec = SessionSpec {
            width: 320,
            height: 240,
            camera_dir: [1.0, 0.5, -0.25],
            colormap: "viridis".into(),
            array: "velocity".into(),
        };
        let mut wire = Vec::new();
        write_hello(&mut wire, &spec, 7, false).unwrap();
        let (got, credits, follow) = read_hello(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!(got, spec);
        assert_eq!(credits, 7);
        assert!(!follow);
    }

    #[test]
    fn follow_hello_roundtrip() {
        let mut wire = Vec::new();
        write_hello(&mut wire, &SessionSpec::default(), 0, true).unwrap();
        let (_, credits, follow) = read_hello(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!(credits, 0);
        assert!(follow);
    }

    #[test]
    fn telemetry_down_roundtrip() {
        let msg = DownMsg::Telemetry(TelemetryMsg {
            seq: 42,
            json: "{\"schema\":\"nekstat/telemetry-snapshot/v1\"}".into(),
        });
        let mut wire = Vec::new();
        write_down(&mut wire, &msg).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_down(&mut cursor).unwrap(), Some(msg));
        assert_eq!(read_down(&mut cursor).unwrap(), None);
    }

    #[test]
    fn credit_and_down_roundtrip() {
        let mut wire = Vec::new();
        write_credit(&mut wire, 3).unwrap();
        assert_eq!(
            read_credit(&mut std::io::Cursor::new(&wire[..])).unwrap(),
            Some(3)
        );

        let frame = DownMsg::Frame(FrameMsg {
            step: 12,
            cache_hit: true,
            name: "pressure_000012".into(),
            png: vec![9; 100],
        });
        let mut wire = Vec::new();
        write_down(&mut wire, &frame).unwrap();
        write_down(&mut wire, &DownMsg::End).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_down(&mut cursor).unwrap(), Some(frame));
        assert_eq!(read_down(&mut cursor).unwrap(), Some(DownMsg::End));
        assert_eq!(read_down(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncated_hello_is_invalid_data() {
        let mut wire = Vec::new();
        write_hello(&mut wire, &SessionSpec::default(), 2, false).unwrap();
        wire.truncate(wire.len() - 3);
        assert!(read_hello(&mut std::io::Cursor::new(wire)).is_err());
    }
}
