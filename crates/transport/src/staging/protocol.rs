//! Consumer-session protocol for the staging service.
//!
//! A consumer opens a session by sending `Hello` (its render spec plus an
//! initial credit grant), then replenishes credits as it consumes frames;
//! the service answers with `Frame` messages (one per delivered step) and
//! a final `End`. Every session runs over TCP in length-prefixed frames:
//!
//! ```text
//! [u32 len][u8 tag][body…]        len counts everything after itself
//! ```
//!
//! Up (consumer → service): tag 0 `Hello`, tag 1 `Credit`.
//! Down (service → consumer): tag 10 `Frame`, tag 11 `End`.
//! All integers little-endian, like the BP marshaling. An up record
//! with bytes past its last field is refused, not read as a shorter one.

use crate::codec::{self, PartError, Prefix, Reader, RecordIn};
use std::io::{IoSlice, Read, Write};

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

/// Service → consumer messages.
#[derive(Debug, Clone, PartialEq)]
pub enum DownMsg {
    /// One rendered step.
    Frame(FrameMsg),
    /// The stream is over; no more frames will arrive.
    End,
}

const TAG_HELLO: u8 = 0;
const TAG_CREDIT: u8 = 1;
const TAG_FRAME: u8 = 10;
const TAG_END: u8 = 11;

/// Largest image side a `Hello` may ask for: the spec sizes a
/// framebuffer on the service.
const MAX_IMAGE_SIDE: usize = 4096;

fn invalid(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// Refuse a record that holds bytes past its last field.
fn finished(c: &Reader<'_>, what: &str) -> std::io::Result<()> {
    match c.remaining() {
        0 => Ok(()),
        n => Err(invalid(format!("{n} bytes past the end of {what}"))),
    }
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

/// Write the session-opening `Hello` (spec + initial credits).
///
/// # Errors
/// I/O failures.
pub fn write_hello(w: &mut impl Write, spec: &SessionSpec, credits: u32) -> std::io::Result<()> {
    let room = 44 + spec.colormap.len() + spec.array.len();
    send(w, TAG_HELLO, room, |msg| {
        codec::put_u32(msg, spec.width as u32);
        codec::put_u32(msg, spec.height as u32);
        for d in spec.camera_dir {
            codec::put_f64(msg, d);
        }
        codec::put_bytes(msg, spec.colormap.as_bytes());
        codec::put_bytes(msg, spec.array.as_bytes());
        codec::put_u32(msg, credits);
    })
}

/// Read a `Hello` off a fresh consumer connection: the spec and the
/// initial credits.
///
/// # Errors
/// I/O failures, a non-Hello first frame, a malformed body (bytes past
/// the credits included), or a spec no session can be built from (an
/// image side of 0 or above `MAX_IMAGE_SIDE`, a non-finite camera
/// direction).
pub fn read_hello(r: &mut impl Read) -> std::io::Result<(SessionSpec, u32)> {
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
    let credits = c.u32()?;
    finished(&c, "Hello")?;
    let usable = [spec.width, spec.height]
        .iter()
        .all(|side| (1..=MAX_IMAGE_SIDE).contains(side))
        && spec.camera_dir.iter().all(|d| d.is_finite());
    if !usable {
        return Err(invalid(format!("no session can be built from {spec:?}")));
    }
    Ok((spec, credits))
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
        TAG_CREDIT => {
            let n = c.u32()?;
            finished(&c, "Credit")?;
            Ok(Some(n))
        }
        tag => Err(invalid(format!("expected Credit, got tag {tag}"))),
    }
}

/// Write a down message (frame or end-of-stream).
///
/// # Errors
/// I/O failures.
pub fn write_down(w: &mut impl Write, msg: &DownMsg) -> std::io::Result<()> {
    match msg {
        DownMsg::Frame(f) => write_frame(w, f.step, f.cache_hit, &f.name, &f.png),
        DownMsg::End => send(w, TAG_END, 0, |_| ()),
    }
}

/// Write a `Frame` message from borrowed bytes: the head from the stack,
/// the name and the PNG from where they lie, in one vectored write.
///
/// # Errors
/// I/O failures.
pub fn write_frame(
    w: &mut impl Write,
    step: u64,
    cache_hit: bool,
    name: &str,
    png: &[u8],
) -> std::io::Result<()> {
    let len = (FRAME_FIXED + name.len() + 4 + png.len()) as u32;
    let head: [u8; 4 + FRAME_FIXED] = codec::concat(&[
        &len.to_le_bytes(),
        &[TAG_FRAME],
        &step.to_le_bytes(),
        &[u8::from(cache_hit)],
        &(name.len() as u32).to_le_bytes(),
    ]);
    let png_len = (png.len() as u32).to_le_bytes();
    codec::write_all_vectored(
        w,
        &mut [
            IoSlice::new(&head),
            IoSlice::new(name.as_bytes()),
            IoSlice::new(&png_len),
            IoSlice::new(png),
        ],
    )
}

/// A `Frame` body's fixed head: tag, step, cache-hit byte, name length.
const FRAME_FIXED: usize = 1 + 8 + 1 + 4;

/// Read the next down message; `Ok(None)` when the service closed the
/// socket without an explicit `End`. A frame's PNG is read straight into
/// the buffer the [`FrameMsg`] keeps.
///
/// # Errors
/// I/O failures or a malformed frame.
pub fn read_down(r: &mut impl Read) -> std::io::Result<Option<DownMsg>> {
    let Some(mut record) = RecordIn::open(r, Prefix::U32)? else {
        return Ok(None);
    };
    let msg = parse_down(&mut record);
    record.finish(msg).map(Some)
}

fn parse_down(record: &mut RecordIn<'_, impl Read>) -> Result<DownMsg, PartError> {
    match record.array()? {
        [TAG_FRAME] => {}
        // `RecordIn::finish` reads past whatever body an `End` carries.
        [TAG_END] => return Ok(DownMsg::End),
        [tag] => {
            let what = format!("unexpected down tag {tag}");
            return Err(PartError::Malformed(invalid(what)));
        }
    }
    let head: [u8; FRAME_FIXED - 1] = record.array()?;
    let mut c = Reader::new(&head);
    let (step, cache_hit) = (c.u64()?, c.u8()? != 0);
    let name_len = c.u32()? as usize;
    let name = String::from_utf8(record.vec(name_len)?).map_err(|_| codec::Error::NotUtf8)?;
    let png_len = u32::from_le_bytes(record.array()?) as usize;
    let png = record.vec(png_len)?;
    Ok(DownMsg::Frame(FrameMsg {
        step,
        cache_hit,
        name,
        png,
    }))
}

#[cfg(test)]
pub(super) mod tests {
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
        write_hello(&mut wire, &spec, 7).unwrap();
        let (got, credits) = read_hello(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!(got, spec);
        assert_eq!(credits, 7);
    }

    /// `record` with `extra` appended to its body and its length prefix
    /// grown to match.
    pub(in crate::staging) fn with_trailing(record: &[u8], extra: u8) -> Vec<u8> {
        let len = u32::from_le_bytes(record[..4].try_into().unwrap()) + 1;
        let mut out = len.to_le_bytes().to_vec();
        out.extend_from_slice(&record[4..]);
        out.push(extra);
        out
    }

    #[test]
    fn records_with_bytes_past_their_last_field_are_refused() {
        let mut hello = Vec::new();
        write_hello(&mut hello, &SessionSpec::default(), 4).unwrap();
        // A follow `Hello` of the earlier format ended in a flag byte of 1.
        for stale in [with_trailing(&hello, 1), with_trailing(&hello, 0)] {
            let err = read_hello(&mut std::io::Cursor::new(stale)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
        let mut credit = Vec::new();
        write_credit(&mut credit, 3).unwrap();
        let long = with_trailing(&credit, 0);
        let err = read_credit(&mut std::io::Cursor::new(long)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
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
        write_hello(&mut wire, &SessionSpec::default(), 2).unwrap();
        wire.truncate(wire.len() - 3);
        assert!(read_hello(&mut std::io::Cursor::new(wire)).is_err());
    }
}
