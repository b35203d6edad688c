//! The two TCP formats — wire frames and staging down messages — against
//! reference encoders and decoders that build each frame in one buffer
//! and read it whole. The senders write a header and the payload it heads
//! in one vectored write, and the readers read the payload straight into
//! the buffer that carries it on; neither may move a byte.
//!
//! * Every sender emits exactly the reference bytes, through a writer
//!   that takes everything at once, one that takes seven bytes a call,
//!   and a real socket.
//! * Every truncation, and one bit flip at every byte, of a recorded
//!   three-frame stream reads exactly as the reference reader reads it,
//!   and never panics. A cut inside a frame is a short read of that
//!   frame's declared body with the bytes that are there.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;
use transport::engine::{Packet, PacketKind};
use transport::staging::protocol::{read_down, write_down, write_frame, DownMsg};
use transport::wire::{encode_packet, read_frame, write_packet, TcpWireTx, WireRecvError};
use transport::{FrameMsg, WireTx};

/// The one-buffer encoders and readers: a frame is built with its length
/// patched in at the front, and read whole and then cut up.
mod reference {
    use super::*;

    pub const HEADER_LEN: usize = 45;

    fn record(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = vec![0; 4];
        body(&mut out);
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        out.extend_from_slice(b);
    }

    pub fn encode_packet(p: &Packet) -> Vec<u8> {
        record(|out| {
            out.push(p.kind as u8);
            out.extend_from_slice(&(p.producer as u32).to_le_bytes());
            out.extend_from_slice(&p.step.to_le_bytes());
            out.extend_from_slice(&p.time.to_le_bytes());
            out.extend_from_slice(&p.t_avail.to_le_bytes());
            out.extend_from_slice(&p.ctx.to_le_bytes());
            out.extend_from_slice(&p.t_sent.to_le_bytes());
            out.extend_from_slice(&p.payload);
        })
    }

    pub fn write_down(msg: &DownMsg) -> Vec<u8> {
        match msg {
            DownMsg::Frame(f) => record(|out| {
                out.push(10);
                out.extend_from_slice(&f.step.to_le_bytes());
                out.push(u8::from(f.cache_hit));
                put_bytes(out, f.name.as_bytes());
                put_bytes(out, &f.png);
            }),
            DownMsg::End => record(|out| out.push(11)),
        }
    }

    /// `Ok(None)`: a clean end; `Err((wanted, got))`: a torn prefix or body.
    fn read_record(r: &mut &[u8]) -> Result<Option<Vec<u8>>, (usize, usize)> {
        if r.is_empty() {
            return Ok(None);
        }
        if r.len() < 4 {
            return Err((4, std::mem::take(r).len()));
        }
        let len = u32::from_le_bytes(r[..4].try_into().unwrap()) as usize;
        *r = &r[4..];
        if r.len() < len {
            return Err((len, std::mem::take(r).len()));
        }
        let (body, rest) = r.split_at(len);
        *r = rest;
        Ok(Some(body.to_vec()))
    }

    pub fn read_frame(r: &mut &[u8]) -> Result<Option<Packet>, WireRecvError> {
        let body = match read_record(r) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(None),
            Err((wanted, got)) => return Err(WireRecvError::ShortRead { wanted, got }),
        };
        let not_a_header = WireRecvError::ShortRead {
            wanted: HEADER_LEN,
            got: body.len(),
        };
        if body.len() < HEADER_LEN {
            return Err(not_a_header);
        }
        let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        let kind = match body[0] {
            0 => PacketKind::Data,
            1 => PacketKind::Skip,
            2 => PacketKind::Detach,
            _ => return Err(not_a_header),
        };
        Ok(Some(Packet {
            kind,
            producer: u32::from_le_bytes(body[1..5].try_into().unwrap()) as usize,
            step: u64_at(5),
            time: f64::from_bits(u64_at(13)),
            t_avail: f64::from_bits(u64_at(21)),
            ctx: u64_at(29),
            t_sent: f64::from_bits(u64_at(37)),
            payload: body[HEADER_LEN..].to_vec(),
        }))
    }

    /// What went wrong, as the product reports it: the error kind and
    /// message.
    pub type DownError = (std::io::ErrorKind, String);

    fn take<'a>(c: &mut &'a [u8], n: usize) -> Result<&'a [u8], DownError> {
        if c.len() < n {
            let what = "malformed message: Truncated".to_string();
            return Err((std::io::ErrorKind::InvalidData, what));
        }
        let (head, tail) = c.split_at(n);
        *c = tail;
        Ok(head)
    }

    pub fn read_down(r: &mut &[u8]) -> Result<Option<DownMsg>, DownError> {
        let body = match read_record(r) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(None),
            Err((wanted, got)) => {
                let what = format!("record ended after {got} of {wanted} bytes");
                return Err((std::io::ErrorKind::UnexpectedEof, what));
            }
        };
        let not_utf8 = || {
            let what = "malformed message: NotUtf8".to_string();
            (std::io::ErrorKind::InvalidData, what)
        };
        let mut c = &body[..];
        let tag = take(&mut c, 1)?[0];
        match tag {
            10 => {
                let step = u64::from_le_bytes(take(&mut c, 8)?.try_into().unwrap());
                let cache_hit = take(&mut c, 1)?[0] != 0;
                let n = u32::from_le_bytes(take(&mut c, 4)?.try_into().unwrap()) as usize;
                let name = std::str::from_utf8(take(&mut c, n)?)
                    .map_err(|_| not_utf8())?
                    .to_owned();
                let n = u32::from_le_bytes(take(&mut c, 4)?.try_into().unwrap()) as usize;
                let png = take(&mut c, n)?.to_vec();
                Ok(Some(DownMsg::Frame(FrameMsg {
                    step,
                    cache_hit,
                    name,
                    png,
                })))
            }
            11 => Ok(Some(DownMsg::End)),
            tag => Err((
                std::io::ErrorKind::InvalidData,
                format!("unexpected down tag {tag}"),
            )),
        }
    }
}

/// A writer that takes at most seven bytes a call, vectored or not.
#[derive(Default)]
struct Trickle(Vec<u8>);

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(7);
        self.0.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn packet(kind: PacketKind, payload: Vec<u8>) -> Packet {
    Packet {
        kind,
        producer: 5,
        step: 0x0123_4567_89ab_cdef,
        time: 0.375,
        t_avail: -2.5e-3,
        ctx: 0x8000_0000_dead_beef,
        t_sent: 1.0 / 3.0,
        payload,
    }
}

/// `n` bytes that differ from their neighbours, seeded.
fn patterned(n: usize, seed: u32) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 24) as u8
        })
        .collect()
}

fn frame(step: u64, cache_hit: bool, name: &str, png: Vec<u8>) -> DownMsg {
    DownMsg::Frame(FrameMsg {
        step,
        cache_hit,
        name: name.into(),
        png,
    })
}

/// What one socket carried from `send`, which connects to the address it
/// is given, read raw on the accepting side.
fn over_a_socket(send: impl FnOnce(String) + Send + 'static) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback");
    let addr = listener.local_addr().expect("bound").to_string();
    let sender = std::thread::spawn(move || send(addr));
    let (mut conn, _) = listener.accept().expect("accept");
    let mut got = Vec::new();
    conn.read_to_end(&mut got).expect("read to the end");
    sender.join().expect("the sender finished");
    got
}

#[test]
fn vectored_senders_write_the_bytes_of_the_one_buffer_encoders() {
    const MIB: usize = 1 << 20;
    for kind in [PacketKind::Data, PacketKind::Skip, PacketKind::Detach] {
        for len in [0, MIB] {
            let p = packet(kind, patterned(len, len as u32 + kind as u32));
            let want = reference::encode_packet(&p);
            assert!(
                encode_packet(&p) == want,
                "{kind:?} {len}: encode_packet differs"
            );
            let mut trickle = Trickle::default();
            write_packet(&mut trickle, &p).unwrap();
            assert!(trickle.0 == want, "{kind:?} {len}: trickled bytes differ");
            let sent = p.clone();
            let socket = over_a_socket(move |addr| {
                let mut tx = TcpWireTx::connect(&addr).unwrap();
                tx.send(sent, Duration::from_secs(10)).unwrap();
            });
            assert!(socket == want, "{kind:?} {len}: TcpWireTx bytes differ");
        }
    }

    for msg in [
        frame(12, true, "pressure_slice_000012", patterned(MIB, 3)),
        frame(0, false, "", Vec::new()),
        DownMsg::End,
    ] {
        let want = reference::write_down(&msg);
        let mut whole = Vec::new();
        write_down(&mut whole, &msg).unwrap();
        assert!(whole == want, "{} bytes differ", want.len());
        let mut trickle = Trickle::default();
        write_down(&mut trickle, &msg).unwrap();
        assert!(trickle.0 == want, "{} trickled bytes differ", want.len());
        let sent = msg.clone();
        let socket = over_a_socket(move |addr| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write_down(&mut s, &sent).unwrap();
        });
        assert!(socket == want, "{} socket bytes differ", want.len());
        if let DownMsg::Frame(f) = &msg {
            let mut borrowed = Vec::new();
            write_frame(&mut borrowed, f.step, f.cache_hit, &f.name, &f.png).unwrap();
            assert!(borrowed == want, "write_frame differs from write_down");
        }
    }
}

/// Three packets, the middle one a control marker, in one stream.
fn recorded_wire_stream() -> (Vec<u8>, Vec<usize>) {
    let packets = [
        packet(PacketKind::Data, patterned(150, 1)),
        packet(PacketKind::Skip, Vec::new()),
        packet(PacketKind::Data, patterned(90, 2)),
    ];
    let frames: Vec<Vec<u8>> = packets.iter().map(encode_packet).collect();
    (frames.concat(), frames.iter().map(Vec::len).collect())
}

/// Three frames and the end of the stream.
fn recorded_down_stream() -> (Vec<u8>, Vec<usize>) {
    let msgs = [
        frame(1, false, "pressure_slice_000001", patterned(120, 4)),
        frame(1, true, "velocity_contour_000001", patterned(70, 5)),
        frame(2, false, "pressure_slice_000002", patterned(100, 6)),
        DownMsg::End,
    ];
    let records: Vec<Vec<u8>> = msgs.iter().map(reference::write_down).collect();
    (records.concat(), records.iter().map(Vec::len).collect())
}

/// Read `stream` to its end with `read`, collecting every result up to and
/// including the first error.
fn read_all<T, E>(
    stream: &[u8],
    read: impl Fn(&mut &[u8]) -> Result<Option<T>, E>,
) -> Vec<Result<T, E>> {
    let mut r = stream;
    let mut out = Vec::new();
    loop {
        match read(&mut r) {
            Ok(Some(item)) => out.push(Ok(item)),
            Ok(None) => return out,
            Err(e) => {
                out.push(Err(e));
                return out;
            }
        }
    }
}

fn wire_results(stream: &[u8]) -> Vec<Result<String, WireRecvError>> {
    read_all(stream, |r| read_frame(r))
        .into_iter()
        .map(|res| res.map(|p| format!("{p:?}")))
        .collect()
}

fn down_results(stream: &[u8]) -> Vec<Result<DownMsg, reference::DownError>> {
    read_all(stream, |r| {
        read_down(r).map_err(|e| (e.kind(), e.to_string()))
    })
}

/// Where a cut at `cut` falls: the frame it is inside and the bytes of
/// that frame before it.
fn cut_inside(lens: &[usize], cut: usize) -> Option<(usize, usize)> {
    let mut start = 0;
    for (k, &len) in lens.iter().enumerate() {
        if cut < start + len {
            return (cut > start).then_some((k, cut - start));
        }
        start += len;
    }
    None
}

#[test]
fn every_cut_and_bit_flip_of_a_three_frame_stream_reads_as_the_reference_reads_it() {
    let (wire, lens) = recorded_wire_stream();
    let (down, down_lens) = recorded_down_stream();
    for cut in 0..=wire.len() {
        let got = wire_results(&wire[..cut]);
        let want: Vec<_> = read_all(&wire[..cut], reference::read_frame)
            .into_iter()
            .map(|res| res.map(|p| format!("{p:?}")))
            .collect();
        assert_eq!(got, want, "wire cut at {cut}");
        if let Some((k, into)) = cut_inside(&lens, cut) {
            let last = got.last().expect("a result per frame");
            let (wanted, present) = match into {
                1..4 => (4, into),
                _ => (lens[k] - 4, into - 4),
            };
            assert_eq!(got.len(), k + 1, "wire cut at {cut}");
            assert_eq!(
                last,
                &Err(WireRecvError::ShortRead {
                    wanted,
                    got: present
                }),
                "wire cut at {cut}, {into} bytes into frame {k}"
            );
        }
    }
    for cut in 0..=down.len() {
        let got = down_results(&down[..cut]);
        assert_eq!(
            got,
            read_all(&down[..cut], reference::read_down),
            "down cut at {cut}"
        );
        if let Some((k, into)) = cut_inside(&down_lens, cut) {
            let (wanted, present) = match into {
                1..4 => (4, into),
                _ => (down_lens[k] - 4, into - 4),
            };
            let what = format!("record ended after {present} of {wanted} bytes");
            let last = got.last().expect("a result per message");
            assert_eq!(
                last,
                &Err((std::io::ErrorKind::UnexpectedEof, what)),
                "down cut at {cut}"
            );
        }
    }
    for at in 0..wire.len() {
        let mut flipped = wire.clone();
        flipped[at] ^= 1 << (at % 8);
        let want: Vec<_> = read_all(&flipped, reference::read_frame)
            .into_iter()
            .map(|res| res.map(|p| format!("{p:?}")))
            .collect();
        assert_eq!(wire_results(&flipped), want, "wire bit flip at byte {at}");
    }
    for at in 0..down.len() {
        let mut flipped = down.clone();
        flipped[at] ^= 1 << (at % 8);
        let want = read_all(&flipped, reference::read_down);
        assert_eq!(down_results(&flipped), want, "down bit flip at byte {at}");
    }
}
