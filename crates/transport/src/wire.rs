//! Pluggable wire engines for the staging data plane.
//!
//! The SST-analogue engine ([`crate::SstWriter`] / [`crate::SstReader`])
//! originally moved [`Packet`]s over in-process crossbeam channels only, so
//! the writer and reader could never leave one process. This module
//! factors the wire behind two small traits — [`WireTx`] on the producer
//! side, [`WireRx`] on the consumer side — with two engines:
//!
//! * **channel** ([`ChannelWireTx`] / [`ChannelWireRx`]): the original
//!   bounded crossbeam channel, delegated to verbatim. Runs with this
//!   engine are bitwise identical to the pre-refactor behavior (the
//!   scheduler-parity and golden-image suites pin that).
//! * **tcp** ([`TcpWireTx`] / [`TcpWireRx`]): the same CRC32/BP-marshaled
//!   frames as length-prefixed packets over a real socket, so the writer
//!   and reader can live in separate OS processes. The OS send buffer plus
//!   a bounded in-process forwarding queue play the staging-queue role;
//!   TCP flow control carries the back-pressure.
//!
//! The engine is selected by [`WireKind`]: a config field on the library
//! entry points, `--wire channel|tcp` on the harness binaries (channel
//! when absent).
//!
//! # Frame layout (tcp)
//!
//! ```text
//! [u32 len][u8 kind][u32 producer][u64 step][f64 time][f64 t_avail][u64 ctx][f64 t_sent][payload…]
//! ```
//!
//! `len` counts everything after itself (little-endian throughout, like
//! the BP marshaling). A connection that ends *between* frames is a clean
//! detach; one that ends *inside* a frame surfaces as
//! [`WireRecvError::ShortRead`], which the reader reports as a typed
//! [`crate::TransportError::ShortRead`] and counts under
//! `transport/short_reads`.

use crate::codec::{self, Prefix, Reader};
use crate::engine::{Packet, PacketKind};
use crossbeam_channel::{Receiver, Sender};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Which wire engine carries the staging frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireKind {
    /// In-process bounded crossbeam channel (the original engine).
    #[default]
    Channel,
    /// Length-prefixed frames over a real loopback/TCP socket.
    Tcp,
}

impl WireKind {
    /// Parse `"channel"` / `"tcp"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("channel") {
            Some(WireKind::Channel)
        } else if s.eq_ignore_ascii_case("tcp") {
            Some(WireKind::Tcp)
        } else {
            None
        }
    }

    /// Display / manifest label.
    pub fn label(&self) -> &'static str {
        match self {
            WireKind::Channel => "channel",
            WireKind::Tcp => "tcp",
        }
    }
}

/// A failed wire send; the packet rides back so its payload can be parked.
#[derive(Debug)]
pub enum WireSendError {
    /// The queue is full right now (non-blocking wires only).
    Full(Packet),
    /// A bounded blocking send ran out the real-time safety bound.
    Timeout(Packet),
    /// The peer is gone (channel disconnected / socket dead).
    Closed(Packet),
}

/// A failed wire receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRecvError {
    /// Nothing arrived within the poll interval; try again.
    Timeout,
    /// Every producer connection is gone and the queue is drained.
    Closed,
    /// A connection died mid-frame: `got` of `wanted` bytes arrived.
    ShortRead {
        /// Bytes the frame section needed.
        wanted: usize,
        /// Bytes actually read before the stream ended.
        got: usize,
    },
}

/// Producer side of a wire: carries [`Packet`]s toward one reader.
pub trait WireTx: Send {
    /// Non-blocking send (channel engines); blocking wires may block up to
    /// their configured write timeout.
    fn try_send(&mut self, packet: Packet) -> Result<(), WireSendError>;

    /// Blocking send bounded by `timeout`.
    fn send_timeout(&mut self, packet: Packet, timeout: Duration) -> Result<(), WireSendError>;

    /// True when sends may block on a real resource (socket) and must be
    /// routed through `Comm::external_wait` so the event scheduler's other
    /// ranks keep running while this one is on the wire.
    fn blocking(&self) -> bool {
        false
    }
}

/// Consumer side of a wire: yields [`Packet`]s from all producers feeding
/// this reader.
pub trait WireRx: Send {
    /// Wait up to `timeout` for the next packet.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Packet, WireRecvError>;
}

// ---------------------------------------------------------------------------
// Channel engine (the original semantics, delegated verbatim)
// ---------------------------------------------------------------------------

/// Sender half of the in-process channel engine.
pub struct ChannelWireTx(pub(crate) Sender<Packet>);

impl WireTx for ChannelWireTx {
    fn try_send(&mut self, packet: Packet) -> Result<(), WireSendError> {
        use crossbeam_channel::TrySendError;
        self.0.try_send(packet).map_err(|e| match e {
            TrySendError::Full(p) => WireSendError::Full(p),
            TrySendError::Disconnected(p) => WireSendError::Closed(p),
        })
    }

    fn send_timeout(&mut self, packet: Packet, timeout: Duration) -> Result<(), WireSendError> {
        use crossbeam_channel::SendTimeoutError;
        self.0.send_timeout(packet, timeout).map_err(|e| match e {
            SendTimeoutError::Timeout(p) => WireSendError::Timeout(p),
            SendTimeoutError::Disconnected(p) => WireSendError::Closed(p),
        })
    }
}

/// Receiver half of the in-process channel engine.
pub struct ChannelWireRx(pub(crate) Receiver<Packet>);

impl WireRx for ChannelWireRx {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Packet, WireRecvError> {
        use crossbeam_channel::RecvTimeoutError;
        self.0.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => WireRecvError::Timeout,
            RecvTimeoutError::Disconnected => WireRecvError::Closed,
        })
    }
}

// ---------------------------------------------------------------------------
// Frame codec (tcp)
// ---------------------------------------------------------------------------

const HEADER_LEN: usize = 1 + 4 + 8 + 8 + 8 + 8 + 8;

fn byte_kind(b: u8) -> Option<PacketKind> {
    match b {
        0 => Some(PacketKind::Data),
        1 => Some(PacketKind::Skip),
        2 => Some(PacketKind::Detach),
        _ => None,
    }
}

/// Serialize one packet into its wire frame (length prefix included).
pub fn encode_packet(packet: &Packet) -> Vec<u8> {
    codec::record(HEADER_LEN + packet.payload.len(), |out| {
        out.push(packet.kind as u8);
        codec::put_u32(out, packet.producer as u32);
        codec::put_u64(out, packet.step);
        codec::put_f64(out, packet.time);
        codec::put_f64(out, packet.t_avail);
        codec::put_u64(out, packet.ctx);
        codec::put_f64(out, packet.t_sent);
        out.extend_from_slice(&packet.payload);
    })
}

fn parse_packet(body: &[u8]) -> Result<Packet, codec::Error> {
    let mut r = Reader::new(body);
    Ok(Packet {
        // An unknown kind reads like a header that is not all there.
        kind: byte_kind(r.u8()?).ok_or(codec::Error::Truncated)?,
        producer: r.u32()? as usize,
        step: r.u64()?,
        time: r.f64()?,
        t_avail: r.f64()?,
        ctx: r.u64()?,
        t_sent: r.f64()?,
        payload: r.take(r.remaining())?.to_vec(),
    })
}

/// Decode one frame *body* (everything after the length prefix).
pub fn decode_packet(body: &[u8]) -> Result<Packet, WireRecvError> {
    parse_packet(body).map_err(|_| WireRecvError::ShortRead {
        wanted: HEADER_LEN,
        got: body.len(),
    })
}

/// Read one frame off a byte stream. `Ok(None)` is a clean end-of-stream
/// at a frame boundary; an end *inside* a frame is a
/// [`WireRecvError::ShortRead`]. I/O errors (reset connections) are
/// reported as short reads too — the bytes are equally gone.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Packet>, WireRecvError> {
    match codec::read_record(r, Prefix::U32) {
        Ok(Some(body)) => decode_packet(&body).map(Some),
        Ok(None) => Ok(None),
        Err(short) => Err(WireRecvError::ShortRead {
            wanted: short.wanted,
            got: short.got,
        }),
    }
}

// ---------------------------------------------------------------------------
// TCP engine
// ---------------------------------------------------------------------------

/// Producer half of the TCP engine: one connected socket per writer.
pub struct TcpWireTx {
    stream: TcpStream,
}

impl TcpWireTx {
    /// Connect to a reader's wire listener.
    ///
    /// # Errors
    /// Socket connect failures.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self { stream })
    }

    fn write_frame(&mut self, packet: Packet, timeout: Duration) -> Result<(), WireSendError> {
        let frame = encode_packet(&packet);
        self.stream.set_write_timeout(Some(timeout)).ok();
        // Any write failure — timeout included — leaves the stream
        // possibly mid-frame, so the connection is unusable either way:
        // surface it as Closed and let the circuit breaker degrade.
        match self.stream.write_all(&frame) {
            Ok(()) => Ok(()),
            Err(_) => Err(WireSendError::Closed(packet)),
        }
    }
}

impl WireTx for TcpWireTx {
    fn try_send(&mut self, packet: Packet) -> Result<(), WireSendError> {
        self.write_frame(packet, Duration::from_secs(10))
    }

    fn send_timeout(&mut self, packet: Packet, timeout: Duration) -> Result<(), WireSendError> {
        self.write_frame(packet, timeout)
    }

    fn blocking(&self) -> bool {
        true
    }
}

/// Consumer half of the TCP engine.
///
/// An accept thread takes `n_producers` connections off the listener; each
/// connection gets a framing thread that decodes packets and forwards them
/// into one bounded queue (the staging bound — TCP flow control pushes the
/// back-pressure the rest of the way to the writer). A connection ending
/// mid-frame forwards a [`WireRecvError::ShortRead`] before closing.
pub struct TcpWireRx {
    rx: Receiver<Result<Packet, WireRecvError>>,
}

impl TcpWireRx {
    /// Spawn the accept/framing threads over `listener`.
    pub fn spawn(listener: TcpListener, n_producers: usize, capacity: usize) -> Self {
        let (tx, rx) = crossbeam_channel::bounded(capacity.max(1));
        std::thread::spawn(move || {
            let mut conns = Vec::new();
            for _ in 0..n_producers {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nodelay(true).ok();
                        let tx = tx.clone();
                        conns.push(std::thread::spawn(move || forward_frames(stream, tx)));
                    }
                    Err(_) => break,
                }
            }
            drop(tx); // reader sees Closed once every framing thread exits
            for c in conns {
                let _ = c.join();
            }
        });
        Self { rx }
    }
}

fn forward_frames(mut stream: TcpStream, tx: Sender<Result<Packet, WireRecvError>>) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(packet)) => {
                if tx.send(Ok(packet)).is_err() {
                    return; // reader gone
                }
            }
            Ok(None) => return, // clean detach at a frame boundary
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

impl WireRx for TcpWireRx {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Packet, WireRecvError> {
        use crossbeam_channel::RecvTimeoutError;
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(packet)) => Ok(packet),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Err(WireRecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(WireRecvError::Closed),
        }
    }
}

/// Bind a loopback listener on an ephemeral port; returns it with the
/// chosen port.
///
/// # Errors
/// Socket bind failures.
pub fn loopback_listener() -> std::io::Result<(TcpListener, u16)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let port = listener.local_addr()?.port();
    Ok((listener, port))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: PacketKind, payload: Vec<u8>) -> Packet {
        Packet {
            kind,
            producer: 3,
            step: 42,
            time: 0.125,
            t_avail: 7.5,
            ctx: 0x8000_0123_4567_89ab,
            t_sent: 0.0625,
            payload,
        }
    }

    #[test]
    fn codec_roundtrips_all_kinds() {
        for kind in [PacketKind::Data, PacketKind::Skip, PacketKind::Detach] {
            let p = sample(kind, vec![1, 2, 3, 4, 5]);
            let frame = encode_packet(&p);
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len, frame.len() - 4);
            let q = decode_packet(&frame[4..]).expect("decode");
            assert_eq!(q.kind, p.kind);
            assert_eq!(q.producer, p.producer);
            assert_eq!(q.step, p.step);
            assert_eq!(q.time.to_bits(), p.time.to_bits());
            assert_eq!(q.t_avail.to_bits(), p.t_avail.to_bits());
            assert_eq!(q.ctx, p.ctx);
            assert_eq!(q.t_sent.to_bits(), p.t_sent.to_bits());
            assert_eq!(q.payload, p.payload);
        }
    }

    #[test]
    fn truncated_body_is_a_short_read() {
        let frame = encode_packet(&sample(PacketKind::Data, vec![9; 16]));
        let err = decode_packet(&frame[4..HEADER_LEN]).unwrap_err();
        assert!(matches!(err, WireRecvError::ShortRead { .. }));
    }

    #[test]
    fn stream_reader_handles_coalesced_and_truncated_frames() {
        let a = encode_packet(&sample(PacketKind::Data, vec![1; 8]));
        let b = encode_packet(&sample(PacketKind::Skip, Vec::new()));
        // Two frames coalesced plus a truncated third.
        let c = encode_packet(&sample(PacketKind::Data, vec![2; 32]));
        let mut wire = Vec::new();
        wire.extend_from_slice(&a);
        wire.extend_from_slice(&b);
        wire.extend_from_slice(&c[..c.len() - 5]);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().payload, vec![1; 8]);
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap().kind,
            PacketKind::Skip
        );
        let err = read_frame(&mut cursor).unwrap_err();
        match err {
            WireRecvError::ShortRead { wanted, got } => {
                assert_eq!(wanted, c.len() - 4);
                assert_eq!(got, c.len() - 4 - 5);
            }
            other => panic!("expected short read, got {other:?}"),
        }
        // Clean EOF after the failure point.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn wire_kind_parsing() {
        assert_eq!(WireKind::parse("tcp"), Some(WireKind::Tcp));
        assert_eq!(WireKind::parse("Channel"), Some(WireKind::Channel));
        assert_eq!(WireKind::parse("carrier-pigeon"), None);
        assert_eq!(WireKind::default().label(), "channel");
        assert_eq!(WireKind::Tcp.label(), "tcp");
    }

    #[test]
    fn tcp_wire_moves_packets_between_threads() {
        let (listener, port) = loopback_listener().unwrap();
        let mut rx = TcpWireRx::spawn(listener, 1, 8);
        let mut tx = TcpWireTx::connect(&format!("127.0.0.1:{port}")).unwrap();
        for step in 0..5u64 {
            let mut p = sample(PacketKind::Data, vec![step as u8; 64]);
            p.step = step;
            tx.try_send(p).unwrap();
        }
        drop(tx);
        for step in 0..5u64 {
            let p = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(p.step, step);
            assert_eq!(p.payload, vec![step as u8; 64]);
        }
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            WireRecvError::Closed
        );
    }
}
