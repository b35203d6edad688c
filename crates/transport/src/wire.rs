//! The wire under the staging data plane: how a [`Packet`] gets from an
//! [`crate::SstWriter`] to its [`crate::SstReader`].
//!
//! The reader side is one struct, [`WireRx`]: the receiving end of a
//! bounded queue of `Result<Packet, WireRecvError>`. The two engines,
//! selected by [`WireKind`] (a config field on the library entry points,
//! `--wire channel|tcp` on the harness binaries, channel when absent),
//! differ in who pushes into it:
//!
//! * **channel**: the writer pushes `Ok(packet)` itself, so the queue is
//!   the staging queue and finding it full is the back-pressure signal.
//! * **tcp** ([`TcpWireTx`]): the writer sends the same CRC32/BP-marshaled
//!   payload as a length-prefixed frame over a real socket, so it can live
//!   in another OS process; a framing thread per connection pushes what it
//!   reads — a packet, or the short read the connection ended on. The OS
//!   send buffer plus the queue play the staging-queue role; TCP flow
//!   control carries the back-pressure.
//!
//! The producer side is a trait, [`WireTx`]: two different send paths, and
//! the engine's tests substitute a third. The queue is here because `std`
//! has no bounded send with a timeout that hands the packet back — the
//! wedged-reader guard behind [`crate::WriterConfig::enqueue_timeout_ms`].
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
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which wire engine carries the staging frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireKind {
    /// In-process bounded queue (the original engine).
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

/// The reader half of the TCP engine: an accept thread takes
/// `n_producers` connections off `listener`; each connection gets a
/// framing thread that decodes packets and pushes them into one queue of
/// `capacity` (the staging bound — TCP flow control pushes the
/// back-pressure the rest of the way to the writer). A connection ending
/// mid-frame pushes a [`WireRecvError::ShortRead`] before closing.
pub(crate) fn tcp_rx(listener: TcpListener, n_producers: usize, capacity: usize) -> WireRx {
    let (tx, rx) = queue(capacity);
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
    rx
}

fn forward_frames(mut stream: TcpStream, tx: QueueTx) {
    // Ends at a clean detach (`None`), after the error the connection died
    // on, or when the reader is gone.
    while let Some(item) = read_frame(&mut stream).transpose() {
        let last = item.is_err();
        if tx.push(item, None).is_err() || last {
            return;
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

// ---------------------------------------------------------------------------
// The queue under both engines (and the channel engine's sender)
// ---------------------------------------------------------------------------

type Item = Result<Packet, WireRecvError>;

/// Bounded, many producers, one consumer. No guard is held across code
/// that can panic, so the mutex is never poisoned.
struct Queue {
    capacity: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<Item>,
    senders: usize,
    reader_gone: bool,
}

/// A wire queue holding at most `capacity` items (at least one).
pub(crate) fn queue(capacity: usize) -> (QueueTx, WireRx) {
    let q = Arc::new(Queue {
        capacity: capacity.max(1),
        state: Mutex::default(),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (QueueTx::new(&q), WireRx(q))
}

/// A producer's end of the queue: each channel-engine writer holds one (it
/// is that engine's [`WireTx`]), and so does each tcp framing thread.
pub(crate) struct QueueTx(Arc<Queue>);

impl QueueTx {
    fn new(q: &Arc<Queue>) -> Self {
        q.state.lock().unwrap().senders += 1;
        QueueTx(Arc::clone(q))
    }

    /// Push `item`, waiting for a free slot for at most `wait` (`None`:
    /// until there is one). A failed push hands the item back with whether
    /// the reader is gone (`true`) or the queue stayed full (`false`).
    fn push(&self, item: Item, wait: Option<Duration>) -> Result<(), (Item, bool)> {
        let q = &*self.0;
        let deadline = wait.map(|w| Instant::now() + w);
        let mut st = q.state.lock().unwrap();
        loop {
            if st.reader_gone {
                return Err((item, true));
            }
            if st.items.len() < q.capacity {
                st.items.push_back(item);
                q.not_empty.notify_one();
                return Ok(());
            }
            st = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => q.not_full.wait(st).unwrap(),
                Some(left) if left.is_zero() => return Err((item, false)),
                Some(left) => q.not_full.wait_timeout(st, left).unwrap().0,
            };
        }
    }
}

impl Clone for QueueTx {
    fn clone(&self) -> Self {
        Self::new(&self.0)
    }
}

impl Drop for QueueTx {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap();
        st.senders -= 1;
        if st.senders == 0 {
            self.0.not_empty.notify_all();
        }
    }
}

impl WireTx for QueueTx {
    fn try_send(&mut self, packet: Packet) -> Result<(), WireSendError> {
        match self.send_timeout(packet, Duration::ZERO) {
            Err(WireSendError::Timeout(p)) => Err(WireSendError::Full(p)),
            sent => sent,
        }
    }

    fn send_timeout(&mut self, packet: Packet, timeout: Duration) -> Result<(), WireSendError> {
        let Err((item, closed)) = self.push(Ok(packet), Some(timeout)) else {
            return Ok(());
        };
        let packet = item.expect("a packet was pushed");
        Err(match closed {
            true => WireSendError::Closed(packet),
            false => WireSendError::Timeout(packet),
        })
    }
}

/// Consumer side of a wire: the queue's one receiving end, yielding the
/// packets of every producer that feeds this reader. Dropping it is what
/// a producer sees as [`WireSendError::Closed`].
pub struct WireRx(Arc<Queue>);

impl WireRx {
    /// Wait up to `timeout` for the next packet.
    ///
    /// # Errors
    /// [`WireRecvError::Timeout`] when nothing arrived in time,
    /// [`WireRecvError::Closed`] once every producer is gone *and* the
    /// backlog is drained, or the [`WireRecvError::ShortRead`] a TCP
    /// connection ended on.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Packet, WireRecvError> {
        let q = &*self.0;
        let deadline = Instant::now() + timeout;
        let mut st = q.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                q.not_full.notify_one();
                return item;
            }
            if st.senders == 0 {
                return Err(WireRecvError::Closed);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(WireRecvError::Timeout);
            }
            st = q.not_empty.wait_timeout(st, left).unwrap().0;
        }
    }
}

impl Drop for WireRx {
    fn drop(&mut self) {
        self.0.state.lock().unwrap().reader_gone = true;
        self.0.not_full.notify_all();
    }
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
        let mut rx = tcp_rx(listener, 1, 8);
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
    fn numbered(step: u64) -> Packet {
        Packet {
            step,
            ..sample(PacketKind::Data, vec![step as u8])
        }
    }

    #[test]
    fn full_queue_hands_the_packet_back() {
        let (mut tx, rx) = queue(2);
        tx.try_send(numbered(0)).unwrap();
        tx.try_send(numbered(1)).unwrap();
        match tx.try_send(numbered(2)) {
            Err(WireSendError::Full(p)) => assert_eq!(p.step, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        let start = Instant::now();
        match tx.send_timeout(numbered(3), Duration::from_millis(20)) {
            Err(WireSendError::Timeout(p)) => assert_eq!((p.step, p.payload), (3, vec![3])),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
        drop(rx);
        for sent in [
            tx.try_send(numbered(4)),
            tx.send_timeout(numbered(4), Duration::from_secs(5)),
        ] {
            match sent {
                Err(WireSendError::Closed(p)) => assert_eq!(p.step, 4),
                other => panic!("expected Closed, got {other:?}"),
            }
        }
    }

    #[test]
    fn backlog_is_drained_before_closed() {
        let (mut tx, mut rx) = queue(4);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)).unwrap_err(),
            WireRecvError::Timeout
        );
        let mut tx2 = tx.clone();
        tx.try_send(numbered(7)).unwrap();
        tx2.try_send(numbered(8)).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv_timeout(Duration::ZERO).unwrap().step, 7);
        assert_eq!(rx.recv_timeout(Duration::ZERO).unwrap().step, 8);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            WireRecvError::Closed
        );
    }

    #[test]
    fn blocked_senders_wake_on_a_free_slot_and_on_a_dropped_reader() {
        let (tx, mut rx) = queue(1);
        tx.push(Ok(numbered(0)), None).unwrap();
        let blocked = |step| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                tx.push(Ok(numbered(step)), None)
                    .map_err(|(_, closed)| closed)
            })
        };
        let first = blocked(1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().step, 0);
        assert_eq!(first.join().unwrap(), Ok(()));
        let second = blocked(2);
        // Whether or not `second` is parked yet, the drop must release it.
        std::thread::sleep(Duration::from_millis(10));
        drop(rx);
        assert_eq!(second.join().unwrap(), Err(true));
    }

    #[test]
    fn two_concurrent_senders_stay_fifo_per_producer() {
        const N: u64 = 200;
        let (tx, mut rx) = queue(3);
        let senders: Vec<_> = (0..2usize)
            .map(|producer| {
                let mut tx = tx.clone();
                std::thread::spawn(move || {
                    for step in 0..N {
                        let p = Packet {
                            producer,
                            ..numbered(step)
                        };
                        tx.send_timeout(p, Duration::from_secs(5)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; 2];
        while let Ok(p) = rx.recv_timeout(Duration::from_secs(5)) {
            assert_eq!(p.step, next[p.producer], "producer {}", p.producer);
            next[p.producer] += 1;
        }
        assert_eq!(next, [N, N]);
        for s in senders {
            s.join().unwrap();
        }
    }
}
