//! What framing a frame costs the heap, counted by the tracking allocator
//! installed in this test binary: writing a frame copies its bytes once
//! and allocates nothing of its own, reading one back allocates the
//! buffer the payload arrives in and nothing besides, and a PNG encoded
//! into the last frame's buffer allocates nothing at all.

use memtrack::alloc::{global_allocation_count, global_current, global_peak, reset_peak};
use memtrack::TrackingAllocator;
use render::image::{encode_png, encode_png_into};
use render::Framebuffer;
use transport::engine::{Packet, PacketKind};
use transport::staging::protocol::{read_down, write_frame, DownMsg};
use transport::wire::{read_frame, write_packet};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

const MIB: usize = 1 << 20;

/// Room for bookkeeping that is not the frame: a header, a name.
const SLACK: u64 = 4 << 10;

/// Peak heap growth over `f`, and its result.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (u64, T) {
    reset_peak();
    let base = global_current();
    let out = f();
    (global_peak() - base, out)
}

/// The counters are process-global, so everything runs in one `#[test]`:
/// libtest reports one test's result on its main thread while the next
/// runs, and that would land between two reads.
#[test]
fn frames_cost_the_heap_one_payload_buffer() {
    let payload: Vec<u8> = (0..MIB).map(|i| (i * 7 % 251) as u8).collect();
    let packet = Packet {
        kind: PacketKind::Data,
        producer: 1,
        step: 9,
        time: 0.5,
        t_avail: 0.75,
        ctx: 0,
        t_sent: 0.25,
        payload,
    };

    // Framing into a sink with room writes the bytes and allocates none.
    let mut sink = Vec::with_capacity(2 * MIB);
    let (grown, written) = peak_growth(|| write_packet(&mut sink, &packet));
    written.expect("a Vec takes every byte");
    assert!(grown < SLACK, "framing 1 MiB grew the heap {grown} B");
    assert_eq!(sink.len(), 4 + 45 + MIB);

    // Reading it back allocates the payload's buffer, grown in exact steps
    // no further ahead of the arrived bytes than the reader allows.
    let (grown, read) = peak_growth(|| read_frame(&mut &sink[..]));
    let back = read.expect("a whole frame").expect("one frame");
    assert!(back.payload == packet.payload);
    assert_eq!(back.payload.capacity(), MIB, "the payload buffer is exact");
    assert!(
        grown <= 2 * MIB as u64 + SLACK,
        "reading 1 MiB grew the heap {grown} B"
    );
    drop(back);

    // The same for a staging frame and its PNG.
    let mut sink = Vec::with_capacity(2 * MIB);
    let (grown, written) =
        peak_growth(|| write_frame(&mut sink, 3, true, "pressure_slice_000003", &packet.payload));
    written.expect("a Vec takes every byte");
    assert!(grown < SLACK, "framing a 1 MiB PNG grew the heap {grown} B");
    let (grown, read) = peak_growth(|| read_down(&mut &sink[..]));
    let Some(DownMsg::Frame(frame)) = read.expect("a whole message") else {
        panic!("expected a frame");
    };
    assert!(frame.png == packet.payload);
    assert_eq!(frame.png.capacity(), MIB, "the PNG buffer is exact");
    assert!(
        grown <= 2 * MIB as u64 + SLACK,
        "reading a 1 MiB PNG grew the heap {grown} B"
    );

    // A PNG encoded into the last frame's buffer allocates nothing.
    let mut fb = Framebuffer::new(800, 600);
    let mut png = encode_png(&fb);
    fb.color[12_345] = [200, 100, 50];
    let before = global_allocation_count();
    encode_png_into(&fb, &mut png);
    assert_eq!(global_allocation_count(), before, "encoding allocated");
    assert_eq!(png, encode_png(&fb));
}
