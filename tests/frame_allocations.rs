//! What framing a frame costs the heap, counted by the tracking allocator
//! installed in this test binary: writing a frame copies its bytes once
//! and allocates nothing of its own, reading one back allocates the
//! buffer the payload arrives in and nothing besides, and a PNG encoded
//! into the last frame's buffer allocates nothing at all; nor does a draw
//! into a warm tile, its row bands on the pool or not.

use memtrack::alloc::{global_allocation_count, global_current, global_peak, reset_peak};
use memtrack::TrackingAllocator;
use rayon::pool;
use render::image::{encode_png, encode_png_into};
use render::raster::Tile;
use render::{Camera, Colormap, Framebuffer, TriangleSoup};
use std::sync::Barrier;
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

    // A 24 × 16 grid of quads over the whole view, two triangles each.
    let mut soup = TriangleSoup::default();
    for (i, j) in (0..24).flat_map(|i| (0..16).map(move |j| (i, j))) {
        let corner = |di: usize, dj: usize| {
            let (x, y) = ((i + di) as f64 / 12.0 - 1.0, (j + dj) as f64 / 8.0 - 1.0);
            [x, y, 0.1 * (x * y).sin()]
        };
        let (a, b, c, d) = (corner(0, 0), corner(1, 0), corner(1, 1), corner(0, 1));
        soup.positions.extend([a, b, c, a, c, d]);
        soup.scalars.extend([0.0, 0.5, 1.0, 0.0, 1.0, 0.25]);
    }
    let camera = Camera::framing([-1.0, 1.0, -1.0, 1.0, -0.1, 0.1], [0.2, 0.1, 1.0]);
    let cm = Colormap::viridis();
    let mut tile = Tile::default();
    for threads in [1, 3] {
        pool::with_threads(threads, || {
            // Hold every pool thread of this width in one job, so each has
            // made its once-per-thread start-up allocations before the count.
            let all = Barrier::new(threads);
            pool::run(threads, |_| {
                all.wait();
            });
            let draw = |tile: &mut Tile| tile.draw(&camera, &soup, &cm, (0.0, 1.0), (400, 300));
            let warm = draw(&mut tile);
            assert_eq!(warm, 2 * 24 * 16, "every triangle is in view");
            let before = global_allocation_count();
            let (grown, drawn) = peak_growth(|| draw(&mut tile));
            assert_eq!(drawn, warm);
            assert_eq!(
                (global_allocation_count() - before, grown),
                (0, 0),
                "a warm draw on {threads} threads allocated"
            );
        });
    }
}
