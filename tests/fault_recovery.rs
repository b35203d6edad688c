//! Integration: fault injection and the degradation ladder end to end —
//! endpoint crash → BP file fallback, CRC rejection → retransmit,
//! partial-step analysis, and determinism of the fault schedule.

use commsim::{run_ranks_with_state, EndpointCrash, FaultPlan, LinkFaultSpec, MachineModel};
use nek_sensei::{run_intransit, EndpointMode, InTransitConfig};
use sem::cases::{rbc, CaseParams};
use transport::{crc32, BpFileReader, QueuePolicy, StagingLink, StagingNetwork, WriterConfig};

fn faulty_config(steps: usize, faults: FaultPlan) -> InTransitConfig {
    let mut params = CaseParams::rbc_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    InTransitConfig {
        case: rbc(&params, 1e4, 0.7),
        sim_ranks: 4,
        ratio: 4,
        steps,
        trigger_every: 2,
        machine: MachineModel::juwels_booster(),
        link: StagingLink::ucx_hdr200(),
        queue_capacity: 8,
        policy: QueuePolicy::Block,
        mode: EndpointMode::Checkpointing,
        sched: Default::default(),
        wire: Default::default(),
        staging_consumers: 0,
        staging_dir: None,
        image_size: (64, 48),
        output_dir: None,
        faults,
        writer_config: WriterConfig::default(),
        fallback_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nek-sensei-fault-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn endpoint_crash_degrades_to_checkpointing_with_zero_lost_triggers() {
    let dir = scratch_dir("crash");
    let mut cfg = faulty_config(
        10, // triggers at 2,4,6,8,10
        FaultPlan {
            crashes: vec![EndpointCrash {
                endpoint: 0,
                at_step: 3,
            }],
            ..FaultPlan::default()
        },
    );
    cfg.fallback_dir = Some(dir.clone());
    let r = run_intransit(&cfg);

    assert_eq!(r.endpoint_crashes, 1, "scheduled crash must fire");
    let d = r.degradation;
    assert_eq!(d.lost_steps, 0, "a dead endpoint must not lose triggers");
    assert!(d.degraded(), "all producers must switch to the file engine");
    assert_eq!(d.degraded_producers, 4);
    assert_eq!(
        d.staged_steps + d.parked_steps,
        5 * 4,
        "every trigger staged or parked"
    );
    // Every parked trigger reads back through the BP file engine.
    let mut parked_on_disk = 0;
    for producer in 0..4 {
        let path = dir.join(format!("producer_{producer:05}.bp4l"));
        let mut reader = BpFileReader::open(&path).expect("fallback file");
        while let Some(sd) = reader.next_step().expect("valid BP frame") {
            assert!(sd.step > 0);
            parked_on_disk += 1;
        }
    }
    assert_eq!(parked_on_disk, d.parked_steps);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_frames_are_crc_rejected_and_retransmitted_end_to_end() {
    let r = run_intransit(&faulty_config(
        8, // triggers at 2,4,6,8
        FaultPlan::with_link(
            5,
            LinkFaultSpec {
                corrupt_prob: 0.3,
                ..LinkFaultSpec::default()
            },
        ),
    ));
    assert!(
        r.endpoint_corrupt_rejected > 0,
        "30% corruption must reject some frames"
    );
    assert!(r.degradation.retries > 0, "rejected frames are retried");
    // Retransmits absorb every corruption: the endpoint still assembles
    // and analyses every triggered step in full.
    assert_eq!(r.endpoint_steps, 4);
    assert_eq!(r.endpoint_partial_steps, 0);
    assert_eq!(r.degradation.lost_steps, 0);
    assert!(!r.degradation.degraded());
    assert!(r.endpoint_bytes_written > 0, "checkpoints written");
}

#[test]
fn exhausted_retries_yield_partial_steps_that_still_render() {
    // A drop rate high enough that some producer exhausts its 4 attempts
    // on some step (seed-pinned), but not enough to trip any breaker.
    let r = run_intransit(&faulty_config(
        12, // triggers at 2,4,...,12
        FaultPlan::with_link(
            3,
            LinkFaultSpec {
                drop_prob: 0.5,
                ..LinkFaultSpec::default()
            },
        ),
    ));
    assert!(
        r.endpoint_partial_steps > 0,
        "seed 3 at 50% drop must produce a partial step"
    );
    assert!(
        r.degradation.lost_steps > 0,
        "the skipped trigger is lost writer-side"
    );
    // The endpoint keeps analysing: every trigger is processed, partially
    // or in full, and the stream runs to completion.
    assert_eq!(r.endpoint_steps, 6);
    assert!(!r.degradation.degraded(), "no breaker trip at this rate");
    assert!(r.endpoint_bytes_written > 0);
}

/// CRC-framed payload as the staging engine expects it.
fn framed_payload(tag: u8) -> Vec<u8> {
    let mut body = vec![tag; 64];
    let crc = crc32(&body).to_le_bytes();
    body.extend_from_slice(&crc);
    body
}

/// Engine-level run under `plan`: 2 producers feed 1 endpoint for
/// `steps` steps; returns the delivered `(step, missing)` log.
fn delivered_log(plan: FaultPlan, steps: u64) -> Vec<(u64, Vec<usize>)> {
    let (writers, readers) = StagingNetwork::build_faulty(2, 1, 64, StagingLink::test_tiny(), plan);
    let reader_thread = std::thread::spawn(move || {
        run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, mut reader| {
            let mut log = Vec::new();
            while let Some(d) = reader.recv_step(comm).unwrap() {
                log.push((d.step, d.missing.clone()));
            }
            log
        })
    });
    run_ranks_with_state(MachineModel::test_tiny(), writers, move |comm, mut w| {
        for step in 1..=steps {
            if w.write(comm, step, 0.0, framed_payload(step as u8))
                .is_err()
            {
                // Fatal errors (breaker open) end this producer's stream;
                // transient step losses keep it going.
                if w.breaker_open() {
                    break;
                }
            }
        }
    });
    reader_thread.join().expect("reader world").remove(0)
}

mod marshaling {
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use transport::{frame_crc_ok, marshal_blocks, unmarshal_blocks};

    /// A producer's-eye mesh: `n` points strung into line cells, with an
    /// f64 scalar, an f32 scalar and an f64 vector field on the points.
    fn build_grid(pts: &[f64], f64s: &[f64], f32s: &[f32], vecs: &[f64]) -> UnstructuredGrid {
        let n = f64s.len();
        let mut g = UnstructuredGrid::new();
        for i in 0..n {
            g.add_point([pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]]);
        }
        for i in 1..n {
            g.add_cell(CellType::Line, &[i as i64 - 1, i as i64]);
        }
        g.add_point_data(DataArray::scalars_f64("temperature", f64s.to_vec()))
            .expect("matching length");
        g.add_point_data(DataArray::scalars_f32("pressure", f32s.to_vec()))
            .expect("matching length");
        g.add_point_data(DataArray::vectors_f64("velocity", vecs.to_vec()))
            .expect("matching length");
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// marshal → unmarshal is the identity on arbitrary field data:
        /// header, topology and every array survive bit-exactly.
        #[test]
        fn marshal_roundtrips_arbitrary_fields(
            (pts, f64s, f32s, vecs) in (1usize..12).prop_flat_map(|n| (
                vec(-1.0e6..1.0e6f64, 3 * n),
                vec(-1.0e12..1.0e12f64, n),
                vec(-1.0e6..1.0e6f32, n),
                vec(-1.0..1.0f64, 3 * n),
            )),
            producer in 0u32..64,
            step in 1u64..10_000,
            time in 0.0..1.0e4f64,
        ) {
            let grid = build_grid(&pts, &f64s, &f32s, &vecs);
            let mb = MultiBlock::local(producer as usize, 64, grid.clone());
            let payload = marshal_blocks(producer, step, time, &mb);
            prop_assert!(frame_crc_ok(&payload));
            let sd = unmarshal_blocks(&payload).expect("roundtrip");
            prop_assert_eq!(sd.producer, producer);
            prop_assert_eq!(sd.step, step);
            prop_assert_eq!(sd.time.to_bits(), time.to_bits());
            prop_assert_eq!(sd.blocks.len(), 1);
            prop_assert_eq!(sd.blocks[0].0, producer);
            prop_assert_eq!(&sd.blocks[0].1, &grid);
        }

        /// CRC32 catches any single corrupted byte, wherever it lands —
        /// body or trailer — and `unmarshal_blocks` refuses the frame.
        #[test]
        fn single_byte_corruption_is_always_rejected(
            n in 1usize..8,
            pos_frac in 0.0..1.0f64,
            flip in 1u8..=255,
        ) {
            let pts: Vec<f64> = (0..3 * n).map(|i| i as f64).collect();
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
            let f32s: Vec<f32> = vec![1.0; n];
            let vecs: Vec<f64> = vec![0.25; 3 * n];
            let grid = build_grid(&pts, &vals, &f32s, &vecs);
            let mb = MultiBlock::local(0, 4, grid);
            let mut payload = marshal_blocks(0, 7, 0.5, &mb);
            let pos = ((payload.len() - 1) as f64 * pos_frac) as usize;
            payload[pos] ^= flip; // nonzero XOR: the byte really changes
            prop_assert!(!frame_crc_ok(&payload), "corruption at byte {} undetected", pos);
            prop_assert!(unmarshal_blocks(&payload).is_err());
        }
    }
}

mod determinism {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The fault schedule is a pure function of (plan, seed): two runs
        /// of the same plan deliver bit-identical step logs, regardless of
        /// thread scheduling.
        #[test]
        fn same_seed_same_delivered_log(
            seed in 0u64..1_000,
            drop_prob in 0.0..0.4f64,
            corrupt_prob in 0.0..0.3f64,
            delay_prob in 0.0..0.5f64,
        ) {
            let plan = FaultPlan::with_link(
                seed,
                LinkFaultSpec {
                    drop_prob,
                    corrupt_prob,
                    delay_prob,
                    delay_secs: 1e-3,
                },
            );
            let first = delivered_log(plan.clone(), 10);
            let second = delivered_log(plan, 10);
            prop_assert_eq!(first, second);
        }
    }
}

mod wire_framing {
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::io::Write as _;
    use transport::engine::{Packet, PacketKind};
    use transport::wire::{encode_packet, loopback_listener, read_frame, WireRecvError};
    use transport::{frame_crc_ok, marshal_blocks, unmarshal_blocks};

    /// A real marshaled BP payload for one producer's tiny line mesh.
    fn bp_payload(producer: u32, step: u64, n: usize) -> Vec<u8> {
        let mut g = UnstructuredGrid::new();
        for i in 0..n {
            g.add_point([i as f64, 0.5, -0.5]);
        }
        for i in 1..n {
            g.add_cell(CellType::Line, &[i as i64 - 1, i as i64]);
        }
        g.add_point_data(DataArray::scalars_f64(
            "pressure",
            (0..n).map(|i| i as f64 + producer as f64).collect(),
        ))
        .expect("matching length");
        let mb = MultiBlock::local(producer as usize, 64, g);
        marshal_blocks(producer, step, step as f64 * 0.1, &mb)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// BP frames survive any TCP framing the kernel (or an adversary)
        /// chooses: the encoded packet stream is written over a real
        /// loopback socket in arbitrary chunk sizes — splitting frames
        /// mid-header and coalescing several frames into one write — and
        /// every frame decodes bit-exactly. With a truncated tail, every
        /// complete frame still decodes and the cut surfaces as a
        /// `ShortRead`, never as a clean end-of-stream.
        #[test]
        fn bp_frames_survive_adversarial_tcp_framing(
            frames in vec((0u32..8, 1u64..1000, 2usize..6), 1..4),
            chunk_sizes in vec(1usize..97, 1..8),
            truncate in 0u8..2,
        ) {
            let packets: Vec<Packet> = frames
                .iter()
                .map(|&(producer, step, n)| Packet {
                    kind: PacketKind::Data,
                    producer: producer as usize,
                    step,
                    time: step as f64 * 0.1,
                    t_avail: step as f64 * 0.2,
                    ctx: step.wrapping_mul(producer as u64 + 1),
                    t_sent: step as f64 * 0.05,
                    payload: bp_payload(producer, step, n),
                })
                .collect();
            let mut stream_bytes = Vec::new();
            for p in &packets {
                stream_bytes.extend_from_slice(&encode_packet(p));
            }
            let truncate = truncate == 1;
            let mut expect_complete = packets.len();
            if truncate {
                // Cut inside the last frame's body (past its length
                // prefix, before its end).
                let last_len = encode_packet(packets.last().unwrap()).len();
                let cut = stream_bytes.len() - last_len + 5;
                stream_bytes.truncate(cut);
                expect_complete -= 1;
            }

            let (listener, port) = loopback_listener().expect("loopback");
            let writer = std::thread::spawn(move || {
                let mut s =
                    std::net::TcpStream::connect(format!("127.0.0.1:{port}")).unwrap();
                s.set_nodelay(true).ok();
                // Adversarial framing: replay the byte stream in the
                // generated chunk sizes, cycling through them.
                let mut off = 0;
                let mut i = 0;
                while off < stream_bytes.len() {
                    let take = chunk_sizes[i % chunk_sizes.len()].min(stream_bytes.len() - off);
                    s.write_all(&stream_bytes[off..off + take]).unwrap();
                    s.flush().ok();
                    off += take;
                    i += 1;
                }
            });
            let (mut conn, _) = listener.accept().expect("accept");
            let mut got = Vec::new();
            let tail = loop {
                match read_frame(&mut conn) {
                    Ok(Some(p)) => got.push(p),
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            writer.join().unwrap();

            prop_assert_eq!(got.len(), expect_complete);
            for (sent, rx) in packets.iter().zip(&got) {
                prop_assert_eq!(rx.producer, sent.producer);
                prop_assert_eq!(rx.step, sent.step);
                prop_assert_eq!(rx.time.to_bits(), sent.time.to_bits());
                prop_assert_eq!(rx.t_avail.to_bits(), sent.t_avail.to_bits());
                prop_assert_eq!(&rx.payload, &sent.payload);
                // The payload is still a CRC-clean BP frame end to end.
                prop_assert!(frame_crc_ok(&rx.payload));
                let sd = unmarshal_blocks(&rx.payload).expect("roundtrip");
                prop_assert_eq!(sd.step, sent.step);
            }
            if truncate {
                prop_assert!(
                    matches!(tail, Err(WireRecvError::ShortRead { .. })),
                    "truncated tail must surface as a short read, got {:?}",
                    tail
                );
            } else {
                prop_assert!(tail.is_ok(), "clean stream ended with {:?}", tail);
            }
        }
    }
}

/// The two stream decoders a peer or a disk can feed garbage: the staging
/// session protocol and the park-file reader a late joiner catches up
/// from. Arbitrary bytes, every truncation and every byte with one bit
/// flipped come back as `Ok` or `Err` — never a panic.
mod session_and_park_framing {
    use super::scratch_dir;
    use commsim::{run_ranks, MachineModel};
    use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use transport::staging::protocol::{
        read_credit, read_down, read_hello, write_credit, write_down, write_hello,
    };
    use transport::staging::DownMsg;
    use transport::{marshal_blocks, BpFileReader, BpFileWriter, FrameMsg, SessionSpec};

    /// `bytes`, every prefix of it, and a copy per byte with bit
    /// `(position + salt) % 8` flipped.
    fn mutations(bytes: &[u8], salt: usize) -> Vec<Vec<u8>> {
        let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
        let flips = (0..bytes.len()).map(|at| {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << ((at + salt) % 8);
            flipped
        });
        std::iter::once(bytes.to_vec())
            .chain(cuts)
            .chain(flips)
            .collect()
    }

    /// Run all three readers over `wire` until each stops.
    fn read_everything(wire: &[u8]) {
        let _ = read_hello(&mut &wire[..]);
        let mut up = wire;
        while let Ok(Some(_)) = read_credit(&mut up) {}
        let mut down = wire;
        while let Ok(Some(_)) = read_down(&mut down) {}
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn session_protocol_frames_never_panic(
            noise in vec(0u8..=255, 0..256),
            (width, height, credits) in (0usize..5000, 0usize..5000, 0u32..1000),
            colormap in "[a-z-]{0,12}",
            png in vec(0u8..=255, 0..64),
            salt in 0usize..8,
        ) {
            read_everything(&noise);
            let spec = SessionSpec { width, height, colormap, ..SessionSpec::default() };
            let frame = FrameMsg { step: 9, cache_hit: true, name: spec.array.clone(), png };
            // One stream per direction, every message kind in it.
            let mut up = Vec::new();
            write_hello(&mut up, &spec, credits).unwrap();
            write_credit(&mut up, credits).unwrap();
            let mut down = Vec::new();
            write_down(&mut down, &DownMsg::Frame(frame.clone())).unwrap();
            write_down(&mut down, &DownMsg::End).unwrap();
            for wire in mutations(&up, salt).iter().chain(&mutations(&down, salt)) {
                read_everything(wire);
            }
            // Untouched, the down stream reads back as written.
            let mut r = &down[..];
            prop_assert_eq!(read_down(&mut r).unwrap(), Some(DownMsg::Frame(frame)));
            prop_assert_eq!(read_down(&mut r).unwrap(), Some(DownMsg::End));
            prop_assert_eq!(read_down(&mut r).unwrap(), None);
        }

        #[test]
        fn park_file_catch_up_never_panics(
            noise in vec(0u8..=255, 0..128),
            values in vec(-1.0e6..1.0e6f64, 2..6),
            salt in 0usize..8,
        ) {
            let dir = scratch_dir("park-framing");
            let mut g = UnstructuredGrid::new();
            for (i, _) in values.iter().enumerate() {
                g.add_point([i as f64, 0.0, 1.0]);
            }
            g.add_cell(CellType::Line, &[0, 1]);
            g.add_point_data(DataArray::scalars_f64("pressure", values)).expect("matching length");
            let mb = MultiBlock::local(0, 1, g);
            let dir2 = dir.clone();
            run_ranks(1, MachineModel::test_tiny(), move |comm| {
                let mut w = BpFileWriter::create(&dir2, 0).expect("park file");
                for step in 1..=2 {
                    w.append(comm, &marshal_blocks(0, step, 0.5, &mb)).expect("append");
                }
            });
            let path = dir.join("producer_00000.bp4l");
            let parked = std::fs::read(&path).expect("park file");
            // Steps a catch-up gets out of the file before it stops.
            let catch_up = |bytes: &[u8]| {
                std::fs::write(&path, bytes).expect("rewrite");
                let mut steps = 0;
                if let Ok(mut reader) = BpFileReader::open(&path) {
                    while let Ok(Some(_)) = reader.next_step() {
                        steps += 1;
                    }
                }
                steps
            };
            prop_assert_eq!(catch_up(&parked), 2);
            catch_up(&noise);
            // Garbage behind a good magic reaches the step framing.
            catch_up(&[&parked[..8], &noise[..]].concat());
            for bytes in mutations(&parked, salt) {
                prop_assert!(catch_up(&bytes) <= 2);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
