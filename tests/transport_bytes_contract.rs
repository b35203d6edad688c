//! Contract: the exact bytes of `transport`'s four formats — BP payload,
//! TCP wire frame, staging session protocol, `.bp4l` step file.
//!
//! The constants were blessed at `dd9aaa9`, before the formats moved onto
//! one codec, and are not edited afterwards: a refactor of the encoders
//! must reproduce every byte. To re-bless after an *intended* format
//! change, copy the `left` side of the failing assertion and say so in
//! CHANGES.md. `hello` was re-blessed once, when the `Hello` lost its
//! trailing follow byte: the earlier record less that byte, its length
//! prefix one lower.

use commsim::{run_ranks, MachineModel};
use meshdata::{ArrayData, CellType, DataArray, MultiBlock, UnstructuredGrid};
use render::fnv1a64;
use std::sync::Arc;
use transport::engine::{Packet, PacketKind};
use transport::staging::protocol::{write_credit, write_down, write_hello};
use transport::staging::DownMsg;
use transport::wire::encode_packet;
use transport::{
    marshal_blocks, unmarshal_blocks, BpFileReader, BpFileWriter, FrameMsg, SessionSpec,
};

/// `(what, length, fnv1a64)` of one encoded message.
type Pin = (&'static str, usize, u64);

fn pin(what: &'static str, bytes: &[u8]) -> Pin {
    (what, bytes.len(), fnv1a64(bytes))
}

fn written(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut wire = Vec::new();
    write(&mut wire).expect("a Vec cannot fail a write");
    wire
}

/// One hexahedron plus one tetrahedron, every array storage on both
/// centerings, values that are not symmetric under byte swaps.
fn block(rank: usize) -> UnstructuredGrid {
    let mut g = UnstructuredGrid::new();
    for z in [0.0, 1.0] {
        for y in [0.0, 1.5] {
            for x in [0.0, 0.25] {
                g.add_point([x + rank as f64, y, z - 0.125]);
            }
        }
    }
    g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
    g.add_cell(CellType::Tetra, &[0, 1, 2, 4]);
    let n = g.n_points();
    let r = rank as f64;
    g.add_point_data(DataArray::scalars_f64(
        "pressure",
        (0..n).map(|i| i as f64 * 0.3 - r).collect(),
    ))
    .unwrap();
    g.add_point_data(DataArray::shared_f64(
        "velocity",
        3,
        Arc::new((0..3 * n).map(|i| (i as f64).sqrt() + r).collect()),
    ))
    .unwrap();
    g.add_point_data(DataArray::scalars_f32(
        "temperature",
        (0..n).map(|i| i as f32 * 1.1 + rank as f32).collect(),
    ))
    .unwrap();
    g.add_point_data(DataArray {
        name: "global_id".into(),
        components: 1,
        data: ArrayData::I64((0..n as i64).map(|i| i * 1_000_003 - 7).collect()),
    })
    .unwrap();
    g.add_point_data(DataArray {
        name: "mask".into(),
        components: 1,
        data: ArrayData::U8((0..n as u8).map(|i| i.wrapping_mul(37) + 1).collect()),
    })
    .unwrap();
    g.add_cell_data(DataArray::scalars_f32("rank", vec![rank as f32, 0.5]))
        .unwrap();
    g.add_cell_data(DataArray {
        name: "rgba".into(),
        components: 4,
        data: ArrayData::U8(vec![1, 2, 3, 255, 9, 8, 7, 0]),
    })
    .unwrap();
    g.add_cell_data(DataArray {
        name: "element".into(),
        components: 1,
        data: ArrayData::I64(vec![-1, i64::MAX - rank as i64]),
    })
    .unwrap();
    g.add_cell_data(DataArray::scalars_f64("volume", vec![0.375, -1.0e-300]))
        .unwrap();
    g
}

fn two_blocks() -> MultiBlock {
    let mut mb = MultiBlock::new(5);
    mb.blocks[1] = Some(block(1));
    mb.blocks[4] = Some(block(4));
    mb
}

#[test]
fn bp_payload_bytes() {
    let payload = marshal_blocks(3, 0x0102_0304_0506_0708, -2.5e-3, &two_blocks());
    let empty = marshal_blocks(0, 0, 0.0, &MultiBlock::new(3));
    assert_eq!(
        [pin("two blocks", &payload), pin("no blocks", &empty)],
        [
            ("two blocks", 1964, 0xa98a_80c4_c0ed_1705),
            ("no blocks", 36, 0x7517_2af5_ec4e_d84a)
        ]
    );
    // The pinned bytes are a frame this build reads back exactly.
    let back = unmarshal_blocks(&payload).expect("own payload");
    assert_eq!(
        (back.producer, back.step, back.time),
        (3, 0x0102_0304_0506_0708, -2.5e-3)
    );
    let idx: Vec<u32> = back.blocks.iter().map(|(i, _)| *i).collect();
    assert_eq!(idx, [1, 4]);
    // F64Shared marshals as plain F64; everything else compares equal.
    let mut want = block(4);
    if let ArrayData::F64Shared(v) = want.point_data[1].data.clone() {
        want.point_data[1].data = ArrayData::F64(v.to_vec());
    }
    assert_eq!(back.blocks[1].1, want);
}

#[test]
fn wire_frame_bytes() {
    let packet = |kind, payload| Packet {
        kind,
        producer: 0x0a0b_0c0d,
        step: 0x1122_3344_5566_7788,
        time: 0.1,
        t_avail: 7.25e-3,
        ctx: 0x8000_0123_4567_89ab,
        t_sent: 6.5e-3,
        payload,
    };
    assert_eq!(
        [
            pin(
                "data",
                &encode_packet(&packet(PacketKind::Data, (0..=255u8).collect()))
            ),
            pin(
                "skip",
                &encode_packet(&packet(PacketKind::Skip, Vec::new()))
            ),
            pin(
                "detach",
                &encode_packet(&packet(PacketKind::Detach, Vec::new()))
            ),
        ],
        [
            ("data", 305, 0x74ae_7c63_2b15_2895),
            ("skip", 49, 0x85a8_aed5_95c4_6b37),
            ("detach", 49, 0xffef_94be_62dc_d8ea)
        ]
    );
}

#[test]
fn session_protocol_bytes() {
    let spec = SessionSpec {
        width: 320,
        height: 240,
        camera_dir: [1.0, -0.5, 0.25],
        colormap: "viridis".into(),
        array: "température".into(),
    };
    let frame = DownMsg::Frame(FrameMsg {
        step: 12,
        cache_hit: true,
        name: "pressure_staged_000012".into(),
        png: (0..200u8).rev().collect(),
    });
    assert_eq!(
        [
            pin("hello", &written(|w| write_hello(w, &spec, 7))),
            pin("credit", &written(|w| write_credit(w, 0x0403_0201))),
            pin("frame", &written(|w| write_down(w, &frame))),
            pin("end", &written(|w| write_down(w, &DownMsg::End))),
        ],
        [
            ("hello", 68, 0x9de4_d858_1e44_46a4),
            ("credit", 9, 0x605c_4688_5adb_ae8b),
            ("frame", 244, 0x2585_cfcd_d35b_2d4a),
            ("end", 5, 0xd80d_77ae_a7dc_919d),
        ]
    );
}

#[test]
fn step_file_bytes() {
    let dir = std::env::temp_dir().join(format!("nek_bytes_contract_{}", std::process::id()));
    let dir2 = dir.clone();
    run_ranks(1, MachineModel::test_tiny(), move |comm| {
        let mut w = BpFileWriter::create(&dir2, 7).unwrap();
        w.append(comm, &marshal_blocks(7, 1, 0.1, &two_blocks()))
            .unwrap();
        w.append(comm, &marshal_blocks(7, 2, 0.2, &MultiBlock::new(5)))
            .unwrap();
        assert_eq!(w.steps_written(), 2);
    });
    let path = dir.join("producer_00007.bp4l");
    let file = std::fs::read(&path).unwrap();
    assert_eq!(
        pin("two steps", &file),
        ("two steps", 2024, 0xb3df_4f50_d950_15f3)
    );
    let mut r = BpFileReader::open(&path).unwrap();
    assert_eq!(r.next_step().unwrap().unwrap().blocks.len(), 2);
    assert_eq!(r.next_step().unwrap().unwrap().step, 2);
    assert!(r.next_step().unwrap().is_none());
    std::fs::remove_dir_all(&dir).ok();
}
