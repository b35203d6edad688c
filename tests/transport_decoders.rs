//! Hostile input against every `transport` decoder: well-formed headers —
//! valid CRC included — whose counts and lengths lie. Each must come back
//! as an `Err`, and none may reserve memory on the lie's say-so, which
//! the process-wide tracking allocator checks (before the decoders shared
//! one bounded codec, the first case aborted the process on a 652 GB
//! `Vec::with_capacity`).

use commsim::{run_ranks_with_state, MachineModel};
use memtrack::alloc::{global_peak, reset_peak};
use memtrack::TrackingAllocator;
use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
use std::io::Write as _;
use transport::bp::BpError;
use transport::staging::protocol::{read_credit, read_down, read_hello};
use transport::wire::{read_frame, WireRecvError};
use transport::{
    crc32, marshal_blocks, unmarshal_blocks, BpFileReader, BpFileWriter, EndpointConsumer,
    QueuePolicy, StagingLink, StagingNetwork,
};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

const POINTS: usize = 8;
const NAME: &str = "pressure";

fn grid() -> UnstructuredGrid {
    let mut g = UnstructuredGrid::new();
    for i in 0..POINTS {
        g.add_point([i as f64, 0.5, -0.5]);
    }
    g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
    g.add_point_data(DataArray::scalars_f64(NAME, vec![1.0; POINTS]))
        .unwrap();
    g
}

/// `payload` with `word` written at `at` and the trailing CRC recomputed,
/// so the structural checks, not the checksum, are what must refuse it.
fn resealed(payload: &[u8], at: usize, word: &[u8]) -> Vec<u8> {
    let mut bad = payload.to_vec();
    bad[at..at + word.len()].copy_from_slice(word);
    let body = bad.len() - 4;
    let crc = crc32(&bad[..body]).to_le_bytes();
    bad[body..].copy_from_slice(&crc);
    bad
}

/// One `#[test]`: the allocator's counters are process-global (see
/// `tests/tracking_allocator.rs`).
#[test]
fn lying_headers_are_refused_without_reserving_for_them() {
    let payload = marshal_blocks(0, 1, 0.1, &MultiBlock::local(0, 4, grid()));
    assert!(unmarshal_blocks(&payload).is_ok());
    // Offsets of the count and length words in a one-block payload.
    let n_blocks = 28;
    let n_points = n_blocks + 4 + 4;
    let conn_len = n_points + 8 + 8 + 24 * POINTS;
    let n_arrays = conn_len + 8 + 8 * 8 + 9;
    let name_len = n_arrays + 4;
    let scalar_len = name_len + 4 + NAME.len() + 4 + 1;
    let huge32 = u32::MAX.to_le_bytes();
    let huge64 = (1u64 << 60).to_le_bytes();
    let lies: Vec<(&str, Vec<u8>)> = vec![
        ("n_blocks", resealed(&payload, n_blocks, &huge32)),
        ("array count", resealed(&payload, n_arrays, &huge32)),
        ("name length", resealed(&payload, name_len, &huge32)),
        ("n_points", resealed(&payload, n_points, &huge64)),
        ("conn_len", resealed(&payload, conn_len, &huge64)),
        ("scalar_len", resealed(&payload, scalar_len, &huge64)),
    ];
    // A stream whose length prefix claims 4 GiB and which ends 10 bytes in.
    let mut stream = vec![0xFF; 4];
    stream.extend_from_slice(&[7; 10]);
    // A park file whose first step claims a terabyte.
    let dir = std::env::temp_dir().join(format!("nek_decoders_{}", std::process::id()));
    let path = BpFileWriter::create(&dir, 0).unwrap().path().to_owned();
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(&(1u64 << 40).to_le_bytes()).unwrap();
    file.write_all(&payload).unwrap();
    drop(file);

    reset_peak();
    let before = global_peak();
    for (what, bad) in &lies {
        assert_eq!(unmarshal_blocks(bad), Err(BpError::Truncated), "{what}");
    }
    let short = read_frame(&mut &stream[..]).unwrap_err();
    let wanted = u32::MAX as usize;
    assert_eq!(short, WireRecvError::ShortRead { wanted, got: 10 });
    assert!(read_hello(&mut &stream[..]).is_err());
    assert!(read_credit(&mut &stream[..]).is_err());
    assert!(read_down(&mut &stream[..]).is_err());
    assert!(BpFileReader::open(&path).unwrap().next_step().is_err());
    let grown = global_peak() - before;
    assert!(
        grown < 1 << 20,
        "decoders reserved {grown} B on hostile input"
    );
    std::fs::remove_dir_all(&dir).ok();

    block_index_outside_the_dataset_is_an_error_on_the_endpoint();
}

/// A frame that unmarshals fine but names block 7 of a 4-block dataset
/// used to index out of bounds on the endpoint rank.
fn block_index_outside_the_dataset_is_an_error_on_the_endpoint() {
    let (writers, readers) =
        StagingNetwork::build(1, 1, 4, StagingLink::test_tiny(), QueuePolicy::Block);
    run_ranks_with_state(MachineModel::test_tiny(), writers, |comm, mut w| {
        let stray = marshal_blocks(0, 1, 0.1, &MultiBlock::local(7, 8, grid()));
        w.write(comm, 1, 0.1, stray).unwrap();
    });
    let res = run_ranks_with_state(MachineModel::test_tiny(), readers, |comm, reader| {
        EndpointConsumer::new(reader, "<sensei></sensei>", &[], 4)
            .unwrap()
            .run(comm)
    });
    let err = res[0].as_ref().expect_err("block 7 of 4 was placed");
    assert!(err.to_string().contains("block index 7"), "{err}");
}
