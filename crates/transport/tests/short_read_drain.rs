//! Both staging endpoints drain past a mid-frame short read: producer 1's
//! connection dies inside a frame, producer 0 streams every step, and the
//! endpoint consumer and the staging service each deliver them all.

use commsim::{run_ranks_with_state, FaultPlan, MachineModel};
use insitu::data_adaptor::StaticDataAdaptor;
use insitu::AnalysisAdaptor as _;
use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
use std::io::Write as _;
use std::thread::JoinHandle;
use transport::wire::loopback_listener;
use transport::{
    EndpointConsumer, SstReader, StagingLink, StagingNetwork, StagingService, TransportAnalysis,
};

const STEPS: u64 = 4;

/// Producer 0's block of a two-producer dataset: one hexahedron carrying
/// `pressure`.
fn block() -> MultiBlock {
    let mut g = UnstructuredGrid::new();
    for z in [0.0, 1.0] {
        for y in [0.0, 1.0] {
            for x in [0.0, 1.0] {
                g.add_point([x, y, z]);
            }
        }
    }
    g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
    g.add_point_data(DataArray::scalars_f64(
        "pressure",
        (0..8).map(f64::from).collect(),
    ))
    .unwrap();
    MultiBlock::local(0, 2, g)
}

/// A TCP reader over producers 0 and 1. Producer 1 claims a 64-byte frame,
/// sends 10 bytes of it and dies; producer 0 then stages `STEPS` steps.
fn reader_with_a_short_read() -> (SstReader, JoinHandle<()>) {
    let (listener, port) = loopback_listener().expect("data port");
    let reader = StagingNetwork::tcp_reader(listener, vec![0, 1], 8, FaultPlan::none());
    let addr = format!("127.0.0.1:{port}");
    let producers = std::thread::spawn(move || {
        let mut dying = std::net::TcpStream::connect(&addr).unwrap();
        dying.write_all(&64u32.to_le_bytes()).unwrap();
        dying.write_all(&[7u8; 10]).unwrap();
        drop(dying);
        let writer =
            StagingNetwork::tcp_writer(&addr, 0, StagingLink::test_tiny(), FaultPlan::none())
                .unwrap();
        run_ranks_with_state(MachineModel::test_tiny(), vec![writer], |comm, writer| {
            let mut analysis = TransportAnalysis::new("mesh", vec!["pressure".into()], writer);
            for step in 1..=STEPS {
                let mut da = StaticDataAdaptor::new("mesh", block(), step as f64 * 0.1, step);
                analysis.execute(comm, &mut da).unwrap();
            }
        });
    });
    (reader, producers)
}

#[test]
fn both_endpoints_drain_past_a_mid_frame_short_read() {
    let (reader, producers) = reader_with_a_short_read();
    let report = run_ranks_with_state(MachineModel::test_tiny(), vec![reader], |comm, reader| {
        let mut consumer = EndpointConsumer::new(reader, "<sensei></sensei>", &[], 2).unwrap();
        consumer.run(comm)
    })
    .remove(0)
    .expect("the endpoint consumer drains past the short read");
    producers.join().unwrap();
    assert_eq!(report.delivered_steps, (1..=STEPS).collect::<Vec<_>>());
    assert_eq!(report.partial_steps, STEPS, "producer 1 never delivered");
    assert_eq!(report.short_reads, 1);

    let park_dir = std::env::temp_dir().join(format!("nek_short_read_{}", std::process::id()));
    let (reader, producers) = reader_with_a_short_read();
    let service = StagingService::new(reader, 2, &park_dir, 4);
    let report = run_ranks_with_state(MachineModel::test_tiny(), vec![service], |comm, mut s| {
        s.run(comm)
    })
    .remove(0)
    .expect("the staging service drains past the short read");
    producers.join().unwrap();
    std::fs::remove_dir_all(&park_dir).ok();
    assert_eq!(report.steps, STEPS);
    assert_eq!(report.parked_appends, STEPS);
    assert_eq!(report.short_reads, 1);
}
