//! Property-based tests over the stack's core data structures and
//! invariants (proptest).

use meshdata::writer::{write_vtu, Encoding};
use meshdata::{CellType, DataArray, MultiBlock, UnstructuredGrid};
use proptest::prelude::*;
use transport::{marshal_blocks, unmarshal_blocks};

/// Random small hex-brick grid with a random point scalar.
fn arb_grid() -> impl Strategy<Value = UnstructuredGrid> {
    (1usize..4, 1usize..4, 1usize..4)
        .prop_flat_map(|(nx, ny, nz)| {
            let np = (nx + 1) * (ny + 1) * (nz + 1);
            (
                Just((nx, ny, nz)),
                proptest::collection::vec(-1.0e6..1.0e6f64, np),
            )
        })
        .prop_map(|((nx, ny, nz), values)| {
            let mut g = UnstructuredGrid::new();
            for k in 0..=nz {
                for j in 0..=ny {
                    for i in 0..=nx {
                        g.add_point([i as f64 * 0.5, j as f64 * 0.7, k as f64 * 0.9]);
                    }
                }
            }
            let id = |i: usize, j: usize, k: usize| (i + (nx + 1) * (j + (ny + 1) * k)) as i64;
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        g.add_cell(
                            CellType::Hexahedron,
                            &[
                                id(i, j, k),
                                id(i + 1, j, k),
                                id(i + 1, j + 1, k),
                                id(i, j + 1, k),
                                id(i, j, k + 1),
                                id(i + 1, j, k + 1),
                                id(i + 1, j + 1, k + 1),
                                id(i, j + 1, k + 1),
                            ],
                        );
                    }
                }
            }
            g.add_point_data(DataArray::scalars_f64("s", values))
                .unwrap();
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vtu_appended_roundtrip_any_grid(g in arb_grid()) {
        let mut buf = Vec::new();
        write_vtu(&g, Encoding::Appended, &mut buf).unwrap();
        let back = meshdata::reader::read_vtu(&buf).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn vtu_ascii_roundtrip_any_grid(g in arb_grid()) {
        let mut buf = Vec::new();
        write_vtu(&g, Encoding::Ascii, &mut buf).unwrap();
        let back = meshdata::reader::read_vtu(&buf).unwrap();
        prop_assert_eq!(back.n_points(), g.n_points());
        prop_assert_eq!(back.connectivity, g.connectivity);
        // Rust's float formatting round-trips f64 exactly.
        prop_assert_eq!(&back.point_data[0], &g.point_data[0]);
    }

    #[test]
    fn bp_roundtrip_any_grid(g in arb_grid(), step in 0u64..1_000_000, time in 0.0..1.0e6f64) {
        let mb = MultiBlock::local(0, 3, g);
        let payload = marshal_blocks(7, step, time, &mb);
        let back = unmarshal_blocks(&payload).unwrap();
        prop_assert_eq!(back.producer, 7);
        prop_assert_eq!(back.step, step);
        prop_assert_eq!(back.time, time);
        prop_assert_eq!(&back.blocks[0].1, mb.blocks[0].as_ref().unwrap());
    }

    #[test]
    fn bp_never_panics_on_mutated_payloads(g in arb_grid(), flip in 0usize..4096, val in 0u8..=255) {
        let mb = MultiBlock::local(0, 1, g);
        let mut payload = marshal_blocks(0, 0, 0.0, &mb);
        let idx = flip % payload.len();
        payload[idx] = val;
        // Any outcome is fine except a panic.
        let _ = unmarshal_blocks(&payload);
    }

    #[test]
    fn bp_never_panics_on_truncation(g in arb_grid(), cut_frac in 0.0..1.0f64) {
        let mb = MultiBlock::local(0, 1, g);
        let payload = marshal_blocks(0, 0, 0.0, &mb);
        let cut = (payload.len() as f64 * cut_frac) as usize;
        let _ = unmarshal_blocks(&payload[..cut]);
    }

    #[test]
    fn xml_escape_roundtrip(s in "[ -~]{0,64}") {
        let escaped = meshdata::xml::escape(&s);
        let doc = format!("<a x=\"{escaped}\">{escaped}</a>");
        let node = meshdata::xml::parse(&doc).unwrap();
        prop_assert_eq!(node.attr("x").unwrap(), s.as_str());
        prop_assert_eq!(node.text.as_str(), s.as_str());
    }

    #[test]
    fn grid_bounds_contain_all_points(g in arb_grid()) {
        let b = g.bounds().unwrap();
        for p in &g.points {
            for d in 0..3 {
                prop_assert!(p[d] >= b[2 * d] && p[d] <= b[2 * d + 1]);
            }
        }
    }

    #[test]
    fn png_encoder_total_size_is_consistent(w in 1usize..64, h in 1usize..64) {
        let fb = render::Framebuffer::new(w, h);
        let png = render::image::encode_png(&fb);
        // Signature + IHDR(25) + IDAT(>raw) + IEND(12).
        let raw = (w * 3 + 1) * h;
        prop_assert!(png.len() > raw);
        prop_assert_eq!(&png[png.len() - 8..png.len() - 4], b"IEND");
    }
}

/// Multiplicity invariants of gather–scatter under random mesh shapes:
/// Σ mult_inv ⊙ (sum of ones) == number of *global* nodes.
#[test]
fn gs_multiplicity_partitions_unity() {
    use commsim::{run_ranks, MachineModel, ReduceOp};
    use sem::gs::GatherScatter;
    use sem::mesh::{LocalMesh, MeshSpec};
    use std::sync::Arc;

    for (order, elems, periodic, ranks) in [
        (2usize, [2usize, 2, 3], [false, false, false], 3usize),
        (3, [1, 2, 4], [true, false, false], 2),
        (2, [2, 1, 4], [true, true, true], 4),
    ] {
        let res = run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(order, elems, [1.0; 3], periodic));
            let mesh = LocalMesh::new(spec.clone(), comm.rank(), comm.size());
            let gs = GatherScatter::new(&mesh, comm);
            // Each local node weighted by 1/multiplicity sums to the number
            // of distinct global nodes.
            let local: f64 = gs.mult_inv().iter().sum();
            let total = comm.allreduce(local, ReduceOp::Sum);
            let expected =
                (spec.n_nodes_axis(0) * spec.n_nodes_axis(1) * spec.n_nodes_axis(2)) as f64;
            (total, expected)
        });
        for (total, expected) in res {
            assert!(
                (total - expected).abs() < 1e-9,
                "order={order} elems={elems:?} periodic={periodic:?}: {total} vs {expected}"
            );
        }
    }
}

// ---- scheduler differential: random programs, both executors ----------

/// One round of a randomly generated communication program. Every rank
/// executes the same round shape (rank-dependent payloads/advances), so
/// any program is deadlock-free by construction: sends are eager and each
/// recv has a matching send in the same round.
#[derive(Debug, Clone)]
enum CommOp {
    /// Shifted ring exchange: send to `(r+s) % n`, recv from `(r+n-s) % n`.
    RingExchange {
        shift: usize,
        bytes: u64,
    },
    Barrier,
    AllreduceSum,
    AllreduceMax,
    Allgather,
    /// Rank-dependent clock advance (µs per rank index).
    Advance {
        per_rank_us: u64,
    },
}

fn arb_comm_op() -> impl Strategy<Value = CommOp> {
    (0usize..6, 1usize..8, 1u64..4096, 1u64..500).prop_map(|(kind, shift, bytes, per_rank_us)| {
        match kind {
            0 | 1 => CommOp::RingExchange { shift, bytes },
            2 => CommOp::Barrier,
            3 => CommOp::AllreduceSum,
            4 => CommOp::AllreduceMax,
            5 if per_rank_us % 2 == 0 => CommOp::Allgather,
            _ => CommOp::Advance { per_rank_us },
        }
    })
}

/// Run `prog` on `n` ranks under `mode`; per rank, return the exact
/// sequence of received/reduced values (as bit patterns, in arrival
/// order) for message-order comparison across executors.
fn run_comm_program(
    mode: commsim::SchedMode,
    n: usize,
    prog: std::sync::Arc<Vec<CommOp>>,
) -> Vec<commsim::RankResult<Vec<u64>>> {
    use commsim::ReduceOp;
    commsim::with_mode(mode, move || {
        commsim::run_ranks_with_registry(
            n,
            commsim::MachineModel::test_tiny(),
            memtrack::Registry::new(),
            move |comm| {
                let n = comm.size();
                let r = comm.rank();
                let mut received = Vec::new();
                for (i, op) in prog.iter().enumerate() {
                    let tag = 100 + i as u64;
                    match op {
                        CommOp::RingExchange { shift, bytes } => {
                            let s = 1 + shift % (n - 1);
                            let payload = ((r as u64) << 16) | i as u64;
                            comm.send((r + s) % n, tag, payload, *bytes);
                            received.push(comm.recv::<u64>((r + n - s) % n, tag));
                        }
                        CommOp::Barrier => comm.barrier(),
                        CommOp::AllreduceSum => {
                            let v = comm.allreduce((r + i) as f64 * 0.5, ReduceOp::Sum);
                            received.push(v.to_bits());
                        }
                        CommOp::AllreduceMax => {
                            let v = comm.allreduce(r as f64 - i as f64, ReduceOp::Max);
                            received.push(v.to_bits());
                        }
                        CommOp::Allgather => {
                            received.extend(comm.allgather((r * 31 + i) as u64, 8));
                        }
                        CommOp::Advance { per_rank_us } => {
                            comm.advance(r as f64 * *per_rank_us as f64 * 1e-6);
                        }
                    }
                }
                received
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid program over any world size runs identically on the
    /// thread executor and the discrete-event scheduler: same per-rank
    /// message/reduction sequences, same final virtual clock bits, same
    /// CommStats. Completion itself is the no-deadlock property — the
    /// event scheduler's bounded-step watchdog turns a scheduling bug
    /// into an immediate panic, not a hang.
    #[test]
    fn random_programs_run_identically_on_both_executors(
        n in 2usize..64,
        prog in proptest::collection::vec(arb_comm_op(), 1..8)
    ) {
        let prog = std::sync::Arc::new(prog);
        let a = run_comm_program(commsim::SchedMode::Thread, n, prog.clone());
        let b = run_comm_program(commsim::SchedMode::Event, n, prog);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.rank, y.rank);
            prop_assert_eq!(&x.value, &y.value);
            prop_assert_eq!(x.time.to_bits(), y.time.to_bits());
            prop_assert_eq!(x.stats, y.stats);
        }
    }
}

/// An *invalid* program (a recv whose send never happens) must not hang
/// the event scheduler: when every live rank is blocked it diagnoses the
/// deadlock and panics with the per-rank wait states.
#[test]
fn event_scheduler_diagnoses_deadlock_instead_of_hanging() {
    let err = std::panic::catch_unwind(|| {
        commsim::with_mode(commsim::SchedMode::Event, || {
            commsim::run_ranks(3, commsim::MachineModel::test_tiny(), |comm| {
                if comm.rank() == 0 {
                    // Nobody ever sends on tag 99.
                    comm.recv::<u64>(1, 99);
                }
                comm.barrier();
            })
        })
    })
    .expect_err("the deadlocked world must panic, not hang");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("deadlock"),
        "panic must carry the deadlock diagnostic: {msg}"
    );
}

/// A small valid NEKFLD01 dump to mutate in the fuzz cases below.
fn valid_fld_bytes() -> Vec<u8> {
    use memtrack::Accountant;
    use sem::snapshot::{FieldSnapshot, SnapshotField, SnapshotPool};
    let pool = SnapshotPool::new(Accountant::new("fuzz"));
    let fields = vec![
        SnapshotField::new("pressure", 1, vec![0.25, -1.5, 3.0]),
        SnapshotField::new("velocity", 3, (0..9).map(f64::from).collect()),
    ];
    let snap = FieldSnapshot::new(11, 0.75, 3, fields, &pool);
    nek_sensei::encode_fld(&snap).bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A checkpoint reader fed disk garbage must reject it with an error,
    // never panic or over-allocate (the supervisor turns parse errors into
    // generation quarantines, so they have to surface as values).
    #[test]
    fn read_fld_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..256)
    ) {
        let _ = nek_sensei::read_fld(&bytes);
    }

    #[test]
    fn read_fld_never_panics_on_truncated_dump(cut in 0usize..400) {
        let bytes = valid_fld_bytes();
        let cut = cut.min(bytes.len());
        let r = nek_sensei::read_fld(&bytes[..cut]);
        if cut < bytes.len() {
            prop_assert!(r.is_err(), "truncation at {cut} must not parse");
        } else {
            prop_assert!(r.is_ok());
        }
    }

    #[test]
    fn read_fld_never_panics_on_bit_flipped_dump(
        byte in 0usize..4096, bit in 0u8..8
    ) {
        let mut bytes = valid_fld_bytes();
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        // Bit rot in the payload may still parse (integrity is the
        // manifest CRC's job); the reader just must not panic.
        let _ = nek_sensei::read_fld(&bytes);
    }
}

// ---------------------------------------------------------------------------
// The VTU reader and the analysis XML parser: a checkpoint file and a user's
// configuration come back as `Ok` or `Err`, never as a panic, a stack
// overflow or an allocation sized by a count the document declares.
// ---------------------------------------------------------------------------

/// A real two-cell `.vtu` document with point and cell data.
fn real_vtu(encoding: Encoding) -> Vec<u8> {
    let mut g = UnstructuredGrid::new();
    for k in 0..2 {
        for j in 0..2 {
            for i in 0..3 {
                g.add_point([f64::from(i) * 0.5, f64::from(j) * 0.7, f64::from(k) * 0.9]);
            }
        }
    }
    g.add_cell(CellType::Hexahedron, &[0, 1, 4, 3, 6, 7, 10, 9]);
    g.add_cell(CellType::Hexahedron, &[1, 2, 5, 4, 7, 8, 11, 10]);
    g.add_point_data(DataArray::scalars_f64(
        "pressure",
        (0..12).map(|i| f64::from(i).sqrt()).collect(),
    ))
    .unwrap();
    g.add_point_data(DataArray::vectors_f64(
        "velocity",
        (0..36).map(|i| f64::from(i) * 0.1 - 1.0).collect(),
    ))
    .unwrap();
    g.add_cell_data(DataArray::scalars_f32("rank", vec![0.0, 1.0]))
        .unwrap();
    let mut doc = Vec::new();
    write_vtu(&g, encoding, &mut doc).unwrap();
    doc
}

/// The Catalyst configuration `run_insitu` generates, with an output
/// directory.
const SENSEI_CONFIG: &str = r#"<sensei>
  <analysis type="catalyst" frequency="2" width="64" height="48"
            slice_array="pressure" contour_array="velocity" output="out/frames"/>
</sensei>"#;

/// The way `Bridge::initialize` reads its configuration.
fn read_config(text: &str) -> insitu::Result<insitu::ConfigurableAnalysis> {
    insitu::ConfigurableAnalysis::from_xml(text, &[render::CatalystAnalysis::factory()])
}

/// Both decoders on `bytes`; must not panic, whatever they are.
fn read_vtu_and_config(bytes: &[u8]) {
    let _ = meshdata::reader::read_vtu(bytes);
    let _ = read_config(&String::from_utf8_lossy(bytes));
}

/// Every truncation of a real document, and the document with one bit
/// flipped at every position, come back as `Ok` or `Err`.
#[test]
fn vtu_and_config_survive_every_truncation_and_a_bit_flip_at_every_byte() {
    let docs = [
        real_vtu(Encoding::Ascii),
        real_vtu(Encoding::Appended),
        SENSEI_CONFIG.as_bytes().to_vec(),
    ];
    for (d, real) in docs.iter().enumerate() {
        for cut in 0..real.len() {
            read_vtu_and_config(&real[..cut]);
        }
        let mut flipped = real.clone();
        for at in 0..real.len() {
            flipped[at] ^= 1 << (at % 8);
            read_vtu_and_config(&flipped);
            flipped[at] = real[at];
        }
        // The undamaged document still reads.
        if d < 2 {
            meshdata::reader::read_vtu(real).expect("a written .vtu reads back");
        } else {
            assert_eq!(read_config(SENSEI_CONFIG).map(|c| c.len()).ok(), Some(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary bytes, arbitrary XML punctuation, and real documents with
    /// several bits flipped and their tails cut at once.
    #[test]
    fn vtu_reader_and_config_parser_never_panic(
        noise in proptest::collection::vec(0u8..=255, 0..512),
        tokens in "[<>/=\"'?!_a-zA-Z0-9 .&;-]{0,96}",
        flips in proptest::collection::vec((0.0..1.0f64, 0u8..8), 1..8),
        keep in 0.0..1.0f64,
    ) {
        read_vtu_and_config(&noise);
        read_vtu_and_config(tokens.as_bytes());
        for real in [
            real_vtu(Encoding::Ascii),
            real_vtu(Encoding::Appended),
            SENSEI_CONFIG.as_bytes().to_vec(),
        ] {
            let mut mutated = real;
            for &(at, bit) in &flips {
                let at = (at * mutated.len() as f64) as usize;
                mutated[at] ^= 1 << bit;
            }
            read_vtu_and_config(&mutated);
            mutated.truncate((keep * mutated.len() as f64) as usize);
            read_vtu_and_config(&mutated);
        }
    }
}

/// 200 000 open tags used to recurse 200 000 deep and abort the process;
/// now all three entry points refuse them at `xml::MAX_DEPTH`.
#[test]
fn xml_depth_bomb_is_an_error_not_a_stack_overflow() {
    let bombs = [
        "<a>".repeat(200_000),
        "<a x='1' y=\"2\">".repeat(200_000),
        "<a><b k='v'><!-- c -->text".repeat(100_000),
    ];
    for bomb in &bombs {
        let refusals = [
            meshdata::xml::parse(bomb)
                .map(drop)
                .map_err(|e| e.to_string()),
            meshdata::reader::read_vtu(bomb.as_bytes())
                .map(drop)
                .map_err(|e| e.to_string()),
            read_config(bomb).map(drop).map_err(|e| e.to_string()),
        ];
        for refusal in refusals {
            let err = refusal.expect_err("depth bomb must be refused");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }
    // The cap is on depth, not size: a document nested exactly to the limit
    // parses, one level more does not, and siblings are not nesting.
    let nested = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let depth = meshdata::xml::MAX_DEPTH;
    meshdata::xml::parse(&nested(depth)).expect("nesting at the cap is legal");
    assert!(meshdata::xml::parse(&nested(depth + 1)).is_err());
    let wide = format!("<r>{}</r>", "<a/>".repeat(10_000));
    assert_eq!(meshdata::xml::parse(&wide).unwrap().children.len(), 10_000);
}

/// A one-hexahedron ASCII `.vtu` with the given header counts and cell
/// arrays.
fn one_hex_vtu(n_points: &str, connectivity: &str, offsets: &str, types: &str) -> String {
    format!(
        r#"<VTKFile type="UnstructuredGrid">
<UnstructuredGrid>
<Piece NumberOfPoints="{n_points}" NumberOfCells="1">
<Points>
<DataArray type="Float64" NumberOfComponents="3" format="ascii">
0 0 0 1 0 0 1 1 0 0 1 0 0 0 1 1 0 1 1 1 1 0 1 1
</DataArray>
</Points>
<Cells>
<DataArray type="Int64" Name="connectivity" format="ascii">{connectivity}</DataArray>
<DataArray type="Int64" Name="offsets" format="ascii">{offsets}</DataArray>
<DataArray type="UInt8" Name="types" format="ascii">{types}</DataArray>
</Cells>
</Piece>
</UnstructuredGrid>
</VTKFile>"#
    )
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Offsets, counts and lengths in a `.vtu` are the file's claims: the
/// reader checks each against what is there instead of slicing by it.
#[test]
fn read_vtu_refuses_hostile_offsets_and_counts() {
    let read = |doc: String| meshdata::reader::read_vtu(doc.as_bytes());
    let conn = "0 1 2 3 4 5 6 7";
    read(one_hex_vtu("8", conn, "8", "12")).expect("the undamaged document reads");
    for (what, doc) in [
        ("negative offset", one_hex_vtu("8", conn, "-8", "12")),
        ("offset past the end", one_hex_vtu("8", conn, "9", "12")),
        (
            "offset past any end",
            one_hex_vtu("8", conn, "9223372036854775807", "12"),
        ),
        (
            "cell shorter than its type",
            one_hex_vtu("8", conn, "4", "12"),
        ),
        (
            "cell longer than its type",
            one_hex_vtu("8", conn, "8", "10"),
        ),
        ("no types", one_hex_vtu("8", conn, "8", "")),
        // 3 × this does not fit in a usize.
        (
            "point count that overflows",
            one_hex_vtu("9223372036854775808", conn, "8", "12"),
        ),
    ] {
        assert!(read(doc).is_err(), "{what} must be refused");
    }
    // Decreasing offsets need two cells.
    let two = one_hex_vtu("8", "0 1 2 3 4 5 6 7 0 1 2 3 4 5 6 7", "16 8", "12 12")
        .replace("NumberOfCells=\"1\"", "NumberOfCells=\"2\"");
    assert!(read(two).is_err(), "decreasing offsets must be refused");

    // Appended arrays: the offset attribute and the length prefix behind it.
    let appended = real_vtu(Encoding::Appended);
    let at = find(&appended, br#"offset="0""#).expect("the first array sits at offset 0");
    for hostile in ["18446744073709551615", "18446744073709551612", "100000"] {
        let mut doc = appended.clone();
        doc.splice(at + 8..at + 9, hostile.bytes());
        assert!(
            meshdata::reader::read_vtu(&doc).is_err(),
            "offset {hostile} must be refused"
        );
    }
    let blob = find(&appended, b">_").expect("appended blob") + 2;
    let mut doc = appended.clone();
    doc[blob..blob + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(
        meshdata::reader::read_vtu(&doc).is_err(),
        "a length prefix past the end must be refused"
    );
    let zero_components = String::from_utf8(real_vtu(Encoding::Ascii))
        .unwrap()
        .replace(
            r#"Name="velocity" NumberOfComponents="3""#,
            r#"Name="velocity" NumberOfComponents="0""#,
        );
    assert!(meshdata::reader::read_vtu(zero_components.as_bytes()).is_err());
}
