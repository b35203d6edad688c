//! Stations: stages a workload's step loop cannot see from outside, timed
//! one by one on that workload's own payload.
//!
//! Each station builds the payload the way the workload does (same case,
//! same rank count, a few real solver steps), then calls one public
//! function of one layer in a timed loop and reports the median. A
//! workload runs the stations of the layers it exercises.

use crate::metrics::Metrics;
use crate::stats::median;
use crate::surface::*;
use crate::verify::Checks;
use crate::workloads::{alternate, pct_over, timed};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `f` over `reps` calls after one warm-up, in ms.
fn median_ms(reps: usize, f: impl FnMut()) -> f64 {
    measure(1, reps, f).median_s * 1e3
}

/// Solver steps a station takes before it captures fields, so filters
/// and encoders see a developed flow instead of the uniform initial state.
const PAYLOAD_STEPS: usize = 3;

// ---------------------------------------------------------------------------
// sem, pool
// ---------------------------------------------------------------------------

/// Operator and gather-scatter kernels on the workload's mesh and rank
/// count, and the one-rank solver at pool widths 1 and 2.
pub fn sem(cfg: &InSituConfig, reps: usize, smoke: bool, m: &mut Metrics) {
    let spec = Arc::clone(&cfg.case.spec);
    let per_rank = run_ranks(cfg.ranks, cfg.machine.clone(), move |comm| {
        let mesh = LocalMesh::new(Arc::clone(&spec), comm.rank(), comm.size());
        let gs = GatherScatter::new(&mesh, comm);
        let ops = Ops::new(&mesh);
        let layout = mesh.layout();
        let u: Vec<f64> = (0..layout.n_nodes())
            .map(|i| (i as f64 * 0.1).sin())
            .collect();
        let mut out = vec![0.0; u.len()];
        let mut scratch = vec![0.0; u.len()];
        let stiffness_ms = median_ms(reps, || {
            ops.stiffness_apply(comm, &u, &mut out, &mut scratch);
            black_box(&out);
        });
        // Every rank makes the same number of calls: the exchange pairs up.
        let mut field = u.clone();
        let gs_ms = median_ms(reps, || {
            gs.sum(comm, &mut field);
            black_box(&field);
        });
        // Computed, not counted: six derivative sweeps of 2·np flops per
        // node plus the pointwise geometric weighting.
        let flops = layout.n_nodes() as f64 * (12.0 * layout.np as f64 + 6.0);
        (stiffness_ms, gs_ms, flops)
    });
    let (stiffness_ms, gs_ms, flops) = per_rank[0];
    m.set("sem.stiffness_apply_ms", stiffness_ms);
    m.set("sem.stiffness_gflops", flops / (stiffness_ms * 1e-3) / 1e9);
    m.set("sem.gs_sum_us", gs_ms * 1e3);

    // The baseline's open question: does a second pool thread help one
    // rank's step at all (0.77× in bench/baseline.json)?
    let steps = if smoke { 1 } else { 2 };
    let stepping_s = |threads: usize| {
        let case = cfg.case.clone();
        pool::with_override(threads, || {
            run_ranks(1, cfg.machine.clone(), move |comm| {
                let mut solver = case.build(comm);
                solver.step(comm);
                timed(|| {
                    for _ in 0..steps {
                        solver.step(comm);
                    }
                })
                .0
            })[0]
        })
    };
    let (one, two) = (stepping_s(1), stepping_s(2));
    println!("  one rank, {steps} steps: pool 1 thread {one:.4} s, 2 threads {two:.4} s");
    m.set("sem.pool_speedup_2t", one / two);
}

/// Cost of handing an empty job to the element-block pool.
pub fn pool(m: &mut Metrics) {
    const DISPATCHES: usize = 20_000;
    let (elapsed, ()) = timed(|| {
        for _ in 0..DISPATCHES {
            pool::run_partitioned(1024, |b, e0, e1| {
                black_box((b, e0, e1));
            });
        }
    });
    m.set("pool.dispatch_us", elapsed * 1e6 / DISPATCHES as f64);
}

// ---------------------------------------------------------------------------
// render, core (fld), telemetry / trace
// ---------------------------------------------------------------------------

/// This rank's VTK-model block with `arrays` attached, after
/// [`PAYLOAD_STEPS`] steps: what a consumer of `case` receives.
fn payload(comm: &mut Comm, case: &CaseSetup, arrays: &[&str]) -> (MultiBlock, Arc<FieldSnapshot>) {
    let mut solver = case.build(comm);
    for _ in 0..PAYLOAD_STEPS {
        solver.step(comm);
    }
    let geometry = Arc::new(NekGeometry::build(comm, &solver));
    let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
    let snap = solver.publish_snapshot(comm, &SnapshotSpec::from_names(arrays), &pool);
    let mut da = SnapshotAdaptor::new(comm, Arc::clone(&snap), geometry);
    let mut mb = da.mesh(comm, MESH_NAME).expect("the solver's mesh");
    for array in arrays {
        da.add_array(comm, &mut mb, MESH_NAME, Centering::Point, array)
            .expect("a published array");
    }
    (mb, snap)
}

/// Global `(lo, hi)` of `array`, as the pipeline computes it.
fn global_range(comm: &mut Comm, mb: &MultiBlock, array: &str) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, g) in mb.local_blocks() {
        if let Some(a) = g.find_array(array, Centering::Point) {
            for v in scalar_view(a) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    (
        comm.allreduce(lo, ReduceOp::Min),
        comm.allreduce(hi, ReduceOp::Max),
    )
}

/// The Catalyst pipeline's stages, one at a time, on the workload's mesh,
/// fields, rank count and image size: per trigger, i.e. summed over the
/// pipeline's two passes.
pub fn render(cfg: &InSituConfig, reps: usize, tmp: &Path, m: &mut Metrics, checks: &mut Checks) {
    let case = cfg.case.clone();
    let (width, height) = cfg.image_size;
    let dir = tmp.join("station");
    std::fs::create_dir_all(&dir).expect("create the station directory");
    let per_rank = run_ranks(cfg.ranks, cfg.machine.clone(), move |comm| {
        let (mb, _snap) = payload(comm, &case, &["pressure", "velocity"]);
        let pipeline = RenderPipeline::two_image_default("pressure", "velocity");
        let local = mb.bounds().unwrap_or([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        let mut packed = [
            -local[0], local[1], -local[2], local[3], -local[4], local[5],
        ];
        comm.allreduce_vec(&mut packed, ReduceOp::Max);
        let bounds = [
            -packed[0], packed[1], -packed[2], packed[3], -packed[4], packed[5],
        ];

        // [filter, raster, composite, encode, write] ms per trigger.
        let mut stage_ms: [Vec<f64>; 5] = Default::default();
        let (mut triangles, mut png_bytes) = (0.0, 0.0);
        let mut soup = TriangleSoup::default();
        let mut fb = Framebuffer::default();
        for rep in 0..=reps {
            let mut sums = [0.0; 5];
            (triangles, png_bytes) = (0.0, 0.0);
            for pass in &pipeline.passes {
                let (lo, hi) = global_range(comm, &mb, &pass.array);
                sums[0] += timed(|| {
                    soup.clear();
                    for (_, g) in mb.local_blocks() {
                        match &pass.filter {
                            FilterKind::Slice { origin, normal } => {
                                slice_plane_into(g, *origin, *normal, &pass.array, &mut soup)
                            }
                            FilterKind::ContourAtFraction(f) => {
                                contour_into(g, &pass.array, lo + f * (hi - lo), &mut soup)
                            }
                            other => unreachable!("the default pipeline has no {other:?} pass"),
                        }
                    }
                })
                .0;
                triangles += comm.allreduce(soup.n_triangles() as f64, ReduceOp::Sum);
                sums[1] += timed(|| {
                    fb.reset_to(width, height);
                    let camera = Camera::framing(bounds, pass.camera_dir);
                    fb.draw(&camera, &soup, &pass.colormap, (lo, hi));
                })
                .0;
                let (t, merged) = timed(|| composite_to_root(comm, std::mem::take(&mut fb)));
                sums[2] += t;
                let Some(mut merged) = merged else { continue };
                let (t, png) = timed(|| {
                    merged.draw_legend(&pass.colormap, (lo, hi));
                    encode_png(&merged)
                });
                sums[3] += t;
                png_bytes += png.len() as f64;
                let path = dir.join(format!("{}.png", pass.name));
                sums[4] += timed(|| std::fs::write(&path, &png).expect("write a station PNG")).0;
                fb = merged;
            }
            // Round 0 warms the buffers up.
            if rep > 0 {
                for (series, sum) in stage_ms.iter_mut().zip(sums) {
                    series.push(sum * 1e3);
                }
            }
        }
        let passes = pipeline.passes.len() as f64;
        (
            stage_ms.map(|s| median(&s)),
            triangles / passes,
            png_bytes / passes,
        )
    });
    let (stage_ms, triangles, png_bytes) = &per_rank[0];
    m.set("render.filter_ms", stage_ms[0]);
    m.set("render.raster_ms", stage_ms[1]);
    m.set("render.composite_ms", stage_ms[2]);
    m.set("render.encode_png_ms", stage_ms[3]);
    m.set("render.file_write_ms", stage_ms[4]);
    m.set("render.triangles_per_frame", *triangles);
    m.set("render.png_bytes_per_frame", *png_bytes);
    checks.check(*triangles > 0.0, || {
        "the render station extracted no geometry".into()
    });
}

/// NekRS-style field dumps of the workload's snapshot: encode and read
/// back.
pub fn fld(cfg: &InSituConfig, reps: usize, m: &mut Metrics, checks: &mut Checks) {
    let case = cfg.case.clone();
    let per_rank = run_ranks(cfg.ranks, cfg.machine.clone(), move |comm| {
        let (_mb, snap) = payload(comm, &case, &["pressure", "velocity"]);
        let encoded = encode_fld(&snap);
        let encode_ms = median_ms(reps, || {
            black_box(encode_fld(&snap));
        });
        let read_ms = median_ms(reps, || {
            black_box(read_fld(&encoded.bytes).expect("a dump just encoded"));
        });
        let dump = read_fld(&encoded.bytes).expect("a dump just encoded");
        let round_trip = dump.field("pressure") == snap.field("pressure").map(|f| f.values());
        (encode_ms, read_ms, encoded.bytes.len(), round_trip)
    });
    let (encode_ms, read_ms, bytes, round_trip) = per_rank[0];
    m.set("core.fld_encode_ms", encode_ms);
    m.set("core.fld_read_ms", read_ms);
    m.set("core.fld_bytes", bytes as f64);
    checks.check(round_trip, || {
        "fld dump did not read back its pressure field".into()
    });
}

/// What the observability plane costs when it is on (it is off in every
/// end-to-end row), on half the workload's steps.
pub fn observability(cfg: &InSituConfig, rounds: usize, m: &mut Metrics) {
    let mut plain = cfg.clone();
    plain.steps = (cfg.steps / 2).max(2);
    let with = |telemetry: bool, trace: bool| {
        let mut c = plain.clone();
        c.telemetry = telemetry;
        c.trace = trace;
        c
    };
    let (telemetry_on, trace_on, both_on) =
        (with(true, false), with(false, true), with(true, true));
    let walls = alternate(
        0.0,
        rounds,
        &mut [
            &mut || timed(|| run_insitu(&plain)).0,
            &mut || timed(|| run_insitu(&telemetry_on)).0,
            &mut || timed(|| run_insitu(&trace_on)).0,
        ],
    );
    let plain_s = median(&walls[0]);
    m.set(
        "telemetry.on_overhead_pct",
        pct_over(median(&walls[1]), plain_s),
    );
    m.set(
        "trace.on_overhead_pct",
        pct_over(median(&walls[2]), plain_s),
    );

    let report = run_insitu(&both_on);
    let run_report = report.run_report.as_ref().expect("telemetry was on");
    let text = run_report.to_json();
    m.set("telemetry.report_bytes", text.len() as f64);
    m.set(
        "telemetry.report_json_ms",
        median_ms(5, || {
            black_box(run_report.to_json());
        }),
    );
    m.set(
        "telemetry.report_parse_ms",
        median_ms(5, || {
            black_box(RunReport::from_json(&text).expect("a report just written"));
        }),
    );
    let bounds: Vec<(u64, f64, f64)> = run_report
        .series
        .iter()
        .map(|s| (s.step, s.t_start, s.t_end))
        .collect();
    m.set(
        "trace.critical_path_ms",
        median_ms(5, || {
            black_box(critical_path(&report.traces, &bounds));
        }),
    );
}

// ---------------------------------------------------------------------------
// commsim
// ---------------------------------------------------------------------------

/// World spawn and the basic collectives at the workload's rank count,
/// under both schedulers.
pub fn commsim(ranks: usize, iters: usize, m: &mut Metrics) {
    let machine = MachineModel::polaris;
    // Mean µs per call of `op` over `iters` calls, timed on rank 0 between
    // two barriers.
    let per_call_us = |mode: SchedMode, op: fn(&mut Comm)| {
        with_mode(mode, || {
            run_ranks(ranks, machine(), move |comm| {
                comm.barrier();
                let started = Instant::now();
                for _ in 0..iters {
                    op(comm);
                }
                started.elapsed().as_secs_f64() * 1e6 / iters as f64
            })[0]
        })
    };
    for (mode, label) in [(SchedMode::Event, "event"), (SchedMode::Thread, "thread")] {
        let spawn_ms = median_ms(10, || {
            with_mode(mode, || {
                black_box(run_ranks(ranks, machine(), |comm| comm.rank()))
            });
        });
        m.set(&format!("commsim.world_spawn_ms_{label}"), spawn_ms);
        m.set(
            &format!("commsim.barrier_us_{label}"),
            per_call_us(mode, |comm| comm.barrier()),
        );
    }
    m.set(
        "commsim.allreduce_us_event",
        per_call_us(SchedMode::Event, |comm| {
            black_box(comm.allreduce(1.0, ReduceOp::Sum));
        }),
    );
    m.set(
        "commsim.sendrecv_ring_us_event",
        per_call_us(SchedMode::Event, |comm| {
            let (rank, size) = (comm.rank(), comm.size());
            comm.send((rank + 1) % size, 7, rank, 8);
            black_box(comm.recv::<usize>((rank + size - 1) % size, 7));
        }),
    );
}

// ---------------------------------------------------------------------------
// transport
// ---------------------------------------------------------------------------

/// Steps pushed through each wire by the writer-put station.
const WIRE_STEPS: u64 = 200;

/// BP marshaling, CRC and both wires on sim rank 0's real block.
pub fn transport(cfg: &InTransitConfig, reps: usize, m: &mut Metrics, checks: &mut Checks) {
    let case = cfg.case.clone();
    let arrays = ["pressure", "velocity", "temperature"];
    let mut blocks = run_ranks(cfg.sim_ranks, cfg.machine.clone(), move |comm| {
        payload(comm, &case, &arrays).0
    });
    let mb = blocks.swap_remove(0);

    let frame = marshal_blocks(0, 1, 0.1, &mb);
    m.set("transport.bp_bytes_per_step", frame.len() as f64);
    m.set(
        "transport.marshal_ms",
        median_ms(reps, || {
            black_box(marshal_blocks(0, 1, 0.1, &mb));
        }),
    );
    m.set(
        "transport.unmarshal_ms",
        median_ms(reps, || {
            black_box(unmarshal_blocks(&frame).expect("a frame just marshaled"));
        }),
    );
    let back = unmarshal_blocks(&frame).expect("a frame just marshaled");
    checks.check(
        back.step == 1 && back.blocks.len() == mb.local_blocks().count(),
        || "BP frame did not unmarshal to the block it was marshaled from".into(),
    );
    // Enough passes to stream 64 MB through the checksum.
    let passes = (64 << 20) / frame.len().max(1) + 1;
    let (crc_s, ()) = timed(|| {
        for _ in 0..passes {
            black_box(crc32(black_box(&frame)));
        }
    });
    m.set(
        "transport.crc_MBps",
        (passes * frame.len()) as f64 / 1e6 / crc_s,
    );

    let steps = if reps < 5 { 10 } else { WIRE_STEPS };
    for (wire, name) in [
        (WireKind::Tcp, "transport.wire_tcp_MBps"),
        (WireKind::Channel, "transport.wire_channel_MBps"),
    ] {
        let (put_ms, mbps, received) = wire_station(cfg, wire, &mb, steps);
        checks.count(steps, received, "steps through the wire station");
        m.set(name, mbps);
        if wire == cfg.wire {
            m.set("transport.writer_put_ms_p50", median(&put_ms));
        }
    }
}

/// One writer pushing `steps` copies of `mb` through `TransportAnalysis`
/// over `wire` to one draining reader. Returns the per-put times (ms),
/// payload MB/s from first put to last receive, and steps received.
fn wire_station(
    cfg: &InTransitConfig,
    wire: WireKind,
    mb: &MultiBlock,
    steps: u64,
) -> (Vec<f64>, f64, u64) {
    let (writers, readers) = StagingNetwork::build_wired(
        1,
        1,
        cfg.queue_capacity,
        cfg.link,
        cfg.policy,
        FaultPlan::none(),
        cfg.writer_config,
        wire,
    )
    .expect("wire setup");
    let machine = cfg.machine.clone();
    let reader = std::thread::spawn(move || {
        run_ranks_with_state(machine, readers, |comm, mut reader| {
            let mut received = 0;
            while let Ok(Some(_delivery)) = reader.recv_step(comm) {
                received += 1;
            }
            (received, reader.bytes_received())
        })
        .swap_remove(0)
    });
    let started = Instant::now();
    let block = mb.clone();
    let put_ms = run_ranks_with_state(cfg.machine.clone(), writers, move |comm, writer| {
        let arrays = ["pressure", "velocity", "temperature"]
            .map(String::from)
            .to_vec();
        let mut analysis = TransportAnalysis::new(MESH_NAME, arrays, writer);
        (1..=steps)
            .map(|step| {
                let mut da =
                    StaticDataAdaptor::new(MESH_NAME, block.clone(), step as f64 * 0.1, step);
                timed(|| analysis.execute(comm, &mut da).expect("put")).0 * 1e3
            })
            .collect::<Vec<f64>>()
    })
    .swap_remove(0);
    let (received, bytes) = reader.join().expect("reader world");
    let mbps = bytes as f64 / 1e6 / started.elapsed().as_secs_f64();
    (put_ms, mbps, received)
}

/// The staging tier's park file: append `frames` as the service does, then
/// read them back as a late joiner's catch-up does. Returns
/// `(append ms, read ms)` per step.
pub fn park_file(dir: &Path, frame: &[u8], steps: usize) -> (f64, f64) {
    let dir = dir.to_path_buf();
    std::fs::create_dir_all(&dir).expect("create the station directory");
    let frame = frame.to_vec();
    run_ranks(1, MachineModel::test_tiny(), move |comm| {
        let mut writer = BpFileWriter::create(&dir, 0).expect("create the park file");
        let appends: Vec<f64> = (0..steps)
            .map(|_| timed(|| writer.append(comm, &frame).expect("append")).0 * 1e3)
            .collect();
        let path = writer.path().to_path_buf();
        drop(writer);
        let mut reader = BpFileReader::open(&path).expect("open the park file");
        let mut reads = Vec::with_capacity(steps);
        loop {
            let (t, step) = timed(|| reader.next_step().expect("read a parked step"));
            if step.is_none() {
                break;
            }
            reads.push(t * 1e3);
        }
        assert_eq!(reads.len(), steps, "every parked step reads back");
        (median(&appends), median(&reads))
    })
    .swap_remove(0)
}
