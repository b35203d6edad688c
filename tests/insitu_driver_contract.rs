//! Contract: what `run_insitu` produces for every `InSituMode × ExecMode`
//! cell, pinned bit-for-bit to the values commit `a3ecdf3` produced, under
//! both schedulers. A driver refactor that moves a virtual clock, a
//! counter, a byte written, a memory peak, a span or a flight-recorder
//! sample fails here with a line diff.
//!
//! Each cell is rendered as text (floats as IEEE bit patterns) and
//! compared to the block captured at `a3ecdf3`. To re-capture after an
//! *intended* change, paste the "actual" block the failure prints.
//!
//! One quantity is not pinned exactly: in pipelined cells the
//! `snapshot-pool` accountant's peak depends on whether the consumer
//! thread returned a buffer before the producer's next publish (real
//! time, not virtual), so those cells pin the `PIPELINE_DEPTH` bound and
//! the host peaks net of the pool instead.

use commsim::{ConsumerStall, FaultPlan, MachineModel, SchedMode};
use nek_sensei::{run_insitu, ExecMode, InSituConfig, InSituMode, InSituReport, PIPELINE_DEPTH};
use sem::cases::{pb146, CaseParams};
use std::fmt::Write;

fn config(mode: InSituMode, exec: ExecMode) -> InSituConfig {
    let mut params = CaseParams::pb146_default();
    params.elems = [2, 2, 4];
    params.order = 2;
    InSituConfig {
        case: pb146(&params, 4),
        ranks: 2,
        steps: 6,
        trigger_every: 2,
        machine: MachineModel::polaris(),
        image_size: (64, 48),
        mode,
        exec,
        sched: SchedMode::Thread,
        faults: FaultPlan::none(),
        output_dir: None,
        trace: true,
        telemetry: true,
        recovery: Default::default(),
    }
}

/// The pipelined Checkpointing cell with rank 0's consumer stalled long
/// enough that the credit window fills and the producer backpressures.
fn stalled_config() -> InSituConfig {
    let mut cfg = config(InSituMode::Checkpointing, ExecMode::Pipelined);
    cfg.steps = 8;
    cfg.faults = FaultPlan {
        stalls: vec![ConsumerStall {
            endpoint: 0,
            at_step: 2,
            seconds: 50.0,
        }],
        ..FaultPlan::none()
    };
    cfg
}

/// Everything the contract covers, one quantity per line.
fn fingerprint(r: &InSituReport) -> String {
    let pipelined = r.exec == ExecMode::Pipelined && r.mode != InSituMode::Original;
    let m = &r.metrics;
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "tts {:#018x}", m.time_to_solution.to_bits()).unwrap();
    writeln!(w, "totals {:?}", m.totals).unwrap();
    writeln!(w, "bytes_written {}", r.bytes_written).unwrap();
    writeln!(w, "files_written {}", r.files_written).unwrap();
    writeln!(w, "gpu_aggregate_peak {}", m.memory.gpu_aggregate_peak).unwrap();
    writeln!(w, "unscoped {}", m.memory.unscoped).unwrap();
    let report = r.run_report.as_ref().expect("telemetry: true");
    if pipelined {
        // See the module docs: the pool peak is bounded, not exact.
        let pool: u64 = report
            .watermarks
            .iter()
            .filter(|(name, _, _)| name.ends_with("/snapshot-pool"))
            .map(|(_, _, peak)| *peak)
            .sum();
        writeln!(
            w,
            "host_aggregate_peak_less_pool {}",
            m.memory.host_aggregate_peak - pool
        )
        .unwrap();
    } else {
        writeln!(w, "snapshot_pool_rank_peak {}", r.snapshot_pool_rank_peak).unwrap();
        writeln!(w, "host_aggregate_peak {}", m.memory.host_aggregate_peak).unwrap();
        writeln!(w, "host_max_rank_peak {}", m.memory.host_max_rank_peak).unwrap();
    }
    let phases = r.phases.as_ref().expect("trace: true");
    for name in phases.names() {
        writeln!(
            w,
            "span {name} x{} {:#018x}",
            phases.count(&name),
            phases.self_total(&name).to_bits()
        )
        .unwrap();
    }
    for s in &report.series {
        writeln!(
            w,
            "step {} {:#018x} {:#018x} {:#018x}",
            s.step,
            s.t_start.to_bits(),
            s.t_end.to_bits(),
            s.backpressure_wait.to_bits()
        )
        .unwrap();
    }
    out
}

fn check(cell: &str, cfg: &InSituConfig, expected: &str) {
    for sched in [SchedMode::Thread, SchedMode::Event] {
        let mut cfg = cfg.clone();
        cfg.sched = sched;
        let r = run_insitu(&cfg);
        let actual = fingerprint(&r);
        let diff: Vec<String> = actual
            .lines()
            .zip(expected.trim_start().lines())
            .filter(|(a, e)| a != e)
            .map(|(a, e)| format!("  actual   {a}\n  expected {e}"))
            .collect();
        assert!(
            actual == expected.trim_start(),
            "{cell} under {} moved from a3ecdf3:\n{}\n--- actual block ---\n{actual}",
            sched.label(),
            diff.join("\n")
        );
        if cfg.exec == ExecMode::Pipelined && cfg.mode != InSituMode::Original {
            let sync_peak = run_insitu(&InSituConfig {
                exec: ExecMode::Synchronous,
                faults: FaultPlan::none(),
                trace: false,
                telemetry: false,
                ..cfg.clone()
            })
            .snapshot_pool_rank_peak;
            assert!(
                (sync_peak..=PIPELINE_DEPTH as u64 * sync_peak)
                    .contains(&r.snapshot_pool_rank_peak),
                "{cell}: pool peak {} outside [1, {PIPELINE_DEPTH}] x {sync_peak}",
                r.snapshot_pool_rank_peak
            );
        }
    }
}

const ORIGINAL: &str = "
tts 0x3f6f71f4503a3798
totals CommStats { messages_sent: 738, bytes_sent: 147600, messages_received: 738, collectives: 1786, bytes_written_fs: 0, files_written: 0, bytes_d2h: 0, bytes_h2d: 0, time_gpu_compute: 1.855871999999993e-5, time_host_compute: 0.0, time_xfer: 0.0, time_io: 0.0, time_comm: 0.0076584759910492345 }
bytes_written 0
files_written 0
gpu_aggregate_peak 89856
unscoped 0
snapshot_pool_rank_peak 0
host_aggregate_peak 168480
host_max_rank_peak 103680
span sem/advection x12 0x3f17d0c027877d72
span sem/cg x48 0x3f7dde9218cf17da
span sem/diagnostics x12 0x3f048019186708a0
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effa8a5f9967600
span sem/project x12 0x3f17b94493181738
span sem/viscous x12 0x3f17d5f80fa03f58
span sim/finalize x2 0x3edb4456479a9800
span sim/setup x2 0x3f03342b42eaa03a
step 1 0x3ef3340901e36d50 0x3f47421a8c2e8327 0x0000000000000000
step 2 0x3f47421a8c2e8327 0x3f5627125ab96579 0x0000000000000000
step 3 0x3f5627125ab96579 0x3f60568bb7adc4be 0x0000000000000000
step 4 0x3f60568bb7adc4be 0x3f657fc762922c86 0x0000000000000000
step 5 0x3f657fc762922c86 0x3f6a75754e9d3ebc 0x0000000000000000
step 6 0x3f6a75754e9d3ebc 0x3f6f6b233aa850f2 0x0000000000000000
";
const CHECKPOINTING_SYNC: &str = "
tts 0x3f8a61a5b5bce05d
totals CommStats { messages_sent: 738, bytes_sent: 147600, messages_received: 738, collectives: 1786, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.855871999999993e-5, time_host_compute: 1.3679999999999999e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.007661089923356384 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 89856
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 191112
host_max_rank_peak 117588
span insitu/checkpoint x6 0x3f9271284f70e5b5
span sem/advection x12 0x3f17d0c027877ad2
span sem/cg x48 0x3f7de065e0d9649c
span sem/diagnostics x12 0x3f048019186706a0
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effa8a5f9967080
span sem/project x12 0x3f17b94493181248
span sem/viscous x12 0x3f17d5f80fa03b08
span sim/finalize x2 0x3edeebe65c391800
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3340901e36d50 0x3f47421a8c2e8327 0x0000000000000000
step 2 0x3f47421a8c2e8327 0x3f71e1a073c813d6 0x0000000000000000
step 3 0x3f71e1a073c813d6 0x3f74840b9cf5c472 0x0000000000000000
step 4 0x3f74840b9cf5c472 0x3f81b842a7c0d941 0x0000000000000000
step 5 0x3f81b842a7c0d941 0x3f82f62314c6315c 0x0000000000000000
step 6 0x3f82f62314c6315c 0x3f8a5f7c7e55d2e3 0x0000000000000000
";
const CHECKPOINTING_PIPELINED: &str = "
tts 0x3f853d18edd9782a
totals CommStats { messages_sent: 738, bytes_sent: 147600, messages_received: 738, collectives: 1786, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.855871999999993e-5, time_host_compute: 1.3679999999999999e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.007659736101818466 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 89856
unscoped 0
host_aggregate_peak_less_pool 179880
span insitu/checkpoint x6 0x3f9271284f70e5b4
span insitu/wait x8 0x3f665a94c352e4b8
span sem/advection x12 0x3f17d0c027877d72
span sem/cg x48 0x3f7dded7ace5b746
span sem/diagnostics x12 0x3f048019186708a0
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effa8a5f9967600
span sem/project x12 0x3f17b94493181738
span sem/viscous x12 0x3f17d5f80fa03f68
span sim/finalize x2 0x3edf770e8977f000
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/backpressure x2 0x3f5094fe50f37ebc
span snapshot/publish x6 0x3f1350e7398fb780
step 1 0x3ef3340901e36d50 0x3f47421a8c2e8327 0x0000000000000000
step 2 0x3f47421a8c2e8327 0x3f565a4f2f3c454e 0x0000000000000000
step 3 0x3f565a4f2f3c454e 0x3f60706fb605d415 0x0000000000000000
step 4 0x3f60706fb605d415 0x3f65b349cb2babc7 0x0000000000000000
step 5 0x3f65b349cb2babc7 0x3f6aa93d4b4d5d68 0x0000000000000000
step 6 0x3f6aa93d4b4d5d68 0x3f71ee6fa8e8cbcb 0x3f409156c0dee038
";
const CATALYST_SYNC: &str = "
tts 0x3f9681b188b474ce
totals CommStats { messages_sent: 744, bytes_sent: 276624, messages_received: 744, collectives: 1818, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.855871999999993e-5, time_host_compute: 2.4949959999999994e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.025827256693985758 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 89856
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 289304
host_max_rank_peak 168208
span insitu/copy x6 0x3eb01f4ab19eb800
span insitu/execute x6 0x3ef51af4a3ff8480
span render/composite x12 0x3efef633fa26b340
span render/filter x12 0x3f1922efcbccc7d0
span render/raster x12 0x3eea30fb17046f80
span render/write x6 0x3f9272347d5eb3e4
span sem/advection x12 0x3f88ca32f9f61e95
span sem/cg x48 0x3f7de3c695c181da
span sem/diagnostics x12 0x3f048019186706a0
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effaa4105ecd080
span sem/project x12 0x3f17b94493180f48
span sem/viscous x12 0x3f17d5f80fa03b08
span sim/finalize x2 0x3f78a407a4457358
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/publish x6 0x3f1350e7398fb7e0
step 1 0x3ef3340901e36d50 0x3f475f0736364512 0x0000000000000000
step 2 0x3f475f0736364512 0x3f7e50ca4559edee 0x0000000000000000
step 3 0x3f7e50ca4559edee 0x3f8079234b8e363a 0x0000000000000000
step 4 0x3f8079234b8e363a 0x3f8e252642fc9e10 0x0000000000000000
step 5 0x3f8e252642fc9e10 0x3f8f628f444c5d2e 0x0000000000000000
step 6 0x3f8f628f444c5d2e 0x3f9680d7660237f9 0x0000000000000000
";
const CATALYST_PIPELINED: &str = "
tts 0x3f93ef63b2969396
totals CommStats { messages_sent: 744, bytes_sent: 276624, messages_received: 744, collectives: 1818, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.855871999999993e-5, time_host_compute: 2.494996e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.02209487571384624 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 89856
unscoped 0
host_aggregate_peak_less_pool 278072
span insitu/copy x6 0x3eb01f4ab19eb800
span insitu/execute x6 0x3f861290c85f9586
span insitu/wait x8 0x3f705e571a671f6f
span render/composite x12 0x3efef633fa26ad40
span render/filter x12 0x3f1922efcbccc6d0
span render/raster x12 0x3eea30fb17047b80
span render/write x6 0x3f9272347d5eb3e5
span sem/advection x12 0x3f17d0c027877d72
span sem/cg x48 0x3f7dded76863a8e2
span sem/diagnostics x12 0x3f048019186708a0
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effa8a5f9967600
span sem/project x12 0x3f17b94493181738
span sem/viscous x12 0x3f17d5f80fa03f68
span sim/finalize x2 0x3f6d08cabfe6a9a3
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/backpressure x2 0x3f6cfb6e28d97bc2
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3340901e36d50 0x3f475f0736364512 0x0000000000000000
step 2 0x3f475f0736364512 0x3f5668c584402644 0x0000000000000000
step 3 0x3f5668c584402644 0x3f6077aae087c491 0x0000000000000000
step 4 0x3f6077aae087c491 0x3f65ba84f5ad9c43 0x0000000000000000
step 5 0x3f65ba84f5ad9c43 0x3f6ab07875cf4de4 0x0000000000000000
step 6 0x3f6ab07875cf4de4 0x3f7e5d997a7aa5e3 0x3f6cfb6e28d97bc2
";
const CHECKPOINTING_PIPELINED_STALLED: &str = "
tts 0x404901b616335d99
totals CommStats { messages_sent: 964, bytes_sent: 192800, messages_received: 964, collectives: 2332, bytes_written_fs: 45600, files_written: 8, bytes_d2h: 44928, bytes_h2d: 0, time_gpu_compute: 2.4282719999999816e-5, time_host_compute: 1.824e-6, time_xfer: 9.82464e-5, time_io: 0.024011224615384616, time_comm: 50.011814893002494 }
bytes_written 45600
files_written 8
gpu_aggregate_peak 89856
unscoped 0
host_aggregate_peak_less_pool 179880
span insitu/checkpoint x8 0x3f9896e069ebdbd3
span insitu/stall x1 0x4049000000000000
span insitu/wait x10 0x4048ffbbebc6bd52
span sem/advection x16 0x40490003da91edba
span sem/cg x64 0x3f83840b2c9a1ba4
span sem/diagnostics x16 0x3f0b5576cb6708a0
span sem/filter x16 0x0000000000000000
span sem/pressure x16 0x3f051b80146b3b00
span sem/project x16 0x3f1fa1b0c4781738
span sem/viscous x16 0x3f1fc7f56a603f68
span sim/finalize x2 0x3f5dd7b453008000
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/backpressure x4 0x4049005ca3f2ebb2
span snapshot/publish x8 0x3f19c1344cc1ba40
step 1 0x3ef3340901e36d50 0x3f47421a8c2e8327 0x0000000000000000
step 2 0x3f47421a8c2e8327 0x3f565a4f2f3c454e 0x0000000000000000
step 3 0x3f565a4f2f3c454e 0x3f60706fb605d415 0x0000000000000000
step 4 0x3f60706fb605d415 0x3f65b349cb2babc7 0x0000000000000000
step 5 0x3f65b349cb2babc7 0x3f6aa93d4b4d5d68 0x0000000000000000
step 6 0x3f6aa93d4b4d5d68 0x4049008f737d4747 0x404900109156c0df
step 7 0x4049008f737d4747 0x404900a2e2f1df04 0x0000000000000000
step 8 0x404900a2e2f1df04 0x404900f1cbe2870f 0x3f5dbcfb24e58000
";

#[test]
fn original_has_no_consumer_in_either_exec_mode() {
    for exec in [ExecMode::Synchronous, ExecMode::Pipelined] {
        check("original", &config(InSituMode::Original, exec), ORIGINAL);
    }
}

#[test]
fn checkpointing_synchronous() {
    let cfg = config(InSituMode::Checkpointing, ExecMode::Synchronous);
    check("checkpointing/synchronous", &cfg, CHECKPOINTING_SYNC);
}

#[test]
fn checkpointing_pipelined() {
    let cfg = config(InSituMode::Checkpointing, ExecMode::Pipelined);
    check("checkpointing/pipelined", &cfg, CHECKPOINTING_PIPELINED);
}

#[test]
fn catalyst_synchronous() {
    let cfg = config(InSituMode::Catalyst, ExecMode::Synchronous);
    check("catalyst/synchronous", &cfg, CATALYST_SYNC);
}

#[test]
fn catalyst_pipelined() {
    let cfg = config(InSituMode::Catalyst, ExecMode::Pipelined);
    check("catalyst/pipelined", &cfg, CATALYST_PIPELINED);
}

#[test]
fn checkpointing_pipelined_with_a_stalled_consumer() {
    check(
        "checkpointing/pipelined/stalled",
        &stalled_config(),
        CHECKPOINTING_PIPELINED_STALLED,
    );
}
