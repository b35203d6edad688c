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
tts 0x3f641a668de3d7c6
totals CommStats { messages_sent: 564, bytes_sent: 112800, messages_received: 564, collectives: 670, bytes_written_fs: 0, files_written: 0, bytes_d2h: 0, bytes_h2d: 0, time_gpu_compute: 1.2540960000000003e-5, time_host_compute: 3.979124999999997e-6, time_xfer: 0.0, time_io: 0.0, time_comm: 0.0035944115916084598 }
bytes_written 0
files_written 0
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 0
host_aggregate_peak 172080
host_max_rank_peak 105480
span sem/advection x12 0x3f17d0c027877d06
span sem/cg x48 0x3f68f245a164ac5e
span sem/diagnostics x12 0x3f04801918670840
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x54 0x3f5837243ed9b754
span sem/pressure x12 0x3effa8a5f9967520
span sem/project x12 0x3f17b94493181648
span sem/viscous x12 0x3f17d5f80fa03f24
span sim/finalize x2 0x3edb4456479a9800
span sim/setup x2 0x3f0340664ae4a5e0
step 1 0x3ef3404409dd72f7 0x3f3f6a9c88080848 0x0000000000000000
step 2 0x3f3f6a9c88080848 0x3f4d9b45ca90a7e5 0x0000000000000000
step 3 0x3f4d9b45ca90a7e5 0x3f54efd1a7fa1286 0x0000000000000000
step 4 0x3f54efd1a7fa1286 0x3f5be2cd6b406479 0x0000000000000000
step 5 0x3f5be2cd6b406479 0x3f61027e16f911a5 0x0000000000000000
step 6 0x3f61027e16f911a5 0x3f6413957851f120 0x0000000000000000
";
const CHECKPOINTING_SYNC: &str = "
tts 0x3f878bc2452748d6
totals CommStats { messages_sent: 564, bytes_sent: 112800, messages_received: 564, collectives: 670, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.2540960000000003e-5, time_host_compute: 5.347124999999997e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.0035970255239159434 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 194712
host_max_rank_peak 119388
span insitu/checkpoint x6 0x3f9271284f70e5b5
span sem/advection x12 0x3f17d0c027877c5e
span sem/cg x48 0x3f68f5ed31794913
span sem/diagnostics x12 0x3f048019186706c0
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x54 0x3f5837243ed9b78a
span sem/pressure x12 0x3effa8a5f9967260
span sem/project x12 0x3f17b94493181278
span sem/viscous x12 0x3f17d5f80fa03b14
span sim/finalize x2 0x3edeebe65c391800
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3404409dd72f7 0x3f3f6a9c88080848 0x0000000000000000
step 2 0x3f3f6a9c88080848 0x3f700b44966bcf74 0x0000000000000000
step 3 0x3f700b44966bcf74 0x3f7194ba2b1d66b7 0x0000000000000000
step 4 0x3f7194ba2b1d66b7 0x3f7fa954f908b5a6 0x0000000000000000
step 5 0x3f7fa954f908b5a6 0x3f80996546dd2664 0x0000000000000000
step 6 0x3f80996546dd2664 0x3f8789990dc03b5c 0x0000000000000000
";
const CHECKPOINTING_PIPELINED: &str = "
tts 0x3f8451eaff2b55f9
totals CommStats { messages_sent: 564, bytes_sent: 112800, messages_received: 564, collectives: 670, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.2540960000000003e-5, time_host_compute: 5.3471249999999975e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.003595671702377694 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 108295
unscoped 0
host_aggregate_peak_less_pool 183480
span insitu/checkpoint x6 0x3f9271284f70e5b4
span insitu/wait x8 0x3f5e024a9bc3a663
span sem/advection x12 0x3f17d0c027877d06
span sem/cg x48 0x3f68f2d0c991eb40
span sem/diagnostics x12 0x3f04801918670840
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x54 0x3f5837243ed9b754
span sem/pressure x12 0x3effa8a5f9967520
span sem/project x12 0x3f17b94493181648
span sem/viscous x12 0x3f17d5f80fa03f24
span sim/finalize x2 0x3edf770e8977f400
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x2 0x3f67a02b37b56d76
span snapshot/publish x6 0x3f1350e7398fb780
step 1 0x3ef3404409dd72f7 0x3f3f6a9c88080848 0x0000000000000000
step 2 0x3f3f6a9c88080848 0x3f4e01bf7396678f 0x0000000000000000
step 3 0x3f4e01bf7396678f 0x3f552399a4aa3130 0x0000000000000000
step 4 0x3f552399a4aa3130 0x3f5c49d23c7362f8 0x0000000000000000
step 5 0x3f5c49d23c7362f8 0x3f61364613a93054 0x0000000000000000
step 6 0x3f61364613a93054 0x3f701813cb8c8769 0x3f579e576fab1e32
";
const CATALYST_SYNC: &str = "
tts 0x3f9516bfd069a8f6
totals CommStats { messages_sent: 570, bytes_sent: 241824, messages_received: 570, collectives: 702, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.2540960000000003e-5, time_host_compute: 2.892908500000001e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.021763192294545316 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 292904
host_max_rank_peak 170008
span insitu/copy x6 0x3eb01f4ab19ebc00
span insitu/execute x6 0x3ef51af4a3ff8180
span render/composite x12 0x3efef633fa26ad60
span render/filter x12 0x3f1922efcbccc6b8
span render/raster x12 0x3eea30fb17047d40
span render/write x6 0x3f9272347d5eb3e4
span sem/advection x12 0x3f88ca32f9f61e98
span sem/cg x48 0x3f68fcae9b498239
span sem/diagnostics x12 0x3f048019186706c0
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x54 0x3f5837243ed9b79e
span sem/pressure x12 0x3effaa4105ecd270
span sem/project x12 0x3f17b94493181278
span sem/viscous x12 0x3f17d5f80fa03b14
span sim/finalize x2 0x3f78a407a4457356
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3404409dd72f7 0x3f3fa475dc178c1f 0x0000000000000000
step 2 0x3f3fa475dc178c1f 0x3f7c7a6e67fda98c 0x0000000000000000
step 3 0x3f7c7a6e67fda98c 0x3f7e02f525440ed2 0x0000000000000000
step 4 0x3f7e02f525440ed2 0x3f8c418e17c01fce 0x0000000000000000
step 5 0x3f8c418e17c01fce 0x3f8d05d17663525d 0x0000000000000000
step 6 0x3f8d05d17663525d 0x3f9515e5adb76c21 0x0000000000000000
";
const CATALYST_PIPELINED: &str = "
tts 0x3f9379ccbb3f827e
totals CommStats { messages_sent: 570, bytes_sent: 241824, messages_received: 570, collectives: 702, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.2540960000000003e-5, time_host_compute: 2.8929084999999993e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.019440578465174878 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 108295
unscoped 0
host_aggregate_peak_less_pool 281672
span insitu/copy x6 0x3eb01f4ab19ebc00
span insitu/execute x6 0x3f870afb04edf1e8
span insitu/wait x8 0x3f658195cd23bbcd
span render/composite x12 0x3efef633fa26ad60
span render/filter x12 0x3f1922efcbccc6b8
span render/raster x12 0x3eea30fb17047d40
span render/write x6 0x3f9272347d5eb3e5
span sem/advection x12 0x3f17d0c027877d02
span sem/cg x48 0x3f68f2d0408dce74
span sem/diagnostics x12 0x3f04801918670840
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x54 0x3f5837243ed9b754
span sem/pressure x12 0x3effa8a5f9967530
span sem/project x12 0x3f17b94493181678
span sem/viscous x12 0x3f17d5f80fa03f34
span sim/finalize x2 0x3f7259d063c24057
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x2 0x3f725322183ba966
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3404409dd72f7 0x3f3fa475dc178c1f 0x0000000000000000
step 2 0x3f3fa475dc178c1f 0x3f4e1eac1d9e297a 0x0000000000000000
step 3 0x3f4e1eac1d9e297a 0x3f55320ff9ae1226 0x0000000000000000
step 4 0x3f55320ff9ae1226 0x3f5c5848917743ee 0x0000000000000000
step 5 0x3f5c5848917743ee 0x3f613d813e2b20d0 0x0000000000000000
step 6 0x3f613d813e2b20d0 0x3f7c873d9d1e6181 0x3f725322183ba966
";
const CHECKPOINTING_PIPELINED_STALLED: &str = "
tts 0x404901a7635472b6
totals CommStats { messages_sent: 736, bytes_sent: 147200, messages_received: 736, collectives: 878, bytes_written_fs: 45600, files_written: 8, bytes_d2h: 44928, bytes_h2d: 0, time_gpu_compute: 1.6413280000000013e-5, time_host_compute: 6.9551249999999955e-6, time_xfer: 9.82464e-5, time_io: 0.024011224615384616, time_comm: 50.0069419495764 }
bytes_written 45600
files_written 8
gpu_aggregate_peak 108295
unscoped 0
host_aggregate_peak_less_pool 183480
span insitu/checkpoint x8 0x3f9896e069ebdbd3
span insitu/stall x1 0x4049000000000000
span insitu/wait x10 0x4048ff9096a70a9e
span sem/advection x16 0x40490003da91edb9
span sem/cg x64 0x3f705b9c823eb5a0
span sem/diagnostics x16 0x3f0b5576cb670840
span sem/filter x16 0x0000000000000000
span sem/mg_coarse x70 0x3f5f63ec9d4db754
span sem/pressure x16 0x3f051b80146b3a90
span sem/project x16 0x3f1fa1b0c4781648
span sem/viscous x16 0x3f1fc7f56a603f24
span sim/finalize x2 0x3f6267b2a0bc0000
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x4 0x404900a7ea05058f
span snapshot/publish x8 0x3f19c1344cc1ba40
step 1 0x3ef3404409dd72f7 0x3f3f6a9c88080848 0x0000000000000000
step 2 0x3f3f6a9c88080848 0x3f4e01bf7396678f 0x0000000000000000
step 3 0x3f4e01bf7396678f 0x3f552399a4aa3130 0x0000000000000000
step 4 0x3f552399a4aa3130 0x3f5c49d23c7362f8 0x0000000000000000
step 5 0x3f5c49d23c7362f8 0x3f61364613a93054 0x0000000000000000
step 6 0x3f61364613a93054 0x40490080c09e5c64 0x4049002f3caedf56
step 7 0x40490080c09e5c64 0x4049008d04d446cf 0x0000000000000000
step 8 0x4049008d04d446cf 0x404900e319039c2c 0x3f625a5609ae8000
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
