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
tts 0x3f67c6f55cb91bde
totals CommStats { messages_sent: 654, bytes_sent: 130800, messages_received: 654, collectives: 742, bytes_written_fs: 0, files_written: 0, bytes_d2h: 0, bytes_h2d: 0, time_gpu_compute: 1.5468479999999995e-5, time_host_compute: 5.2751249999999955e-6, time_xfer: 0.0, time_io: 0.0, time_comm: 0.004054821130070034 }
bytes_written 0
files_written 0
gpu_aggregate_peak 104936
unscoped 0
snapshot_pool_rank_peak 0
host_aggregate_peak 172080
host_max_rank_peak 105480
span sem/advection x12 0x3f17d0c027877d12
span sem/cg x48 0x3f6c42025e78cbba
span sem/diagnostics x12 0x3f04801918670860
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x72 0x3f6024f30003447a
span sem/pressure x12 0x3effa8a5f9967570
span sem/project x12 0x3f17b944931816d8
span sem/viscous x12 0x3f17d5f80fa03f38
span sim/finalize x2 0x3edb4456479a9800
span sim/setup x2 0x3f0340664ae4a5e0
step 1 0x3ef3404409dd72f7 0x3f42f94048bb49b7 0x0000000000000000
step 2 0x3f42f94048bb49b7 0x3f521194e9ff9991 0x0000000000000000
step 3 0x3f521194e9ff9991 0x3f59d5af1c980dd6 0x0000000000000000
step 4 0x3f59d5af1c980dd6 0x3f60cce4a7984124 0x0000000000000000
step 5 0x3f60cce4a7984124 0x3f644684775fbb2e 0x0000000000000000
step 6 0x3f644684775fbb2e 0x3f67c02447273538 0x0000000000000000
";
const CHECKPOINTING_SYNC: &str = "
tts 0x3f8876e5f8dc99c6
totals CommStats { messages_sent: 654, bytes_sent: 130800, messages_received: 654, collectives: 742, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.5468479999999995e-5, time_host_compute: 6.643124999999996e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.004057435062377471 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 104936
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 194712
host_max_rank_peak 119388
span insitu/checkpoint x6 0x3f9271284f70e5b5
span sem/advection x12 0x3f17d0c027877ad2
span sem/cg x48 0x3f6c45a9ee8d67c2
span sem/diagnostics x12 0x3f048019186706a0
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x72 0x3f6024f3000344a8
span sem/pressure x12 0x3effa8a5f9967070
span sem/project x12 0x3f17b94493181278
span sem/viscous x12 0x3f17d5f80fa03b18
span sim/finalize x2 0x3edeebe65c391800
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3404409dd72f7 0x3f42f94048bb49b7 0x0000000000000000
step 2 0x3f42f94048bb49b7 0x3f70dc411799a0dc 0x0000000000000000
step 3 0x3f70dc411799a0dc 0x3f72ce318844e586 0x0000000000000000
step 4 0x3f72ce318844e586 0x3f808b89f9025e83 0x0000000000000000
step 5 0x3f808b89f9025e83 0x3f816a66def6d0b2 0x0000000000000000
step 6 0x3f816a66def6d0b2 0x3f8874bcc1758c4c 0x0000000000000000
";
const CHECKPOINTING_PIPELINED: &str = "
tts 0x3f84ba693fc23ead
totals CommStats { messages_sent: 654, bytes_sent: 130800, messages_received: 654, collectives: 742, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.5468479999999995e-5, time_host_compute: 6.643124999999995e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.0040560812408392665 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 104936
unscoped 0
host_aggregate_peak_less_pool 183480
span insitu/checkpoint x6 0x3f9271284f70e5b4
span insitu/wait x8 0x3f624517529918d0
span sem/advection x12 0x3f17d0c027877d12
span sem/cg x48 0x3f6c428d86a60a95
span sem/diagnostics x12 0x3f04801918670860
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x72 0x3f6024f30003447a
span sem/pressure x12 0x3effa8a5f9967570
span sem/project x12 0x3f17b944931816d8
span sem/viscous x12 0x3f17d5f80fa03f58
span sim/finalize x2 0x3edf770e8977f000
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x2 0x3f638aff9ec22ae8
span snapshot/publish x6 0x3f1350e7398fb780
step 1 0x3ef3404409dd72f7 0x3f42f94048bb49b7 0x0000000000000000
step 2 0x3f42f94048bb49b7 0x3f5244d1be827966 0x0000000000000000
step 3 0x3f5244d1be827966 0x3f5a097719482c7f 0x0000000000000000
step 4 0x3f5a097719482c7f 0x3f6100671031c066 0x0000000000000000
step 5 0x3f6100671031c066 0x3f647a4c740fd9db 0x0000000000000000
step 6 0x3f647a4c740fd9db 0x3f70e9104cba58d1 0x3f53892bd6b7dba6
";
const CATALYST_SYNC: &str = "
tts 0x3f958c51aa445169
totals CommStats { messages_sent: 660, bytes_sent: 259824, messages_received: 660, collectives: 774, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.5468479999999995e-5, time_host_compute: 3.0225085000000012e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.022223601833006826 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 104936
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 292904
host_max_rank_peak 170008
span insitu/copy x6 0x3eb01f4ab19eb800
span insitu/execute x6 0x3ef51af4a3ff8080
span render/composite x12 0x3efef633fa26ad40
span render/filter x12 0x3f1922efcbccc550
span render/raster x12 0x3eea30fb17048380
span render/write x6 0x3f9272347d5eb3e5
span sem/advection x12 0x3f88ca32f9f61e98
span sem/cg x48 0x3f6c4c6b585da0a4
span sem/diagnostics x12 0x3f048019186704a0
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x72 0x3f6024f3000344aa
span sem/pressure x12 0x3effaa4105ecd270
span sem/project x12 0x3f17b944931810f8
span sem/viscous x12 0x3f17d5f80fa03a58
span sim/finalize x2 0x3f78a407a4457358
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/publish x6 0x3f1350e7398fb7e0
step 1 0x3ef3404409dd72f7 0x3f43162cf2c30ba2 0x0000000000000000
step 2 0x3f43162cf2c30ba2 0x3f7d4b6ae92b7af4 0x0000000000000000
step 3 0x3f7d4b6ae92b7af4 0x3f7f3c6c826b8da2 0x0000000000000000
step 4 0x3f7f3c6c826b8da2 0x3f8cf86d943e236f 0x0000000000000000
step 5 0x3f8cf86d943e236f 0x3f8dd6d30e7cfca0 0x0000000000000000
step 6 0x3f8dd6d30e7cfca0 0x3f958b7787921494 0x0000000000000000
";
const CATALYST_PIPELINED: &str = "
tts 0x3f93ae0bdb8af6d8
totals CommStats { messages_sent: 660, bytes_sent: 259824, messages_received: 660, collectives: 774, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 1.5468479999999995e-5, time_host_compute: 3.0225084999999995e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.019502302342097967 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 104936
unscoped 0
host_aggregate_peak_less_pool 281672
span insitu/copy x6 0x3eb01f4ab19eb800
span insitu/execute x6 0x3f86bc99c906d6e2
span insitu/wait x8 0x3f69ff0cc1776d8a
span render/composite x12 0x3efef633fa26ad40
span render/filter x12 0x3f1922efcbccc6d0
span render/raster x12 0x3eea30fb17047b80
span render/write x6 0x3f9272347d5eb3e6
span sem/advection x12 0x3f17d0c027877d12
span sem/cg x48 0x3f6c428cfda1edcb
span sem/diagnostics x12 0x3f04801918670860
span sem/filter x12 0x0000000000000000
span sem/mg_coarse x72 0x3f6024f30003447a
span sem/pressure x12 0x3effa8a5f9967570
span sem/project x12 0x3f17b944931816d8
span sem/viscous x12 0x3f17d5f80fa03f58
span sim/finalize x2 0x3f7154857d856fb4
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x2 0x3f714dd731fed8c4
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3404409dd72f7 0x3f43162cf2c30ba2 0x0000000000000000
step 2 0x3f43162cf2c30ba2 0x3f52534813865a5c 0x0000000000000000
step 3 0x3f52534813865a5c 0x3f5a17ed6e4c0d75 0x0000000000000000
step 4 0x3f5a17ed6e4c0d75 0x3f6107a23ab3b0e2 0x0000000000000000
step 5 0x3f6107a23ab3b0e2 0x3f6481879e91ca57 0x0000000000000000
step 6 0x3f6481879e91ca57 0x3f7d583a1e4c32e9 0x3f714dd731fed8c4
";
const CHECKPOINTING_PIPELINED_STALLED: &str = "
tts 0x404901adeb387c25
totals CommStats { messages_sent: 846, bytes_sent: 169200, messages_received: 846, collectives: 966, bytes_written_fs: 45600, files_written: 8, bytes_d2h: 44928, bytes_h2d: 0, time_gpu_compute: 2.0034560000000007e-5, time_host_compute: 8.539124999999994e-6, time_xfer: 9.82464e-5, time_io: 0.024011224615384616, time_comm: 50.00740498933028 }
bytes_written 45600
files_written 8
gpu_aggregate_peak 104936
unscoped 0
host_aggregate_peak_less_pool 183480
span insitu/checkpoint x8 0x3f9896e069ebdbd3
span insitu/stall x1 0x4049000000000000
span insitu/wait x10 0x4048ffa0eab290e7
span sem/advection x16 0x40490003da91edb9
span sem/cg x64 0x3f7261b88708054a
span sem/diagnostics x16 0x3f0b5576cb670860
span sem/filter x16 0x0000000000000000
span sem/mg_coarse x92 0x3f64a0fd9c74c47a
span sem/pressure x16 0x3f051b80146b3ab8
span sem/project x16 0x3f1fa1b0c47816d8
span sem/viscous x16 0x3f1fc7f56a603f58
span sim/finalize x2 0x3f6196a1c3e10000
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x4 0x4049009451132e57
span snapshot/publish x8 0x3f19c1344cc1ba40
step 1 0x3ef3404409dd72f7 0x3f42f94048bb49b7 0x0000000000000000
step 2 0x3f42f94048bb49b7 0x3f5244d1be827966 0x0000000000000000
step 3 0x3f5244d1be827966 0x3f5a097719482c7f 0x0000000000000000
step 4 0x3f5a097719482c7f 0x3f6100671031c066 0x0000000000000000
step 5 0x3f6100671031c066 0x3f647a4c740fd9db 0x0000000000000000
step 6 0x3f647a4c740fd9db 0x40490087488265d3 0x404900271257ad70
step 7 0x40490087488265d3 0x404900952eda09f4 0x0000000000000000
step 8 0x404900952eda09f4 0x404900e9a0e7a59b 0x3f6189452cd38000
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
