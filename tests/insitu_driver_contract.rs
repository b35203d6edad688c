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
tts 0x3f66abb50c08bd38
totals CommStats { messages_sent: 1308, bytes_sent: 181728, messages_received: 1308, collectives: 688, bytes_written_fs: 0, files_written: 0, bytes_d2h: 0, bytes_h2d: 0, time_gpu_compute: 2.046816000000013e-5, time_host_compute: 0.0, time_xfer: 0.0, time_io: 0.0, time_comm: 0.005514378350769292 }
bytes_written 0
files_written 0
gpu_aggregate_peak 104936
unscoped 0
snapshot_pool_rank_peak 0
host_aggregate_peak 168480
host_max_rank_peak 103680
span sem/advection x12 0x3f17d0c027877cb2
span sem/cg x48 0x3f751852d49d9d82
span sem/diagnostics x12 0x3f04801918670820
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effa8a5f9967510
span sem/project x12 0x3f17b944931816d8
span sem/viscous x12 0x3f17d5f80fa03f34
span sim/finalize x2 0x3edb4456479a9800
span sim/setup x2 0x3f03342b42eaa03a
step 1 0x3ef3340901e36d50 0x3f414ca87d60888a 0x0000000000000000
step 2 0x3f414ca87d60888a 0x3f50652e0ac4c062 0x0000000000000000
step 3 0x3f50652e0ac4c062 0x3f582407d6d93c95 0x0000000000000000
step 4 0x3f582407d6d93c95 0x3f5f309d338ab734 0x0000000000000000
step 5 0x3f5f309d338ab734 0x3f631e99481e1915 0x0000000000000000
step 6 0x3f631e99481e1915 0x3f66a4e3f676d692 0x0000000000000000
";
const CHECKPOINTING_SYNC: &str = "
tts 0x3f883015e4b08201
totals CommStats { messages_sent: 1308, bytes_sent: 181728, messages_received: 1308, collectives: 688, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 2.046816000000013e-5, time_host_compute: 1.3679999999999999e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.0055169922830767566 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 104936
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 191112
host_max_rank_peak 117588
span insitu/checkpoint x6 0x3f9271284f70e5b5
span sem/advection x12 0x3f17d0c027877ad2
span sem/cg x48 0x3f751a269ca7eb2c
span sem/diagnostics x12 0x3f048019186706a0
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effa8a5f9967090
span sem/project x12 0x3f17b94493181278
span sem/viscous x12 0x3f17d5f80fa03b14
span sim/finalize x2 0x3edeebe65c391800
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3340901e36d50 0x3f414ca87d60888a 0x0000000000000000
step 2 0x3f414ca87d60888a 0x3f7071275fcaea90 0x0000000000000000
step 3 0x3f7071275fcaea90 0x3f7261c7b6d5313e 0x0000000000000000
step 4 0x3f7261c7b6d5313e 0x3f803e64758da52e 0x0000000000000000
step 5 0x3f803e64758da52e 0x3f81206c13266825 0x0000000000000000
step 6 0x3f81206c13266825 0x3f882decad497487 0x0000000000000000
";
const CHECKPOINTING_PIPELINED: &str = "
tts 0x3f8484dc63dae387
totals CommStats { messages_sent: 1308, bytes_sent: 181728, messages_received: 1308, collectives: 688, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 2.046816000000013e-5, time_host_compute: 1.3679999999999999e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.005515638461538525 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 104936
unscoped 0
host_aggregate_peak_less_pool 179880
span insitu/checkpoint x6 0x3f9271284f70e5b4
span insitu/wait x8 0x3f6098b0735e3fa1
span sem/advection x12 0x3f17d0c027877cb2
span sem/cg x48 0x3f75189868b43cec
span sem/diagnostics x12 0x3f04801918670820
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effa8a5f9967510
span sem/project x12 0x3f17b944931816d8
span sem/viscous x12 0x3f17d5f80fa03f34
span sim/finalize x2 0x3edf770e8977f400
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/backpressure x2 0x3f64151960e80f0e
span snapshot/publish x6 0x3f1350e7398fb780
step 1 0x3ef3340901e36d50 0x3f414ca87d60888a 0x0000000000000000
step 2 0x3f414ca87d60888a 0x3f50986adf47a037 0x0000000000000000
step 3 0x3f50986adf47a037 0x3f5857cfd3895b3e 0x0000000000000000
step 4 0x3f5857cfd3895b3e 0x3f5f97a204bdb5b2 0x0000000000000000
step 5 0x3f5f97a204bdb5b2 0x3f63526144ce37be 0x0000000000000000
step 6 0x3f63526144ce37be 0x3f707df694eba285 0x3f54134598ddbfca
";
const CATALYST_SYNC: &str = "
tts 0x3f9568e9a02e458a
totals CommStats { messages_sent: 1314, bytes_sent: 310752, messages_received: 1314, collectives: 720, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 2.046816000000013e-5, time_host_compute: 2.4949959999999994e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.02368315905370611 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 104936
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 289304
host_max_rank_peak 168208
span insitu/copy x6 0x3eb01f4ab19eb800
span insitu/execute x6 0x3ef51af4a3ff7f80
span render/composite x12 0x3efef633fa26ad40
span render/filter x12 0x3f1922efcbccc550
span render/raster x12 0x3eea30fb17048380
span render/write x6 0x3f9272347d5eb3e4
span sem/advection x12 0x3f88ca32f9f61e98
span sem/cg x48 0x3f751d87519007b8
span sem/diagnostics x12 0x3f048019186704a0
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effaa4105ecd280
span sem/project x12 0x3f17b94493181278
span sem/viscous x12 0x3f17d5f80fa03a94
span sim/finalize x2 0x3f78a407a4457356
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/publish x6 0x3f1350e7398fb7e0
step 1 0x3ef3340901e36d50 0x3f41699527684a75 0x0000000000000000
step 2 0x3f41699527684a75 0x3f7ce051315cc4a8 0x0000000000000000
step 3 0x3f7ce051315cc4a8 0x3f7ed002b0fbd959 0x0000000000000000
step 4 0x3f7ed002b0fbd959 0x3f8cab4810c96a22 0x0000000000000000
step 5 0x3f8cab4810c96a22 0x3f8d8cd842ac941b 0x0000000000000000
step 6 0x3f8d8cd842ac941b 0x3f95680f7d7c08b5 0x0000000000000000
";
const CATALYST_PIPELINED: &str = "
tts 0x3f9393456d974945
totals CommStats { messages_sent: 1314, bytes_sent: 310752, messages_received: 1314, collectives: 720, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, bytes_h2d: 0, time_gpu_compute: 2.046816000000013e-5, time_host_compute: 2.494996e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.021039791699300762 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 104936
unscoped 0
host_aggregate_peak_less_pool 278072
span insitu/copy x6 0x3eb01f4ab19eb800
span insitu/execute x6 0x3f86d43270943520
span insitu/wait x8 0x3f67f44344071b64
span render/composite x12 0x3efef633fa26ad40
span render/filter x12 0x3f1922efcbccc6d0
span render/raster x12 0x3eea30fb17047b80
span render/write x6 0x3f9272347d5eb3e5
span sem/advection x12 0x3f17d0c027877cb2
span sem/cg x48 0x3f75189824322e86
span sem/diagnostics x12 0x3f04801918670820
span sem/filter x12 0x0000000000000000
span sem/pressure x12 0x3effa8a5f9967500
span sem/project x12 0x3f17b944931816d8
span sem/viscous x12 0x3f17d5f80fa03f34
span sim/finalize x2 0x3f71770bee0ee8bd
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/backpressure x2 0x3f71705da28851cd
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3340901e36d50 0x3f41699527684a75 0x0000000000000000
step 2 0x3f41699527684a75 0x3f50a6e1344b812e 0x0000000000000000
step 3 0x3f50a6e1344b812e 0x3f586646288d3c35 0x0000000000000000
step 4 0x3f586646288d3c35 0x3f5fa61859c196a9 0x0000000000000000
step 5 0x3f5fa61859c196a9 0x3f63599c6f502839 0x0000000000000000
step 6 0x3f63599c6f502839 0x3f7ced20667d7c9d 0x3f71705da28851cd
";
const CHECKPOINTING_PIPELINED_STALLED: &str = "
tts 0x404901aa926abdaf
totals CommStats { messages_sent: 1660, bytes_sent: 231648, messages_received: 1660, collectives: 892, bytes_written_fs: 45600, files_written: 8, bytes_d2h: 44928, bytes_h2d: 0, time_gpu_compute: 2.6115840000000194e-5, time_host_compute: 1.824e-6, time_xfer: 9.82464e-5, time_io: 0.024011224615384616, time_comm: 50.00927237309642 }
bytes_written 45600
files_written 8
gpu_aggregate_peak 104936
unscoped 0
host_aggregate_peak_less_pool 179880
span insitu/checkpoint x8 0x3f9896e069ebdbd3
span insitu/stall x1 0x4049000000000000
span insitu/wait x10 0x4048ff97d55c4abe
span sem/advection x16 0x40490003da91edb9
span sem/cg x64 0x3f7afe20c8527cec
span sem/diagnostics x16 0x3f0b5576cb670820
span sem/filter x16 0x0000000000000000
span sem/pressure x16 0x3f051b80146b3a88
span sem/project x16 0x3f1fa1b0c47816d8
span sem/viscous x16 0x3f1fc7f56a603f34
span sim/finalize x2 0x3f622f9076308000
span sim/setup x2 0x3f03342b42eaa03a
span snapshot/backpressure x4 0x40490098dd35002c
span snapshot/publish x8 0x3f19c1344cc1ba40
step 1 0x3ef3340901e36d50 0x3f414ca87d60888a 0x0000000000000000
step 2 0x3f414ca87d60888a 0x3f50986adf47a037 0x0000000000000000
step 3 0x3f50986adf47a037 0x3f5857cfd3895b3e 0x0000000000000000
step 4 0x3f5857cfd3895b3e 0x3f5f97a204bdb5b2 0x0000000000000000
step 5 0x3f5f97a204bdb5b2 0x3f63526144ce37be 0x0000000000000000
step 6 0x3f63526144ce37be 0x40490083efb4a75d 0x40490028268b31bb
step 7 0x40490083efb4a75d 0x40490090a42ee6df 0x0000000000000000
step 8 0x40490090a42ee6df 0x404900e64819e725 0x3f622233df230000
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
