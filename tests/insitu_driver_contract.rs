//! Contract: what `run_insitu` produces for every `InSituMode × ExecMode`
//! cell, pinned bit-for-bit to the values commit `a3ecdf3` produced, under
//! both schedulers. A driver refactor that moves a virtual clock, a
//! counter, a byte written, a memory peak, a span or a flight-recorder
//! sample fails here with a line diff.
//!
//! Each cell is rendered as text (floats as IEEE bit patterns) and
//! compared to the block captured at `a3ecdf3`. To re-capture after an
//! *intended* change, paste the "actual" block the failure prints.

use commsim::{ConsumerStall, FaultPlan, MachineModel, SchedMode};
use nek_sensei::{run_insitu, ExecMode, InSituConfig, InSituMode, InSituReport};
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
    writeln!(w, "snapshot_pool_rank_peak {}", r.snapshot_pool_rank_peak).unwrap();
    writeln!(w, "host_aggregate_peak {}", m.memory.host_aggregate_peak).unwrap();
    writeln!(w, "host_max_rank_peak {}", m.memory.host_max_rank_peak).unwrap();
    let phases = telemetry::PhaseBreakdown::from_traces(&r.traces);
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
    }
}

const ORIGINAL: &str = "
tts 0x3f5cfd13642d97ae
totals CommStats { messages_sent: 440, bytes_sent: 112800, messages_received: 440, collectives: 344, bytes_written_fs: 0, files_written: 0, bytes_d2h: 0, time_gpu_compute: 1.26576e-5, time_host_compute: 3.979124999999997e-6, time_xfer: 0.0, time_io: 0.0, time_comm: 0.0022249495451748336 }
bytes_written 0
files_written 0
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 0
host_aggregate_peak 172080
host_max_rank_peak 105480
span sem/advection x12 0x3f17d0c027877cee
span sem/cg x24 0x3f5c70c055ffd1fe
span sem/diagnostics x12 0x3f048019186707e0
span sem/mg_coarse x54 0x3f5837243ed9b759
span sem/pressure x12 0x3effa8a5f99674e0
span sem/project x12 0x3f17b944931815e0
span sem/viscous x12 0x3f0036dfd1eb6008
span sim/finalize x2 0x3edb4456479a9600
span sim/setup x2 0x3f0340664ae4a5e0
step 1 0x3ef3404409dd72f7 0x3f366c2799e78980 0x0000000000000000
step 2 0x3f366c2799e78980 0x3f4585998846058f 0x0000000000000000
step 3 0x3f4585998846058f 0x3f4e3385426f1f9a 0x0000000000000000
step 4 0x3f4e3385426f1f9a 0x3f5441857ee0b03b 0x0000000000000000
step 5 0x3f5441857ee0b03b 0x3f58987b5bf53d4f 0x0000000000000000
step 6 0x3f58987b5bf53d4f 0x3f5cef713909ca63 0x0000000000000000
";
const CHECKPOINTING_SYNC: &str = "
tts 0x3f8624cb0e340621
totals CommStats { messages_sent: 440, bytes_sent: 112800, messages_received: 440, collectives: 344, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, time_gpu_compute: 1.26576e-5, time_host_compute: 5.347124999999997e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.0022275634774825046 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 194712
host_max_rank_peak 119388
span insitu/checkpoint x6 0x3f9271284f70e5b5
span sem/advection x12 0x3f17d0c027877dde
span sem/cg x24 0x3f5c780f76290f68
span sem/diagnostics x12 0x3f04801918670ac0
span sem/mg_coarse x54 0x3f5837243ed9b756
span sem/pressure x12 0x3effa8a5f99674e0
span sem/project x12 0x3f17b94493181618
span sem/viscous x12 0x3f0036dfd1eb5d38
span sim/finalize x2 0x3edeebe65c391000
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/publish x6 0x3f1350e7398fb760
step 1 0x3ef3404409dd72f7 0x3f366c2799e78980 0x0000000000000000
step 2 0x3f366c2799e78980 0x3f6e111e1c44f652 0x0000000000000000
step 3 0x3f6e111e1c44f652 0x3f701f36696cc61d 0x0000000000000000
step 4 0x3f701f36696cc61d 0x3f7dc102fdf0c8ae 0x0000000000000000
step 5 0x3f7dc102fdf0c8ae 0x3f7ed7aa593b1394 0x0000000000000000
step 6 0x3f7ed7aa593b1394 0x3f8622a1d6ccf8a8 0x0000000000000000
";
const CHECKPOINTING_PIPELINED: &str = "
tts 0x3f83d0903b06abd4
totals CommStats { messages_sent: 440, bytes_sent: 112800, messages_received: 440, collectives: 344, bytes_written_fs: 34200, files_written: 6, bytes_d2h: 33696, time_gpu_compute: 1.26576e-5, time_host_compute: 5.3471249999999975e-6, time_xfer: 7.36848e-5, time_io: 0.018008418461538462, time_comm: 0.0022262096559440654 }
bytes_written 34200
files_written 6
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 13824
host_aggregate_peak 205944
host_max_rank_peak 126300
span insitu/checkpoint x6 0x3f9271284f70e5b5
span insitu/wait x8 0x3f55ec9e5979040d
span sem/advection x12 0x3f17d0c027877cee
span sem/cg x24 0x3f5c71d6a65a4fa9
span sem/diagnostics x12 0x3f048019186707e0
span sem/mg_coarse x54 0x3f5837243ed9b758
span sem/pressure x12 0x3effa8a5f99674e0
span sem/project x12 0x3f17b944931815e0
span sem/viscous x12 0x3f0036dfd1eb6008
span sim/finalize x2 0x3edf770e8977f600
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x2 0x3f6ecd0ece2a3432
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3404409dd72f7 0x3f366c2799e78980 0x0000000000000000
step 2 0x3f366c2799e78980 0x3f45ec13314bc539 0x0000000000000000
step 3 0x3f45ec13314bc539 0x3f4e9b153bcf5cec 0x0000000000000000
step 4 0x3f4e9b153bcf5cec 0x3f54a88a5013aeba 0x0000000000000000
step 5 0x3f54a88a5013aeba 0x3f59000b55557aa2 0x0000000000000000
step 6 0x3f59000b55557aa2 0x3f6e2abc8686663c 0x3f5ecb3b061fe4ee
";
const CATALYST_SYNC: &str = "
tts 0x3f94634434f00792
totals CommStats { messages_sent: 446, bytes_sent: 241824, messages_received: 446, collectives: 376, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, time_gpu_compute: 1.26576e-5, time_host_compute: 2.892908500000001e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.020393730248111846 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 6912
host_aggregate_peak 292904
host_max_rank_peak 170008
span insitu/copy x6 0x3eb01f4ab19ebc00
span insitu/execute x6 0x3ef51af4a3ff8080
span render/composite x12 0x3efef633fa26ad60
span render/filter x12 0x3f1922efcbccc6b8
span render/raster x12 0x3eea30fb17047d40
span render/write x6 0x3f9272347d5eb3e4
span sem/advection x12 0x3f88ca32f9f61e98
span sem/cg x24 0x3f5c859249c98090
span sem/diagnostics x12 0x3f048019186706c0
span sem/mg_coarse x54 0x3f5837243ed9b79e
span sem/pressure x12 0x3effaa4105ecd260
span sem/project x12 0x3f17b94493181278
span sem/viscous x12 0x3f0036dfd1eb61b8
span sim/finalize x2 0x3f78a407a4457356
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/publish x6 0x3f1350e7398fb7a0
step 1 0x3ef3404409dd72f7 0x3f36a600edf70d57 0x0000000000000000
step 2 0x3f36a600edf70d57 0x3f7b77b8dfb45542 0x0000000000000000
step 3 0x3f7b77b8dfb45542 0x3f7c8d7163936e2b 0x0000000000000000
step 4 0x3f7c8d7163936e2b 0x3f8b4d651a34294c 0x0000000000000000
step 5 0x3f8b4d651a34294c 0x3f8bd8415c23b5b8 0x0000000000000000
step 6 0x3f8bd8415c23b5b8 0x3f94626a123dcabd 0x0000000000000000
";
const CATALYST_PIPELINED: &str = "
tts 0x3f93391f592d2d6b
totals CommStats { messages_sent: 446, bytes_sent: 241824, messages_received: 446, collectives: 376, bytes_written_fs: 55992, files_written: 6, bytes_d2h: 33696, time_gpu_compute: 1.26576e-5, time_host_compute: 2.8929084999999993e-5, time_xfer: 7.36848e-5, time_io: 0.018013782646153848, time_comm: 0.018728039121958067 }
bytes_written 55992
files_written 6
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 13824
host_aggregate_peak 304136
host_max_rank_peak 176920
span insitu/copy x6 0x3eb01f4ab19ebc00
span insitu/execute x6 0x3f877dc93e553e4c
span insitu/wait x8 0x3f5f570d8cc27232
span render/composite x12 0x3efef633fa26ad60
span render/filter x12 0x3f1922efcbccc6b8
span render/raster x12 0x3eea30fb17047d40
span render/write x6 0x3f9272347d5eb3e5
span sem/advection x12 0x3f17d0c027877cee
span sem/cg x24 0x3f5c71d594521612
span sem/diagnostics x12 0x3f048019186707e0
span sem/mg_coarse x54 0x3f5837243ed9b758
span sem/pressure x12 0x3effa8a5f99674e0
span sem/project x12 0x3f17b944931815e0
span sem/viscous x12 0x3f0036dfd1eb6008
span sim/finalize x2 0x3f742509495f7208
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x2 0x3f741e5afdd8db17
span snapshot/publish x6 0x3f1350e7398fb790
step 1 0x3ef3404409dd72f7 0x3f36a600edf70d57 0x0000000000000000
step 2 0x3f36a600edf70d57 0x3f4608ffdb538725 0x0000000000000000
step 3 0x3f4608ffdb538725 0x3f4eb801e5d71ed8 0x0000000000000000
step 4 0x3f4eb801e5d71ed8 0x3f54b700a5178fb0 0x0000000000000000
step 5 0x3f54b700a5178fb0 0x3f590e81aa595b98 0x0000000000000000
step 6 0x3f590e81aa595b98 0x3f7b848814d50d37 0x3f741e5afdd8db17
";
const CHECKPOINTING_PIPELINED_STALLED: &str = "
tts 0x4049019f4da8306c
totals CommStats { messages_sent: 572, bytes_sent: 147200, messages_received: 572, collectives: 448, bytes_written_fs: 45600, files_written: 8, bytes_d2h: 44928, time_gpu_compute: 1.656880000000003e-5, time_host_compute: 6.9551249999999955e-6, time_xfer: 9.82464e-5, time_io: 0.024011224615384616, time_comm: 50.00535347441539 }
bytes_written 45600
files_written 8
gpu_aggregate_peak 108295
unscoped 0
snapshot_pool_rank_peak 13824
host_aggregate_peak 205944
host_max_rank_peak 126300
span insitu/checkpoint x8 0x3f9896e069ebdbd3
span insitu/stall x1 0x4049000000000000
span insitu/wait x10 0x4048ff793e6aef61
span sem/advection x16 0x40490003da91edba
span sem/cg x32 0x3f6290d32dd8a7d5
span sem/diagnostics x16 0x3f0b5576cb6707e0
span sem/mg_coarse x70 0x3f5f63ec9d4db758
span sem/pressure x16 0x3f051b80146b3a70
span sem/project x16 0x3f1fa1b0c47815e0
span sem/viscous x16 0x3f059e7fc26b6008
span sim/finalize x2 0x3f6432eb86660000
span sim/setup x2 0x3f0340664ae4a5e0
span snapshot/backpressure x4 0x404900cbca76f60b
span snapshot/publish x8 0x3f19c1344cc1ba60
step 1 0x3ef3404409dd72f7 0x3f366c2799e78980 0x0000000000000000
step 2 0x3f366c2799e78980 0x3f45ec13314bc539 0x0000000000000000
step 3 0x3f45ec13314bc539 0x3f4e9b153bcf5cec 0x0000000000000000
step 4 0x3f4e9b153bcf5cec 0x3f54a88a5013aeba 0x0000000000000000
step 5 0x3f54a88a5013aeba 0x3f59000b55557aa2 0x0000000000000000
step 6 0x3f59000b55557aa2 0x40490078aaf21a1a 0x4049003d96760c40
step 7 0x40490078aaf21a1a 0x4049008158b63931 0x0000000000000000
step 8 0x4049008158b63931 0x404900db035759e2 0x3f64258eef588000
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
