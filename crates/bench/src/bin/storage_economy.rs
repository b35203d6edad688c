//! **§4.1 storage-economy comparison** — total bytes written by the
//! Catalyst configuration (rendered images) vs the Checkpointing
//! configuration (raw field dumps) over a full run.
//!
//! Paper numbers: 6.5 MB of images vs 19 GB of checkpoints — roughly three
//! orders of magnitude. The reduced-scale gap is smaller in absolute terms
//! (dump size scales with mesh size, image size does not) but the binary
//! also extrapolates the dump side to the paper's mesh resolution to show
//! the full gap.

use bench_harness::{cli, format_table, maybe_write_csv, HarnessArgs};
use commsim::MachineModel;
use memtrack::human_bytes;
use nek_sensei::{run_insitu, InSituConfig, InSituMode};
use sem::cases::{pb146, CaseParams};

fn main() {
    let args = HarnessArgs::parse(&cli::STORAGE_ECONOMY);
    let ranks = 8;
    let steps = args.steps.unwrap_or(60);
    let trigger = args.trigger.unwrap_or(10);
    let mut params = CaseParams::pb146_default();
    params.elems = [4, 4, 16];
    let case = pb146(&params, 146);

    let mut rows = Vec::new();
    let mut written = Vec::new();
    for mode in [InSituMode::Checkpointing, InSituMode::Catalyst] {
        let report = run_insitu(&InSituConfig {
            case: case.clone(),
            ranks,
            steps,
            trigger_every: trigger,
            machine: MachineModel::polaris(),
            image_size: (800, 600),
            mode,
            exec: args.exec_mode(),
            sched: args.sched_mode(),
            faults: commsim::FaultPlan::none(),
            output_dir: args.out.clone().map(|d| d.join(mode.label())),
            trace: false,
            telemetry: false,
            recovery: Default::default(),
        });
        rows.push(vec![
            mode.label().to_string(),
            report.files_written.to_string(),
            report.bytes_written.to_string(),
            human_bytes(report.bytes_written),
        ]);
        written.push(report.bytes_written);
    }

    let headers = ["config", "files", "bytes", "human"];
    println!("Storage written over {steps} steps (trigger every {trigger}, {ranks} ranks)");
    println!("{}", format_table(&headers, &rows));
    maybe_write_csv(&args, "storage_economy", &headers, &rows);

    let ratio = written[0] as f64 / written[1].max(1) as f64;
    println!("measured: Checkpointing / Catalyst = {ratio:.2}× at this mesh size");

    // Extrapolate the checkpoint side to the paper's pb146 resolution
    // (≈350k spectral elements at N=7 → 1.8e8 grid points) with the same
    // trigger count; images stay the size they are.
    let paper_points = 350_000.0 * 512.0;
    let these_points = (case.n_fluid_elems() * 64) as f64;
    let paper_chk = written[0] as f64 * paper_points / these_points;
    let paper_ratio = paper_chk / written[1].max(1) as f64;
    println!(
        "extrapolated to paper resolution: checkpoints ≈ {} vs images {} → {:.0}× (~{:.0} orders of magnitude; paper: 19 GB vs 6.5 MB ≈ 3000×)",
        human_bytes(paper_chk as u64),
        human_bytes(written[1]),
        paper_ratio,
        paper_ratio.log10().round()
    );
}
