//! The paper's §4.1 workload: the pb146 pebble-bed reactor case with in
//! situ Catalyst-style rendering, compared against built-in checkpointing.
//!
//! Run with: `cargo run --release --example pebble_bed_insitu`
//!
//! Produces real PNGs under `out/pebble_bed/` and prints the storage and
//! overhead comparison the paper reports (images ≪ checkpoints; modest
//! time overhead; ~25% more host memory for Catalyst).

use commsim::MachineModel;
use memtrack::human_bytes;
use nek_sensei::{run_insitu, InSituConfig, InSituMode};
use sem::cases::{pb146, CaseParams};

fn main() {
    let out = std::path::PathBuf::from("out/pebble_bed");
    let mut params = CaseParams::pb146_default();
    params.elems = [5, 5, 10];
    let case = pb146(&params, 146);
    println!(
        "pb146 at reduced scale: {} fluid elements around 146 pebbles",
        case.n_fluid_elems()
    );

    // Derate Polaris' throughputs so this reduced mesh exercises the
    // paper-scale compute:copy:I/O proportions (see DESIGN.md).
    let ranks = 4;
    let paper_nodes = 350_000.0 * 512.0;
    let our_nodes = (case.n_fluid_elems() * 64) as f64;
    let derate = (paper_nodes / our_nodes) * (ranks as f64 / 280.0);
    let machine = MachineModel::polaris().derate_throughput(derate.max(1.0));

    let base = InSituConfig {
        case,
        ranks,
        steps: 30,
        trigger_every: 10,
        machine,
        image_size: (800, 600),
        mode: InSituMode::Original,
        exec: nek_sensei::ExecMode::Synchronous,
        sched: Default::default(),
        faults: commsim::FaultPlan::none(),
        trace: false,
        telemetry: false,
        recovery: Default::default(),
        output_dir: None,
    };

    let original = run_insitu(&base);
    let checkpointing = run_insitu(&InSituConfig {
        mode: InSituMode::Checkpointing,
        ..base.clone()
    });
    let catalyst = run_insitu(&InSituConfig {
        mode: InSituMode::Catalyst,
        output_dir: Some(out.clone()),
        ..base.clone()
    });

    println!(
        "\n{:<15} {:>14} {:>14} {:>12}",
        "config", "time-to-soln", "host mem", "storage"
    );
    for r in [&original, &checkpointing, &catalyst] {
        println!(
            "{:<15} {:>12.4}s {:>14} {:>12}",
            r.mode.label(),
            r.metrics.time_to_solution,
            human_bytes(r.memory().host_aggregate_peak),
            human_bytes(r.bytes_written),
        );
    }
    let t_over =
        (catalyst.metrics.time_to_solution / checkpointing.metrics.time_to_solution - 1.0) * 100.0;
    let m_over = (catalyst.memory().host_aggregate_peak as f64
        / checkpointing.memory().host_aggregate_peak as f64
        - 1.0)
        * 100.0;
    println!("\nCatalyst vs Checkpointing: {t_over:+.1}% time, {m_over:+.1}% host memory");
    println!(
        "storage economy: checkpoints are {:.1}× the image bytes at this mesh size; \
         the gap grows ∝ resolution (paper: ~3000× at production scale — \
         see `cargo run -p bench-harness --bin storage_economy`)",
        checkpointing.bytes_written as f64 / catalyst.bytes_written.max(1) as f64
    );
    println!("rendered images: {}", out.display());
}
