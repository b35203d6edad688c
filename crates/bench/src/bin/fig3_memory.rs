//! **Figure 3** — memory usage of the pb146 runs for the Catalyst and
//! Checkpointing configurations (§4.1, Polaris).
//!
//! Paper metric: aggregate CPU-memory high-water mark across all MPI
//! ranks; the observation is that Catalyst sits ≈25% above Checkpointing
//! because of the GPU→CPU staging plus the VTK/rendering copies.

use bench_harness::{cases, cli, format_table, maybe_write_csv, maybe_write_report, HarnessArgs};
use memtrack::human_bytes;
use nek_sensei::{run_insitu, InSituMode};

fn main() {
    let args = HarnessArgs::parse(&cli::FIG3_MEMORY);
    // Same sweep as fig2 (memory is unaffected by rates but the runs
    // should be the same runs).
    let sweep = cases::pb146_strong_scaling(&args);
    let (paper_ranks, ranks) = (sweep.paper_ranks.clone(), sweep.ranks.clone());

    let mut rows = Vec::new();
    let mut mems: Vec<(InSituMode, Vec<u64>)> = Vec::new();
    for mode in [InSituMode::Checkpointing, InSituMode::Catalyst] {
        let mut per_scale = Vec::new();
        for (&paper_r, &r) in paper_ranks.iter().zip(&ranks) {
            let mut cfg = cases::insitu_config(&sweep, r, mode);
            cfg.exec = args.exec_mode();
            cfg.sched = args.sched_mode();
            cfg.telemetry = args.telemetry();
            let report = run_insitu(&cfg);
            let mem = report.memory();
            println!(
                "  {:<13} paper-ranks={paper_r:<5} ranks={r:<4} host-aggregate-peak={}",
                mode.label(),
                human_bytes(mem.host_aggregate_peak)
            );
            maybe_write_report(
                &args,
                &format!("fig3_{}_{r}ranks", mode.label().to_lowercase()),
                report.run_report.as_ref(),
            );
            rows.push(vec![
                mode.label().to_string(),
                paper_r.to_string(),
                r.to_string(),
                mem.host_aggregate_peak.to_string(),
                mem.host_max_rank_peak.to_string(),
                mem.gpu_aggregate_peak.to_string(),
                mem.unscoped.to_string(),
            ]);
            per_scale.push(mem.host_aggregate_peak);
        }
        mems.push((mode, per_scale));
    }

    let headers = [
        "config",
        "paper_ranks",
        "ranks",
        "host_aggregate_peak_B",
        "host_max_rank_peak_B",
        "gpu_aggregate_peak_B",
        "unscoped_B",
    ];
    println!("\nFigure 3 — memory high-water marks (tracking accountants)");
    println!("{}", format_table(&headers, &rows));
    maybe_write_csv(&args, "fig3_memory", &headers, &rows);

    let chk = &mems[0].1;
    let cat = &mems[1].1;
    println!("shape: Catalyst overhead over Checkpointing (paper: ≈ +25%):");
    for i in 0..chk.len() {
        println!(
            "  ranks {:>5}: {:+.1}%",
            paper_ranks[i],
            (cat[i] as f64 / chk[i] as f64 - 1.0) * 100.0
        );
    }
}
