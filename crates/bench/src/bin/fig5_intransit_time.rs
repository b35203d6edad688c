//! **Figure 5** — mean time per timestep on the NekRS-SENSEI simulation
//! nodes in the in-transit RBC workflow, weak scaling (§4.2, JUWELS
//! Booster).
//!
//! Paper setup: RBC at increasing node counts (constant load per node),
//! sim:endpoint node ratio 4:1, ADIOS2-SST over UCX, measurement points
//! {No Transport, Checkpointing, Catalyst} — all endpoint-side, so the
//! simulation's time per step should be nearly flat in both the node count
//! (good weak scaling) and the endpoint mode (small in-transit overhead).

use bench_harness::{
    cases, cli, fmt_secs, format_table, maybe_write_csv, maybe_write_report, maybe_write_trace,
    HarnessArgs,
};
use nek_sensei::{run_intransit, EndpointMode};

fn main() {
    let args = HarnessArgs::parse(&cli::FIG5_INTRANSIT_TIME);
    let sim_rank_counts: Vec<usize> = if args.full {
        vec![16, 32, 64, 128]
    } else {
        vec![4, 8, 16]
    };
    let steps = args.steps.unwrap_or(30);
    let trigger = args.trigger.unwrap_or(10);

    // Weak scaling holds the per-rank load fixed: 9 elements/rank at order
    // 3 (576 nodes). A production RBC run puts ~4e5 grid points on each
    // A100; derate throughputs by the ratio so per-step times match the
    // paper's regime (see DESIGN.md).
    let (machine, derate) = cases::juwels_derated();
    println!("throughput derating {derate:.0}x (paper-regime per-rank load)");

    let mut rows = Vec::new();
    let mut by_mode: Vec<(EndpointMode, Vec<f64>)> = Vec::new();
    for mode in [
        EndpointMode::NoTransport,
        EndpointMode::Checkpointing,
        EndpointMode::Catalyst,
    ] {
        let mut times = Vec::new();
        for &sim_ranks in &sim_rank_counts {
            let mut cfg = cases::intransit_config(sim_ranks, steps, trigger, machine.clone(), mode);
            cfg.sched = args.sched_mode();
            cfg.wire = args.wire_kind();
            cfg.trace = args.trace_out.is_some();
            cfg.telemetry = args.telemetry();
            let report = run_intransit(&cfg);
            println!(
                "  {:<13} sim-ranks={sim_ranks:<4} endpoint-ranks={:<3} mean-step={}",
                mode.label(),
                report.endpoint_ranks,
                fmt_secs(report.sim.mean_step_time)
            );
            let cell = format!(
                "fig5_{}_{sim_ranks}ranks",
                mode.label().to_lowercase().replace(' ', "_")
            );
            maybe_write_trace(&args, &cell, &report.traces, report.phases.as_ref());
            maybe_write_report(&args, &cell, report.run_report.as_ref());
            rows.push(vec![
                mode.label().to_string(),
                sim_ranks.to_string(),
                report.endpoint_ranks.to_string(),
                format!("{:.6}", report.sim.mean_step_time),
                format!("{:.4}", report.sim.time_to_solution),
                report.endpoint_steps.to_string(),
            ]);
            times.push(report.sim.mean_step_time);
        }
        by_mode.push((mode, times));
    }

    let headers = [
        "config",
        "sim_ranks",
        "endpoint_ranks",
        "mean_step_time_s",
        "time_to_solution_s",
        "endpoint_steps",
    ];
    println!("\nFigure 5 — mean time per timestep on simulation ranks (JUWELS model)");
    println!("{}", format_table(&headers, &rows));
    maybe_write_csv(&args, "fig5_intransit_time", &headers, &rows);

    let base = &by_mode[0].1;
    println!("shape: weak scaling flatness (max/min over rank counts):");
    for (mode, times) in &by_mode {
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        println!("  {:<13} {:.2}× (paper: ≈flat)", mode.label(), max / min);
    }
    println!("shape: endpoint-mode overhead vs No Transport at the largest scale:");
    let last = base.len() - 1;
    for (mode, times) in &by_mode[1..] {
        println!(
            "  {:<13} {:+.1}% (paper: small)",
            mode.label(),
            (times[last] / base[last] - 1.0) * 100.0
        );
    }
}
