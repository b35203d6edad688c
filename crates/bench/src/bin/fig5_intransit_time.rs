//! **Figure 5** — mean time per timestep on the NekRS-SENSEI simulation
//! nodes in the in-transit RBC workflow, weak scaling (§4.2, JUWELS
//! Booster).
//!
//! Paper setup: RBC at increasing node counts (constant load per node),
//! sim:endpoint node ratio 4:1, ADIOS2-SST over UCX, measurement points
//! {No Transport, Checkpointing, Catalyst} — all endpoint-side, so the
//! simulation's time per step should be nearly flat in both the node count
//! (good weak scaling) and the endpoint mode (small in-transit overhead).
//!
//! **Figure 6** — main-memory footprint per simulation node of the same
//! runs. Paper observations: per-node memory is flat in the node count;
//! Catalyst and No Transport are very similar (the rendering memory lives
//! on the endpoint); Checkpointing's overhead is visible but not large;
//! and — the architectural point — simulation-node memory is independent
//! of the number of visualization nodes.

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
    let mut mem_rows = Vec::new();
    let mut by_mode: Vec<(EndpointMode, Vec<f64>, Vec<u64>)> = Vec::new();
    for mode in [
        EndpointMode::NoTransport,
        EndpointMode::Checkpointing,
        EndpointMode::Catalyst,
    ] {
        let (mut times, mut mems) = (Vec::new(), Vec::new());
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
            maybe_write_trace(&args, &cell, &report.traces);
            maybe_write_report(&args, &cell, report.run_report.as_ref());
            rows.push(vec![
                mode.label().to_string(),
                sim_ranks.to_string(),
                report.endpoint_ranks.to_string(),
                format!("{:.6}", report.sim.mean_step_time),
                format!("{:.4}", report.sim.time_to_solution),
                report.endpoint_steps.to_string(),
            ]);
            mem_rows.push(vec![
                mode.label().to_string(),
                sim_ranks.to_string(),
                report.sim_node_mem_peak.to_string(),
                report.sim.memory.host_aggregate_peak.to_string(),
                report.sim.memory.unscoped.to_string(),
                report.endpoint_ranks.to_string(),
            ]);
            times.push(report.sim.mean_step_time);
            mems.push(report.sim_node_mem_peak);
        }
        by_mode.push((mode, times, mems));
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
    for (mode, times, _) in &by_mode {
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        println!("  {:<13} {:.2}× (paper: ≈flat)", mode.label(), max / min);
    }
    println!("shape: endpoint-mode overhead vs No Transport at the largest scale:");
    let last = base.len() - 1;
    for (mode, times, _) in &by_mode[1..] {
        println!(
            "  {:<13} {:+.1}% (paper: small)",
            mode.label(),
            (times[last] / base[last] - 1.0) * 100.0
        );
    }

    let headers = [
        "config",
        "sim_ranks",
        "sim_node_mem_peak_B",
        "host_aggregate_peak_B",
        "unscoped_B",
        "endpoint_ranks",
    ];
    println!("\nFigure 6 — memory footprint per simulation node of the same runs (JUWELS model)");
    println!("{}", format_table(&headers, &mem_rows));
    maybe_write_csv(&args, "fig6_intransit_memory", &headers, &mem_rows);
    let base = &by_mode[0].2;
    println!("shape: per-node memory flatness across rank counts:");
    for (mode, _, mems) in &by_mode {
        let min = *mems.iter().min().expect("nonempty") as f64;
        let max = *mems.iter().max().expect("nonempty") as f64;
        println!("  {:<13} {:.2}× (paper: flat)", mode.label(), max / min);
    }
    println!("shape: per-node memory overhead vs No Transport at the largest scale:");
    for (mode, _, mems) in &by_mode[1..] {
        println!(
            "  {:<13} {:+.1}% (paper: Catalyst ≈ No Transport; Checkpointing visible but small)",
            mode.label(),
            (mems[last] as f64 / base[last] as f64 - 1.0) * 100.0
        );
    }
}
