//! **Figure 6** — main-memory footprint per NekRS-SENSEI simulation node
//! in the in-transit RBC workflow, weak scaling (§4.2, JUWELS Booster).
//!
//! Paper observations: per-node memory is flat in the node count; Catalyst
//! and No Transport are very similar (the rendering memory lives on the
//! endpoint); Checkpointing's overhead is visible but not large; and —
//! the architectural point — simulation-node memory is independent of the
//! number of visualization nodes.

use bench_harness::{cases, cli, format_table, maybe_write_csv, maybe_write_report, HarnessArgs};
use memtrack::human_bytes;
use nek_sensei::{run_intransit, EndpointMode};

fn main() {
    let args = HarnessArgs::parse(&cli::FIG6_INTRANSIT_MEMORY);
    let sim_rank_counts: Vec<usize> = if args.full {
        vec![16, 32, 64, 128]
    } else {
        vec![4, 8, 16]
    };
    let steps = args.steps.unwrap_or(30);
    let trigger = args.trigger.unwrap_or(10);

    // Same derating as fig5 so the runs are the same runs (memory itself
    // is rate-independent).
    let (machine, _derate) = cases::juwels_derated();

    let mut rows = Vec::new();
    let mut by_mode: Vec<(EndpointMode, Vec<u64>)> = Vec::new();
    for mode in [
        EndpointMode::NoTransport,
        EndpointMode::Checkpointing,
        EndpointMode::Catalyst,
    ] {
        let mut mems = Vec::new();
        for &sim_ranks in &sim_rank_counts {
            let mut cfg = cases::intransit_config(sim_ranks, steps, trigger, machine.clone(), mode);
            cfg.sched = args.sched_mode();
            cfg.wire = args.wire_kind();
            cfg.telemetry = args.telemetry();
            let report = run_intransit(&cfg);
            println!(
                "  {:<13} sim-ranks={sim_ranks:<4} per-node-peak={}",
                mode.label(),
                human_bytes(report.sim_node_mem_peak)
            );
            maybe_write_report(
                &args,
                &format!(
                    "fig6_{}_{sim_ranks}ranks",
                    mode.label().to_lowercase().replace(' ', "_")
                ),
                report.run_report.as_ref(),
            );
            rows.push(vec![
                mode.label().to_string(),
                sim_ranks.to_string(),
                report.sim_node_mem_peak.to_string(),
                report.sim.memory.host_aggregate_peak.to_string(),
                report.sim.memory.unscoped.to_string(),
                report.endpoint_ranks.to_string(),
            ]);
            mems.push(report.sim_node_mem_peak);
        }
        by_mode.push((mode, mems));
    }

    let headers = [
        "config",
        "sim_ranks",
        "sim_node_mem_peak_B",
        "host_aggregate_peak_B",
        "unscoped_B",
        "endpoint_ranks",
    ];
    println!("\nFigure 6 — memory footprint per simulation node (JUWELS model)");
    println!("{}", format_table(&headers, &rows));
    maybe_write_csv(&args, "fig6_intransit_memory", &headers, &rows);

    let base = &by_mode[0].1;
    println!("shape: per-node memory flatness across rank counts:");
    for (mode, mems) in &by_mode {
        let min = *mems.iter().min().expect("nonempty") as f64;
        let max = *mems.iter().max().expect("nonempty") as f64;
        println!("  {:<13} {:.2}× (paper: flat)", mode.label(), max / min);
    }
    let last = base.len() - 1;
    println!("shape: overhead vs No Transport at the largest scale:");
    for (mode, mems) in &by_mode[1..] {
        println!(
            "  {:<13} {:+.1}% (paper: Catalyst ≈ No Transport; Checkpointing visible but small)",
            mode.label(),
            (mems[last] as f64 / base[last] as f64 - 1.0) * 100.0
        );
    }
}
