//! **Figure 2** — time-to-solution of the pb146 pebble-bed case across
//! rank counts for the Catalyst, Checkpointing and Original
//! configurations (§4.1, Polaris).
//!
//! Paper setup: 3000 timesteps, trigger every 100, on 280/560/1120 ranks
//! (70/140/280 Polaris nodes). Default here: rank counts scaled down 40×
//! and steps 50× (60 steps, trigger 10) so the sweep runs on a laptop;
//! `--full` reproduces the paper's counts. Times are virtual seconds from
//! the Polaris machine model driven by the real reduced-scale run.
//!
//! Expected shape (paper): strong scaling (time falls with ranks);
//! Original < Checkpointing ≲ Catalyst, with Catalyst bearing a slight
//! overhead over Checkpointing.
//!
//! **Figure 3** — memory usage of the same Checkpointing and Catalyst
//! runs: the aggregate CPU-memory high-water mark across all ranks, from
//! the tracking accountants. The paper's observation is that Catalyst sits
//! ≈25% above Checkpointing because of the GPU→CPU staging plus the
//! VTK/rendering copies.

use bench_harness::{
    cases, cli, fmt_secs, format_table, maybe_write_csv, maybe_write_report, maybe_write_trace,
    HarnessArgs,
};
use nek_sensei::{run_insitu, InSituMode};

fn main() {
    let args = HarnessArgs::parse(&cli::FIG2_TIME_TO_SOLUTION);
    let sweep = cases::pb146_strong_scaling(&args);
    let (paper_ranks, ranks) = (sweep.paper_ranks.clone(), sweep.ranks.clone());
    println!(
        "pb146: {} fluid elements (of {}), order {}, {} steps, trigger every {}, throughput derating {:.0}x, exec {}, sched {}",
        sweep.case.n_fluid_elems(),
        sweep.params.elems.iter().product::<usize>(),
        sweep.params.order,
        sweep.steps,
        sweep.trigger,
        sweep.derate,
        args.exec_mode().label(),
        args.sched_mode().label()
    );

    let mut rows = Vec::new();
    let mut mem_rows = Vec::new();
    // Per mode (Original, Checkpointing, Catalyst), at each rank count:
    // time-to-solution, and aggregate host memory peak of the in situ runs.
    let mut times = [vec![], vec![], vec![]];
    let mut peaks = [vec![], vec![], vec![]];
    let modes = [
        InSituMode::Original,
        InSituMode::Checkpointing,
        InSituMode::Catalyst,
    ];
    for (m, mode) in modes.into_iter().enumerate() {
        for (&paper_r, &r) in paper_ranks.iter().zip(&ranks) {
            let mut cfg = cases::insitu_config(&sweep, r, mode);
            cfg.exec = args.exec_mode();
            cfg.sched = args.sched_mode();
            cfg.trace = args.trace_out.is_some();
            cfg.telemetry = args.telemetry();
            let cell = format!("fig2_{}_{r}ranks", mode.label().to_lowercase());
            let report = run_insitu(&cfg);
            println!(
                "  {:<13} paper-ranks={paper_r:<5} ranks={r:<4} time={}",
                mode.label(),
                fmt_secs(report.metrics.time_to_solution)
            );
            maybe_write_trace(&args, &cell, &report.traces, report.phases.as_ref());
            maybe_write_report(&args, &cell, report.run_report.as_ref());
            let t = &report.metrics.totals;
            let per_rank = |x: f64| x / r as f64;
            rows.push(vec![
                mode.label().to_string(),
                paper_r.to_string(),
                r.to_string(),
                format!("{:.4}", report.metrics.time_to_solution),
                format!("{:.6}", report.metrics.mean_step_time),
                format!("{:.4}", per_rank(t.time_gpu_compute)),
                format!("{:.4}", per_rank(t.time_comm)),
                format!(
                    "{:.4}",
                    per_rank(t.time_io + t.time_xfer + t.time_host_compute)
                ),
            ]);
            times[m].push(report.metrics.time_to_solution);
            // Figure 3 is the memory of the in situ runs.
            if mode != InSituMode::Original {
                let mem = report.memory();
                peaks[m].push(mem.host_aggregate_peak);
                mem_rows.push(vec![
                    mode.label().to_string(),
                    paper_r.to_string(),
                    r.to_string(),
                    mem.host_aggregate_peak.to_string(),
                    mem.host_max_rank_peak.to_string(),
                    mem.gpu_aggregate_peak.to_string(),
                    mem.unscoped.to_string(),
                ]);
            }
        }
    }

    let headers = [
        "config",
        "paper_ranks",
        "ranks",
        "time_to_solution_s",
        "mean_step_s",
        "gpu_s/rank",
        "comm_s/rank",
        "insitu_io_s/rank",
    ];
    println!("\nFigure 2 — time-to-solution (virtual seconds, Polaris model)");
    println!("{}", format_table(&headers, &rows));
    maybe_write_csv(&args, "fig2_time_to_solution", &headers, &rows);

    // Shape verdicts against the paper.
    let [orig, chk, cat] = &times;
    let strong_scaling = orig.windows(2).all(|w| w[1] < w[0]);
    let order_holds = orig
        .iter()
        .zip(chk)
        .zip(cat)
        .all(|((o, c), k)| o < c && c <= k);
    println!("shape: strong scaling (time falls with ranks): {strong_scaling}");
    println!("shape: Original < Checkpointing <= Catalyst at every scale: {order_holds}");
    for i in 0..orig.len() {
        println!(
            "  ranks {:>5}: Catalyst overhead vs Checkpointing {:+.1}%, vs Original {:+.1}%",
            paper_ranks[i],
            (cat[i] / chk[i] - 1.0) * 100.0,
            (cat[i] / orig[i] - 1.0) * 100.0
        );
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
    println!("\nFigure 3 — memory high-water marks of the same runs (tracking accountants)");
    println!("{}", format_table(&headers, &mem_rows));
    maybe_write_csv(&args, "fig3_memory", &headers, &mem_rows);
    let [_, chk, cat] = &peaks;
    println!("shape: Catalyst overhead over Checkpointing (paper: ≈ +25%):");
    for i in 0..chk.len() {
        println!(
            "  ranks {:>5}: {:+.1}%",
            paper_ranks[i],
            (cat[i] as f64 / chk[i] as f64 - 1.0) * 100.0
        );
    }
}
