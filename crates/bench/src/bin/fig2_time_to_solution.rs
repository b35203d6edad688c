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

use bench_harness::{
    cases, cli, fmt_secs, format_table, maybe_write_csv, maybe_write_report, maybe_write_trace,
    run_insitu_cell, HarnessArgs,
};
use nek_sensei::InSituMode;

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
    let mut by_mode: Vec<(InSituMode, Vec<f64>)> = Vec::new();
    for mode in [
        InSituMode::Original,
        InSituMode::Checkpointing,
        InSituMode::Catalyst,
    ] {
        let mut times = Vec::new();
        for (&paper_r, &r) in paper_ranks.iter().zip(&ranks) {
            let mut cfg = cases::insitu_config(&sweep, r, mode);
            cfg.exec = args.exec_mode();
            cfg.sched = args.sched_mode();
            cfg.trace = args.trace_out.is_some();
            cfg.telemetry = args.telemetry();
            let cell = format!("fig2_{}_{r}ranks", mode.label().to_lowercase());
            let report = run_insitu_cell(&args, &cell, cfg);
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
            times.push(report.metrics.time_to_solution);
        }
        by_mode.push((mode, times));
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
    let find = |m: InSituMode| {
        by_mode
            .iter()
            .find(|(mm, _)| *mm == m)
            .map(|(_, t)| t.clone())
            .expect("mode ran")
    };
    let orig = find(InSituMode::Original);
    let chk = find(InSituMode::Checkpointing);
    let cat = find(InSituMode::Catalyst);
    let strong_scaling = orig.windows(2).all(|w| w[1] < w[0]);
    let order_holds = orig
        .iter()
        .zip(&chk)
        .zip(&cat)
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
}
