//! Integration: the full §4.1 in situ stack — solver → adaptor → bridge →
//! rendering/checkpointing — reproduces the paper's qualitative results at
//! miniature scale.

use commsim::MachineModel;
use nek_sensei::{run_insitu, ExecMode, InSituConfig, InSituMode};

const EXEC_MODES: [ExecMode; 2] = [ExecMode::Synchronous, ExecMode::Pipelined];
use sem::cases::{pb146, CaseParams};

fn config(mode: InSituMode, exec: ExecMode) -> InSituConfig {
    let mut params = CaseParams::pb146_default();
    params.elems = [3, 3, 4];
    params.order = 2;
    InSituConfig {
        case: pb146(&params, 8),
        ranks: 2,
        steps: 6,
        trigger_every: 3,
        machine: MachineModel::polaris(),
        image_size: (80, 60),
        mode,
        exec,
        sched: Default::default(),
        faults: commsim::FaultPlan::none(),
        output_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

#[test]
fn paper_ordering_original_checkpoint_catalyst() {
    for exec in EXEC_MODES {
        let orig = run_insitu(&config(InSituMode::Original, exec));
        let chk = run_insitu(&config(InSituMode::Checkpointing, exec));
        let cat = run_insitu(&config(InSituMode::Catalyst, exec));

        // Time: Original < Checkpointing < Catalyst (Fig. 2's ordering).
        assert!(orig.metrics.time_to_solution < chk.metrics.time_to_solution);
        assert!(chk.metrics.time_to_solution < cat.metrics.time_to_solution);

        // Memory: Catalyst above Checkpointing (Fig. 3's ordering).
        assert!(cat.memory().host_aggregate_peak > chk.memory().host_aggregate_peak);

        // GPU footprint identical across configurations (the solver is the
        // same; only host-side coupling differs).
        assert_eq!(
            orig.memory().gpu_aggregate_peak,
            cat.memory().gpu_aggregate_peak
        );

        // Storage: only the I/O-ing configurations write.
        assert_eq!(orig.bytes_written, 0);
        assert!(chk.bytes_written > 0);
        assert!(cat.bytes_written > 0);

        // Catalyst triggered twice (steps 3 and 6), two images each.
        assert_eq!(cat.files_written, 4);
        // Checkpointing dumped twice per rank.
        assert_eq!(chk.files_written, 4);
    }
}

#[test]
fn catalyst_d2h_traffic_scales_with_triggers() {
    for exec in EXEC_MODES {
        let mut cfg = config(InSituMode::Catalyst, exec);
        cfg.trigger_every = 3;
        let sparse = run_insitu(&cfg);
        cfg.trigger_every = 1;
        let dense = run_insitu(&cfg);
        // 3× the triggers ⇒ 3× the device→host staging bytes.
        assert_eq!(
            dense.metrics.totals.bytes_d2h,
            3 * sparse.metrics.totals.bytes_d2h
        );
    }
}

#[test]
fn more_ranks_do_not_change_physics() {
    for exec in EXEC_MODES {
        // The solver's kinetic energy must agree across decompositions; the
        // workflow wrapper must not perturb it.
        let r2 = run_insitu(&config(InSituMode::Catalyst, exec));
        let mut cfg4 = config(InSituMode::Catalyst, exec);
        cfg4.ranks = 4;
        let r4 = run_insitu(&cfg4);
        // Same steps; same global mesh: identical trigger counts and virtual
        // work distribution. We check the invariant observable: files written.
        assert_eq!(r2.files_written, r4.files_written);
    }
}
