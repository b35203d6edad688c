//! Quickstart: instrument a simulation with the SENSEI-style in situ
//! interface in ~40 lines.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Mirrors the paper's §3 structure: a simulation (here the reduced-scale
//! pebble-bed case on 2 ranks), a `DataAdaptor` exposing its fields, and a
//! runtime XML config choosing the analyses — swappable without
//! recompiling the simulation.

use commsim::{run_ranks, MachineModel};
use insitu::Bridge;
use nek_sensei::SnapshotPlane;
use render::CatalystAnalysis;
use sem::cases::{pb146, CaseParams};

fn main() {
    // The runtime configuration (paper Listing 1). Change the analyses
    // here — the simulation code below never changes.
    const CONFIG: &str = r#"
<sensei>
  <analysis type="vtu-checkpoint" arrays="pressure,velocity" frequency="5"
            output="out/quickstart"/>
  <analysis type="catalyst" width="400" height="300" frequency="10"
            output="out/quickstart"/>
</sensei>"#;

    let reports = run_ranks(2, MachineModel::polaris(), |comm| {
        // 1. Build the simulation (NekRS analogue) for this rank's slab.
        let mut params = CaseParams::pb146_default();
        params.elems = [4, 4, 6];
        let mut solver = pb146(&params, 30).build(comm);

        // 2. Initialize the bridge (paper Listing 3) and the snapshot
        //    data plane (geometry cached once, staging buffers pooled).
        let mut bridge =
            Bridge::initialize(comm, CONFIG, &[CatalystAnalysis::factory()]).expect("valid config");
        let plane = SnapshotPlane::new(comm, &solver);

        // 3. Main loop: step; when an analysis triggers, publish exactly
        //    the fields it needs and hand the snapshot to SENSEI.
        for step in 1..=20u64 {
            solver.step(comm);
            if bridge.triggers_at(step) {
                let mut adaptor = plane.publish(comm, &mut solver, bridge.arrays_at(step));
                bridge
                    .update(comm, step, &mut adaptor)
                    .expect("in situ update");
            }
        }
        bridge.finalize(comm).expect("finalize");

        (
            comm.rank(),
            solver.kinetic_energy(comm),
            comm.now(),
            bridge.analyses().execution_counts(),
        )
    });

    for (rank, ke, vtime, counts) in &reports {
        println!(
            "rank {rank}: kinetic energy {ke:.4}, virtual time {vtime:.4}s, \
             analysis executions {counts:?}"
        );
    }
    println!(
        "vtu-checkpoint ran every 5 steps (4×), catalyst every 10 (2×) — all from XML; \
         files under out/quickstart/."
    );
}
