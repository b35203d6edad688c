//! Integration: the paper's headline SENSEI property — analyses are chosen
//! at *runtime* from XML and can be swapped without touching (let alone
//! recompiling) the simulation loop.

use commsim::{run_ranks, MachineModel};
use insitu::Bridge;
use nek_sensei::SnapshotPlane;
use render::CatalystAnalysis;
use sem::cases::{pb146, CaseParams};

/// One fixed simulation loop; only the XML changes between runs.
fn simulate_with_config(config_xml: &'static str) -> Vec<(u64, u64)> {
    run_ranks(2, MachineModel::polaris(), move |comm| {
        let mut params = CaseParams::pb146_default();
        params.elems = [2, 2, 4];
        params.order = 2;
        let mut solver = pb146(&params, 4).build(comm);
        let mut bridge = Bridge::initialize(comm, config_xml, &[CatalystAnalysis::factory()])
            .expect("valid config");
        let plane = SnapshotPlane::new(comm, &solver);
        for step in 1..=6u64 {
            solver.step(comm);
            if !bridge.triggers_at(step) {
                continue;
            }
            let mut da = plane.publish(comm, &mut solver, bridge.arrays_at(step));
            bridge.update(comm, step, &mut da).expect("update");
        }
        bridge.finalize(comm).expect("finalize");
        (comm.stats().bytes_d2h, comm.stats().bytes_written_fs)
    })
}

#[test]
fn empty_config_is_free() {
    let res = simulate_with_config("<sensei></sensei>");
    for (d2h, fs) in res {
        assert_eq!(d2h, 0, "no analysis, no staging");
        assert_eq!(fs, 0);
    }
}

#[test]
fn vtu_checkpoint_config_stages_and_writes_on_every_rank() {
    // No `output`: the checkpoint charges the file system and leaves no files.
    let res = simulate_with_config(
        r#"<sensei><analysis type="vtu-checkpoint" arrays="pressure" frequency="2"/></sensei>"#,
    );
    // Unlike Catalyst, where rank 0 writes every image, each rank writes
    // its own piece.
    for (d2h, fs) in res {
        assert!(d2h > 0, "the checkpoint needs the field on the host");
        assert!(fs > 0, "every rank writes its own piece");
    }
}

#[test]
fn catalyst_config_stages_and_writes_images() {
    let res = simulate_with_config(
        r#"<sensei>
             <analysis type="catalyst" frequency="3" width="64" height="48"
                       slice_array="pressure" contour_array="velocity"/>
           </sensei>"#,
    );
    assert!(res[0].0 > 0);
    assert!(res[0].1 > 0, "rank 0 writes the PNGs");
    assert_eq!(res[1].1, 0, "other ranks write nothing");
}

#[test]
fn multiple_analyses_compose() {
    let checkpoint = simulate_with_config(
        r#"<sensei><analysis type="vtu-checkpoint" arrays="velocity" frequency="2"/></sensei>"#,
    );
    let catalyst = simulate_with_config(
        r#"<sensei><analysis type="catalyst" frequency="3" width="32" height="24"/></sensei>"#,
    );
    let both = simulate_with_config(
        r#"<sensei>
             <analysis type="vtu-checkpoint" arrays="velocity" frequency="2"/>
             <analysis type="catalyst" frequency="3" width="32" height="24"/>
           </sensei>"#,
    );
    for rank in 0..2 {
        assert_eq!(
            both[rank].1,
            checkpoint[rank].1 + catalyst[rank].1,
            "rank {rank}: each back end writes what it writes alone"
        );
        assert!(both[rank].0 >= checkpoint[rank].0.max(catalyst[rank].0));
    }
}

#[test]
fn disabled_analysis_behaves_like_absent() {
    let on = simulate_with_config(
        r#"<sensei><analysis type="vtu-checkpoint" arrays="pressure"/></sensei>"#,
    );
    let off = simulate_with_config(
        r#"<sensei><analysis type="vtu-checkpoint" arrays="pressure" enabled="false"/></sensei>"#,
    );
    assert!(on[0].0 > 0);
    assert!(on[0].1 > 0);
    assert_eq!(off, vec![(0, 0); 2]);
}
