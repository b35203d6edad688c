//! Integration: steering (watchdog stop) through the full solver+bridge
//! loop.

use commsim::{run_ranks, MachineModel};
use insitu::Bridge;
use nek_sensei::SnapshotPlane;
use sem::cases::{pb146, CaseParams};

#[test]
fn watchdog_stops_a_simulation_mid_run() {
    // An absurdly tight velocity bound trips on the very first trigger; the
    // bridge then reports "stop" and the loop must exit early on all ranks.
    let res = run_ranks(2, MachineModel::polaris(), |comm| {
        let mut params = CaseParams::pb146_default();
        params.elems = [2, 2, 4];
        params.order = 2;
        let mut solver = pb146(&params, 4).build(comm);
        let xml = r#"<sensei>
            <analysis type="watchdog" array="velocity" frequency="2" max="1e-6"/>
        </sensei>"#;
        let mut bridge = Bridge::initialize(comm, xml, &[]).unwrap();
        let plane = SnapshotPlane::new(comm, &solver);
        let mut steps_run = 0;
        for step in 1..=10u64 {
            solver.step(comm);
            steps_run = step;
            if !bridge.triggers_at(step) {
                continue;
            }
            let mut da = plane.publish(comm, &mut solver, bridge.arrays_at(step));
            if !bridge.update(comm, step, &mut da).unwrap() {
                break;
            }
        }
        steps_run
    });
    // First watchdog trigger is step 2 (frequency 2), so every rank stops
    // there — consistently.
    assert_eq!(res, vec![2, 2]);
}
