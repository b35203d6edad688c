//! The `nek_sensei::DataAdaptor` of the paper (Listing 2), rebuilt on the
//! owned snapshot data plane.
//!
//! Presents one rank's SEM solver state as a VTK-model multiblock. The
//! high-order element is exported the way Nek tools export to VTK: each
//! spectral element becomes `N³` linear hexahedra over its `(N+1)³` GLL
//! nodes, and nodal fields map 1:1 onto the grid points.
//!
//! The coupling is split in two:
//!
//! - [`NekGeometry`] — the static export (points, cells, array catalogue,
//!   global counts, bounds). Built **once** per run with one collective,
//!   then shared by every consumer via `Arc`; the per-trigger rebuild and
//!   the per-call `Vec<ArrayInfo>` reconstruction are gone.
//! - [`SnapshotAdaptor`] — a thin view over one published
//!   [`sem::snapshot::FieldSnapshot`]. Field arrays are handed to VTK as
//!   refcounted aliases of the snapshot's staged buffers
//!   (`ArrayData::F64Shared`), so no consumer pays a second copy and no
//!   consumer ever holds `&mut FlowSolver`.
//!
//! The D2H staging the paper identifies as the price of GPU↔VTK coupling
//! is paid exactly once per published step, inside
//! [`sem::navier_stokes::FlowSolver::publish_snapshot`].

use commsim::{Comm, ReduceOp};
use insitu::DataAdaptor;
use memtrack::{Accountant, Charge};
use meshdata::{
    ArrayInfo, CellType, Centering, DataArray, MeshMetadata, MultiBlock, UnstructuredGrid,
};
use sem::navier_stokes::{FieldId, FlowSolver};
use sem::snapshot::{FieldSnapshot, SnapshotPool, SnapshotSpec};
use std::sync::Arc;

/// The mesh name this adaptor publishes (NekRS has a single fluid mesh).
pub const MESH_NAME: &str = "mesh";

/// The static half of the VTK export: grid geometry, array catalogue, and
/// global mesh metadata. Built once per run and shared by all consumers.
pub struct NekGeometry {
    grid: UnstructuredGrid,
    arrays: Vec<ArrayInfo>,
    n_blocks: usize,
    rank: usize,
    global_points: u64,
    global_cells: u64,
    bounds: [f64; 6],
    /// Keeps the host-resident geometry accounted for the run's lifetime.
    _charge: Charge,
}

impl NekGeometry {
    /// Export the solver's mesh once: subdivide elements, take the global
    /// point/cell counts (one collective), and record the array catalogue.
    pub fn build(comm: &mut Comm, solver: &FlowSolver) -> Self {
        let mesh = &solver.mesh;
        let l = mesh.layout();
        let n = mesh.spec.order;
        let np = l.np;
        let mut grid = UnstructuredGrid::new();
        grid.points.reserve(l.n_nodes());
        for le in 0..mesh.elems.len() {
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        grid.add_point(mesh.node_coords(le, i, j, k));
                    }
                }
            }
        }
        for le in 0..mesh.elems.len() {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let id = |ii: usize, jj: usize, kk: usize| {
                            l.idx(le, i + ii, j + jj, k + kk) as i64
                        };
                        grid.add_cell(
                            CellType::Hexahedron,
                            &[
                                id(0, 0, 0),
                                id(1, 0, 0),
                                id(1, 1, 0),
                                id(0, 1, 0),
                                id(0, 0, 1),
                                id(1, 0, 1),
                                id(1, 1, 1),
                                id(0, 1, 1),
                            ],
                        );
                    }
                }
            }
        }
        // Geometry assembly is a host-side sweep over points + cells; the
        // export stays resident for the whole run.
        let bytes = grid.heap_bytes();
        comm.compute_host(bytes as f64 * 0.5, bytes as f64);
        let charge = comm.accountant("vtk").charge(bytes);

        let mut arrays = vec![
            ArrayInfo {
                name: "pressure".into(),
                centering: Centering::Point,
                components: 1,
            },
            ArrayInfo {
                name: "velocity".into(),
                centering: Centering::Point,
                components: 3,
            },
        ];
        if solver.field_device(FieldId::Temperature).is_some() {
            arrays.push(ArrayInfo {
                name: "temperature".into(),
                centering: Centering::Point,
                components: 1,
            });
        }
        // The derived field, computed on demand on the device (as NekRS's
        // userchk-style post-processing kernels do) at publish time.
        arrays.push(ArrayInfo {
            name: "q_criterion".into(),
            centering: Centering::Point,
            components: 1,
        });

        let mut counts = [l.n_nodes() as f64, (mesh.elems.len() * n * n * n) as f64];
        comm.allreduce_vec(&mut counts, ReduceOp::Sum);
        let lengths = mesh.spec.lengths;

        Self {
            grid,
            arrays,
            n_blocks: comm.size(),
            rank: comm.rank(),
            global_points: counts[0] as u64,
            global_cells: counts[1] as u64,
            bounds: [0.0, lengths[0], 0.0, lengths[1], 0.0, lengths[2]],
            _charge: charge,
        }
    }

    /// The rank-local exported grid.
    pub fn grid(&self) -> &UnstructuredGrid {
        &self.grid
    }

    /// Global mesh metadata stamped with `time`/`time_step`. Collective
    /// counts were taken at construction, so this is allocation-only.
    pub fn metadata(&self, time: f64, time_step: u64) -> MeshMetadata {
        MeshMetadata {
            mesh_name: MESH_NAME.into(),
            n_blocks: self.n_blocks,
            global_points: self.global_points,
            global_cells: self.global_cells,
            arrays: self.arrays.clone(),
            bounds: Some(self.bounds),
            time,
            time_step,
        }
    }
}

/// The solver-side half of the data plane, bundled for embedding code:
/// the geometry is built once and the pooled staging buffers are reused
/// across published steps, so steady-state publishing allocates nothing.
///
/// ```ignore
/// let plane = SnapshotPlane::new(comm, &solver);
/// loop {
///     solver.step(comm);
///     if bridge.triggers_at(step) {
///         let mut da = plane.publish(comm, &mut solver, bridge.arrays_at(step));
///         bridge.update(comm, step, &mut da)?;
///     }
/// }
/// ```
pub struct SnapshotPlane {
    pool: SnapshotPool,
    geometry: Arc<NekGeometry>,
}

impl SnapshotPlane {
    /// Build the geometry cache and staging pool for `solver`'s mesh.
    pub fn new(comm: &mut Comm, solver: &FlowSolver) -> Self {
        Self {
            pool: SnapshotPool::new(comm.accountant("snapshot-pool")),
            geometry: Arc::new(NekGeometry::build(comm, solver)),
        }
    }

    /// The cached geometry.
    pub fn geometry(&self) -> &Arc<NekGeometry> {
        &self.geometry
    }

    /// The staging buffer pool.
    pub fn pool(&self) -> &SnapshotPool {
        &self.pool
    }

    /// Publish the named arrays (unknown names are ignored here and
    /// surface as `NoSuchData` at consumption) and wrap the snapshot for
    /// SENSEI consumption.
    pub fn publish<S: AsRef<str>>(
        &self,
        comm: &mut Comm,
        solver: &mut FlowSolver,
        arrays: impl IntoIterator<Item = S>,
    ) -> SnapshotAdaptor {
        let spec = SnapshotSpec::from_names(arrays);
        let snapshot = solver.publish_snapshot(comm, &spec, &self.pool);
        let telemetry = comm.telemetry();
        if telemetry.enabled() {
            telemetry.counter("snapshot/published").inc();
        }
        SnapshotAdaptor::new(comm, snapshot, Arc::clone(&self.geometry))
    }
}

/// Adapts one published [`FieldSnapshot`] (plus the shared [`NekGeometry`])
/// to the SENSEI-style [`DataAdaptor`] contract. Holds no solver borrow:
/// consumers can run on another thread while the solver advances.
pub struct SnapshotAdaptor {
    snapshot: Arc<FieldSnapshot>,
    geometry: Arc<NekGeometry>,
    vtk_accountant: Accountant,
    charges: Vec<Charge>,
}

impl SnapshotAdaptor {
    /// View `snapshot` through `geometry`; transient host-side VTK copies
    /// are charged to the rank's `vtk` accountant.
    pub fn new(comm: &Comm, snapshot: Arc<FieldSnapshot>, geometry: Arc<NekGeometry>) -> Self {
        Self {
            snapshot,
            geometry,
            vtk_accountant: comm.accountant("vtk"),
            charges: Vec::new(),
        }
    }

    /// The snapshot being presented.
    pub fn snapshot(&self) -> &Arc<FieldSnapshot> {
        &self.snapshot
    }
}

impl DataAdaptor for SnapshotAdaptor {
    fn num_meshes(&self) -> usize {
        1
    }

    fn mesh_name(&self, idx: usize) -> &str {
        assert_eq!(idx, 0, "NekRS provides one mesh");
        MESH_NAME
    }

    fn mesh_metadata(&mut self, _comm: &mut Comm, mesh: &str) -> insitu::Result<MeshMetadata> {
        check_mesh(mesh)?;
        Ok(self.geometry.metadata(self.time(), self.time_step()))
    }

    fn mesh(&mut self, comm: &mut Comm, mesh: &str) -> insitu::Result<MultiBlock> {
        check_mesh(mesh)?;
        // The consumer gets its own VTK copy of the geometry (the paper's
        // conversion cost); field arrays below stay zero-copy.
        let g = self.geometry.grid().clone();
        let bytes = g.heap_bytes();
        comm.compute_host(bytes as f64 * 0.5, bytes as f64);
        self.charges.push(self.vtk_accountant.charge(bytes));
        Ok(MultiBlock::local(
            self.geometry.rank,
            self.geometry.n_blocks,
            g,
        ))
    }

    fn add_array(
        &mut self,
        _comm: &mut Comm,
        mb: &mut MultiBlock,
        mesh: &str,
        centering: Centering,
        array: &str,
    ) -> insitu::Result<()> {
        check_mesh(mesh)?;
        if centering != Centering::Point {
            return Err(insitu::Error::NoSuchData(format!(
                "cell array '{array}' (solver fields are point-centered)"
            )));
        }
        let Some(field) = self.snapshot.field(array) else {
            return Err(insitu::Error::NoSuchData(format!(
                "array '{array}' (not in snapshot v{})",
                self.snapshot.version
            )));
        };
        // Zero-copy: the consumer's DataArray aliases the staged buffer.
        let data = DataArray::shared_f64(field.name, field.components, field.shared());
        self.charges
            .push(self.vtk_accountant.charge(data.heap_bytes()));
        let Some(block) = mb.blocks[self.geometry.rank].as_mut() else {
            return Err(insitu::Error::NoSuchData("local block missing".into()));
        };
        block.add_point_data(data)?;
        Ok(())
    }

    fn time(&self) -> f64 {
        self.snapshot.time
    }

    fn time_step(&self) -> u64 {
        self.snapshot.version as u64
    }

    fn release_data(&mut self) {
        self.charges.clear();
    }
}

fn check_mesh(mesh: &str) -> insitu::Result<()> {
    if mesh == MESH_NAME {
        Ok(())
    } else {
        Err(insitu::Error::NoSuchData(format!("mesh '{mesh}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_ranks, MachineModel};
    use sem::cases::{pb146, rbc, CaseParams};
    use sem::snapshot::{SnapshotPool, SnapshotSpec};

    fn small_pb146_solver(comm: &mut Comm) -> FlowSolver {
        let mut params = CaseParams::pb146_default();
        params.elems = [2, 2, 4];
        params.order = 2;
        pb146(&params, 4).build(comm)
    }

    fn publish(
        comm: &mut Comm,
        solver: &mut FlowSolver,
        spec: SnapshotSpec,
    ) -> (Arc<FieldSnapshot>, Arc<NekGeometry>, SnapshotPool) {
        let geometry = Arc::new(NekGeometry::build(comm, solver));
        let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
        let snap = solver.publish_snapshot(comm, &spec, &pool);
        (snap, geometry, pool)
    }

    #[test]
    fn geometry_export_subdivides_elements() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let mut solver = small_pb146_solver(comm);
            let (snap, geo, _pool) = publish(comm, &mut solver, SnapshotSpec::default());
            let mut da = SnapshotAdaptor::new(comm, snap, geo);
            let mb = da.mesh(comm, MESH_NAME).unwrap();
            let (idx, g) = mb.local_blocks().next().unwrap();
            g.validate().unwrap();
            let n_elems = solver.mesh.elems.len();
            (
                idx,
                g.n_points() == n_elems * 27, // (N+1)³ with N=2
                g.n_cells() == n_elems * 8,   // N³
            )
        });
        assert_eq!(res[0], (0, true, true));
        assert_eq!(res[1], (1, true, true));
    }

    #[test]
    fn publish_stages_d2h_once_for_any_number_of_consumers() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut solver = small_pb146_solver(comm);
            let n = solver.n_nodes() as u64;
            let geo = Arc::new(NekGeometry::build(comm, &solver));
            let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
            let spec = SnapshotSpec::from_names(["velocity", "pressure"]);
            let d2h_before = comm.stats().bytes_d2h;
            let snap = solver.publish_snapshot(comm, &spec, &pool);
            let staged = comm.stats().bytes_d2h - d2h_before;

            // Two independent consumers; neither re-stages anything.
            let d2h_mid = comm.stats().bytes_d2h;
            for _ in 0..2 {
                let mut da = SnapshotAdaptor::new(comm, Arc::clone(&snap), Arc::clone(&geo));
                let mut mb = da.mesh(comm, MESH_NAME).unwrap();
                da.add_array(comm, &mut mb, MESH_NAME, Centering::Point, "velocity")
                    .unwrap();
                da.add_array(comm, &mut mb, MESH_NAME, Centering::Point, "pressure")
                    .unwrap();
                da.release_data();
            }
            let consumer_staged = comm.stats().bytes_d2h - d2h_mid;
            (staged, n, consumer_staged)
        });
        let (staged, n, consumer_staged) = res[0];
        // velocity = 3 fields + pressure = 1 field, 8 B per node each.
        assert_eq!(staged, 4 * n * 8);
        assert_eq!(consumer_staged, 0, "consumers must not re-stage D2H");
    }

    #[test]
    fn consumer_arrays_are_zero_copy_and_vtk_charge_releases() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut solver = small_pb146_solver(comm);
            let spec = SnapshotSpec::from_names(["velocity", "pressure"]);
            let (snap, geo, _pool) = publish(comm, &mut solver, spec);
            let geometry_resident = comm.accountant("vtk").current();
            let mut da = SnapshotAdaptor::new(comm, snap, geo);
            let mut mb = da.mesh(comm, MESH_NAME).unwrap();
            let after_mesh = comm.accountant("vtk").current();
            da.add_array(comm, &mut mb, MESH_NAME, Centering::Point, "velocity")
                .unwrap();
            let after_arrays = comm.accountant("vtk").current();
            da.release_data();
            let after_release = comm.accountant("vtk").current();
            drop(da);
            (geometry_resident, after_mesh, after_arrays, after_release)
        });
        let (geometry_resident, after_mesh, after_arrays, after_release) = res[0];
        assert!(geometry_resident > 0, "geometry export stays resident");
        assert!(after_mesh > geometry_resident, "mesh() charges a VTK copy");
        // Shared arrays alias pooled buffers: no meaningful extra charge.
        assert!(after_arrays - after_mesh < 1024, "arrays must be zero-copy");
        assert_eq!(
            after_release, geometry_resident,
            "release_data frees the transient copies, keeps the export"
        );
    }

    #[test]
    fn metadata_counts_are_global_and_arrays_depend_on_case() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let mut solver = small_pb146_solver(comm);
            let (snap, geo, _pool) = publish(comm, &mut solver, SnapshotSpec::default());
            let mut da = SnapshotAdaptor::new(comm, snap, geo);
            let md = da.mesh_metadata(comm, MESH_NAME).unwrap();
            let has_temp = md.array("temperature").is_some();
            (md.global_cells, md.n_blocks, has_temp)
        });
        // pb146 has no temperature; cell count = global fluid elems × 8.
        for (_cells, blocks, has_temp) in &res {
            assert_eq!(*blocks, 2);
            assert!(!has_temp);
        }
        assert!(res[0].0 > 0);

        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut params = CaseParams::rbc_default();
            params.elems = [2, 2, 2];
            params.order = 2;
            let mut solver = rbc(&params, 1e4, 0.7).build(comm);
            let (snap, geo, _pool) = publish(comm, &mut solver, SnapshotSpec::default());
            let mut da = SnapshotAdaptor::new(comm, snap, geo);
            let md = da.mesh_metadata(comm, MESH_NAME).unwrap();
            md.array("temperature").is_some()
        });
        assert!(res[0], "RBC case must expose temperature");
    }

    #[test]
    fn unknown_requests_error() {
        run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut solver = small_pb146_solver(comm);
            // The solver publishes no `vorticity`: the spec ignores the
            // name, and neither the metadata nor the adaptor offers it.
            let spec = SnapshotSpec::from_names(["pressure", "vorticity"]);
            let (snap, geo, _pool) = publish(comm, &mut solver, spec);
            let mut da = SnapshotAdaptor::new(comm, snap, geo);
            let md = da.mesh_metadata(comm, MESH_NAME).unwrap();
            assert!(md.array("vorticity").is_none());
            assert!(da.mesh(comm, "other").is_err());
            let mut mb = da.mesh(comm, MESH_NAME).unwrap();
            assert!(matches!(
                da.add_array(comm, &mut mb, MESH_NAME, Centering::Point, "vorticity"),
                Err(insitu::Error::NoSuchData(_))
            ));
            assert!(da
                .add_array(comm, &mut mb, MESH_NAME, Centering::Point, "enstrophy")
                .is_err());
            assert!(da
                .add_array(comm, &mut mb, MESH_NAME, Centering::Cell, "pressure")
                .is_err());
            // pb146 has no temperature, so the snapshot cannot carry it.
            assert!(da
                .add_array(comm, &mut mb, MESH_NAME, Centering::Point, "temperature")
                .is_err());
            // pressure was published, velocity was not requested.
            assert!(da
                .add_array(comm, &mut mb, MESH_NAME, Centering::Point, "velocity")
                .is_err());
        });
    }

    #[test]
    fn derived_field_is_exported_on_demand() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let mut solver = small_pb146_solver(comm);
            for _ in 0..3 {
                solver.step(comm);
            }
            let geo = Arc::new(NekGeometry::build(comm, &solver));
            let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
            let md = geo.metadata(solver.time(), solver.step_index() as u64);
            assert!(md.array("q_criterion").is_some());
            let d2h_before = comm.stats().bytes_d2h;
            let spec = SnapshotSpec::from_names(["q_criterion"]);
            let snap = solver.publish_snapshot(comm, &spec, &pool);
            let mut da = SnapshotAdaptor::new(comm, snap, geo);
            let mut mb = da.mesh(comm, MESH_NAME).unwrap();
            da.add_array(comm, &mut mb, MESH_NAME, Centering::Point, "q_criterion")
                .unwrap();
            let (_, g) = mb.local_blocks().next().unwrap();
            let q = g.find_array("q_criterion", Centering::Point).unwrap();
            let finite = (0..q.len()).all(|i| q.get(i, 0).is_finite());
            (q.components, finite, comm.stats().bytes_d2h > d2h_before)
        });
        for (qc, finite, staged) in res {
            assert_eq!(qc, 1);
            assert!(finite);
            assert!(staged, "the derived field must pay D2H like primary ones");
        }
    }

    #[test]
    fn exported_field_values_match_solver_state() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let mut solver = small_pb146_solver(comm);
            let spec = SnapshotSpec::from_names(["velocity"]);
            let (snap, geo, _pool) = publish(comm, &mut solver, spec);
            let mut da = SnapshotAdaptor::new(comm, snap, geo);
            let mut mb = da.mesh(comm, MESH_NAME).unwrap();
            da.add_array(comm, &mut mb, MESH_NAME, Centering::Point, "velocity")
                .unwrap();
            let (_, g) = mb.local_blocks().next().unwrap();
            let v = g.find_array("velocity", Centering::Point).unwrap();
            let w_dev = solver.field_device(FieldId::VelZ).unwrap();
            (0..v.len())
                .map(|i| (v.get(i, 2) - w_dev[i]).abs())
                .fold(0.0, f64::max)
        });
        assert_eq!(res[0], 0.0, "export must be bit-exact");
    }
}
