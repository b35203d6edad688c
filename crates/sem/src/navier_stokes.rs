//! Incompressible Navier–Stokes / Boussinesq solver with the Pₙ–Pₙ
//! splitting scheme (NekRS's default formulation).
//!
//! Each step, following Fischer et al.:
//! 1. evaluate the advection term `N(u) = −(u·∇)u` (+ buoyancy forcing)
//!    explicitly and extrapolate with EXTk;
//! 2. combine with the BDFk history into a tentative velocity `û`;
//! 3. solve the pressure Poisson equation `A p = −(b₀/Δt)·M ∇·û` (CG
//!    preconditioned by the [`crate::mg`] V-cycle, mean projection on
//!    pure-Neumann domains);
//! 4. project: `u** = û − (Δt/b₀)·∇p`;
//! 5. solve the implicit viscous Helmholtz system
//!    `((b₀/Δt)·M + ν·A)·u = (b₀/Δt)·M u**` for the three components as
//!    one lockstep block ([`cg::solve_helmholtz`]), with Dirichlet lifting
//!    for inflow/no-slip values;
//! 6. optionally advance temperature by the same advection–diffusion
//!    machinery and feed it back as buoyancy on the vertical momentum.
//!
//! Fields are conceptually GPU-resident: construction charges the rank's
//! `gpu` memory accountant, all operators charge GPU kernel time, and the
//! only host-visible access is [`FlowSolver::publish_snapshot`], which pays
//! the D2H transfer — the constraint the paper's in situ overhead hinges on.

use crate::cg::{self, CgConfig, CgResult};
use crate::gs::GatherScatter;
use crate::mesh::{BcSet, LocalMesh};
use crate::mg::{self, Multigrid};
use crate::operators::{HelmholtzTerm, Ops};
use crate::snapshot::{FieldSnapshot, SnapshotField, SnapshotPool, SnapshotSpec};
use crate::timestep::{bdf_coeffs, ext_coeffs};
use crate::workspace::Workspace;
use commsim::{Comm, ReduceOp};
use memtrack::Charge;
use std::sync::Arc;

/// Temperature-equation configuration (enables Boussinesq coupling).
#[derive(Debug, Clone)]
pub struct TemperatureConfig {
    /// Thermal diffusivity κ.
    pub diffusivity: f64,
    /// Buoyancy coefficient β: vertical forcing `f_z = β·T`.
    pub buoyancy: f64,
    /// Boundary conditions for T.
    pub bc: BcSet,
    /// CG controls for the temperature Helmholtz solve.
    pub cg: CgConfig,
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Kinematic viscosity ν.
    pub viscosity: f64,
    /// Timestep Δt.
    pub dt: f64,
    /// Target BDF/EXT order (1..=3); ramped up over the first steps.
    pub bdf_order: usize,
    /// CG controls for the pressure Poisson solve.
    pub pressure_cg: CgConfig,
    /// CG controls for the viscous Helmholtz solves.
    pub velocity_cg: CgConfig,
    /// Constant body force per unit mass (e.g. a driving pressure
    /// gradient for channel flows); applied with the advection terms.
    pub body_force: [f64; 3],
    /// Optional temperature equation.
    pub temperature: Option<TemperatureConfig>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            viscosity: 1e-2,
            dt: 1e-3,
            bdf_order: 2,
            pressure_cg: CgConfig {
                tol: 1e-6,
                max_iter: 200,
                ..Default::default()
            },
            velocity_cg: CgConfig {
                tol: 1e-8,
                max_iter: 200,
                ..Default::default()
            },
            body_force: [0.0; 3],
            temperature: None,
        }
    }
}

/// Boundary conditions for the flow system.
#[derive(Debug, Clone)]
pub struct FlowBcs {
    /// Per velocity component.
    pub velocity: [BcSet; 3],
    /// For the pressure Poisson solve (Dirichlet at outflows; pure Neumann
    /// in enclosed domains).
    pub pressure: BcSet,
}

/// Per-step diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Step index just completed (1-based).
    pub step: usize,
    /// Simulation time after the step.
    pub time: f64,
    /// Pressure solve outcome.
    pub pressure: CgResult,
    /// Viscous solve outcomes per component.
    pub velocity: [CgResult; 3],
    /// Temperature solve outcome.
    pub temperature: Option<CgResult>,
    /// Weighted L2 norm of ∇·u after the step.
    pub divergence: f64,
}

/// Which field to stage to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldId {
    /// Velocity x-component.
    VelX,
    /// Velocity y-component.
    VelY,
    /// Velocity z-component.
    VelZ,
    /// Pressure.
    Pressure,
    /// Temperature (if enabled).
    Temperature,
}

/// One advected–diffused field — u_x, u_y, u_z or T — with everything
/// its implicit update needs.
struct Transported {
    value: Vec<f64>,
    /// Earlier values, newest first (BDF ring, at most 2).
    hist: Vec<Vec<f64>>,
    /// Explicit terms (advection + forcing), newest first (EXT ring, at
    /// most 3).
    rhs_hist: Vec<Vec<f64>>,
    /// 1 on free nodes, 0 on Dirichlet nodes.
    mask: Vec<f64>,
    /// Dirichlet lift: the boundary value on Dirichlet nodes, 0 elsewhere.
    lift: Vec<f64>,
    /// ν for a velocity component, κ for temperature.
    diffusivity: f64,
    /// CG controls for the Helmholtz solve.
    cg: CgConfig,
}

impl Transported {
    fn new(mesh: &LocalMesh, value: Vec<f64>, bc: &BcSet, diffusivity: f64, cg: CgConfig) -> Self {
        let (mask, lift) = mesh.dirichlet_mask(bc);
        Self {
            value,
            // Capacity for the steady-state ring length plus the one-slot
            // overshoot during insert, so history pushes never reallocate.
            hist: Vec::with_capacity(3),
            rhs_hist: Vec::with_capacity(4),
            mask,
            lift,
            diffusivity,
            cg,
        }
    }

    /// Make the value continuous across elements and restore its
    /// boundary values.
    fn project(&mut self, comm: &mut Comm, gs: &GatherScatter) {
        gs.average(comm, &mut self.value);
        for ((v, &m), &l) in self.value.iter_mut().zip(&self.mask).zip(&self.lift) {
            *v = *v * m + l;
        }
    }

    /// A buffer for the value this step solves for: the BDF ring's
    /// expiring slot once the ring is full, a workspace buffer while it
    /// fills. Taking the slot before the solve, not after, keeps a block
    /// of fields within the buffers one field at a time needed.
    fn value_slot(&mut self, ws: &mut Workspace) -> Vec<f64> {
        if self.hist.len() == BDF_RING {
            self.hist.pop().expect("ring non-empty")
        } else {
            ws.take_uninit()
        }
    }

    /// The order-`k` BDF/EXT sum `Σ −(bⱼ/b₀)·valueⱼ + (Δt/b₀)·Σ aⱼ·rhsⱼ`
    /// in a workspace buffer. Pure local arithmetic: charges no virtual
    /// time.
    fn extrapolate(&self, k: usize, dt: f64, ws: &mut Workspace) -> Vec<f64> {
        let (b0, bprev) = bdf_coeffs(k);
        let mut hat = ws.take();
        for (j, &bj) in bprev.iter().enumerate() {
            let vj = if j == 0 {
                &self.value
            } else {
                &self.hist[j - 1]
            };
            let coeff = -bj / b0;
            for (h, &v) in hat.iter_mut().zip(vj) {
                *h += coeff * v;
            }
        }
        for (j, &aj) in ext_coeffs(k).iter().enumerate() {
            let nj = &self.rhs_hist[j.min(self.rhs_hist.len() - 1)];
            let coeff = dt / b0 * aj;
            for (h, &v) in hat.iter_mut().zip(nj) {
                *h += coeff * v;
            }
        }
        hat
    }
}

/// Per-solve convergence telemetry: `sem/pressure_iters`,
/// `sem/pressure_residual` (final residual relative to the right-hand
/// side), `sem/velocity_iters` and the `sem/unconverged_solves` counter
/// (any solve, temperature included, that ended on its iteration cap).
/// Binding them also sets, on rank 0, the gauges `sem/coarse_dofs` and
/// `sem/coarse_band` of the pressure multigrid's order-1 solve.
struct SolveStats {
    pressure_iters: telemetry::Histogram,
    pressure_residual: telemetry::Histogram,
    velocity_iters: telemetry::Histogram,
    unconverged: telemetry::Counter,
}

/// Insert `newest` at the front of a history ring holding at most `cap`
/// entries. The expiring slot goes back to the arena first, so the push
/// never grows the Vec.
fn rotate(ring: &mut Vec<Vec<f64>>, cap: usize, newest: Vec<f64>, ws: &mut Workspace) {
    if ring.len() == cap {
        ws.put(ring.pop().expect("ring non-empty"));
    }
    ring.insert(0, newest);
}

/// Earlier values a BDF ring holds: BDF3 reads the current value and
/// these.
const BDF_RING: usize = 2;

/// Index of temperature in `FlowSolver::fields`, after the velocity
/// components 0..3.
const TEMPERATURE: usize = 3;

/// The flow solver state for one rank.
pub struct FlowSolver {
    /// Rank-local mesh.
    pub mesh: LocalMesh,
    /// Assembly topology.
    pub gs: GatherScatter,
    /// Operator context.
    pub ops: Ops,
    cfg: SolverConfig,
    /// u_x, u_y, u_z, then T when the temperature equation is enabled.
    fields: Vec<Transported>,
    p: Vec<f64>,
    p_mask: Vec<f64>,
    p_fix_mean: bool,
    mass_diag: Vec<f64>,
    mass_diag_assembled: Vec<f64>,
    stiff_diag_assembled: Vec<f64>,
    /// The pressure preconditioner's smoothers and coarse levels; its fine
    /// level is `gs`/`ops`/`p_mask` above.
    p_mg: Multigrid,
    scratch: Vec<f64>,
    /// Scratch-buffer arena for all per-step temporaries; after the warm-up
    /// steps the hot loop recycles these instead of allocating.
    ws: Workspace,
    step_index: usize,
    time: f64,
    /// Lazily-bound telemetry instrument for per-step virtual time
    /// (`rank<r>/sem/step_time`); a no-op handle when telemetry is off.
    step_hist: Option<telemetry::Histogram>,
    /// Lazily-bound gauge for the share of gather-scatter exchange latency
    /// hidden behind interior work (`sem/overlap_ratio`).
    overlap_ratio: Option<telemetry::Gauge>,
    /// Lazily-bound per-solve convergence instruments.
    solve_stats: Option<SolveStats>,
    _gpu_charge: Charge,
}

impl FlowSolver {
    /// Build a solver over `mesh` with initial velocity `u0` (element-major
    /// per component) and initial temperature `t0`, which is required
    /// with — and only used with — `cfg.temperature`.
    pub fn new(
        comm: &mut Comm,
        mesh: LocalMesh,
        cfg: SolverConfig,
        bcs: FlowBcs,
        u0: [Vec<f64>; 3],
        t0: Option<Vec<f64>>,
    ) -> Self {
        let gs = GatherScatter::new(&mesh, comm);
        let ops = Ops::new(&mesh);
        let n = mesh.layout().n_nodes();
        assert!(u0.iter().all(|c| c.len() == n), "u0 layout mismatch");
        assert!(
            cfg.temperature.is_none() || t0.as_ref().is_some_and(|t| t.len() == n),
            "temperature enabled but t0 missing or mis-sized"
        );

        let mut fields: Vec<Transported> = u0
            .into_iter()
            .zip(&bcs.velocity)
            .map(|(u, bc)| Transported::new(&mesh, u, bc, cfg.viscosity, cfg.velocity_cg))
            .collect();
        if let (Some(tc), Some(t)) = (&cfg.temperature, t0) {
            fields.push(Transported::new(&mesh, t, &tc.bc, tc.diffusivity, tc.cg));
        }
        let (p_mask, _) = mesh.dirichlet_mask(&bcs.pressure);

        let mass_diag = ops.mass_diag();
        let mut mass_diag_assembled = mass_diag.clone();
        gs.sum(comm, &mut mass_diag_assembled);
        let mut stiff_diag_assembled = ops.stiffness_diag();
        gs.sum(comm, &mut stiff_diag_assembled);
        let p_mg = Multigrid::new(comm, &mesh, &gs, &ops, &p_mask);
        // Pure Neumann pressure (no Dirichlet node anywhere globally)?
        let p_fix_mean = p_mg.operator_is_singular();

        // Make initial state continuous and boundary-consistent.
        for f in &mut fields {
            f.project(comm, &gs);
        }

        // Everything above lives in device memory in NekRS; charge it.
        let n_fields = fields.len() + 1;
        let histories = 3 * 2 + 3 * 3 + 2 + 3; // BDF + EXT rings of u and T
        let mg_work = 3; // the V-cycle's fine-level vectors
        let bytes = ((n_fields + histories + 8 + mg_work) * n * 8) as u64 + p_mg.device_bytes();
        let gpu_charge = comm.accountant("gpu").charge(bytes);

        // Setup-time gather-scatter traffic should not leak into the first
        // step's overlap telemetry.
        gs.take_overlap();

        Self {
            mesh,
            gs,
            ops,
            cfg,
            fields,
            p: vec![0.0; n],
            p_mask,
            p_fix_mean,
            mass_diag,
            mass_diag_assembled,
            stiff_diag_assembled,
            p_mg,
            scratch: vec![0.0; n],
            ws: Workspace::new(n),
            step_index: 0,
            time: 0.0,
            step_hist: None,
            overlap_ratio: None,
            solve_stats: None,
            _gpu_charge: gpu_charge,
        }
    }

    /// Number of local nodes.
    pub fn n_nodes(&self) -> usize {
        self.mesh.layout().n_nodes()
    }

    /// Simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed steps.
    pub fn step_index(&self) -> usize {
        self.step_index
    }

    /// Solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Device-side view of a field — for device code (tests, kernels).
    /// Host-side consumers must use [`FlowSolver::publish_snapshot`].
    pub fn field_device(&self, id: FieldId) -> Option<&[f64]> {
        let c = match id {
            FieldId::VelX => 0,
            FieldId::VelY => 1,
            FieldId::VelZ => 2,
            FieldId::Pressure => return Some(&self.p),
            FieldId::Temperature => TEMPERATURE,
        };
        self.fields.get(c).map(|f| f.value.as_slice())
    }

    /// Stage every field requested by `spec` into an owned, pooled
    /// [`FieldSnapshot`] — the single D2H publish point of the data plane.
    ///
    /// This is the `occa::memory::copyTo` the paper's instrumentation must
    /// perform because VTK cannot read device memory. Primary fields
    /// (velocity, pressure, temperature) share one pooled D2H transfer —
    /// one launch latency for the batch; the derived Q-criterion is computed
    /// on device, gather-scatter averaged, and staged with a transfer of
    /// its own. Each field is staged once per call no matter how many
    /// consumers later read the snapshot.
    pub fn publish_snapshot(
        &mut self,
        comm: &mut Comm,
        spec: &SnapshotSpec,
        pool: &SnapshotPool,
    ) -> Arc<FieldSnapshot> {
        let _span = comm.span("snapshot/publish");
        let n = self.n_nodes();
        let mut fields = Vec::with_capacity(5);
        let mut primary_bytes = 0u64;
        let [ux, uy, uz] = [0, 1, 2].map(|c| &self.fields[c].value);

        if spec.velocity {
            let mut buf = pool.take(3 * n);
            for i in 0..n {
                buf.values[3 * i] = ux[i];
                buf.values[3 * i + 1] = uy[i];
                buf.values[3 * i + 2] = uz[i];
            }
            primary_bytes += (3 * n * 8) as u64;
            fields.push(SnapshotField::pooled("velocity", 3, buf));
        }
        if spec.pressure {
            let mut buf = pool.take(n);
            buf.values.copy_from_slice(&self.p);
            primary_bytes += (n * 8) as u64;
            fields.push(SnapshotField::pooled("pressure", 1, buf));
        }
        if spec.temperature {
            if let Some(t) = self.fields.get(TEMPERATURE) {
                let mut buf = pool.take(n);
                buf.values.copy_from_slice(&t.value);
                primary_bytes += (n * 8) as u64;
                fields.push(SnapshotField::pooled("temperature", 1, buf));
            }
        }
        if primary_bytes > 0 {
            comm.d2h(primary_bytes);
        }

        if spec.q_criterion {
            let mut q = pool.take(n);
            self.ops
                .q_criterion(comm, ux, uy, uz, &mut q.values, &mut self.ws);
            self.gs.average(comm, &mut q.values);
            comm.d2h((n * 8) as u64);
            fields.push(SnapshotField::pooled("q_criterion", 1, q));
        }

        Arc::new(FieldSnapshot::new(
            self.step_index,
            self.time,
            n,
            fields,
            pool,
        ))
    }

    /// Global kinetic energy ½∫|u|² (multiplicity-weighted quadrature).
    pub fn kinetic_energy(&self, comm: &mut Comm) -> f64 {
        let w = self.gs.mult_inv();
        let local: f64 = self.fields[..3]
            .iter()
            .map(|f| {
                f.value
                    .iter()
                    .zip(&self.mass_diag)
                    .zip(w)
                    .map(|((&v, &m), &wi)| v * v * m * wi)
                    .sum::<f64>()
            })
            .sum();
        0.5 * comm.allreduce(local, ReduceOp::Sum)
    }

    /// Global maximum |u| over all nodes (CFL diagnostics).
    pub fn max_velocity(&self, comm: &mut Comm) -> f64 {
        let [ux, uy, uz] = [0, 1, 2].map(|c| &self.fields[c].value);
        let local = (0..self.n_nodes())
            .map(|i| (ux[i].powi(2) + uy[i].powi(2) + uz[i].powi(2)).sqrt())
            .fold(0.0, f64::max);
        comm.allreduce(local, ReduceOp::Max)
    }

    /// Advance one timestep.
    pub fn step(&mut self, comm: &mut Comm) -> StepReport {
        let t_step_start = comm.now();
        let n = self.n_nodes();
        // Ramp the BDF/EXT order from the history actually available: the
        // rings fill one step at a time, so a cold start runs BDF1/EXT1.
        let k = self
            .cfg
            .bdf_order
            .min(self.fields[0].hist.len() + 1)
            .clamp(1, 3);
        let (b0, _) = bdf_coeffs(k);
        let dt = self.cfg.dt;
        let h0 = b0 / dt;

        // 1. Advection (+ forcing) of every transported field at time n.
        // (All per-step temporaries below come from the workspace arena and
        // go back into it; `advect` and friends overwrite every element, so
        // recycled contents never leak into results.)
        let sp = comm.span("sem/advection");
        for c in 0..self.fields.len() {
            let [ux, uy, uz, u] = [0, 1, 2, c].map(|i| &self.fields[i].value);
            let mut adv = self.ws.take_uninit();
            self.ops
                .advect(comm, ux, uy, uz, u, &mut adv, &mut self.scratch);
            rotate(&mut self.fields[c].rhs_hist, 3, adv, &mut self.ws);
        }
        for (f, &force) in self.fields.iter_mut().zip(&self.cfg.body_force) {
            if force != 0.0 {
                for v in f.rhs_hist[0].iter_mut() {
                    *v += force;
                }
            }
        }
        if let (Some(tc), ([.., uz], [t])) =
            (&self.cfg.temperature, self.fields.split_at_mut(TEMPERATURE))
        {
            for (v, &ti) in uz.rhs_hist[0].iter_mut().zip(&t.value) {
                *v += tc.buoyancy * ti;
            }
        }
        for f in &mut self.fields {
            self.gs.average(comm, &mut f.rhs_hist[0]);
        }
        drop(sp);

        // 2. Tentative velocity û.
        let mut u_hat = [0, 1, 2].map(|c| self.fields[c].extrapolate(k, dt, &mut self.ws));

        // 3. Pressure Poisson.
        let sp = comm.span("sem/pressure");
        let mut div = self.ws.take_uninit();
        self.ops.div(
            comm,
            &u_hat[0],
            &u_hat[1],
            &u_hat[2],
            &mut div,
            &mut self.scratch,
        );
        let mut b_p = self.ws.take_uninit();
        for i in 0..n {
            b_p[i] = -h0 * self.mass_diag[i] * div[i];
        }
        self.ws.put(div);
        self.gs.sum(comm, &mut b_p);
        for i in 0..n {
            b_p[i] *= self.p_mask[i];
        }
        let p_cfg = CgConfig {
            project_mean: self.p_fix_mean,
            ..self.cfg.pressure_cg
        };
        let fine = mg::Operator {
            gs: &self.gs,
            ops: &self.ops,
            mask: &self.p_mask,
        };
        let (p_mg, ops) = (&mut self.p_mg, &self.ops);
        let mut mg_work = [(); 3].map(|_| self.ws.take_uninit());
        let pressure = cg::solve(
            comm,
            &self.gs,
            |comm, x, out| ops.stiffness_apply(comm, x, out, &mut []),
            |comm, r, z| p_mg.apply(comm, fine, &mut mg_work, r, z),
            &b_p,
            &mut self.p,
            &self.p_mask,
            &p_cfg,
            &mut self.ws,
        );
        self.ws.put3(mg_work);
        self.ws.put(b_p);
        drop(sp);

        // 4. Projection u** = û − (Δt/b₀)∇p.
        let sp = comm.span("sem/project");
        let mut gx = self.ws.take_uninit();
        let mut gy = self.ws.take_uninit();
        let mut gz = self.ws.take_uninit();
        self.ops.grad(comm, &self.p, &mut gx, &mut gy, &mut gz);
        self.gs.average(comm, &mut gx);
        self.gs.average(comm, &mut gy);
        self.gs.average(comm, &mut gz);
        let proj = dt / b0;
        for i in 0..n {
            u_hat[0][i] -= proj * gx[i];
            u_hat[1][i] -= proj * gy[i];
            u_hat[2][i] -= proj * gz[i];
        }
        self.ws.put3([gx, gy, gz]);
        drop(sp);

        // 5. Viscous Helmholtz: u_x, u_y, u_z as one block.
        let sp = comm.span("sem/viscous");
        let velocity = self.advance(comm, 0, h0, u_hat);
        drop(sp);

        // 6. Temperature advection–diffusion: the same update without the
        // pressure projection.
        let temperature = (self.fields.len() > TEMPERATURE).then(|| {
            let _sp = comm.span("sem/temperature");
            let t_hat = self.fields[TEMPERATURE].extrapolate(k, dt, &mut self.ws);
            let [report] = self.advance(comm, TEMPERATURE, h0, [t_hat]);
            report
        });

        // Diagnostics: divergence of the end-of-step velocity.
        let sp = comm.span("sem/diagnostics");
        let mut div_new = self.ws.take_uninit();
        let [ux, uy, uz] = [0, 1, 2].map(|c| &self.fields[c].value);
        self.ops
            .div(comm, ux, uy, uz, &mut div_new, &mut self.scratch);
        let w = self.gs.mult_inv();
        let local: f64 = div_new
            .iter()
            .zip(&self.mass_diag)
            .zip(w)
            .map(|((&d, &m), &wi)| d * d * m * wi)
            .sum();
        let divergence = comm.allreduce(local, ReduceOp::Sum).sqrt();
        self.ws.put(div_new);
        drop(sp);

        // Overlap accounting for every gather-scatter in this step: the
        // fraction of exchange latency hidden behind interior compute.
        self.overlap_ratio
            .get_or_insert_with(|| comm.telemetry().gauge("sem/overlap_ratio"))
            .set(self.gs.take_overlap().ratio());

        let stats = self.solve_stats.get_or_insert_with(|| {
            let t = comm.telemetry();
            if comm.rank() == 0 {
                // World-wide facts, reported once: `nekstat` sums gauges.
                let (dofs, band) = self.p_mg.coarse_dofs_and_band();
                t.gauge("sem/coarse_dofs").set(dofs as f64);
                t.gauge("sem/coarse_band").set(band as f64);
            }
            SolveStats {
                pressure_iters: t.histogram("sem/pressure_iters"),
                pressure_residual: t.histogram("sem/pressure_residual"),
                velocity_iters: t.histogram("sem/velocity_iters"),
                unconverged: t.counter("sem/unconverged_solves"),
            }
        });
        stats.pressure_iters.observe(pressure.iterations as f64);
        stats.pressure_residual.observe(pressure.relative_residual);
        for v in &velocity {
            stats.velocity_iters.observe(v.iterations as f64);
        }
        let solves = [pressure].into_iter().chain(velocity).chain(temperature);
        stats
            .unconverged
            .add(solves.filter(|s| !s.converged).count() as u64);

        self.step_index += 1;
        self.time += dt;
        self.step_hist
            .get_or_insert_with(|| comm.telemetry().histogram("sem/step_time"))
            .observe(comm.now() - t_step_start);
        StepReport {
            step: self.step_index,
            time: self.time,
            pressure,
            velocity,
            temperature,
            divergence,
        }
    }

    /// Advance the K fields from `first` on from their BDF/EXT sums `hats`
    /// (for velocity, after the pressure projection): solve `(h0·M +
    /// κ·A)·x = h0·M·hat` for all of them as one [`cg::solve_helmholtz`]
    /// block with Dirichlet lifting, then rotate each new value into its
    /// BDF ring. Each `hat` becomes its field's right-hand side, then its
    /// residual, and goes back to the workspace.
    fn advance<const K: usize>(
        &mut self,
        comm: &mut Comm,
        first: usize,
        h0: f64,
        mut hats: [Vec<f64>; K],
    ) -> [CgResult; K] {
        let n = self.n_nodes();
        let fields = &mut self.fields[first..first + K];
        let kappa = fields[0].diffusivity;
        assert!(
            fields.iter().all(|f| f.diffusivity == kappa),
            "a block shares one operator"
        );
        let op = cg::Helmholtz {
            gs: &self.gs,
            ops: &self.ops,
            h0,
            diffusivity: kappa,
            mass: &self.mass_diag,
            mass_assembled: &self.mass_diag_assembled,
            stiffness_assembled: &self.stiff_diag_assembled,
        };
        let mut xs: [Vec<f64>; K] = std::array::from_fn(|c| fields[c].value_slot(&mut self.ws));

        // b = h0·M·hat − H·lift, assembled and masked, with H·lift =
        // h0·M·lift + κ·A·lift from one fused apply into x.
        let mut outs = xs.iter_mut();
        let lifts: [HelmholtzTerm<'_>; K] = std::array::from_fn(|c| {
            let out = outs.next().expect("one buffer a field");
            HelmholtzTerm::new(kappa, &fields[c].lift, out)
        });
        self.ops.helmholtz_apply(comm, h0, &self.mass_diag, &lifts);
        for (b, x) in hats.iter_mut().zip(&xs) {
            for i in 0..n {
                b[i] = h0 * self.mass_diag[i] * b[i] - x[i];
            }
        }
        self.gs
            .sum_fields(comm, &mut hats.each_mut().map(|b| &mut b[..]));
        for ((b, x), f) in hats.iter_mut().zip(&mut xs).zip(&*fields) {
            for i in 0..n {
                b[i] *= f.mask[i];
                // Initial guess: interior part of the current value.
                x[i] = f.value[i] * f.mask[i];
            }
        }

        let mut rhs = hats.iter_mut();
        let mut sols = xs.iter_mut();
        let block: [cg::BlockField<'_>; K] = std::array::from_fn(|c| cg::BlockField {
            rhs: rhs.next().expect("one right-hand side a field"),
            x: sols.next().expect("one solution a field"),
            mask: &fields[c].mask,
            cfg: fields[c].cg,
        });
        let results = cg::solve_helmholtz(comm, &op, block, &mut self.ws);

        for ((f, mut x), hat) in fields.iter_mut().zip(xs).zip(hats) {
            for i in 0..n {
                x[i] += f.lift[i];
            }
            let old = std::mem::replace(&mut f.value, x);
            f.hist.insert(0, old);
            self.ws.put(hat);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Bc, MeshSpec};
    use commsim::{run_ranks, MachineModel};
    use std::sync::Arc;

    /// 2-D Taylor–Green vortex in a fully periodic box: analytic decay
    /// KE(t) = KE(0)·e^{−4νt}.
    fn taylor_green(ranks: usize, steps: usize) -> (f64, f64, f64) {
        let res = run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
            use std::f64::consts::PI;
            let l = 2.0 * PI;
            let spec = Arc::new(MeshSpec::box_mesh(
                5,
                [3, 3, 2],
                [l, l, l],
                [true, true, true],
            ));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let u0 = [
                mesh.eval_nodal(|x| x[0].sin() * x[1].cos()),
                mesh.eval_nodal(|x| -x[0].cos() * x[1].sin()),
                mesh.eval_nodal(|_| 0.0),
            ];
            let nu = 0.05;
            let dt = 2e-3;
            let cfg = SolverConfig {
                viscosity: nu,
                dt,
                bdf_order: 2,
                pressure_cg: CgConfig {
                    tol: 1e-9,
                    max_iter: 400,
                    ..Default::default()
                },
                velocity_cg: CgConfig {
                    tol: 1e-10,
                    max_iter: 400,
                    ..Default::default()
                },
                body_force: [0.0; 3],
                temperature: None,
            };
            let bcs = FlowBcs {
                velocity: [BcSet::all_neumann(); 3],
                pressure: BcSet::all_neumann(),
            };
            let mut solver = FlowSolver::new(comm, mesh, cfg, bcs, u0, None);
            let ke0 = solver.kinetic_energy(comm);
            let mut max_div: f64 = 0.0;
            for _ in 0..steps {
                let r = solver.step(comm);
                assert!(r.pressure.converged, "pressure diverged: {r:?}");
                max_div = max_div.max(r.divergence);
            }
            let ke = solver.kinetic_energy(comm);
            let expected = ke0 * (-4.0 * nu * solver.time()).exp();
            (ke, expected, max_div)
        });
        res[0]
    }

    #[test]
    fn taylor_green_energy_decay_matches_theory() {
        let (ke, expected, max_div) = taylor_green(1, 40);
        let rel = (ke - expected).abs() / expected;
        assert!(rel < 0.02, "KE {ke} vs expected {expected} (rel {rel})");
        assert!(max_div < 0.2, "divergence too large: {max_div}");
    }

    #[test]
    fn taylor_green_parallel_matches_serial() {
        let (ke1, _, _) = taylor_green(1, 10);
        let (ke2, _, _) = taylor_green(2, 10);
        assert!(
            (ke1 - ke2).abs() < 1e-8 * ke1.abs().max(1.0),
            "serial {ke1} vs 2 ranks {ke2}"
        );
    }

    #[test]
    fn stokes_decay_in_closed_box_stays_bounded_and_decays() {
        // No-slip box, initial swirl, no forcing: energy must decay
        // monotonically (viscous dissipation) and stay finite.
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(4, [2, 2, 2], [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            use std::f64::consts::PI;
            let u0 = [
                mesh.eval_nodal(|x| (PI * x[0]).sin() * (PI * x[1]).cos() * 0.1),
                mesh.eval_nodal(|x| -(PI * x[0]).cos() * (PI * x[1]).sin() * 0.1),
                mesh.eval_nodal(|_| 0.0),
            ];
            let cfg = SolverConfig {
                viscosity: 0.05,
                dt: 1e-3,
                bdf_order: 2,
                ..Default::default()
            };
            let bcs = FlowBcs {
                velocity: [BcSet::all_dirichlet_zero(); 3],
                pressure: BcSet::all_neumann(),
            };
            let mut solver = FlowSolver::new(comm, mesh, cfg, bcs, u0, None);
            let ke0 = solver.kinetic_energy(comm);
            let mut kes = Vec::new();
            for _ in 0..10 {
                solver.step(comm);
                kes.push(solver.kinetic_energy(comm));
            }
            (ke0, kes)
        });
        let (ke0, kes) = res[0].clone();
        assert!(kes[9] < ke0, "energy must decay: {ke0} -> {}", kes[9]);
        for w in kes.windows(2) {
            assert!(w[1] <= w[0] * 1.001, "non-monotone energy: {kes:?}");
        }
        assert!(kes[9].is_finite() && kes[9] >= 0.0);
    }

    #[test]
    fn temperature_diffuses_to_conduction_profile() {
        // Zero flow, T(bottom)=1, T(top)=0: the steady state is linear in
        // z, so T at mid-height tends to 0.5.
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(
                3,
                [1, 1, 2],
                [1.0; 3],
                [true, true, false],
            ));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let u0 = [
                mesh.eval_nodal(|_| 0.0),
                mesh.eval_nodal(|_| 0.0),
                mesh.eval_nodal(|_| 0.0),
            ];
            let t0 = mesh.eval_nodal(|_| 0.0);
            let t_bc = BcSet {
                faces: [
                    Bc::Neumann,
                    Bc::Neumann,
                    Bc::Neumann,
                    Bc::Neumann,
                    Bc::Dirichlet(1.0),
                    Bc::Dirichlet(0.0),
                ],
                solid_surface: Bc::Neumann,
            };
            let cfg = SolverConfig {
                viscosity: 1.0,
                dt: 0.02,
                bdf_order: 2,
                temperature: Some(TemperatureConfig {
                    diffusivity: 1.0,
                    buoyancy: 0.0,
                    bc: t_bc,
                    cg: CgConfig {
                        tol: 1e-10,
                        max_iter: 300,
                        ..Default::default()
                    },
                }),
                ..Default::default()
            };
            let bcs = FlowBcs {
                velocity: [BcSet::all_dirichlet_zero(); 3],
                pressure: BcSet::all_neumann(),
            };
            let mut solver = FlowSolver::new(comm, mesh, cfg, bcs, u0, Some(t0));
            for _ in 0..60 {
                let r = solver.step(comm);
                assert!(r.temperature.unwrap().converged);
            }
            // Probe T at a node with z = 0.5 (element boundary plane).
            let l = solver.mesh.layout();
            let t = solver.field_device(FieldId::Temperature).unwrap();
            let mut probe = None;
            for le in 0..solver.mesh.elems.len() {
                for k in 0..l.np {
                    let x = solver.mesh.node_coords(le, 0, 0, k);
                    if (x[2] - 0.5).abs() < 1e-12 {
                        probe = Some(t[l.idx(le, 0, 0, k)]);
                    }
                }
            }
            probe
        });
        for p in res {
            let t_mid = p.expect("found a mid-height node");
            assert!((t_mid - 0.5).abs() < 0.02, "T(z=0.5) = {t_mid}");
        }
    }

    #[test]
    fn buoyancy_drives_flow_from_rest() {
        // Unstable stratification + buoyancy: kinetic energy must grow from
        // a tiny perturbation (convection onset).
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(
                4,
                [2, 1, 2],
                [2.0, 1.0, 1.0],
                [true, true, false],
            ));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let u0 = [
                mesh.eval_nodal(|_| 0.0),
                mesh.eval_nodal(|_| 0.0),
                mesh.eval_nodal(|_| 0.0),
            ];
            // Hot below, cold above, with a sinusoidal tilt to break symmetry.
            let t0 = mesh.eval_nodal(|x| (1.0 - x[2]) + 0.01 * (std::f64::consts::PI * x[0]).sin());
            let t_bc = BcSet {
                faces: [
                    Bc::Neumann,
                    Bc::Neumann,
                    Bc::Neumann,
                    Bc::Neumann,
                    Bc::Dirichlet(1.0),
                    Bc::Dirichlet(0.0),
                ],
                solid_surface: Bc::Neumann,
            };
            let cfg = SolverConfig {
                viscosity: 0.01,
                dt: 5e-3,
                bdf_order: 2,
                temperature: Some(TemperatureConfig {
                    diffusivity: 0.01,
                    buoyancy: 10.0,
                    bc: t_bc,
                    cg: CgConfig {
                        tol: 1e-8,
                        max_iter: 300,
                        ..Default::default()
                    },
                }),
                ..Default::default()
            };
            let bcs = FlowBcs {
                velocity: [BcSet::all_dirichlet_zero(); 3],
                pressure: BcSet::all_neumann(),
            };
            let mut solver = FlowSolver::new(comm, mesh, cfg, bcs, u0, Some(t0));
            for _ in 0..30 {
                solver.step(comm);
            }
            (solver.kinetic_energy(comm), solver.max_velocity(comm))
        });
        let (ke, umax) = res[0];
        assert!(ke > 1e-10, "buoyancy failed to drive flow: KE = {ke}");
        assert!(umax.is_finite() && umax < 100.0, "unstable: |u| = {umax}");
    }

    #[test]
    fn body_force_drives_poiseuille_flow() {
        // Plane channel: periodic x/y, no-slip plates at z = 0, 1, constant
        // force f in x. Steady solution u(z) = (f/2ν)·z(1−z), with
        // centerline maximum f/(8ν).
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let f = 0.1;
            let nu = 0.5; // fast viscous relaxation to steady state
            let spec = Arc::new(MeshSpec::box_mesh(
                4,
                [1, 1, 2],
                [1.0, 1.0, 1.0],
                [true, true, false],
            ));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let u0 = [
                mesh.eval_nodal(|_| 0.0),
                mesh.eval_nodal(|_| 0.0),
                mesh.eval_nodal(|_| 0.0),
            ];
            let cfg = SolverConfig {
                viscosity: nu,
                dt: 5e-3,
                bdf_order: 2,
                body_force: [f, 0.0, 0.0],
                velocity_cg: CgConfig {
                    tol: 1e-11,
                    max_iter: 400,
                    ..Default::default()
                },
                ..Default::default()
            };
            let bcs = FlowBcs {
                velocity: [BcSet {
                    faces: [
                        crate::mesh::Bc::Neumann,
                        crate::mesh::Bc::Neumann,
                        crate::mesh::Bc::Neumann,
                        crate::mesh::Bc::Neumann,
                        crate::mesh::Bc::Dirichlet(0.0),
                        crate::mesh::Bc::Dirichlet(0.0),
                    ],
                    solid_surface: crate::mesh::Bc::Neumann,
                }; 3],
                pressure: BcSet::all_neumann(),
            };
            let mut solver = FlowSolver::new(comm, mesh, cfg, bcs, u0, None);
            // Viscous timescale H²/ν = 2; run to t = 4.
            for _ in 0..800 {
                solver.step(comm);
            }
            // Probe the centerline (z = 0.5 exists at the element interface).
            let l = solver.mesh.layout();
            let ux = solver.field_device(FieldId::VelX).unwrap();
            let mut centerline = None;
            for le in 0..solver.mesh.elems.len() {
                for k in 0..l.np {
                    let x = solver.mesh.node_coords(le, 0, 0, k);
                    if (x[2] - 0.5).abs() < 1e-12 {
                        centerline = Some(ux[l.idx(le, 0, 0, k)]);
                    }
                }
            }
            (centerline, f / (8.0 * nu))
        });
        for (probe, exact) in res {
            if let Some(u_mid) = probe {
                assert!(
                    (u_mid - exact).abs() < 0.05 * exact,
                    "centerline {u_mid} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn q_criterion_positive_in_tgv_core() {
        let q_max = run_ranks(1, MachineModel::test_tiny(), |comm| {
            use std::f64::consts::PI;
            let l = 2.0 * PI;
            let spec = Arc::new(MeshSpec::box_mesh(5, [2, 2, 1], [l, l, l], [true; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let u0 = [
                mesh.eval_nodal(|x| x[0].sin() * x[1].cos()),
                mesh.eval_nodal(|x| -x[0].cos() * x[1].sin()),
                mesh.eval_nodal(|_| 0.0),
            ];
            let mut solver = FlowSolver::new(
                comm,
                mesh,
                SolverConfig::default(),
                FlowBcs {
                    velocity: [BcSet::all_neumann(); 3],
                    pressure: BcSet::all_neumann(),
                },
                u0,
                None,
            );
            let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
            let spec = SnapshotSpec {
                q_criterion: true,
                ..Default::default()
            };
            let snap = solver.publish_snapshot(comm, &spec, &pool);
            let q = snap.field("q_criterion").expect("requested").values();
            q.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        });
        assert!(q_max[0] > 0.5, "TGV cores must have Q>0: {}", q_max[0]);
    }

    #[test]
    fn pooled_staging_pays_one_latency() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(2, [2, 2, 2], [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let n = mesh.layout().n_nodes();
            let zero = vec![0.0; n];
            let cfg = SolverConfig {
                temperature: Some(TemperatureConfig {
                    diffusivity: 1.0,
                    buoyancy: 0.0,
                    bc: BcSet::all_neumann(),
                    cg: CgConfig::default(),
                }),
                ..Default::default()
            };
            let mut solver = FlowSolver::new(
                comm,
                mesh,
                cfg,
                FlowBcs {
                    velocity: [BcSet::all_dirichlet_zero(); 3],
                    pressure: BcSet::all_neumann(),
                },
                [zero.clone(), zero.clone(), zero.clone()],
                Some(zero),
            );
            let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
            let spec = SnapshotSpec {
                velocity: true,
                pressure: true,
                temperature: true,
                ..Default::default()
            };
            let (t0, b0) = (comm.now(), comm.stats().bytes_d2h);
            let snap = solver.publish_snapshot(comm, &spec, &pool);
            let total_bytes = (5 * n * 8) as u64;
            assert_eq!(snap.staged_bytes(), total_bytes);
            (
                comm.now(),
                t0 + comm.machine().d2h_time(total_bytes),
                comm.stats().bytes_d2h - b0,
                total_bytes,
            )
        });
        let (now, after_one_transfer, staged, total_bytes) = res[0];
        // Three primary fields, five components, one launch latency.
        assert_eq!(now.to_bits(), after_one_transfer.to_bits());
        assert_eq!(staged, total_bytes);
    }

    #[test]
    fn publish_charges_d2h_for_what_it_stages_and_skips_absent_temperature() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(2, [1, 1, 1], [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let n = mesh.layout().n_nodes();
            let zero = vec![0.0; n];
            let mut solver = FlowSolver::new(
                comm,
                mesh,
                SolverConfig::default(),
                FlowBcs {
                    velocity: [BcSet::all_dirichlet_zero(); 3],
                    pressure: BcSet::all_neumann(),
                },
                [zero.clone(), zero.clone(), zero],
                None,
            );
            let pool = SnapshotPool::new(comm.accountant("snapshot-pool"));
            let spec = SnapshotSpec {
                pressure: true,
                temperature: true,
                ..Default::default()
            };
            let before = comm.stats().bytes_d2h;
            let snap = solver.publish_snapshot(comm, &spec, &pool);
            assert!(snap.field("temperature").is_none());
            let staged = snap.field("pressure").expect("requested").values().len();
            (staged, comm.stats().bytes_d2h - before)
        });
        let (len, bytes) = res[0];
        assert_eq!(bytes, (len * 8) as u64);
    }

    #[test]
    fn solver_charges_gpu_memory() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(3, [2, 2, 2], [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let n = mesh.layout().n_nodes();
            let zero = vec![0.0; n];
            let _solver = FlowSolver::new(
                comm,
                mesh,
                SolverConfig::default(),
                FlowBcs {
                    velocity: [BcSet::all_dirichlet_zero(); 3],
                    pressure: BcSet::all_neumann(),
                },
                [zero.clone(), zero.clone(), zero],
                None,
            );
            comm.accountant("gpu").current()
        });
        assert!(res[0] > 0, "solver must charge device memory");
    }
    /// Every path through `Transported` — order ramp-up, full BDF and EXT
    /// rings, Dirichlet lift, buoyancy — pinned bit for bit, identical at
    /// any pool width and under both schedulers. The
    /// values were captured at commit 31d52a4 from the four-parallel-
    /// histories solver `Transported` replaced, and re-captured three times
    /// since:
    /// when the pressure preconditioner became the p-multigrid V-cycle
    /// (142 → 85 iterations; largest field difference 8.5e-7 of the field's
    /// maximum, under the 1e-6 pressure tolerance), when that cycle's
    /// order-1 level became an exact solve (85 → 83; 3.0e-7 on the
    /// pressure, 2.5e-6 on the still-tiny u_y), and when its smoother
    /// became element Schwarz by fast diagonalisation (83 → 74; 6.0e-7 on
    /// the pressure, 1.9e-6 on the velocity). Solving u_x, u_y, u_z as one
    /// block moved the virtual clock alone: fewer collectives and
    /// exchanges, the same field bits and iterations. The pin ran with a
    /// modal filter (strength 0.05 on the top mode) until the filter was
    /// deleted; the values below were captured at fa77496 with the filter
    /// off (74 → 75 iterations), and the solver without a filter
    /// reproduces them bit for bit.
    #[test]
    fn boussinesq_steps_match_bits_captured_before_the_transported_merge() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let mut params = crate::cases::CaseParams::rbc_default();
            params.elems = [2, 2, 2];
            params.order = 3;
            let mut setup = crate::cases::rbc(&params, 1e5, 0.7);
            setup.config.bdf_order = 3;
            let mut solver = setup.build(comm);
            let mut iters = 0;
            for _ in 0..5 {
                let r = solver.step(comm);
                iters += r.pressure.iterations
                    + r.velocity.iter().map(|v| v.iterations).sum::<usize>()
                    + r.temperature.expect("temperature enabled").iterations;
            }
            let hash = |id: FieldId| {
                solver
                    .field_device(id)
                    .expect("field enabled")
                    .iter()
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
                    })
            };
            (
                iters,
                [
                    hash(FieldId::VelX),
                    hash(FieldId::VelY),
                    hash(FieldId::VelZ),
                    hash(FieldId::Pressure),
                    hash(FieldId::Temperature),
                ],
                comm.now().to_bits(),
            )
        });
        let expected = [
            [
                0x7eab3df93bac2178,
                0xfd999deb53ff0270,
                0x272135dd9dcf36c7,
                0x024af24370cfe502,
                0xf1d613dc30cc9a5d,
            ],
            [
                0x28408d243d9c1991,
                0x99ef7b7f8370d3c1,
                0x62aea9d389e1278e,
                0x06033de07e58cc17,
                0xaa5245eeb662c835,
            ],
        ];
        for (rank, (iters, hashes, clock)) in res.into_iter().enumerate() {
            assert_eq!(iters, 75, "rank {rank}: CG iterations over 5 steps");
            assert_eq!(hashes, expected[rank], "rank {rank}: u_x, u_y, u_z, p, T");
            assert_eq!(clock, 0x3f8707b70c23d818, "rank {rank}: virtual clock");
        }
    }
}
