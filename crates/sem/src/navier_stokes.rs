//! Incompressible Navier–Stokes / Boussinesq solver with the Pₙ–Pₙ
//! splitting scheme (NekRS's default formulation).
//!
//! Each step, following Fischer et al.:
//! 1. evaluate the advection term `N(u) = −(u·∇)u` (+ buoyancy forcing)
//!    explicitly and extrapolate with EXTk;
//! 2. combine with the BDFk history into a tentative velocity `û`;
//! 3. solve the pressure Poisson equation `A p = −(b₀/Δt)·M ∇·û` (CG,
//!    Jacobi preconditioner, mean projection on pure-Neumann domains);
//! 4. project: `u** = û − (Δt/b₀)·∇p`;
//! 5. solve the implicit viscous Helmholtz system
//!    `((b₀/Δt)·M + ν·A)·u = (b₀/Δt)·M u**` per component, with Dirichlet
//!    lifting for inflow/no-slip values;
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
use crate::operators::{transpose_op, Ops};
use crate::snapshot::{self, FieldSnapshot, SnapshotPool, SnapshotSpec};
use crate::timestep::{bdf_coeffs, ext_coeffs};
use crate::workspace::{BlockArena, Workspace};
use commsim::{Comm, ReduceOp};
use memtrack::Charge;
use std::sync::Arc;

/// Solver phases instrumented with per-phase block-imbalance counters
/// (`sem/block_dispatch/<phase>`, `sem/block_slack/<phase>`).
const BLOCK_PHASES: [&str; 7] = [
    "advection",
    "pressure",
    "project",
    "viscous",
    "temperature",
    "filter",
    "diagnostics",
];

#[derive(Clone, Copy)]
enum BlockPhase {
    Advection = 0,
    Pressure = 1,
    Project = 2,
    Viscous = 3,
    Temperature = 4,
    Filter = 5,
    Diagnostics = 6,
}

/// Lazily-bound telemetry handles for the element-block scheduler: one
/// overlap-ratio gauge plus per-phase dispatch/slack counters.
struct BlockInstruments {
    overlap_ratio: commsim::Gauge,
    dispatches: [commsim::Counter; BLOCK_PHASES.len()],
    slack: [commsim::Counter; BLOCK_PHASES.len()],
}

impl BlockInstruments {
    fn new(t: &commsim::RankTelemetry) -> Self {
        Self {
            overlap_ratio: t.gauge("sem/overlap_ratio"),
            dispatches: BLOCK_PHASES.map(|p| t.counter(&format!("sem/block_dispatch/{p}"))),
            slack: BLOCK_PHASES.map(|p| t.counter(&format!("sem/block_slack/{p}"))),
        }
    }
}

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

/// Modal-filter stabilization (Fischer–Mullen), NekRS's `filtering` knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterConfig {
    /// Attenuation of the highest retained mode, in [0, 1].
    pub strength: f64,
    /// How many top modes the roll-off spans.
    pub modes: usize,
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
    /// Optional modal-filter stabilization applied to velocity (and
    /// temperature) after each step.
    pub filter: Option<FilterConfig>,
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
            filter: None,
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

/// The flow solver state for one rank.
pub struct FlowSolver {
    /// Rank-local mesh.
    pub mesh: LocalMesh,
    /// Assembly topology.
    pub gs: GatherScatter,
    /// Operator context.
    pub ops: Ops,
    cfg: SolverConfig,
    u: [Vec<f64>; 3],
    p: Vec<f64>,
    t: Option<Vec<f64>>,
    u_hist: Vec<[Vec<f64>; 3]>,
    adv_hist: Vec<[Vec<f64>; 3]>,
    t_hist: Vec<Vec<f64>>,
    t_adv_hist: Vec<Vec<f64>>,
    vel_mask: [Vec<f64>; 3],
    vel_vals: [Vec<f64>; 3],
    p_mask: Vec<f64>,
    p_fix_mean: bool,
    t_mask: Vec<f64>,
    t_vals: Vec<f64>,
    mass_diag: Vec<f64>,
    mass_diag_assembled: Vec<f64>,
    stiff_diag_assembled: Vec<f64>,
    p_diag_inv: Vec<f64>,
    filter_matrix: Option<Vec<f64>>,
    /// Transpose of `filter_matrix`, feeding the axis-0 SIMD kernel of
    /// `apply_tensor_op`.
    filter_matrix_t: Option<Vec<f64>>,
    scratch: Vec<f64>,
    /// Scratch-buffer arena for all per-step temporaries; after the warm-up
    /// steps the hot loop recycles these instead of allocating.
    ws: Workspace,
    /// Per-worker pencil arena for the fused blocked Helmholtz/stiffness
    /// applies (growth-only, sized on first use).
    block_arena: BlockArena,
    step_index: usize,
    time: f64,
    /// Lazily-bound telemetry instrument for per-step virtual time
    /// (`rank<r>/sem/step_time`); a no-op handle when telemetry is off.
    step_hist: Option<commsim::Histogram>,
    /// Lazily-bound block-scheduler instruments (overlap ratio gauge +
    /// per-phase imbalance counters).
    block_instr: Option<BlockInstruments>,
    _gpu_charge: Charge,
}

impl FlowSolver {
    /// Build a solver over `mesh` with initial velocity `u0` (element-major
    /// per component) and optional initial temperature `t0`.
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

        let mut vel_mask: [Vec<f64>; 3] = Default::default();
        let mut vel_vals: [Vec<f64>; 3] = Default::default();
        for c in 0..3 {
            let (m, v) = mesh.dirichlet_mask(&bcs.velocity[c]);
            vel_mask[c] = m;
            vel_vals[c] = v;
        }
        let (p_mask, _) = mesh.dirichlet_mask(&bcs.pressure);
        // Pure Neumann pressure (no Dirichlet node anywhere globally)?
        let local_free = p_mask.iter().cloned().fold(1.0f64, f64::min);
        let global_free = comm.allreduce(local_free, ReduceOp::Min);
        let p_fix_mean = global_free > 0.5;

        let (t_mask, t_vals) = match &cfg.temperature {
            Some(tc) => mesh.dirichlet_mask(&tc.bc),
            None => (vec![1.0; n], vec![0.0; n]),
        };

        let mass_diag = ops.mass_diag();
        let mut mass_diag_assembled = mass_diag.clone();
        gs.sum(comm, &mut mass_diag_assembled);
        let mut stiff_diag_assembled = ops.stiffness_diag();
        gs.sum(comm, &mut stiff_diag_assembled);
        let p_diag_inv: Vec<f64> = stiff_diag_assembled
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let filter_matrix = cfg
            .filter
            .map(|f| ops.basis.filter_matrix(f.strength, f.modes));
        let filter_matrix_t = filter_matrix
            .as_ref()
            .map(|m| transpose_op(m, ops.basis.np()));

        // Make initial state continuous and boundary-consistent.
        let mut u = u0;
        for c in 0..3 {
            gs.average(comm, &mut u[c]);
            for i in 0..n {
                u[c][i] = u[c][i] * vel_mask[c][i] + vel_vals[c][i];
            }
        }
        let t = t0.map(|mut t| {
            gs.average(comm, &mut t);
            for i in 0..n {
                t[i] = t[i] * t_mask[i] + t_vals[i];
            }
            t
        });

        // Everything above lives in device memory in NekRS; charge it.
        let n_fields = 3 + 1 + if t.is_some() { 1 } else { 0 };
        let histories = 3 * 2 + 3 * 3 + 2 + 3; // u_hist + adv_hist + t hists
        let bytes = ((n_fields + histories + 8) * n * 8) as u64;
        let gpu_charge = comm.accountant("gpu").charge(bytes);

        // Setup-time operator and gather-scatter traffic should not leak
        // into the first step's scheduling/overlap telemetry.
        ops.take_dispatch_stats();
        gs.take_overlap();

        Self {
            mesh,
            gs,
            ops,
            cfg,
            u,
            p: vec![0.0; n],
            t,
            // Capacity for the steady-state ring length plus the one-slot
            // overshoot during insert, so history pushes never reallocate.
            u_hist: Vec::with_capacity(3),
            adv_hist: Vec::with_capacity(4),
            t_hist: Vec::with_capacity(3),
            t_adv_hist: Vec::with_capacity(4),
            vel_mask,
            vel_vals,
            p_mask,
            p_fix_mean,
            t_mask,
            t_vals,
            mass_diag,
            mass_diag_assembled,
            stiff_diag_assembled,
            p_diag_inv,
            filter_matrix,
            filter_matrix_t,
            scratch: vec![0.0; n],
            ws: Workspace::new(n),
            block_arena: BlockArena::new(),
            step_index: 0,
            time: 0.0,
            step_hist: None,
            block_instr: None,
            _gpu_charge: gpu_charge,
        }
    }

    /// Drain the operator context's dispatch counters into `phase`'s
    /// block-imbalance telemetry (binding the instruments on first use,
    /// inside the warm-up steps, so steady state stays allocation-free).
    fn note_block_phase(&mut self, comm: &mut Comm, phase: BlockPhase) {
        let (dispatches, slack) = self.ops.take_dispatch_stats();
        let instr = self
            .block_instr
            .get_or_insert_with(|| BlockInstruments::new(comm.telemetry()));
        instr.dispatches[phase as usize].add(dispatches);
        instr.slack[phase as usize].add(slack);
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
        match id {
            FieldId::VelX => Some(&self.u[0]),
            FieldId::VelY => Some(&self.u[1]),
            FieldId::VelZ => Some(&self.u[2]),
            FieldId::Pressure => Some(&self.p),
            FieldId::Temperature => self.t.as_deref(),
        }
    }

    /// Stage every field requested by `spec` into an owned, pooled
    /// [`FieldSnapshot`] — the single D2H publish point of the data plane.
    ///
    /// This is the `occa::memory::copyTo` the paper's instrumentation must
    /// perform because VTK cannot read device memory. Primary fields
    /// (velocity, pressure, temperature) share one pooled D2H transfer —
    /// one launch latency for the batch; derived fields (vorticity,
    /// Q-criterion) are computed on device, gather-scatter averaged, and
    /// staged with one transfer each. Each field is staged once per call
    /// no matter how many consumers later read the snapshot.
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

        if spec.velocity {
            let mut buf = pool.take(3 * n);
            for i in 0..n {
                buf[3 * i] = self.u[0][i];
                buf[3 * i + 1] = self.u[1][i];
                buf[3 * i + 2] = self.u[2][i];
            }
            primary_bytes += (3 * n * 8) as u64;
            fields.push(snapshot::field_from_pooled("velocity", 3, buf));
        }
        if spec.pressure {
            let mut buf = pool.take(n);
            buf.copy_from_slice(&self.p);
            primary_bytes += (n * 8) as u64;
            fields.push(snapshot::field_from_pooled("pressure", 1, buf));
        }
        if spec.temperature {
            if let Some(t) = &self.t {
                let mut buf = pool.take(n);
                buf.copy_from_slice(t);
                primary_bytes += (n * 8) as u64;
                fields.push(snapshot::field_from_pooled("temperature", 1, buf));
            }
        }
        if primary_bytes > 0 {
            comm.d2h(primary_bytes);
        }

        if spec.vorticity {
            let mut wx = pool.take(n);
            let mut wy = pool.take(n);
            let mut wz = pool.take(n);
            self.ops.curl(
                comm,
                &self.u[0],
                &self.u[1],
                &self.u[2],
                &mut wx,
                &mut wy,
                &mut wz,
                &mut self.scratch,
            );
            self.gs.average(comm, &mut wx);
            self.gs.average(comm, &mut wy);
            self.gs.average(comm, &mut wz);
            comm.d2h((3 * n * 8) as u64);
            let mut buf = pool.take(3 * n);
            for i in 0..n {
                buf[3 * i] = wx[i];
                buf[3 * i + 1] = wy[i];
                buf[3 * i + 2] = wz[i];
            }
            pool.put(wx);
            pool.put(wy);
            pool.put(wz);
            fields.push(snapshot::field_from_pooled("vorticity", 3, buf));
        }
        if spec.q_criterion {
            let mut q = pool.take(n);
            self.ops.q_criterion(
                comm,
                &self.u[0],
                &self.u[1],
                &self.u[2],
                &mut q,
                &mut self.ws,
            );
            self.gs.average(comm, &mut q);
            comm.d2h((n * 8) as u64);
            fields.push(snapshot::field_from_pooled("q_criterion", 1, q));
        }

        Arc::new(FieldSnapshot::new(
            self.step_index,
            self.time,
            n,
            fields,
            pool,
        ))
    }

    /// Restore primary fields from a checkpoint (velocity, pressure, and
    /// temperature if enabled). Histories are cleared, so time integration
    /// ramps back up from BDF1/EXT1 — with `bdf_order = 1` a restart
    /// reproduces the original trajectory exactly.
    ///
    /// # Panics
    /// Panics on field-length mismatches.
    pub fn restore(
        &mut self,
        comm: &mut Comm,
        step_index: usize,
        time: f64,
        u: [Vec<f64>; 3],
        p: Vec<f64>,
        t: Option<Vec<f64>>,
    ) {
        let n = self.n_nodes();
        assert!(u.iter().all(|c| c.len() == n), "restored u size mismatch");
        assert_eq!(p.len(), n, "restored p size mismatch");
        // The restored data arrives in host memory; moving it back onto the
        // device costs H2D transfers.
        let n_fields = 4 + t.is_some() as u64;
        comm.h2d(n_fields * n as u64 * 8);
        self.u = u;
        self.p = p;
        if let (Some(dst), Some(src)) = (self.t.as_mut(), t) {
            assert_eq!(src.len(), n, "restored T size mismatch");
            *dst = src;
        }
        self.u_hist.clear();
        self.adv_hist.clear();
        self.t_hist.clear();
        self.t_adv_hist.clear();
        self.step_index = step_index;
        self.time = time;
    }

    /// Global kinetic energy ½∫|u|² (multiplicity-weighted quadrature).
    pub fn kinetic_energy(&self, comm: &mut Comm) -> f64 {
        let w = self.gs.mult_inv();
        let local: f64 = (0..3)
            .map(|c| {
                self.u[c]
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
        let local = (0..self.n_nodes())
            .map(|i| (self.u[0][i].powi(2) + self.u[1][i].powi(2) + self.u[2][i].powi(2)).sqrt())
            .fold(0.0, f64::max);
        comm.allreduce(local, ReduceOp::Max)
    }

    /// Advance one timestep.
    pub fn step(&mut self, comm: &mut Comm) -> StepReport {
        let t_step_start = comm.now();
        let n = self.n_nodes();
        // Ramp the BDF/EXT order from the history actually available, not
        // from `step_index`: after `restore` the step counter is mid-run but
        // the rings are empty, and the scheme must ramp back up from
        // BDF1/EXT1 exactly as on a cold start.
        let k = self.cfg.bdf_order.min(self.u_hist.len() + 1).clamp(1, 3);
        let (b0, bprev) = bdf_coeffs(k);
        let a = ext_coeffs(k);
        let dt = self.cfg.dt;
        let h0 = b0 / dt;

        // 1. Advection (+ buoyancy) at time n. (All per-step temporaries
        // below come from the workspace arena and go back into it; `advect`
        // and friends overwrite every element, so recycled contents never
        // leak into results.)
        let sp = comm.span("sem/advection");
        let mut adv: [Vec<f64>; 3] = [
            self.ws.take_uninit(),
            self.ws.take_uninit(),
            self.ws.take_uninit(),
        ];
        for c in 0..3 {
            let (ux, uy, uz) = (&self.u[0], &self.u[1], &self.u[2]);
            self.ops
                .advect(comm, ux, uy, uz, &self.u[c], &mut adv[c], &mut self.scratch);
        }
        for c in 0..3 {
            let f = self.cfg.body_force[c];
            if f != 0.0 {
                for v in adv[c].iter_mut() {
                    *v += f;
                }
            }
        }
        let mut t_adv: Option<Vec<f64>> = None;
        if let (Some(tc), Some(t)) = (&self.cfg.temperature, &self.t) {
            let mut ta = self.ws.take_uninit();
            self.ops.advect(
                comm,
                &self.u[0],
                &self.u[1],
                &self.u[2],
                t,
                &mut ta,
                &mut self.scratch,
            );
            for i in 0..n {
                adv[2][i] += tc.buoyancy * t[i];
            }
            t_adv = Some(ta);
        }
        for c in 0..3 {
            self.gs.average(comm, &mut adv[c]);
        }
        // Recycle the expiring ring slot before inserting so the push never
        // grows the Vec and the buffers return to the arena.
        if self.adv_hist.len() == 3 {
            let old = self.adv_hist.pop().expect("ring non-empty");
            self.ws.put3(old);
        }
        self.adv_hist.insert(0, adv);
        if let Some(mut ta) = t_adv {
            self.gs.average(comm, &mut ta);
            if self.t_adv_hist.len() == 3 {
                let old = self.t_adv_hist.pop().expect("ring non-empty");
                self.ws.put(old);
            }
            self.t_adv_hist.insert(0, ta);
        }
        drop(sp);
        self.note_block_phase(comm, BlockPhase::Advection);

        // 2. Tentative velocity û. (Pure local arithmetic: charges no
        // virtual time, so it carries no span.)
        let mut u_hat: [Vec<f64>; 3] = [self.ws.take(), self.ws.take(), self.ws.take()];
        for c in 0..3 {
            for (j, &bj) in bprev.iter().enumerate() {
                let uj: &[f64] = if j == 0 {
                    &self.u[c]
                } else {
                    &self.u_hist[j - 1][c]
                };
                let coeff = -bj / b0;
                for i in 0..n {
                    u_hat[c][i] += coeff * uj[i];
                }
            }
            for (j, &aj) in a.iter().enumerate() {
                let nj = &self.adv_hist[j.min(self.adv_hist.len() - 1)][c];
                let coeff = dt / b0 * aj;
                for i in 0..n {
                    u_hat[c][i] += coeff * nj[i];
                }
            }
        }

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
        let ops = &self.ops;
        let arena = &mut self.block_arena;
        let pressure = cg::solve(
            comm,
            &self.gs,
            |comm, x, out| ops.stiffness_apply_blocked(comm, x, out, arena),
            &b_p,
            &mut self.p,
            &self.p_diag_inv,
            &self.p_mask,
            &p_cfg,
            &mut self.ws,
        );
        self.ws.put(b_p);
        drop(sp);
        self.note_block_phase(comm, BlockPhase::Pressure);

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
        self.note_block_phase(comm, BlockPhase::Project);

        // Save current velocity into history before overwriting.
        let mut u_old: [Vec<f64>; 3] = [
            self.ws.take_uninit(),
            self.ws.take_uninit(),
            self.ws.take_uninit(),
        ];
        for c in 0..3 {
            u_old[c].copy_from_slice(&self.u[c]);
        }

        // 5. Viscous Helmholtz per component.
        let sp = comm.span("sem/viscous");
        let nu = self.cfg.viscosity;
        let mut h_diag_inv = self.ws.take_uninit();
        for i in 0..n {
            let d = h0 * self.mass_diag_assembled[i] + nu * self.stiff_diag_assembled[i];
            h_diag_inv[i] = 1.0 / d;
        }
        let mut velocity = [CgResult {
            iterations: 0,
            residual: 0.0,
            converged: true,
        }; 3];
        for c in 0..3 {
            let report = self.helmholtz_solve(comm, h0, nu, &u_hat[c], c, &h_diag_inv);
            velocity[c] = report;
        }
        self.ws.put(h_diag_inv);
        self.ws.put3(u_hat);
        if self.u_hist.len() == 2 {
            let old = self.u_hist.pop().expect("ring non-empty");
            self.ws.put3(old);
        }
        self.u_hist.insert(0, u_old);
        drop(sp);
        self.note_block_phase(comm, BlockPhase::Viscous);

        // 6. Temperature advection–diffusion.
        let temperature = if self.cfg.temperature.is_some() {
            let report = {
                let _sp = comm.span("sem/temperature");
                self.temperature_step(comm, k, b0, dt)
            };
            self.note_block_phase(comm, BlockPhase::Temperature);
            Some(report)
        } else {
            None
        };

        // Stabilization: modal filter on the advected fields, then restore
        // boundary values and continuity.
        let sp = comm.span("sem/filter");
        if let Some(fm) = self.filter_matrix.as_ref() {
            let fmt = self
                .filter_matrix_t
                .as_ref()
                .expect("transpose built alongside filter matrix");
            for c in 0..3 {
                self.ops
                    .apply_tensor_op(comm, fm, fmt, &mut self.u[c], &mut self.scratch);
                self.gs.average(comm, &mut self.u[c]);
                for i in 0..n {
                    self.u[c][i] = self.u[c][i] * self.vel_mask[c][i] + self.vel_vals[c][i];
                }
            }
            if let Some(t) = self.t.as_mut() {
                self.ops.apply_tensor_op(comm, fm, fmt, t, &mut self.scratch);
                self.gs.average(comm, t);
                for i in 0..n {
                    t[i] = t[i] * self.t_mask[i] + self.t_vals[i];
                }
            }
        }
        drop(sp);
        self.note_block_phase(comm, BlockPhase::Filter);

        // Diagnostics: divergence of the end-of-step velocity.
        let sp = comm.span("sem/diagnostics");
        let mut div_new = self.ws.take_uninit();
        self.ops.div(
            comm,
            &self.u[0],
            &self.u[1],
            &self.u[2],
            &mut div_new,
            &mut self.scratch,
        );
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
        self.note_block_phase(comm, BlockPhase::Diagnostics);

        // Overlap accounting for every gather-scatter in this step: the
        // fraction of exchange latency hidden behind interior compute.
        let overlap = self.gs.take_overlap();
        if let Some(instr) = &self.block_instr {
            instr.overlap_ratio.set(overlap.ratio());
        }

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

    /// Solve `(h0·M + ν·A)·u_c = h0·M·u**` with Dirichlet lifting; writes
    /// the new component into `self.u[c]`.
    fn helmholtz_solve(
        &mut self,
        comm: &mut Comm,
        h0: f64,
        nu: f64,
        rhs_field: &[f64],
        c: usize,
        h_diag_inv: &[f64],
    ) -> CgResult {
        let n = self.n_nodes();

        // b = h0·M·u** − H·x_bc, assembled and masked. (b, ax, x are
        // workspace buffers, fully overwritten before use.)
        let mut b = self.ws.take_uninit();
        for i in 0..n {
            b[i] = h0 * self.mass_diag[i] * rhs_field[i];
        }
        // H·x_bc = h0·M·x_bc + ν·A·x_bc — one fused blocked apply.
        let mut ax = self.ws.take_uninit();
        self.ops.helmholtz_apply_blocked(
            comm,
            nu,
            h0,
            &self.mass_diag,
            &self.vel_vals[c],
            &mut ax,
            &mut self.block_arena,
        );
        for i in 0..n {
            b[i] -= ax[i];
        }
        self.gs.sum(comm, &mut b);
        for i in 0..n {
            b[i] *= self.vel_mask[c][i];
        }

        // Initial guess: interior part of the current solution.
        let mut x = self.ws.take_uninit();
        for i in 0..n {
            x[i] = self.u[c][i] * self.vel_mask[c][i];
        }
        let ops = &self.ops;
        let mass_diag = &self.mass_diag;
        let arena = &mut self.block_arena;
        let result = cg::solve(
            comm,
            &self.gs,
            |comm, v, out| ops.helmholtz_apply_blocked(comm, nu, h0, mass_diag, v, out, arena),
            &b,
            &mut x,
            h_diag_inv,
            &self.vel_mask[c],
            &self.cfg.velocity_cg,
            &mut self.ws,
        );
        for i in 0..n {
            self.u[c][i] = x[i] + self.vel_vals[c][i];
        }
        self.ws.put(b);
        self.ws.put(ax);
        self.ws.put(x);
        result
    }

    /// Advance the temperature equation one step (mirrors the velocity
    /// update without pressure).
    fn temperature_step(&mut self, comm: &mut Comm, k: usize, b0: f64, dt: f64) -> CgResult {
        let n = self.n_nodes();
        let (_, bprev) = bdf_coeffs(k);
        let a = ext_coeffs(k);
        let h0 = b0 / dt;
        let kappa = self
            .cfg
            .temperature
            .as_ref()
            .expect("temperature config")
            .diffusivity;

        let mut t_hat = self.ws.take();
        {
            let t_now = self.t.as_deref().expect("temperature field");
            for (j, &bj) in bprev.iter().enumerate() {
                let tj: &[f64] = if j == 0 { t_now } else { &self.t_hist[j - 1] };
                let coeff = -bj / b0;
                for i in 0..n {
                    t_hat[i] += coeff * tj[i];
                }
            }
        }
        for (j, &aj) in a.iter().enumerate() {
            let nj = &self.t_adv_hist[j.min(self.t_adv_hist.len() - 1)];
            let coeff = dt / b0 * aj;
            for i in 0..n {
                t_hat[i] += coeff * nj[i];
            }
        }

        let mut h_diag_inv = self.ws.take_uninit();
        for i in 0..n {
            h_diag_inv[i] =
                1.0 / (h0 * self.mass_diag_assembled[i] + kappa * self.stiff_diag_assembled[i]);
        }

        let mut b = self.ws.take_uninit();
        for i in 0..n {
            b[i] = h0 * self.mass_diag[i] * t_hat[i];
        }
        let mut ax = self.ws.take_uninit();
        self.ops.helmholtz_apply_blocked(
            comm,
            kappa,
            h0,
            &self.mass_diag,
            &self.t_vals,
            &mut ax,
            &mut self.block_arena,
        );
        for i in 0..n {
            b[i] -= ax[i];
        }
        self.gs.sum(comm, &mut b);
        for i in 0..n {
            b[i] *= self.t_mask[i];
        }

        let mut x = self.ws.take_uninit();
        {
            let t_now = self.t.as_deref().expect("temperature field");
            for i in 0..n {
                x[i] = t_now[i] * self.t_mask[i];
            }
        }
        let ops = &self.ops;
        let mass_diag = &self.mass_diag;
        let arena = &mut self.block_arena;
        let t_mask = &self.t_mask;
        let t_cg = self
            .cfg
            .temperature
            .as_ref()
            .expect("temperature config")
            .cg;
        let result = cg::solve(
            comm,
            &self.gs,
            |comm, v, out| ops.helmholtz_apply_blocked(comm, kappa, h0, mass_diag, v, out, arena),
            &b,
            &mut x,
            &h_diag_inv,
            t_mask,
            &t_cg,
            &mut self.ws,
        );
        let mut t_new = self.ws.take_uninit();
        for i in 0..n {
            t_new[i] = x[i] + self.t_vals[i];
        }
        if self.t_hist.len() == 2 {
            let old = self.t_hist.pop().expect("ring non-empty");
            self.ws.put(old);
        }
        let t = self.t.as_mut().expect("temperature field");
        self.t_hist.insert(0, std::mem::replace(t, t_new));
        self.ws.put(t_hat);
        self.ws.put(h_diag_inv);
        self.ws.put(b);
        self.ws.put(ax);
        self.ws.put(x);
        result
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
                filter: None,
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
    fn modal_filter_barely_perturbs_resolved_flow_and_keeps_it_stable() {
        // A well-resolved TGV with and without the filter: the filter acts
        // on unresolved modes only, so the decay must stay within a small
        // margin of the analytic rate.
        let run = |filter: Option<FilterConfig>| {
            run_ranks(1, MachineModel::test_tiny(), move |comm| {
                use std::f64::consts::PI;
                let l = 2.0 * PI;
                let spec = Arc::new(MeshSpec::box_mesh(5, [3, 3, 2], [l, l, l], [true; 3]));
                let mesh = LocalMesh::new(spec, 0, 1);
                let u0 = [
                    mesh.eval_nodal(|x| x[0].sin() * x[1].cos()),
                    mesh.eval_nodal(|x| -x[0].cos() * x[1].sin()),
                    mesh.eval_nodal(|_| 0.0),
                ];
                let nu = 0.05;
                let cfg = SolverConfig {
                    viscosity: nu,
                    dt: 2e-3,
                    bdf_order: 2,
                    filter,
                    ..Default::default()
                };
                let mut solver = FlowSolver::new(
                    comm,
                    mesh,
                    cfg,
                    FlowBcs {
                        velocity: [BcSet::all_neumann(); 3],
                        pressure: BcSet::all_neumann(),
                    },
                    u0,
                    None,
                );
                let ke0 = solver.kinetic_energy(comm);
                for _ in 0..20 {
                    solver.step(comm);
                }
                let expected = ke0 * (-4.0 * nu * solver.time()).exp();
                (solver.kinetic_energy(comm), expected)
            })[0]
        };
        let (ke_plain, expected) = run(None);
        let (ke_filtered, _) = run(Some(FilterConfig {
            strength: 0.05,
            modes: 1,
        }));
        assert!((ke_plain - expected).abs() / expected < 0.02);
        assert!(
            (ke_filtered - expected).abs() / expected < 0.05,
            "filtered {ke_filtered} vs analytic {expected}"
        );
        // And it must not be destabilizing.
        assert!(ke_filtered.is_finite() && ke_filtered > 0.0);
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
    fn vorticity_of_taylor_green_matches_analytic() {
        // TGV: u = sin x cos y, v = −cos x sin y
        //   ⇒ ω_z = ∂x v − ∂y u = sin x sin y + sin x sin y = 2 sin x sin y.
        let err = run_ranks(1, MachineModel::test_tiny(), |comm| {
            use std::f64::consts::PI;
            let l = 2.0 * PI;
            let spec = Arc::new(MeshSpec::box_mesh(6, [2, 2, 1], [l, l, l], [true; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let exact = mesh.eval_nodal(|x| 2.0 * x[0].sin() * x[1].sin());
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
                vorticity: true,
                ..Default::default()
            };
            let snap = solver.publish_snapshot(comm, &spec, &pool);
            let w = snap.field("vorticity").expect("requested").values();
            w.chunks_exact(3)
                .zip(&exact)
                .map(|(w, b)| (w[2] - b).abs())
                .fold(0.0, f64::max)
        });
        assert!(err[0] < 5e-3, "vorticity error {}", err[0]);
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
    fn restart_with_bdf1_is_exact() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            use std::f64::consts::PI;
            let l = 2.0 * PI;
            let build = |comm: &mut Comm| {
                let spec = Arc::new(MeshSpec::box_mesh(4, [2, 2, 2], [l, l, l], [true; 3]));
                let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
                let u0 = [
                    mesh.eval_nodal(|x| x[0].sin() * x[1].cos()),
                    mesh.eval_nodal(|x| -x[0].cos() * x[1].sin()),
                    mesh.eval_nodal(|_| 0.0),
                ];
                let cfg = SolverConfig {
                    viscosity: 0.05,
                    dt: 2e-3,
                    bdf_order: 1,
                    ..Default::default()
                };
                FlowSolver::new(
                    comm,
                    mesh,
                    cfg,
                    FlowBcs {
                        velocity: [BcSet::all_neumann(); 3],
                        pressure: BcSet::all_neumann(),
                    },
                    u0,
                    None,
                )
            };
            // Reference: 6 straight steps.
            let mut a = build(comm);
            for _ in 0..3 {
                a.step(comm);
            }
            // Checkpoint state at step 3.
            let u = [
                a.field_device(FieldId::VelX).unwrap().to_vec(),
                a.field_device(FieldId::VelY).unwrap().to_vec(),
                a.field_device(FieldId::VelZ).unwrap().to_vec(),
            ];
            let p = a.field_device(FieldId::Pressure).unwrap().to_vec();
            let (si, t) = (a.step_index(), a.time());
            for _ in 0..3 {
                a.step(comm);
            }
            let ke_ref = a.kinetic_energy(comm);
            // Restart: fresh solver, restore, 3 more steps.
            let mut b = build(comm);
            b.restore(comm, si, t, u, p, None);
            assert_eq!(b.step_index(), 3);
            for _ in 0..3 {
                b.step(comm);
            }
            let ke_restart = b.kinetic_energy(comm);
            (ke_ref, ke_restart)
        });
        let (ke_ref, ke_restart) = res[0];
        assert!(
            (ke_ref - ke_restart).abs() < 1e-12 * ke_ref.max(1.0),
            "BDF1 restart must be exact: {ke_ref} vs {ke_restart}"
        );
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
}
