//! Preconditioned conjugate gradient over assembled SEM operators.
//!
//! Works on unassembled (element-major) vectors: the operator applies the
//! local element operator; this module gather-scatters, masks Dirichlet
//! nodes, and computes multiplicity-weighted global inner products via
//! `allreduce`. Two solvers share that ground:
//!
//! - [`solve`] takes the operator and preconditioner as closures; the
//!   pressure solve runs it under the [`crate::mg`] V-cycle. Its
//!   preconditioner communicates, so it stays behind the convergence test:
//!   three collectives per iteration (the mean projection of a singular
//!   solve rides the residual norm's).
//! - [`solve_helmholtz`] runs K Jacobi-preconditioned Helmholtz solves in
//!   lockstep — u_x, u_y, u_z as one block, or T alone. Jacobi is
//!   pointwise, so `z` is formed before the convergence test and `‖r‖²`
//!   and `rᵀz` share a collective: per lockstep iteration one operator
//!   dispatch and one gather–scatter exchange for every field still
//!   running, then two collectives (`pᵀq`, then `‖r‖²` with `rᵀz`), and one
//!   collective to open the solve, so `1 + 2·max(i)` for the block where K
//!   sequential solves made `3 + 3·i` each — the per-step reductions that
//!   set NekRS's strong-scale limit.
//!
//! Plain PCG needs the preconditioner fixed, symmetric and positive; both
//! are.

use crate::gs::GatherScatter;
use crate::operators::{HelmholtzTerm, Ops};
use crate::workspace::Workspace;
use commsim::{Comm, ReduceOp};

/// Solver controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConfig {
    /// Relative tolerance on the residual's weighted L2 norm — the plain
    /// residual `b − A x`, not the preconditioned one.
    pub tol: f64,
    /// Absolute tolerance floor.
    pub abs_tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Project out the constant null space each iteration (pure-Neumann
    /// pressure solves in enclosed/periodic domains).
    pub project_mean: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            tol: 1e-8,
            abs_tol: 1e-12,
            max_iter: 200,
            project_mean: false,
        }
    }
}

/// Outcome of one solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm (weighted L2).
    pub residual: f64,
    /// `residual` relative to the right-hand side's norm (0 when that is 0).
    pub relative_residual: f64,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

/// Multiplicity-weighted global inner product (shared nodes counted once).
pub fn wdot(comm: &mut Comm, a: &[f64], b: &[f64], weights: &[f64]) -> f64 {
    charge_dots(comm, a.len(), 1);
    let local: f64 = a
        .iter()
        .zip(b)
        .zip(weights)
        .map(|((&x, &y), &w)| x * y * w)
        .sum();
    comm.allreduce(local, ReduceOp::Sum)
}

/// Solve `A x = b` where `apply` computes the *local unassembled* operator.
///
/// `b` must already be assembled (gather-scattered) and masked; `x` holds
/// the initial guess (assembled/continuous, zero on masked nodes) and is
/// overwritten with the solution. `precond(comm, r, z)` writes every
/// element of `z ≈ A⁻¹ r`, zero on Dirichlet nodes; `mask` is 1 on free
/// nodes and 0 on Dirichlet nodes. The four CG work vectors come from `ws`
/// and are returned to it, so repeated solves don't allocate.
#[allow(clippy::too_many_arguments)]
pub fn solve(
    comm: &mut Comm,
    gs: &GatherScatter,
    apply: impl FnMut(&mut Comm, &[f64], &mut [f64]),
    precond: impl FnMut(&mut Comm, &[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    mask: &[f64],
    cfg: &CgConfig,
    ws: &mut Workspace,
) -> CgResult {
    let _sp = comm.span("sem/cg");
    debug_assert_eq!(ws.len(), b.len(), "workspace sized for a different mesh");
    // Every element of r/z/p/q is written before it is read.
    let mut r = ws.take_uninit();
    let mut z = ws.take_uninit();
    let mut p = ws.take_uninit();
    let mut q = ws.take_uninit();
    let result = solve_with(
        comm, gs, apply, precond, b, x, mask, cfg, &mut r, &mut z, &mut p, &mut q,
    );
    ws.put(r);
    ws.put(z);
    ws.put(p);
    ws.put(q);
    result
}

#[allow(clippy::too_many_arguments)]
fn solve_with(
    comm: &mut Comm,
    gs: &GatherScatter,
    mut apply: impl FnMut(&mut Comm, &[f64], &mut [f64]),
    mut precond: impl FnMut(&mut Comm, &[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    mask: &[f64],
    cfg: &CgConfig,
    r: &mut [f64],
    z: &mut [f64],
    p: &mut [f64],
    q: &mut [f64],
) -> CgResult {
    let n = b.len();
    let w = gs.mult_inv();

    // r = b - mask·GS(A x).
    apply(comm, x, &mut *q);
    gs.sum(comm, &mut *q);
    for i in 0..n {
        r[i] = b[i] - mask[i] * q[i];
    }
    // Singular operator: the weight of the free nodes, once per solve; the
    // mean of every residual then comes out with its norm.
    let free_weight = cfg.project_mean.then(|| {
        let local: f64 = w.iter().zip(mask).map(|(&wi, &m)| wi * m).sum();
        comm.allreduce(local, ReduceOp::Sum)
    });
    let residual_norm = |comm: &mut Comm, r: &mut [f64]| match free_weight {
        Some(fw) => remove_weighted_mean_norm(comm, r, w, mask, fw),
        None => wdot(comm, r, r, w).sqrt(),
    };

    let norm_b = wdot(comm, b, b, w).sqrt();
    let target = (cfg.tol * norm_b).max(cfg.abs_tol);

    let mut rnorm = residual_norm(comm, &mut *r);
    if rnorm <= target {
        return CgResult {
            iterations: 0,
            residual: rnorm,
            relative_residual: relative(rnorm, norm_b),
            converged: true,
        };
    }

    precond(comm, &*r, &mut *z);
    p.copy_from_slice(&*z);
    let mut rz = wdot(comm, &*r, &*z, w);

    let mut iterations = 0;
    while iterations < cfg.max_iter {
        iterations += 1;
        apply(comm, &*p, &mut *q);
        gs.sum(comm, &mut *q);
        for i in 0..n {
            q[i] *= mask[i];
        }
        let pq = wdot(comm, &*p, &*q, w);
        if pq.abs() < f64::MIN_POSITIVE * 1e10 {
            break; // operator degenerate on remaining subspace
        }
        let alpha = rz / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        rnorm = residual_norm(comm, &mut *r);
        if rnorm <= target {
            break;
        }
        precond(comm, &*r, &mut *z);
        let rz_new = wdot(comm, &*r, &*z, w);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    if let Some(fw) = free_weight {
        // Pin the solution's mean to zero as well (it is only defined up to
        // a constant).
        remove_weighted_mean_norm(comm, x, w, mask, fw);
    }

    CgResult {
        iterations,
        residual: rnorm,
        relative_residual: relative(rnorm, norm_b),
        converged: rnorm <= target,
    }
}

fn relative(rnorm: f64, norm_b: f64) -> f64 {
    if norm_b > 0.0 {
        rnorm / norm_b
    } else {
        0.0
    }
}

/// The viscous operator `h0·M + κ·A` every field of a [`solve_helmholtz`]
/// block shares — u_x, u_y and u_z share ν — with the assembled diagonals
/// its Jacobi preconditioner inverts.
pub struct Helmholtz<'a> {
    /// Assembly topology.
    pub gs: &'a GatherScatter,
    /// Operator context.
    pub ops: &'a Ops,
    /// The mass coefficient, `b₀/Δt`.
    pub h0: f64,
    /// The stiffness coefficient κ: ν for velocity, the thermal
    /// diffusivity for temperature.
    pub diffusivity: f64,
    /// The unassembled lumped mass `M`.
    pub mass: &'a [f64],
    /// `M`'s diagonal, assembled.
    pub mass_assembled: &'a [f64],
    /// `A`'s diagonal, assembled.
    pub stiffness_assembled: &'a [f64],
}

/// One field of a [`solve_helmholtz`] block.
pub struct BlockField<'a> {
    /// In: the right-hand side `b`, assembled and masked. Out: the final
    /// residual.
    pub rhs: &'a mut [f64],
    /// In: the initial guess, continuous and zero on masked nodes. Out:
    /// the solution.
    pub x: &'a mut [f64],
    /// 1 on free nodes, 0 on Dirichlet nodes.
    pub mask: &'a [f64],
    /// This field's controls; `project_mean` must be off (the operator is
    /// never singular).
    pub cfg: CgConfig,
}

/// One field's CG state inside [`solve_helmholtz`].
struct Lane<'a> {
    /// Position in the caller's block.
    slot: usize,
    f: BlockField<'a>,
    /// The search direction.
    p: Vec<f64>,
    /// `H p`, then — once the residual is updated — `z = D⁻¹ r`.
    q: Vec<f64>,
    iterations: usize,
    norm_b: f64,
    target: f64,
    rnorm: f64,
    rz: f64,
    /// `pᵀq` vanished: the operator is degenerate on what is left.
    stalled: bool,
}

impl Lane<'_> {
    fn running(&self) -> bool {
        !self.stalled && self.rnorm > self.target && self.iterations < self.f.cfg.max_iter
    }

    fn result(&self) -> CgResult {
        CgResult {
            iterations: self.iterations,
            residual: self.rnorm,
            relative_residual: relative(self.rnorm, self.norm_b),
            converged: self.rnorm <= self.target,
        }
    }
}

/// Solve `(h0·M + κ·A) x_k = b_k` for the K fields of `block` by Jacobi
/// PCG in lockstep. Every field keeps its own α, β, mask, controls and
/// stopping iteration, so each gets the bits — solution, residual and
/// iteration count — its own [`solve`] under a Jacobi preconditioner gives.
/// What they share is the communication: one [`Ops::helmholtz_apply`]
/// dispatch and one [`GatherScatter::sum_fields`] exchange per iteration
/// over the fields still running, one collective for their `pᵀq` and one
/// for their `‖r‖²` and `rᵀz`, after one collective for every field's
/// `‖b‖²`, `‖r₀‖²` and `r₀ᵀz₀`. Two work vectors a field and the block's
/// inverse Jacobi diagonal come from `ws` and go back to it.
pub fn solve_helmholtz<const K: usize>(
    comm: &mut Comm,
    op: &Helmholtz<'_>,
    block: [BlockField<'_>; K],
    ws: &mut Workspace,
) -> [CgResult; K] {
    let _sp = comm.span("sem/cg");
    let n = op.gs.n_nodes();
    let w = op.gs.mult_inv();
    let mut slot = 0..K;
    let mut lanes = block.map(|f| {
        assert!(
            !f.cfg.project_mean,
            "a Helmholtz operator is never singular"
        );
        debug_assert_eq!(f.rhs.len(), n, "field sized for a different mesh");
        // Every element of p and q is written before it is read.
        Lane {
            slot: slot.next().expect("one slot a field"),
            f,
            p: ws.take_uninit(),
            q: ws.take_uninit(),
            iterations: 0,
            norm_b: 0.0,
            target: 0.0,
            rnorm: 0.0,
            rz: 0.0,
            stalled: false,
        }
    });

    let kappa = op.diffusivity;
    let mut diag_inv = ws.take_uninit();
    for i in 0..n {
        diag_inv[i] = 1.0 / (op.h0 * op.mass_assembled[i] + kappa * op.stiffness_assembled[i]);
    }

    // r = b − mask·GS(H x) in b's buffer, z = D⁻¹ r in q, p = z, and
    // ‖b‖², ‖r‖², rᵀz from one collective.
    let terms = lanes
        .each_mut()
        .map(|l| HelmholtzTerm::new(kappa, &*l.f.x, &mut l.q));
    op.ops.helmholtz_apply(comm, op.h0, op.mass, &terms);
    op.gs
        .sum_fields(comm, &mut lanes.each_mut().map(|l| &mut l.q[..]));
    let mut sums = [[0.0; 3]; K];
    for (l, sums) in lanes.iter_mut().zip(&mut sums) {
        charge_dots(comm, n, 3);
        *sums = open_residual(&diag_inv, l.f.mask, w, l.f.rhs, &mut l.q, &mut l.p);
    }
    comm.allreduce_vec(sums.as_flattened_mut(), ReduceOp::Sum);
    for (l, &[bb, rr, rz]) in lanes.iter_mut().zip(&sums) {
        l.norm_b = bb.sqrt();
        l.target = (l.f.cfg.tol * l.norm_b).max(l.f.cfg.abs_tol);
        (l.rnorm, l.rz) = (rr.sqrt(), rz);
    }
    let mut active = K;
    retire(&mut lanes, &mut active);

    while active > 0 {
        let terms = lanes
            .each_mut()
            .map(|l| HelmholtzTerm::new(kappa, &l.p, &mut l.q));
        op.ops
            .helmholtz_apply(comm, op.h0, op.mass, &terms[..active]);
        op.gs
            .sum_fields(comm, &mut lanes.each_mut().map(|l| &mut l.q[..])[..active]);
        let mut pq = [0.0; K];
        for (l, pq) in lanes[..active].iter_mut().zip(&mut pq) {
            charge_dots(comm, n, 1);
            *pq = mask_dot(l.f.mask, w, &l.p, &mut l.q);
        }
        comm.allreduce_vec(&mut pq[..active], ReduceOp::Sum);

        let mut sums = [[0.0; 2]; K];
        for ((l, &pq), sums) in lanes[..active].iter_mut().zip(&pq).zip(&mut sums) {
            l.iterations += 1;
            l.stalled = pq.abs() < f64::MIN_POSITIVE * 1e10;
            if l.stalled {
                continue;
            }
            charge_dots(comm, n, 2);
            let alpha = l.rz / pq;
            *sums = update_residual(
                &diag_inv, l.f.mask, w, alpha, &l.p, l.f.x, l.f.rhs, &mut l.q,
            );
        }
        comm.allreduce_vec(sums[..active].as_flattened_mut(), ReduceOp::Sum);

        for (l, &[rr, rz]) in lanes[..active].iter_mut().zip(&sums) {
            if l.stalled {
                continue;
            }
            l.rnorm = rr.sqrt();
            if !l.running() {
                continue;
            }
            let beta = rz / l.rz;
            l.rz = rz;
            for (p, &z) in l.p.iter_mut().zip(&l.q) {
                *p = z + beta * *p;
            }
        }
        retire(&mut lanes, &mut active);
    }

    ws.put(diag_inv);
    lanes.sort_unstable_by_key(|l| l.slot);
    lanes.map(|l| {
        let result = l.result();
        ws.put(l.p);
        ws.put(l.q);
        result
    })
}

/// Move the lanes of `lanes[..active]` that stopped running behind those
/// that did not, so the running lanes stay the prefix `lanes[..active]`.
/// The order among them changes nothing: no lane's arithmetic reads
/// another's.
fn retire(lanes: &mut [Lane<'_>], active: &mut usize) {
    let mut k = 0;
    while k < *active {
        if lanes[k].running() {
            k += 1;
        } else {
            *active -= 1;
            lanes.swap(k, *active);
        }
    }
}

/// Open a field's solve: `r = b − mask·q` over `b` in `r`, `z = D⁻¹ r` in
/// `q` (which held `GS(H x)`) and in `p`, `diag_inv` being `D⁻¹`. Returns
/// the local `‖b‖²`, `‖r‖²` and `rᵀz`, each summed in node order as
/// [`wdot`] sums.
fn open_residual(
    diag_inv: &[f64],
    mask: &[f64],
    w: &[f64],
    r: &mut [f64],
    q: &mut [f64],
    p: &mut [f64],
) -> [f64; 3] {
    let n = r.len();
    let (diag_inv, mask, w) = (&diag_inv[..n], &mask[..n], &w[..n]);
    let (q, p) = (&mut q[..n], &mut p[..n]);
    let [mut bb, mut rr, mut rz] = [0.0; 3];
    for i in 0..n {
        let b = r[i];
        bb += b * b * w[i];
        r[i] = b - mask[i] * q[i];
        let z = diag_inv[i] * r[i] * mask[i];
        (q[i], p[i]) = (z, z);
        rr += r[i] * r[i] * w[i];
        rz += r[i] * z * w[i];
    }
    [bb, rr, rz]
}

/// `q ← mask·q` and the local `pᵀq`.
fn mask_dot(mask: &[f64], w: &[f64], p: &[f64], q: &mut [f64]) -> f64 {
    let n = q.len();
    let (mask, w, p) = (&mask[..n], &w[..n], &p[..n]);
    let mut pq = 0.0;
    for i in 0..n {
        q[i] *= mask[i];
        pq += p[i] * q[i] * w[i];
    }
    pq
}

/// `x += α p`, `r −= α q`, then `z = D⁻¹ r` over `q`. Returns the local
/// `‖r‖²` and `rᵀz`.
#[allow(clippy::too_many_arguments)]
fn update_residual(
    diag_inv: &[f64],
    mask: &[f64],
    w: &[f64],
    alpha: f64,
    p: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    q: &mut [f64],
) -> [f64; 2] {
    let n = r.len();
    let (diag_inv, mask, w, p) = (&diag_inv[..n], &mask[..n], &w[..n], &p[..n]);
    let (x, q) = (&mut x[..n], &mut q[..n]);
    let [mut rr, mut rz] = [0.0; 2];
    for i in 0..n {
        x[i] += alpha * p[i];
        r[i] -= alpha * q[i];
        let z = diag_inv[i] * r[i] * mask[i];
        q[i] = z;
        rr += r[i] * r[i] * w[i];
        rz += r[i] * z * w[i];
    }
    [rr, rz]
}

/// Charge `dots` multiplicity-weighted inner products of `n` values, as
/// [`wdot`] charges one.
fn charge_dots(comm: &mut Comm, n: usize, dots: usize) {
    let m = (dots * n) as f64;
    comm.compute_gpu(2.0 * m, 24.0 * m);
}

/// Subtract from `v` its multiplicity-weighted mean `μ` over the free
/// nodes, whose total weight `free_weight = Σ w·m` the caller reduced
/// once, and return `‖v − μ·m‖_w` — both from one collective, since
/// `‖v − μ·m‖²_w = Σ w·v² − (Σ w·m·v)² / Σ w·m` (clamped at 0 against
/// rounding, which is `ε·Σ w·v²`: nothing beside a CG residual, whose mean
/// is itself rounding). `v` is zero on masked nodes, as residuals and
/// solutions are.
fn remove_weighted_mean_norm(
    comm: &mut Comm,
    v: &mut [f64],
    w: &[f64],
    mask: &[f64],
    free_weight: f64,
) -> f64 {
    comm.compute_gpu(4.0 * v.len() as f64, 3.0 * 8.0 * v.len() as f64);
    let mut sums = [0.0; 2];
    for ((&x, &wi), &m) in v.iter().zip(w).zip(mask) {
        sums[0] += wi * m * x;
        sums[1] += wi * x * x;
    }
    comm.allreduce_vec(&mut sums, ReduceOp::Sum);
    let [weighted_sum, square] = sums;
    if free_weight <= 0.0 {
        return square.sqrt();
    }
    let mean = weighted_sum / free_weight;
    for (x, &m) in v.iter_mut().zip(mask) {
        *x -= mean * m;
    }
    (square - weighted_sum * weighted_sum / free_weight)
        .max(0.0)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Bc, BcSet, LocalMesh, MeshSpec};
    use commsim::{run_ranks, MachineModel};
    use std::sync::Arc;

    /// The Jacobi preconditioner `z = D⁻¹ r` on free nodes: `diag_inv` is
    /// the inverse of the assembled operator diagonal (masked entries
    /// arbitrary).
    fn jacobi<'a>(
        diag_inv: &'a [f64],
        mask: &'a [f64],
    ) -> impl FnMut(&mut Comm, &[f64], &mut [f64]) + 'a {
        move |_, r, z| {
            for i in 0..r.len() {
                z[i] = diag_inv[i] * r[i] * mask[i];
            }
        }
    }

    /// Solve the Poisson problem −∇²u = f with homogeneous Dirichlet BCs
    /// and a manufactured solution, on `ranks` ranks.
    fn poisson_manufactured(ranks: usize, order: usize, elems: [usize; 3]) -> (f64, CgResult) {
        let results = run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
            use std::f64::consts::PI;
            let spec = Arc::new(MeshSpec::box_mesh(order, elems, [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let gs = crate::gs::GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();

            // u = sin(πx) sin(πy) sin(πz), f = 3π² u.
            let exact =
                mesh.eval_nodal(|x| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin());
            let f = exact.iter().map(|&u| 3.0 * PI * PI * u).collect::<Vec<_>>();

            let (mask, _) = mesh.dirichlet_mask(&BcSet {
                faces: [Bc::Dirichlet(0.0); 6],
                solid_surface: Bc::Neumann,
            });

            // b = GS(M f), masked.
            let mut b = vec![0.0; n];
            ops.mass_apply(comm, &f, &mut b);
            gs.sum(comm, &mut b);
            for i in 0..n {
                b[i] *= mask[i];
            }

            let mut diag = ops.stiffness_diag();
            gs.sum(comm, &mut diag);
            let diag_inv: Vec<f64> = diag.iter().map(|&d| 1.0 / d).collect();

            let mut x = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            let mut ws = Workspace::new(n);
            let cfg = CgConfig {
                tol: 1e-10,
                max_iter: 500,
                ..Default::default()
            };
            let result = solve(
                comm,
                &gs,
                |comm, p, out| ops.stiffness_apply(comm, p, out, &mut scratch),
                jacobi(&diag_inv, &mask),
                &b,
                &mut x,
                &mask,
                &cfg,
                &mut ws,
            );
            let err = x
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            (err, result)
        });
        results[0]
    }

    #[test]
    fn poisson_converges_to_manufactured_solution_single_rank() {
        let (err, res) = poisson_manufactured(1, 5, [2, 2, 2]);
        assert!(res.converged, "{res:?}");
        // Spectral accuracy: N=5 on 8 elements resolves sin(πx) to ~1e-4.
        assert!(err < 5e-4, "max err {err}");
    }

    #[test]
    fn poisson_parallel_matches_serial() {
        // Parallel summation order changes the CG trajectory slightly, so
        // compare the *discretization* errors, which must agree to well
        // within the discretization error itself.
        let (err1, _) = poisson_manufactured(1, 4, [2, 2, 4]);
        let (err3, res3) = poisson_manufactured(4, 4, [2, 2, 4]);
        assert!(res3.converged);
        assert!(err1 < 2e-3 && err3 < 2e-3);
        assert!(
            (err1 - err3).abs() < 0.5 * err1.max(err3),
            "serial {err1} vs parallel {err3}"
        );
    }

    #[test]
    fn poisson_error_converges_spectrally_in_p() {
        // p-refinement on a fixed mesh: the error of the manufactured
        // solution must fall steeply (spectral convergence), the defining
        // property of the SEM discretization.
        let errors: Vec<f64> = [2usize, 3, 4, 5]
            .iter()
            .map(|&order| poisson_manufactured(1, order, [2, 2, 2]).0)
            .collect();
        for w in errors.windows(2) {
            assert!(
                w[1] < w[0] * 0.5,
                "error must at least halve per order: {errors:?}"
            );
        }
        assert!(
            errors[3] < errors[0] * 1e-3,
            "four orders must buy >= 3 decades: {errors:?}"
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(2, [2, 2, 2], [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let gs = crate::gs::GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let b = vec![0.0; n];
            let mut x = vec![0.0; n];
            let diag_inv = vec![1.0; n];
            let mask = vec![1.0; n];
            let mut scratch = vec![0.0; n];
            let mut ws = Workspace::new(n);
            solve(
                comm,
                &gs,
                |comm, p, out| ops.stiffness_apply(comm, p, out, &mut scratch),
                jacobi(&diag_inv, &mask),
                &b,
                &mut x,
                &mask,
                &CgConfig::default(),
                &mut ws,
            )
        });
        assert_eq!(res[0].iterations, 0);
        assert!(res[0].converged);
    }

    #[test]
    fn neumann_poisson_with_mean_projection() {
        // Pure Neumann: periodic box, u = sin(2πx), f = 4π²sin(2πx).
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            use std::f64::consts::PI;
            let spec = Arc::new(MeshSpec::box_mesh(5, [2, 1, 2], [1.0; 3], [true; 3]));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let gs = crate::gs::GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let exact = mesh.eval_nodal(|x| (2.0 * PI * x[0]).sin());
            let f: Vec<f64> = exact.iter().map(|&u| 4.0 * PI * PI * u).collect();
            let mut b = vec![0.0; n];
            ops.mass_apply(comm, &f, &mut b);
            gs.sum(comm, &mut b);
            let mut diag = ops.stiffness_diag();
            gs.sum(comm, &mut diag);
            let diag_inv: Vec<f64> = diag.iter().map(|&d| 1.0 / d).collect();
            let mask = vec![1.0; n];
            let mut x = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            let mut ws = Workspace::new(n);
            let cfg = CgConfig {
                tol: 1e-10,
                max_iter: 400,
                project_mean: true,
                ..Default::default()
            };
            let r = solve(
                comm,
                &gs,
                |comm, p, out| ops.stiffness_apply(comm, p, out, &mut scratch),
                jacobi(&diag_inv, &mask),
                &b,
                &mut x,
                &mask,
                &cfg,
                &mut ws,
            );
            let err = x
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            (r.converged, err)
        });
        for (conv, err) in res {
            assert!(conv);
            assert!(err < 2e-3, "max err {err}");
        }
    }

    #[test]
    fn fused_mean_projection_matches_subtract_then_dot() {
        // Split over two ranks: the sums cross the collective.
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let n = 400;
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ comm.rank() as u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            // Hex-mesh multiplicities, every fifth node masked.
            let w: Vec<f64> = (0..n)
                .map(|_| 1.0 / (1u32 << (next() * 4.0) as u32) as f64)
                .collect();
            let mask: Vec<f64> = (0..n).map(|i| f64::from(i % 5 != 0)).collect();
            let local: f64 = w.iter().zip(&mask).map(|(a, m)| a * m).sum();
            let free_weight = comm.allreduce(local, ReduceOp::Sum);
            let mut worst = 0.0f64;
            for offset in [0.0, 3.0] {
                let v: Vec<f64> = mask.iter().map(|m| m * (offset + next() - 0.5)).collect();
                // Explicit: reduce the mean, subtract, then dot.
                let sum: f64 = v.iter().zip(&w).map(|(x, wi)| x * wi).sum();
                let mean = comm.allreduce(sum, ReduceOp::Sum) / free_weight;
                let want: Vec<f64> = v.iter().zip(&mask).map(|(x, m)| x - mean * m).collect();
                let want_norm = wdot(comm, &want, &want, &w).sqrt();
                let mut got = v.clone();
                let got_norm = remove_weighted_mean_norm(comm, &mut got, &w, &mask, free_weight);
                assert_eq!(got, want, "offset {offset}: projected field");
                worst = worst.max((got_norm - want_norm).abs() / want_norm);
            }
            // A constant has nothing left, exactly: every sum is dyadic.
            let mut constant: Vec<f64> = mask.iter().map(|m| 3.0 * m).collect();
            let zero = remove_weighted_mean_norm(comm, &mut constant, &w, &mask, free_weight);
            assert_eq!(zero, 0.0);
            assert!(constant.iter().all(|&x| x == 0.0));
            worst
        });
        assert!(res[0] <= 1e-12, "norms differ by {} relative", res[0]);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let res = run_ranks(1, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(4, [2, 2, 2], [1.0; 3], [false; 3]));
            let mesh = LocalMesh::new(spec, 0, 1);
            let gs = crate::gs::GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let (mask, _) = mesh.dirichlet_mask(&BcSet::all_dirichlet_zero());
            let mut b = mesh.eval_nodal(|x| x[0] * x[1]);
            gs.sum(comm, &mut b);
            for i in 0..n {
                b[i] *= mask[i];
            }
            let diag_inv = vec![1.0; n];
            let mut x = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            let mut ws = Workspace::new(n);
            let cfg = CgConfig {
                tol: 1e-30,
                abs_tol: 0.0,
                max_iter: 3,
                project_mean: false,
            };
            solve(
                comm,
                &gs,
                |comm, p, out| ops.stiffness_apply(comm, p, out, &mut scratch),
                jacobi(&diag_inv, &mask),
                &b,
                &mut x,
                &mask,
                &cfg,
                &mut ws,
            )
        });
        assert_eq!(res[0].iterations, 3);
        assert!(!res[0].converged);
    }

    /// The oracle of [`solve_helmholtz`]: three [`solve`] calls under
    /// [`jacobi`], one a field, against one block of the three, on two
    /// ranks. The fields stop at different iterations: one at 0 (zero
    /// right-hand side), one on its tolerance, one on its `max_iter` cap.
    #[test]
    fn helmholtz_block_matches_one_solve_a_field_bit_for_bit() {
        let res = run_ranks(2, MachineModel::test_tiny(), |comm| {
            let spec = Arc::new(MeshSpec::box_mesh(
                4,
                [2, 2, 4],
                [1.0, 1.0, 2.0],
                [false; 3],
            ));
            let mesh = LocalMesh::new(spec, comm.rank(), comm.size());
            let gs = crate::gs::GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let (mask, _) = mesh.dirichlet_mask(&BcSet::all_dirichlet_zero());
            let mass = ops.mass_diag();
            let mut mass_assembled = mass.clone();
            gs.sum(comm, &mut mass_assembled);
            let mut stiffness_assembled = ops.stiffness_diag();
            gs.sum(comm, &mut stiffness_assembled);
            let (h0, kappa) = (150.0, 0.04);
            let cfgs = [
                CgConfig::default(),
                CgConfig::default(),
                CgConfig {
                    tol: 1e-14,
                    abs_tol: 0.0,
                    max_iter: 4,
                    ..Default::default()
                },
            ];
            let sources: [fn([f64; 3]) -> f64; 3] = [
                |_| 0.0,
                |x| (3.0 * x[0]).sin() * x[1] * x[2],
                |x| (x[0] - x[1]).cos() + x[2],
            ];
            let rhs = sources.map(|f| {
                let f = mesh.eval_nodal(f);
                let mut b = vec![0.0; n];
                ops.mass_apply(comm, &f, &mut b);
                gs.sum(comm, &mut b);
                for i in 0..n {
                    b[i] *= mask[i];
                }
                b
            });
            // A nonzero, continuous initial guess for the capped field.
            let guesses = [0.0, 0.0, 1.0].map(|a| {
                mesh.eval_nodal(|x| a * x[0] * x[1])
                    .iter()
                    .zip(&mask)
                    .map(|(v, m)| v * m)
                    .collect::<Vec<_>>()
            });
            let mut ws = Workspace::new(n);

            let mut oracle = guesses.clone();
            let diag_inv: Vec<f64> = (0..n)
                .map(|i| 1.0 / (h0 * mass_assembled[i] + kappa * stiffness_assembled[i]))
                .collect();
            let mut want = Vec::new();
            for (c, x) in oracle.iter_mut().enumerate() {
                want.push(solve(
                    comm,
                    &gs,
                    |comm, v, out| {
                        ops.helmholtz_apply(comm, h0, &mass, &[HelmholtzTerm::new(kappa, v, out)])
                    },
                    jacobi(&diag_inv, &mask),
                    &rhs[c],
                    x,
                    &mask,
                    &cfgs[c],
                    &mut ws,
                ));
            }

            let op = Helmholtz {
                gs: &gs,
                ops: &ops,
                h0,
                diffusivity: kappa,
                mass: &mass,
                mass_assembled: &mass_assembled,
                stiffness_assembled: &stiffness_assembled,
            };
            let mut block_rhs = rhs.clone();
            let mut block_x = guesses.clone();
            let (mut bs, mut xs) = (block_rhs.iter_mut(), block_x.iter_mut());
            let block: [BlockField<'_>; 3] = std::array::from_fn(|c| BlockField {
                rhs: bs.next().unwrap(),
                x: xs.next().unwrap(),
                mask: &mask,
                cfg: cfgs[c],
            });
            let before = *comm.stats();
            let got = solve_helmholtz(comm, &op, block, &mut ws);
            let after = *comm.stats();
            (
                want,
                got,
                oracle,
                block_x,
                after.collectives - before.collectives,
                after.messages_sent - before.messages_sent,
            )
        });
        for (rank, (want, got, oracle, block_x, collectives, messages)) in
            res.into_iter().enumerate()
        {
            let iterations = got.map(|r| r.iterations);
            assert_eq!(iterations[0], 0, "zero right-hand side");
            assert_eq!(iterations[2], 4, "the capped field");
            assert!(got[1].converged && iterations[1] > 4, "{got:?}");
            assert!(!got[2].converged);
            for c in 0..3 {
                assert_eq!(
                    got[c].iterations, want[c].iterations,
                    "rank {rank} field {c}"
                );
                assert_eq!(got[c].converged, want[c].converged, "rank {rank} field {c}");
                for (a, b) in [
                    (got[c].residual, want[c].residual),
                    (got[c].relative_residual, want[c].relative_residual),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "rank {rank} field {c}: residual");
                }
                let same = block_x[c]
                    .iter()
                    .zip(&oracle[c])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "rank {rank} field {c}: solution bits");
            }
            // One collective to open, two a lockstep iteration; one
            // exchange with the one neighbour to open and one an iteration.
            let lockstep = iterations[1] as u64;
            assert_eq!(collectives, 1 + 2 * lockstep, "rank {rank}");
            assert_eq!(messages, 1 + lockstep, "rank {rank}");
        }
    }
}
