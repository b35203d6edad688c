//! Preconditioned conjugate gradient over assembled SEM operators.
//!
//! Works on unassembled (element-major) vectors: the operator callback
//! applies the local element operator; this module gather-scatters, masks
//! Dirichlet nodes, and computes multiplicity-weighted global inner
//! products via `allreduce` — three collectives per iteration (the mean
//! projection of a singular solve rides the residual norm's), the
//! communication signature NekRS's pressure/viscous solves show at scale.
//! The preconditioner is the caller's: [`jacobi`] for the Helmholtz
//! solves, the [`crate::mg`] V-cycle for pressure. Plain PCG needs it
//! fixed, symmetric and positive; both are.

use crate::gs::GatherScatter;
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
    comm.compute_gpu(2.0 * a.len() as f64, 3.0 * 8.0 * a.len() as f64);
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

/// The Jacobi preconditioner `z = D⁻¹ r` on free nodes: `diag_inv` is the
/// inverse of the assembled operator diagonal (masked entries arbitrary).
pub fn jacobi<'a>(
    diag_inv: &'a [f64],
    mask: &'a [f64],
) -> impl FnMut(&mut Comm, &[f64], &mut [f64]) + 'a {
    move |_, r, z| {
        for i in 0..r.len() {
            z[i] = diag_inv[i] * r[i] * mask[i];
        }
    }
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
    use crate::operators::Ops;
    use commsim::{run_ranks, MachineModel};
    use std::sync::Arc;

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
}
