//! p-multigrid preconditioner for the pressure Poisson solve.
//!
//! One V-cycle over polynomial orders N → 3 → 1 (N → 1 when N ≤ 3) on the
//! same elements, NekRS's default pressure preconditioner. Every level is
//! the ordinary machinery at a lower order — [`LocalMesh`] →
//! [`GatherScatter`] → [`Ops`] — smoothed by Chebyshev-accelerated Jacobi
//! of one fixed degree before and after the coarse correction; the
//! coarsest level is the same smoother at a higher fixed degree instead of
//! an inner CG. Prolongation interpolates between the levels' GLL nodes
//! element by element and restriction is its transpose, so the cycle is a
//! fixed, symmetric, positive operator — what plain PCG needs — with no
//! collective in it (gather–scatter halo messages only), and bitwise the
//! same at any pool width.
//!
//! Vectors follow [`crate::cg`]'s conventions: element-major with every
//! copy of a shared node holding the same value, residuals assembled and
//! masked, inner products weighted by 1/multiplicity.

use crate::gs::GatherScatter;
use crate::mesh::{LocalMesh, MeshSpec};
use crate::operators::Ops;
use commsim::Comm;
use std::sync::Arc;

/// Chebyshev degree of the pre- and post-smoother (equal, for symmetry).
const SMOOTH_DEGREE: usize = 2;
/// The smoother damps the eigenvalues of `D⁻¹A` in `[λ/10, 1.1·λ]`.
const SMOOTH_SPAN: f64 = 10.0;
/// Chebyshev degree of the coarsest level's stand-in for a solve.
const COARSEST_DEGREE: usize = 8;
/// The coarsest level targets `[λ/60, 1.1·λ]`.
const COARSEST_SPAN: f64 = 60.0;
/// Safety factor on the element estimate `λ` of `λ_max(D⁻¹A)`.
const LAMBDA_MARGIN: f64 = 1.1;

/// One level's assembled, masked operator `x ↦ mask·GS(A_local x)` with its
/// Jacobi diagonal: borrowed from the solver on the fine level, from a
/// [`Level`] below it.
#[derive(Clone, Copy)]
pub struct Operator<'a> {
    /// Assembly topology.
    pub gs: &'a GatherScatter,
    /// Element operators.
    pub ops: &'a Ops,
    /// 1 on free nodes, 0 on Dirichlet nodes.
    pub mask: &'a [f64],
    /// Inverse of the assembled stiffness diagonal.
    pub diag_inv: &'a [f64],
}

impl Operator<'_> {
    fn apply(&self, comm: &mut Comm, x: &[f64], out: &mut [f64]) {
        self.ops.stiffness_apply(comm, x, out, &mut []);
        self.gs.sum(comm, out);
        for (o, &m) in out.iter_mut().zip(self.mask) {
            *o *= m;
        }
    }

    /// `r = b − A x`, through `q`.
    fn residual(&self, comm: &mut Comm, b: &[f64], x: &[f64], r: &mut [f64], q: &mut [f64]) {
        self.apply(comm, x, q);
        for ((ri, &bi), &qi) in r.iter_mut().zip(b).zip(&*q) {
            *ri = bi - qi;
        }
    }

    /// `degree` steps of Chebyshev-accelerated Jacobi on `A x = b` for the
    /// eigenvalues of `D⁻¹A` in `[lambda/span, LAMBDA_MARGIN·lambda]`:
    /// `x ← x + p(D⁻¹A)·D⁻¹ r` with `r = b − A x` on entry (stale on exit,
    /// which saves the last operator apply). Residuals are zero on
    /// Dirichlet nodes, so every update is too.
    fn smooth(
        &self,
        comm: &mut Comm,
        (degree, lambda, span): (usize, f64, f64),
        x: &mut [f64],
        r: &mut [f64],
        d: &mut [f64],
        q: &mut [f64],
    ) {
        let n = x.len();
        let (lo, hi) = (lambda / span, LAMBDA_MARGIN * lambda);
        let (theta, delta) = (0.5 * (hi + lo), 0.5 * (hi - lo));
        let sigma = theta / delta;
        let mut rho = 1.0 / sigma;
        // Pointwise updates: 3 vector passes per step.
        comm.compute_gpu((4 * n * degree) as f64, (6 * 8 * n * degree) as f64);
        for i in 0..n {
            d[i] = self.diag_inv[i] * r[i] / theta;
        }
        for _ in 1..degree {
            for i in 0..n {
                x[i] += d[i];
            }
            self.apply(comm, d, q);
            let rho_next = 1.0 / (2.0 * sigma - rho);
            let (cd, cr) = (rho_next * rho, 2.0 * rho_next / delta);
            for i in 0..n {
                r[i] -= q[i];
                d[i] = cd * d[i] + cr * self.diag_inv[i] * r[i];
            }
            rho = rho_next;
        }
        for i in 0..n {
            x[i] += d[i];
        }
    }
}

/// A coarse level: its operator, its transfer to the next finer level and
/// its vectors — all allocated here, none per cycle.
struct Level {
    gs: GatherScatter,
    ops: Ops,
    mask: Vec<f64>,
    diag_inv: Vec<f64>,
    lambda_max: f64,
    /// 1-D interpolation from this level's GLL nodes to the finer level's,
    /// row-major `np_finer × np`, and its transpose.
    interp: Vec<f64>,
    interp_t: Vec<f64>,
    np_finer: usize,
    /// Right-hand side, correction, and the three smoother work vectors.
    b: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    d: Vec<f64>,
    q: Vec<f64>,
    /// One element's tensor-product intermediates.
    scratch: Vec<f64>,
}

/// `out = M u` along `axis` of one x-fastest block of extents `n`, `M`
/// being row-major `rows × n[axis]`; `out` has extent `rows` along `axis`.
fn contract(m: &[f64], rows: usize, u: &[f64], n: [usize; 3], axis: usize, out: &mut [f64]) {
    let cols = n[axis];
    let stride: usize = n[..axis].iter().product();
    let outer: usize = n[axis + 1..].iter().product();
    for o in 0..outer {
        for r in 0..rows {
            let out_row = &mut out[(o * rows + r) * stride..][..stride];
            out_row.fill(0.0);
            for c in 0..cols {
                let coef = m[r * cols + c];
                let u_row = &u[(o * cols + c) * stride..][..stride];
                for (ov, &uv) in out_row.iter_mut().zip(u_row) {
                    *ov += coef * uv;
                }
            }
        }
    }
}

impl Level {
    /// Coarsen the level described by (`finer`, `finer_mult_inv`,
    /// `finer_mask`) to polynomial `order` on the same elements. Nothing is
    /// communicated: a coarse node's multiplicity and mask are those of a
    /// finer node on the same vertex, edge, face or interior of the same
    /// element, and — the elements being congruent and the GLL diagonal
    /// mirror-symmetric — every copy of a node carries the same local
    /// diagonal, so the assembled diagonal is local diagonal × multiplicity.
    fn coarsen(
        finer: &LocalMesh,
        finer_mult_inv: &[f64],
        finer_mask: &[f64],
        order: usize,
    ) -> (LocalMesh, Self) {
        let order_finer = finer.spec.order;
        assert!(order < order_finer, "coarsening must lower the order");
        let spec = Arc::new(MeshSpec {
            order,
            ..(*finer.spec).clone()
        });
        let mesh = LocalMesh::new(spec, finer.rank, finer.nranks);
        let ops = Ops::new(&mesh);
        let (lf, lc) = (finer.layout(), mesh.layout());
        let n = lc.n_nodes();

        let same_entity = |c: usize| match c {
            0 => 0,
            c if c == order => order_finer,
            _ => 1,
        };
        // Index folding makes the mirror symmetry of the diagonal exact, so
        // the copies of a node agree to the bit.
        let fold = |c: usize| c.min(order - c);
        let local_diag = ops.stiffness_diag();
        let (mut mult_inv, mut mask, mut diag_inv) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for idx in 0..n {
            let (e, i, j, k) = lc.coords(idx);
            let f = lf.idx(e, same_entity(i), same_entity(j), same_entity(k));
            mult_inv[idx] = finer_mult_inv[f];
            mask[idx] = finer_mask[f];
            diag_inv[idx] = mult_inv[idx] / local_diag[lc.idx(e, fold(i), fold(j), fold(k))];
        }

        let (basis, np_finer) = (&ops.basis, order_finer + 1);
        let interp: Vec<f64> = finer
            .ref_nodes
            .iter()
            .flat_map(|&x| basis.eval_at(x))
            .collect();
        let np = basis.np();
        let mut interp_t = vec![0.0; interp.len()];
        for f in 0..np_finer {
            for c in 0..np {
                interp_t[c * np_finer + f] = interp[f * np + c];
            }
        }
        let level = Self {
            gs: GatherScatter::with_mult_inv(&mesh, mult_inv),
            lambda_max: ops.jacobi_lambda_max(),
            ops,
            mask,
            diag_inv,
            interp,
            interp_t,
            np_finer,
            b: vec![0.0; n],
            x: vec![0.0; n],
            r: vec![0.0; n],
            d: vec![0.0; n],
            q: vec![0.0; n],
            scratch: vec![0.0; np_finer.pow(3) + np_finer.pow(2) * np + np_finer * np * np],
        };
        (mesh, level)
    }

    /// Flop/byte charge of one transfer between this level and the finer.
    fn charge_transfer(&self, comm: &mut Comm) {
        let (nc, nf) = (self.ops.basis.np() as f64, self.np_finer as f64);
        let ne = self.ops.layout.n_elems as f64;
        let macs = nc * nf * (nc * nc + nc * nf + nf * nf);
        comm.compute_gpu(2.0 * ne * macs, 8.0 * ne * (nc.powi(3) + nf.powi(3)));
    }

    /// `self.b = mask·GS(Pᵀ(w ∘ r))`: the transpose of [`Self::prolong_add`]
    /// in the 1/multiplicity-weighted inner product, `w` being the finer
    /// level's weights and `r` its assembled residual.
    fn restrict(&mut self, comm: &mut Comm, w: &[f64], r: &[f64]) {
        self.charge_transfer(comm);
        let (nc, nf) = (self.ops.basis.np(), self.np_finer);
        let (npe_c, npe_f) = (nc * nc * nc, nf * nf * nf);
        let (wr, rest) = self.scratch.split_at_mut(npe_f);
        let (t2, t1) = rest.split_at_mut(nf * nf * nc);
        for ((be, re), we) in self
            .b
            .chunks_exact_mut(npe_c)
            .zip(r.chunks_exact(npe_f))
            .zip(w.chunks_exact(npe_f))
        {
            for ((o, &rv), &wv) in wr.iter_mut().zip(re).zip(we) {
                *o = wv * rv;
            }
            contract(&self.interp_t, nc, wr, [nf, nf, nf], 2, t2);
            contract(&self.interp_t, nc, t2, [nf, nf, nc], 1, t1);
            contract(&self.interp_t, nc, t1, [nf, nc, nc], 0, be);
        }
        self.gs.sum(comm, &mut self.b);
        for (b, &m) in self.b.iter_mut().zip(&self.mask) {
            *b *= m;
        }
    }

    /// `x += P·self.x`: interpolate this level's correction onto the finer
    /// level's nodes, element by element.
    fn prolong_add(&mut self, comm: &mut Comm, x: &mut [f64]) {
        self.charge_transfer(comm);
        let (nc, nf) = (self.ops.basis.np(), self.np_finer);
        let (npe_c, npe_f) = (nc * nc * nc, nf * nf * nf);
        let (pe, rest) = self.scratch.split_at_mut(npe_f);
        let (t2, t1) = rest.split_at_mut(nf * nf * nc);
        for (xe, ce) in x.chunks_exact_mut(npe_f).zip(self.x.chunks_exact(npe_c)) {
            contract(&self.interp, nf, ce, [nc, nc, nc], 0, t1);
            contract(&self.interp, nf, t1, [nf, nc, nc], 1, t2);
            contract(&self.interp, nf, t2, [nf, nf, nc], 2, pe);
            for (o, &v) in xe.iter_mut().zip(&*pe) {
                *o += v;
            }
        }
    }
}

/// `x ≈ A⁻¹ b` by one V-cycle from a zero guess on the level `op`
/// describes, `coarse` being the levels below it, finest first.
fn cycle(
    comm: &mut Comm,
    op: Operator<'_>,
    lambda_max: f64,
    coarse: &mut [Level],
    b: &[f64],
    x: &mut [f64],
    [r, d, q]: [&mut [f64]; 3],
) {
    x.fill(0.0);
    r.copy_from_slice(b);
    let Some((next, below)) = coarse.split_first_mut() else {
        op.smooth(
            comm,
            (COARSEST_DEGREE, lambda_max, COARSEST_SPAN),
            x,
            r,
            d,
            q,
        );
        return;
    };
    let smoother = (SMOOTH_DEGREE, lambda_max, SMOOTH_SPAN);
    op.smooth(comm, smoother, x, r, d, q);
    op.residual(comm, b, x, r, q);
    next.restrict(comm, op.gs.mult_inv(), r);
    let Level {
        gs,
        ops,
        mask,
        diag_inv,
        lambda_max: next_lambda,
        b: nb,
        x: nx,
        r: nr,
        d: nd,
        q: nq,
        ..
    } = next;
    cycle(
        comm,
        Operator {
            gs,
            ops,
            mask,
            diag_inv,
        },
        *next_lambda,
        below,
        nb,
        nx,
        [nr, nd, nq],
    );
    next.prolong_add(comm, x);
    op.residual(comm, b, x, r, q);
    op.smooth(comm, smoother, x, r, d, q);
}

/// The pressure preconditioner: the coarse levels below the solver's own
/// fine level, built once per solver.
pub struct Multigrid {
    /// Element estimate of `λ_max(D⁻¹A)` on the fine level.
    lambda_max: f64,
    /// Coarse levels, finest first.
    coarse: Vec<Level>,
}

impl Multigrid {
    /// Build the hierarchy under the fine level (`mesh`, its `gs`, `ops`
    /// and Dirichlet `mask`). Local work only — see [`Level::coarsen`].
    pub fn new(mesh: &LocalMesh, gs: &GatherScatter, ops: &Ops, mask: &[f64]) -> Self {
        let orders: &[usize] = match mesh.spec.order {
            1 => &[],
            2 | 3 => &[1],
            _ => &[3, 1],
        };
        let mut coarse: Vec<Level> = Vec::with_capacity(orders.len());
        let mut finer_mesh = mesh.clone();
        for &order in orders {
            let (mult_inv, mask) = match coarse.last() {
                Some(l) => (l.gs.mult_inv(), l.mask.as_slice()),
                None => (gs.mult_inv(), mask),
            };
            let (mesh, level) = Level::coarsen(&finer_mesh, mult_inv, mask, order);
            coarse.push(level);
            finer_mesh = mesh;
        }
        Self {
            lambda_max: ops.jacobi_lambda_max(),
            coarse,
        }
    }

    /// Device memory the coarse levels hold: five vectors plus mask,
    /// diagonal and multiplicity per level.
    pub fn device_bytes(&self) -> u64 {
        self.coarse.iter().map(|l| 8 * 8 * l.b.len() as u64).sum()
    }

    /// `z ≈ A⁻¹ r`: one V-cycle, `fine` being the solver's pressure
    /// operator and `work` three fine-level vectors of arbitrary content.
    pub fn apply(
        &mut self,
        comm: &mut Comm,
        fine: Operator<'_>,
        work: &mut [Vec<f64>; 3],
        r: &[f64],
        z: &mut [f64],
    ) {
        let [w0, w1, w2] = work;
        cycle(
            comm,
            fine,
            self.lambda_max,
            &mut self.coarse,
            r,
            z,
            [w0, w1, w2],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{pb146, rbc, CaseParams};
    use crate::cg::{self, wdot, CgConfig};
    use crate::mesh::BcSet;
    use crate::workspace::Workspace;
    use commsim::{run_ranks, MachineModel, ReduceOp};

    /// The pressure operator of `spec` under `bc` on this rank, as
    /// `FlowSolver::new` assembles it.
    struct Fine {
        mesh: LocalMesh,
        gs: GatherScatter,
        ops: Ops,
        mask: Vec<f64>,
        diag_inv: Vec<f64>,
    }

    impl Fine {
        fn new(comm: &mut Comm, spec: &Arc<MeshSpec>, bc: &BcSet) -> Self {
            let mesh = LocalMesh::new(Arc::clone(spec), comm.rank(), comm.size());
            let gs = GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let (mask, _) = mesh.dirichlet_mask(bc);
            let mut diag = ops.stiffness_diag();
            gs.sum(comm, &mut diag);
            Self {
                mesh,
                gs,
                ops,
                mask,
                diag_inv: diag.iter().map(|&d| 1.0 / d).collect(),
            }
        }

        fn operator(&self) -> Operator<'_> {
            Operator {
                gs: &self.gs,
                ops: &self.ops,
                mask: &self.mask,
                diag_inv: &self.diag_inv,
            }
        }

        fn multigrid(&self) -> Multigrid {
            Multigrid::new(&self.mesh, &self.gs, &self.ops, &self.mask)
        }

        /// A masked continuous field with content at every wavelength the
        /// mesh resolves.
        fn field(&self, comm: &mut Comm, phase: f64) -> Vec<f64> {
            let mut f = self.mesh.eval_nodal(|x| {
                (11.0 * x[0] + phase).sin() * (7.0 * x[1] - phase).cos()
                    + (23.0 * x[2] + 2.0 * phase).sin()
                    + 0.3 * x[0] * x[2]
            });
            // Periodic images of a node must agree too.
            self.gs.average(comm, &mut f);
            f.iter_mut().zip(&self.mask).for_each(|(v, &m)| *v *= m);
            f
        }
    }

    fn pb146_with_solids(order: usize) -> (Arc<MeshSpec>, BcSet) {
        let mut params = CaseParams::pb146_default();
        params.order = order;
        params.elems = [4, 4, 4];
        let case = pb146(&params, 146);
        assert!(case.n_fluid_elems() < 64, "the pb146 mesh must have solids");
        (case.spec, case.bcs.pressure)
    }

    fn rbc_all_neumann(order: usize) -> (Arc<MeshSpec>, BcSet) {
        let mut params = CaseParams::rbc_default();
        params.order = order;
        params.elems = [3, 3, 4];
        let case = rbc(&params, 1e5, 0.7);
        assert_eq!(case.bcs.pressure, BcSet::all_neumann());
        (case.spec, case.bcs.pressure)
    }

    #[test]
    fn v_cycle_is_symmetric_and_positive() {
        // Orders 5, 3 and 1: two coarse levels, one, and none.
        for (spec, bc) in [pb146_with_solids(5), rbc_all_neumann(3), rbc_all_neumann(1)] {
            for ranks in [1, 2] {
                let (spec, order) = (Arc::clone(&spec), spec.order);
                let res = run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
                    let fine = Fine::new(comm, &spec, &bc);
                    let mut mg = fine.multigrid();
                    let n = fine.mask.len();
                    let mut work = [(); 3].map(|_| vec![0.0; n]);
                    let (u, v) = (fine.field(comm, 0.4), fine.field(comm, 1.9));
                    let (mut mu, mut mv) = (vec![0.0; n], vec![0.0; n]);
                    mg.apply(comm, fine.operator(), &mut work, &u, &mut mu);
                    mg.apply(comm, fine.operator(), &mut work, &v, &mut mv);
                    let w = fine.gs.mult_inv();
                    [
                        wdot(comm, &mu, &v, w),
                        wdot(comm, &u, &mv, w),
                        wdot(comm, &mu, &u, w),
                        wdot(comm, &mv, &v, w),
                    ]
                });
                let [muv, umv, muu, mvv] = res[0];
                let what = format!("order {order}, {ranks} ranks");
                assert!(
                    (muv - umv).abs() <= 1e-12 * (muu * mvv).sqrt(),
                    "{what}: ⟨M⁻¹u,v⟩ = {muv} but ⟨u,M⁻¹v⟩ = {umv}"
                );
                assert!(muu > 0.0 && mvv > 0.0, "{what}: {muu}, {mvv}");
            }
        }
    }

    /// Manufactured Poisson problem `−∇²u = f`, homogeneous Dirichlet,
    /// solved to a relative 1e-8: the CG iteration count.
    fn poisson_iterations(order: usize, elems: [usize; 3]) -> usize {
        run_ranks(2, MachineModel::test_tiny(), move |comm| {
            use std::f64::consts::PI;
            // Cubic elements on both meshes: [0,1]³ and [0,1]²×[0,2].
            let lengths = elems.map(|e| e as f64 / elems[0] as f64);
            let spec = Arc::new(MeshSpec::box_mesh(order, elems, lengths, [false; 3]));
            let fine = Fine::new(comm, &spec, &BcSet::all_dirichlet_zero());
            let mut mg = fine.multigrid();
            let n = fine.mask.len();
            let exact = fine
                .mesh
                .eval_nodal(|x| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin());
            let f: Vec<f64> = exact.iter().map(|&u| 3.0 * PI * PI * u).collect();
            let mut b = vec![0.0; n];
            fine.ops.mass_apply(comm, &f, &mut b);
            fine.gs.sum(comm, &mut b);
            b.iter_mut().zip(&fine.mask).for_each(|(v, &m)| *v *= m);
            let mut x = vec![0.0; n];
            let mut work = [(); 3].map(|_| vec![0.0; n]);
            let cfg = CgConfig {
                tol: 1e-8,
                abs_tol: 0.0,
                max_iter: 20,
                project_mean: false,
            };
            let res = cg::solve(
                comm,
                &fine.gs,
                |comm, p, out| fine.ops.stiffness_apply(comm, p, out, &mut []),
                |comm, r, z| mg.apply(comm, fine.operator(), &mut work, r, z),
                &b,
                &mut x,
                &fine.mask,
                &cfg,
                &mut Workspace::new(n),
            );
            assert!(res.converged, "order {order}, {elems:?}: {res:?}");
            let err = x
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 2e-2 / order.pow(3) as f64, "order {order}: {err}");
            res.iterations
        })[0]
    }

    #[test]
    fn poisson_iterations_are_independent_of_order_and_mesh() {
        let counts: Vec<usize> = [[2, 2, 2], [4, 4, 8]]
            .into_iter()
            .flat_map(|elems| [3, 5, 7].map(|order| poisson_iterations(order, elems)))
            .collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        for &c in &counts {
            assert!(
                (c as f64 - mean).abs() <= 0.3 * mean,
                "iteration counts {counts:?} spread beyond ±30 % of {mean}"
            );
        }
    }

    #[test]
    fn element_estimate_bounds_the_global_lambda_max_tightly() {
        let (pb_spec, pb_bc) = pb146_with_solids(4);
        let anisotropic = Arc::new(MeshSpec::box_mesh(
            5,
            [3, 2, 4],
            [1.0, 0.4, 6.0],
            [false, true, false],
        ));
        for (spec, bc) in [(pb_spec, pb_bc), (anisotropic, BcSet::all_neumann())] {
            let order = spec.order;
            let (estimate, global) = run_ranks(2, MachineModel::test_tiny(), move |comm| {
                let fine = Fine::new(comm, &spec, &bc);
                let (op, w) = (fine.operator(), fine.gs.mult_inv());
                // Power iteration on mask·D⁻¹·GS(A x), Rayleigh quotient in
                // the D inner product.
                let mut x = fine.field(comm, 0.7);
                let mut ax = vec![0.0; x.len()];
                let mut lambda = 0.0;
                for _ in 0..60 {
                    op.apply(comm, &x, &mut ax);
                    let dx: Vec<f64> = x.iter().zip(op.diag_inv).map(|(x, d)| x / d).collect();
                    lambda = wdot(comm, &x, &ax, w) / wdot(comm, &x, &dx, w);
                    for i in 0..x.len() {
                        x[i] = op.diag_inv[i] * ax[i];
                    }
                    let local = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    let norm = comm.allreduce(local, ReduceOp::Max);
                    x.iter_mut().for_each(|v| *v /= norm);
                }
                (fine.ops.jacobi_lambda_max(), lambda)
            })[0];
            assert!(
                estimate >= global && estimate <= 1.1 * global,
                "order {order}: element estimate {estimate} vs global {global}"
            );
        }
    }

    /// What `Level::coarsen` derives locally equals what one gather–scatter
    /// round per quantity would have produced.
    #[test]
    fn coarse_levels_match_their_communicated_construction() {
        for (spec, bc) in [pb146_with_solids(5), rbc_all_neumann(4)] {
            run_ranks(2, MachineModel::test_tiny(), move |comm| {
                let fine = Fine::new(comm, &spec, &bc);
                let (mesh3, level3) = Level::coarsen(&fine.mesh, fine.gs.mult_inv(), &fine.mask, 3);
                let (mesh1, level1) = Level::coarsen(&mesh3, level3.gs.mult_inv(), &level3.mask, 1);
                for (mesh, level) in [(mesh3, level3), (mesh1, level1)] {
                    let reference = Fine::new(comm, &mesh.spec, &bc);
                    assert_eq!(level.gs.mult_inv(), reference.gs.mult_inv());
                    assert_eq!(level.mask, reference.mask);
                    for (got, want) in level.diag_inv.iter().zip(&reference.diag_inv) {
                        assert!((got - want).abs() <= 1e-14 * want, "{got} vs {want}");
                    }
                }
            });
        }
    }

    #[test]
    fn restriction_is_the_transpose_of_prolongation_which_is_exact_for_linears() {
        let (spec, bc) = pb146_with_solids(5);
        run_ranks(2, MachineModel::test_tiny(), move |comm| {
            let fine = Fine::new(comm, &spec, &bc);
            let (mesh3, mut level3) = Level::coarsen(&fine.mesh, fine.gs.mult_inv(), &fine.mask, 3);
            let (mesh1, mut level1) = Level::coarsen(&mesh3, level3.gs.mult_inv(), &level3.mask, 1);
            let linear = |x: [f64; 3]| 0.5 - 2.0 * x[0] + 3.0 * x[1] + 0.25 * x[2];

            // 1 → 3 → 5 carries a linear function node for node.
            level1.x = mesh1.eval_nodal(linear);
            level3.x.fill(0.0);
            level1.prolong_add(comm, &mut level3.x);
            let mut on_fine = vec![0.0; fine.mask.len()];
            level3.prolong_add(comm, &mut on_fine);
            for (got, want) in on_fine.iter().zip(fine.mesh.eval_nodal(linear)) {
                assert!((got - want).abs() < 1e-13, "{got} vs {want}");
            }

            // ⟨P c, r⟩ = ⟨c, Pᵀ r⟩ for a masked coarse field c and an
            // assembled fine residual r, in the weighted inner products.
            let r = fine.field(comm, 1.3);
            level3.restrict(comm, fine.gs.mult_inv(), &r);
            let c: Vec<f64> = mesh3
                .eval_nodal(|x| (9.0 * x[0]).sin() + (5.0 * x[1] * x[2]).cos())
                .iter()
                .zip(&level3.mask)
                .map(|(v, m)| v * m)
                .collect();
            let c_ptr = wdot(comm, &c, &level3.b, level3.gs.mult_inv());
            level3.x.copy_from_slice(&c);
            let mut pc = vec![0.0; r.len()];
            level3.prolong_add(comm, &mut pc);
            let pc_r = wdot(comm, &pc, &r, fine.gs.mult_inv());
            assert!(
                (pc_r - c_ptr).abs() <= 1e-13 * pc_r.abs().max(1.0),
                "⟨Pc,r⟩ = {pc_r} but ⟨c,Pᵀr⟩ = {c_ptr}"
            );
        });
    }
}
