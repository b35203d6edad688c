//! Tensor-product SEM operators on rectilinear elements.
//!
//! All kernels are matrix-free sweeps of the 1-D derivative matrix along
//! each tensor direction — the structure libParanumal/NekRS optimize on
//! GPUs. Every public operator charges the rank's virtual clock with its
//! flop/byte roofline cost, so CG iteration counts translate directly into
//! virtual solver time.
//!
//! Geometry is rectilinear (constant diagonal Jacobian per element), which
//! is exact for the box/pebble-mask meshes in [`crate::mesh`].

use crate::basis::Basis1d;
use crate::field::FieldLayout;
use crate::mesh::LocalMesh;
use crate::workspace::Workspace;
use commsim::Comm;
use rayon::pool;
use std::marker::PhantomData;

/// Evaluate `$body` with `$k` bound to the [`Kernel`] for `$np` nodes per
/// direction and for this CPU: at polynomial orders 1..=7 [`Avx2`] where
/// the CPU has AVX2 and [`Fixed`] where it does not, [`Runtime`] at any
/// other order. The crate's only match on the node count and on the build,
/// made once per operator apply; the detection is cached for the process.
macro_rules! with_kernel {
    ($np:expr, $k:ident => $body:expr) => {
        with_kernel!(@fixed 2 3 4 5 6 7 8, $np, $k => $body)
    };
    (@fixed $($n:literal)*, $np:expr, $k:ident => $body:expr) => {
        match $np {
            $(
                #[cfg(target_arch = "x86_64")]
                $n if std::arch::is_x86_feature_detected!("avx2") => {
                    let $k = Avx2::<$n>;
                    $body
                }
                $n => { let $k = Fixed::<$n>; $body }
            )*
            np => { let $k = Runtime(np); $body }
        }
    };
}

/// Fields smaller than this run their element loop on the calling thread:
/// one pool dispatch costs tens of microseconds (`pool.dispatch_us` in
/// `nekbench`), more than a whole operator apply on a thin rank's slab or
/// on a p-multigrid coarse level.
const POOLED_MIN_NODES: usize = 4096;

/// One axis of a separable element block `Ã_x⊗B̃_y⊗B̃_z + B̃_x⊗Ã_y⊗B̃_z +
/// B̃_x⊗B̃_y⊗Ã_z` in its generalised eigenbasis: `Ã S = B̃ S Λ` with
/// `Sᵀ B̃ S = I`, what [`Ops::fdm_apply`] inverts the block with. A node the
/// block drops (a Dirichlet end) has a zero row in `S`, and the mode it
/// leaves out a zero column and a zero eigenvalue.
#[derive(Debug, Clone)]
pub(crate) struct AxisEigen {
    /// Row-major (N+1)², eigenvectors in the columns.
    pub(crate) s: Vec<f64>,
    /// `S` transposed.
    pub(crate) st: Vec<f64>,
    /// The eigenvalue of each column of `S`.
    pub(crate) lambda: Vec<f64>,
}

/// One field of an element-block dispatch ([`Ops::zip_fields`]): the input
/// it reads and the output its jobs write, held as a base pointer so that
/// every job of the dispatch can reach its own element range of it.
struct Zip<'a> {
    u: &'a [f64],
    out: *mut f64,
    /// `out` stays mutably borrowed for as long as the dispatch can write.
    _out: PhantomData<&'a mut [f64]>,
}
// SAFETY: `out` is only ever offset into per-block element ranges, which
// `pool::partition` makes disjoint; no two jobs touch one address.
unsafe impl Sync for Zip<'_> {}

impl<'a> Zip<'a> {
    fn new(u: &'a [f64], out: &'a mut [f64]) -> Self {
        assert_eq!(out.len(), u.len(), "input and output differ in length");
        Self {
            u,
            out: out.as_mut_ptr(),
            _out: PhantomData,
        }
    }
}

impl<'a> AsRef<Zip<'a>> for Zip<'a> {
    fn as_ref(&self) -> &Zip<'a> {
        self
    }
}

/// One field of an [`Ops::helmholtz_apply`]: `out = coeff·A u + h0·(M ∘ u)`.
pub struct HelmholtzTerm<'a> {
    coeff: f64,
    zip: Zip<'a>,
}

impl<'a> HelmholtzTerm<'a> {
    /// The term writing `coeff·A u + h0·(M ∘ u)` into `out`.
    pub fn new(coeff: f64, u: &'a [f64], out: &'a mut [f64]) -> Self {
        Self {
            coeff,
            zip: Zip::new(u, out),
        }
    }
}

impl<'a> AsRef<Zip<'a>> for HelmholtzTerm<'a> {
    fn as_ref(&self) -> &Zip<'a> {
        &self.zip
    }
}

/// Precomputed operator context for one rank's mesh.
#[derive(Debug, Clone)]
pub struct Ops {
    /// 1-D reference basis.
    pub basis: Basis1d,
    /// Field layout.
    pub layout: FieldLayout,
    /// Element sizes.
    pub h: [f64; 3],
    /// Reference→physical derivative scale 2/h per axis.
    pub scale: [f64; 3],
    /// Jacobian determinant hx·hy·hz/8 (constant per element).
    pub jac: f64,
    /// Tensor quadrature weights w_i w_j w_k per element-local node.
    pub w3: Vec<f64>,
    /// 1-D stiffness diagonal `K1[i] = Σ_m w_m D[m][i]²`, cached so
    /// `stiffness_diag` never recomputes it.
    k1: Vec<f64>,
    /// Transposed derivative matrix `Dᵀ[m][i] = D[i][m]`: what the kernel
    /// reads along axis 0, and the matrix itself when applying `Dᵀ`.
    dt: Vec<f64>,
}

impl Ops {
    /// Build operators for `mesh`.
    pub fn new(mesh: &LocalMesh) -> Self {
        let basis = Basis1d::new(mesh.spec.order);
        let layout = mesh.layout();
        let h = mesh.spec.h();
        let np = basis.np();
        let mut w3 = vec![0.0; np * np * np];
        for k in 0..np {
            for j in 0..np {
                for i in 0..np {
                    w3[(k * np + j) * np + i] =
                        basis.weights[i] * basis.weights[j] * basis.weights[k];
                }
            }
        }
        let mut k1 = vec![0.0; np];
        for i in 0..np {
            for m in 0..np {
                let d = basis.deriv[m * np + i];
                k1[i] += basis.weights[m] * d * d;
            }
        }
        let dt = transpose_op(&basis.deriv, np);
        Self {
            basis,
            layout,
            scale: [2.0 / h[0], 2.0 / h[1], 2.0 / h[2]],
            jac: h[0] * h[1] * h[2] / 8.0,
            h,
            w3,
            k1,
            dt,
        }
    }

    fn np(&self) -> usize {
        self.basis.np()
    }

    /// Run `f(e0, out_block, u_block)` over per-thread contiguous element
    /// blocks (`e0` is the block's first element): [`Self::zip_fields`]
    /// for one field, the dispatch nearly every element-local operator
    /// goes through.
    fn zip_blocks(&self, out: &mut [f64], u: &[f64], f: impl Fn(usize, &mut [f64], &[f64]) + Sync) {
        self.zip_fields(&[Zip::new(u, out)], |_, e0, ob, ub| f(e0, ob, ub));
    }

    /// Run `f(field, e0, out_block, u_block)` for every field over
    /// per-thread contiguous element blocks — one dispatch for all the
    /// fields. Elements are partitioned once per call (contiguous ranges,
    /// sizes differing by at most one), so each worker sweeps a
    /// cache-friendly run of whole elements of each field and every
    /// element of every output belongs to exactly one block. A field of
    /// fewer than [`POOLED_MIN_NODES`] nodes is one block on the calling
    /// thread: the partition never enters the arithmetic, so the bits are
    /// the same.
    fn zip_fields<'a, T: AsRef<Zip<'a>> + Sync>(
        &self,
        fields: &[T],
        f: impl Fn(&T, usize, &mut [f64], &[f64]) + Sync,
    ) {
        let pooled = self.layout.n_nodes() >= POOLED_MIN_NODES;
        self.zip_fields_on(pooled, fields, f);
    }

    /// [`Self::zip_fields`], one pool job per block when `pooled` and one
    /// block on the calling thread otherwise.
    fn zip_fields_on<'a, T: AsRef<Zip<'a>> + Sync>(
        &self,
        pooled: bool,
        fields: &[T],
        f: impl Fn(&T, usize, &mut [f64], &[f64]) + Sync,
    ) {
        let npe = self.layout.nodes_per_elem();
        let ne = self.layout.n_elems;
        for field in fields {
            assert_eq!(field.as_ref().u.len(), ne * npe, "not one value per node");
        }
        let job = |e0: usize, e1: usize| {
            for field in fields {
                let zip = field.as_ref();
                // SAFETY: the jobs' `e0..e1` ranges are disjoint and inside
                // `0..ne`, and `out`, mutably borrowed until the dispatch
                // returns, holds `ne * npe` values: each part is one job's own.
                let ob = unsafe {
                    std::slice::from_raw_parts_mut(zip.out.add(e0 * npe), (e1 - e0) * npe)
                };
                f(field, e0, ob, &zip.u[e0 * npe..e1 * npe]);
            }
        };
        if pooled {
            pool::run_partitioned(ne, |_b, e0, e1| job(e0, e1));
        } else {
            job(0, ne);
        }
    }

    /// `out = s·M u` along `axis` of every element, `mt` being `M`
    /// transposed: the sweep behind every derivative.
    fn sweep(&self, u: &[f64], m: &[f64], mt: &[f64], axis: usize, s: f64, out: &mut [f64]) {
        let npe = self.layout.nodes_per_elem();
        with_kernel!(self.np(), k => self.zip_blocks(out, u, |_, ob, ub| {
            for (oe, ue) in ob.chunks_exact_mut(npe).zip(ub.chunks_exact(npe)) {
                k.contract::<false>(ue, m, mt, axis, s, oe);
            }
        }));
    }

    /// Flop/byte cost of one derivative sweep over all local elements.
    fn deriv_cost(&self) -> (f64, f64) {
        let np = self.np() as f64;
        let ne = self.layout.n_elems as f64;
        // (N+1)³ outputs × (N+1) MACs each, 2 flops per MAC.
        let flops = ne * np * np * np * np * 2.0;
        let bytes = 2.0 * self.layout.n_nodes() as f64 * 8.0;
        (flops, bytes)
    }

    fn charge_derivs(&self, comm: &mut Comm, sweeps: f64) {
        let (f, b) = self.deriv_cost();
        comm.compute_gpu(f * sweeps, b * sweeps);
    }

    fn charge_pointwise(&self, comm: &mut Comm, flops_per_node: f64, arrays: f64) {
        let n = self.layout.n_nodes() as f64;
        comm.compute_gpu(n * flops_per_node, n * 8.0 * arrays);
    }

    /// Physical derivative along `axis` (0 = x, 1 = y, 2 = z), collocation
    /// form: `out = (2/h_axis) D_axis u`.
    pub fn deriv(&self, comm: &mut Comm, u: &[f64], axis: usize, out: &mut [f64]) {
        self.charge_derivs(comm, 1.0);
        self.deriv_nocost(u, axis, out);
    }

    fn deriv_nocost(&self, u: &[f64], axis: usize, out: &mut [f64]) {
        self.sweep(u, &self.basis.deriv, &self.dt, axis, self.scale[axis], out);
    }

    /// Gradient: three derivative sweeps.
    pub fn grad(&self, comm: &mut Comm, u: &[f64], gx: &mut [f64], gy: &mut [f64], gz: &mut [f64]) {
        self.charge_derivs(comm, 3.0);
        self.deriv_nocost(u, 0, gx);
        self.deriv_nocost(u, 1, gy);
        self.deriv_nocost(u, 2, gz);
    }

    /// Divergence of a vector field (collocation): `out = ∂x ux + ∂y uy + ∂z uz`.
    pub fn div(
        &self,
        comm: &mut Comm,
        ux: &[f64],
        uy: &[f64],
        uz: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.charge_derivs(comm, 3.0);
        self.deriv_nocost(ux, 0, out);
        self.deriv_nocost(uy, 1, scratch);
        add_assign(out, scratch);
        self.deriv_nocost(uz, 2, scratch);
        add_assign(out, scratch);
    }

    /// Lumped (diagonal) mass application: `out = J w ∘ u`.
    pub fn mass_apply(&self, comm: &mut Comm, u: &[f64], out: &mut [f64]) {
        self.charge_pointwise(comm, 1.0, 3.0);
        self.mass_apply_nocost(u, out);
    }

    fn mass_apply_nocost(&self, u: &[f64], out: &mut [f64]) {
        let npe = self.layout.nodes_per_elem();
        let jac = self.jac;
        let w3 = &self.w3;
        self.zip_blocks(out, u, |_, ob, ub| {
            for (oe, ue) in ob.chunks_exact_mut(npe).zip(ub.chunks_exact(npe)) {
                for ((o, &v), &w) in oe.iter_mut().zip(ue).zip(w3) {
                    *o = jac * w * v;
                }
            }
        });
    }

    /// The (unassembled) diagonal mass vector J·w per node.
    pub fn mass_diag(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.layout.n_nodes()];
        let ones = vec![1.0; self.layout.n_nodes()];
        self.mass_apply_nocost(&ones, &mut out);
        out
    }

    /// Weak Laplacian (stiffness) application:
    /// `out = Σ_d s_d² J D_dᵀ (w ∘ D_d u)` — symmetric positive
    /// semi-definite before boundary conditions.
    ///
    /// The operator chain (deriv → weighting → transpose-deriv, all three
    /// axes) is fused per element: each element is loaded once, swept
    /// through the whole chain cache-resident, and written once — instead
    /// of six full-field passes, and bitwise identical to them.
    ///
    /// `_scratch` is unused — the per-element pencil lives on the worker's
    /// stack — and stays only because `nekbench` names this signature; the
    /// next `[benchmark]` PR can drop it.
    pub fn stiffness_apply(
        &self,
        comm: &mut Comm,
        u: &[f64],
        out: &mut [f64],
        _scratch: &mut [f64],
    ) {
        self.charge_weak_laplacian(comm);
        with_kernel!(self.np(), k => self.stiffness_on(k, u, out));
    }

    /// [`Self::stiffness_apply`]'s arithmetic on kernel `k`, uncharged.
    fn stiffness_on(&self, k: impl Kernel, u: &[f64], out: &mut [f64]) {
        self.zip_blocks(out, u, |_, ob, ub| self.weak_laplacian(k, ob, ub, None));
    }

    /// Fused Helmholtz application, `out = coeff·A u + h0·(M ∘ u)` for
    /// every term — the viscous/temperature CG operator — in one pool
    /// dispatch, the diagonal-mass term folded into each element's sweep
    /// so `u` is read once. Each term is charged like a
    /// [`Self::stiffness_apply`] (the pointwise post pass was never charged
    /// separately) and gets the bits a dispatch of its own would give.
    pub fn helmholtz_apply(
        &self,
        comm: &mut Comm,
        h0: f64,
        mass_diag: &[f64],
        terms: &[HelmholtzTerm<'_>],
    ) {
        for _ in terms {
            self.charge_weak_laplacian(comm);
        }
        with_kernel!(self.np(), k => self.helmholtz_on(k, h0, mass_diag, terms));
    }

    /// [`Self::helmholtz_apply`]'s arithmetic on kernel `k`, uncharged.
    fn helmholtz_on(
        &self,
        k: impl Kernel,
        h0: f64,
        mass_diag: &[f64],
        terms: &[HelmholtzTerm<'_>],
    ) {
        let npe = self.layout.nodes_per_elem();
        self.zip_fields(terms, |t, e0, ob, ub| {
            let mass = &mass_diag[e0 * npe..][..ob.len()];
            self.weak_laplacian(k, ob, ub, Some((t.coeff, h0, mass)));
        });
    }

    /// Six derivative sweeps plus the pointwise weights: the charge of one
    /// weak-Laplacian or Helmholtz apply.
    fn charge_weak_laplacian(&self, comm: &mut Comm) {
        self.charge_derivs(comm, 6.0);
        self.charge_pointwise(comm, 3.0, 3.0);
    }

    /// `ob = A ub` over a block of whole elements, or `coeff·A ub + h0·(mass
    /// ∘ ub)` with `post = (coeff, h0, mass)`, `mass` the block's own part.
    /// Per element the derivative lives in one pencil across all three
    /// axes, in the accumulation order of three full-field sweeps.
    #[inline(always)]
    fn weak_laplacian(
        &self,
        k: impl Kernel,
        ob: &mut [f64],
        ub: &[f64],
        post: Option<(f64, f64, &[f64])>,
    ) {
        let npe = self.layout.nodes_per_elem();
        let (d, dt) = (&self.basis.deriv, &self.dt);
        let (scale, jac, w3) = (self.scale, self.jac, &self.w3);
        k.with_pencil(|se| {
            for (le, (oe, ue)) in ob
                .chunks_exact_mut(npe)
                .zip(ub.chunks_exact(npe))
                .enumerate()
            {
                oe.fill(0.0);
                for (axis, &s) in scale.iter().enumerate() {
                    k.contract::<false>(ue, d, dt, axis, s, se);
                    // se ← s J w ∘ se (one factor of s comes from each D).
                    for (v, &w) in se.iter_mut().zip(w3) {
                        *v *= jac * w;
                    }
                    k.contract::<true>(se, dt, d, axis, s, oe);
                }
                if let Some((coeff, h0, mass)) = post {
                    let me = &mass[le * npe..][..npe];
                    for i in 0..npe {
                        oe[i] = coeff * oe[i] + h0 * me[i] * ue[i];
                    }
                }
            }
        })
    }

    /// Diagonal of the unassembled stiffness operator (Jacobi
    /// preconditioner source). Assemble with gather-scatter before use.
    pub fn stiffness_diag(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.layout.n_nodes()];
        self.stiffness_diag_into(&mut out);
        out
    }

    /// Allocation-free form of [`Self::stiffness_diag`]: fill `out`
    /// (length `n_nodes`) from the cached 1-D diagonal.
    pub fn stiffness_diag_into(&self, out: &mut [f64]) {
        let npe = self.layout.nodes_per_elem();
        assert_eq!(out.len(), self.layout.n_nodes(), "one value per node");
        let Some((first, rest)) = out.split_at_mut_checked(npe) else {
            return;
        };
        self.elem_stiffness_diag(first);
        for oe in rest.chunks_exact_mut(npe) {
            oe.copy_from_slice(first);
        }
    }

    /// The stiffness diagonal of one element — every element's, the mesh
    /// being congruent.
    fn elem_stiffness_diag(&self, out: &mut [f64]) {
        let np = self.np();
        let k1 = &self.k1;
        let w = &self.basis.weights;
        for k in 0..np {
            for j in 0..np {
                for i in 0..np {
                    out[(k * np + j) * np + i] = self.jac
                        * (self.scale[0] * self.scale[0] * k1[i] * w[j] * w[k]
                            + self.scale[1] * self.scale[1] * w[i] * k1[j] * w[k]
                            + self.scale[2] * self.scale[2] * w[i] * w[j] * k1[k]);
                }
            }
        }
    }

    /// `out_e = (S_x⊗S_y⊗S_z)·(Λ_x⊕Λ_y⊕Λ_z)⁺·(S_x⊗S_y⊗S_z)ᵀ·u_e` in every
    /// element `e`, whose three axes are `axes[elem_axes[e][d]]`: the exact
    /// inverse of a separable element block by fast diagonalisation. A mode
    /// whose eigenvalues sum to zero — the constant of an element with
    /// nothing but Neumann ends — maps to zero. Charged like
    /// [`Self::stiffness_apply`]: six sweeps plus pointwise work.
    pub(crate) fn fdm_apply(
        &self,
        comm: &mut Comm,
        axes: &[AxisEigen],
        elem_axes: &[[u8; 3]],
        u: &[f64],
        out: &mut [f64],
    ) {
        self.charge_derivs(comm, 6.0);
        self.charge_pointwise(comm, 3.0, 3.0);
        let (np, npe) = (self.np(), self.layout.nodes_per_elem());
        assert_eq!(
            elem_axes.len(),
            self.layout.n_elems,
            "one entry per element"
        );
        with_kernel!(np, k => self.zip_blocks(out, u, |e0, ob, ub| {
            k.with_pencil(|p| {
                for (le, (oe, ue)) in ob.chunks_exact_mut(npe).zip(ub.chunks_exact(npe)).enumerate() {
                    let [x, y, z] = elem_axes[e0 + le].map(|a| &axes[usize::from(a)]);
                    k.contract::<false>(ue, &x.st, &x.s, 0, 1.0, p);
                    k.contract::<false>(p, &y.st, &y.s, 1, 1.0, oe);
                    k.contract::<false>(oe, &z.st, &z.s, 2, 1.0, p);
                    for (row, pr) in p.chunks_exact_mut(np).enumerate() {
                        let lyz = y.lambda[row % np] + z.lambda[row / np];
                        for (v, &lx) in pr.iter_mut().zip(&x.lambda) {
                            let d = lx + lyz;
                            *v = if d > 0.0 { *v / d } else { 0.0 };
                        }
                    }
                    k.contract::<false>(p, &x.s, &x.st, 0, 1.0, oe);
                    k.contract::<false>(oe, &y.s, &y.st, 1, 1.0, p);
                    k.contract::<false>(p, &z.s, &z.st, 2, 1.0, oe);
                }
            })
        }));
    }

    /// Q-criterion of a velocity field: `Q = ½(‖Ω‖² − ‖S‖²)` where S and Ω
    /// are the symmetric/antisymmetric parts of ∇u. Positive Q marks
    /// rotation-dominated (vortex-core) regions — the standard CFD
    /// visualization quantity.
    pub fn q_criterion(
        &self,
        comm: &mut Comm,
        ux: &[f64],
        uy: &[f64],
        uz: &[f64],
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        let n = self.layout.n_nodes();
        // Full velocity-gradient tensor: nine derivative sweeps.
        self.charge_derivs(comm, 9.0);
        self.charge_pointwise(comm, 20.0, 10.0);
        // Nine gradient components from the workspace instead of a fresh
        // `vec![vec![..]; 9]` per visualization step.
        let mut grad = [(); 9].map(|_| ws.take_uninit());
        for (c, u) in [ux, uy, uz].into_iter().enumerate() {
            for axis in 0..3 {
                self.deriv_nocost(u, axis, &mut grad[c * 3 + axis]);
            }
        }
        for i in 0..n {
            let g = |r: usize, c: usize| grad[r * 3 + c][i];
            let mut s2 = 0.0;
            let mut o2 = 0.0;
            for r in 0..3 {
                for c in 0..3 {
                    let s = 0.5 * (g(r, c) + g(c, r));
                    let o = 0.5 * (g(r, c) - g(c, r));
                    s2 += s * s;
                    o2 += o * o;
                }
            }
            out[i] = 0.5 * (o2 - s2);
        }
        for b in grad {
            ws.put(b);
        }
    }

    /// Advection term `out = -(c·∇)u` in collocation form.
    #[allow(clippy::too_many_arguments)]
    pub fn advect(
        &self,
        comm: &mut Comm,
        cx: &[f64],
        cy: &[f64],
        cz: &[f64],
        u: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.charge_derivs(comm, 3.0);
        self.charge_pointwise(comm, 6.0, 5.0);
        self.deriv_nocost(u, 0, out);
        for (o, &c) in out.iter_mut().zip(cx) {
            *o *= -c;
        }
        self.deriv_nocost(u, 1, scratch);
        for (o, (&s, &c)) in out.iter_mut().zip(scratch.iter().zip(cy)) {
            *o -= s * c;
        }
        self.deriv_nocost(u, 2, scratch);
        for (o, (&s, &c)) in out.iter_mut().zip(scratch.iter().zip(cz)) {
            *o -= s * c;
        }
    }
}

/// `out += a` elementwise.
pub fn add_assign(out: &mut [f64], a: &[f64]) {
    for (o, &v) in out.iter_mut().zip(a) {
        *o += v;
    }
}

/// Transpose of a row-major (N+1)² operator matrix, which the kernel
/// takes alongside the matrix.
pub fn transpose_op(m: &[f64], np: usize) -> Vec<f64> {
    assert_eq!(m.len(), np * np, "operator must be (N+1)²");
    let mut mt = vec![0.0; np * np];
    for i in 0..np {
        for j in 0..np {
            mt[j * np + i] = m[i * np + j];
        }
    }
    mt
}

/// The element-local kernel at one node count per direction: one 1-D
/// contraction along a tensor axis of one (N+1)³ element. Derivatives,
/// their transposes and the Schwarz smoother's eigenbases are all this
/// with a different matrix. [`with_kernel!`] picks the implementation once per operator
/// apply, by node count and by what the CPU runs, so the element loops
/// above are written once and compiled per order and per build. Every
/// implementation adds each output's products in ascending `l` into a
/// zeroed accumulator, and Rust never contracts `a*b + c` into a fused
/// multiply-add, so their results are bitwise identical on every host.
trait Kernel: Copy + Sync {
    /// `out = s·M u` (`ACC = false`) or `out += s·M u` (`ACC = true`)
    /// along `axis` of one element, `mt` being `M` transposed. `s·Mᵀ u` is
    /// the same call with the two matrices swapped.
    fn contract<const ACC: bool>(
        self,
        u: &[f64],
        m: &[f64],
        mt: &[f64],
        axis: usize,
        s: f64,
        out: &mut [f64],
    );

    /// Run `f` with one element-sized scratch pencil of arbitrary content.
    fn with_pencil(self, f: impl FnOnce(&mut [f64]));
}

/// `NP` nodes per direction, fixed at compile time. The unit-stride `i`
/// index is innermost, the other operand is a broadcast scalar, and the
/// sum builds in a stack accumulator `[f64; NP]`, so LLVM vectorizes the
/// inner loop with no gathers, aliasing or bounds checks; axis 0 reads
/// `mt` so that its vector operand is unit-stride too. The pencil (at
/// most 4 KiB) is on the stack. On x86-64 this is the baseline (SSE2)
/// build of the body; [`Avx2`] compiles the same body a second time.
#[derive(Clone, Copy)]
struct Fixed<const NP: usize>;

impl<const NP: usize> Kernel for Fixed<NP> {
    #[inline(always)]
    fn contract<const ACC: bool>(
        self,
        u: &[f64],
        m: &[f64],
        mt: &[f64],
        axis: usize,
        s: f64,
        out: &mut [f64],
    ) {
        let (u, out) = (&u[..NP * NP * NP], &mut out[..NP * NP * NP]);
        let (m, mt) = (&m[..NP * NP], &mt[..NP * NP]);
        for k in 0..NP {
            for j in 0..NP {
                let row = (k * NP + j) * NP;
                let mut acc = [0.0; NP];
                if axis == 0 {
                    for l in 0..NP {
                        let (c, col) = (u[row + l], &mt[l * NP..][..NP]);
                        for i in 0..NP {
                            acc[i] += col[i] * c;
                        }
                    }
                } else {
                    // This is output row `q` along the axis; the rows of
                    // `u` it sums start at `first` and lie `stride` apart.
                    let (q, first, stride) = if axis == 1 {
                        (j, k * NP * NP, NP)
                    } else {
                        (k, j * NP, NP * NP)
                    };
                    for l in 0..NP {
                        let (c, ur) = (m[q * NP + l], &u[first + l * stride..][..NP]);
                        for i in 0..NP {
                            acc[i] += c * ur[i];
                        }
                    }
                }
                for i in 0..NP {
                    if ACC {
                        out[row + i] += s * acc[i];
                    } else {
                        out[row + i] = s * acc[i];
                    }
                }
            }
        }
    }

    fn with_pencil(self, f: impl FnOnce(&mut [f64])) {
        f([[[0.0; NP]; NP]; NP].as_flattened_mut().as_flattened_mut());
    }
}

/// [`Fixed`]'s body compiled a second time, for AVX2: four `f64` lanes a
/// vector instead of two, the same products added in the same order, so
/// the bits are [`Fixed`]'s. Made only behind
/// `is_x86_feature_detected!("avx2")`, the guard in [`with_kernel!`] and
/// in the tests: holding one is the proof that this CPU runs AVX2.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2<const NP: usize>;

#[cfg(target_arch = "x86_64")]
impl<const NP: usize> Kernel for Avx2<NP> {
    #[inline(always)]
    fn contract<const ACC: bool>(
        self,
        u: &[f64],
        m: &[f64],
        mt: &[f64],
        axis: usize,
        s: f64,
        out: &mut [f64],
    ) {
        // SAFETY: an `Avx2` exists only where `is_x86_feature_detected!`
        // found AVX2 on this CPU, the one feature the callee is built for.
        unsafe { avx2_contract::<NP, ACC>(u, m, mt, axis, s, out) }
    }

    fn with_pencil(self, f: impl FnOnce(&mut [f64])) {
        Fixed::<NP>.with_pencil(f);
    }
}

/// [`Fixed::contract`] inlined into a function built for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_contract<const NP: usize, const ACC: bool>(
    u: &[f64],
    m: &[f64],
    mt: &[f64],
    axis: usize,
    s: f64,
    out: &mut [f64],
) {
    Fixed::<NP>.contract::<ACC>(u, m, mt, axis, s, out);
}

/// Any node count, one output at a time: the oracle the tests hold
/// [`Fixed`] and [`Avx2`] to, and the fallback for orders outside 1..=7.
/// Its pencil is allocated per block, so stepping is allocation-free only
/// at the fixed orders.
#[derive(Clone, Copy)]
struct Runtime(usize);

impl Kernel for Runtime {
    fn contract<const ACC: bool>(
        self,
        u: &[f64],
        m: &[f64],
        _mt: &[f64],
        axis: usize,
        s: f64,
        out: &mut [f64],
    ) {
        let np = self.0;
        let stride = np.pow(axis as u32);
        for node in 0..np * np * np {
            let q = node / stride % np;
            let mut acc = 0.0;
            for l in 0..np {
                acc += m[q * np + l] * u[node - q * stride + l * stride];
            }
            if ACC {
                out[node] += s * acc;
            } else {
                out[node] = s * acc;
            }
        }
    }

    fn with_pencil(self, f: impl FnOnce(&mut [f64])) {
        f(&mut vec![0.0; self.0.pow(3)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gs::GatherScatter;
    use crate::mesh::MeshSpec;
    use commsim::{run_ranks, MachineModel, ReduceOp};
    use std::sync::Arc;

    fn single_rank_mesh(order: usize, elems: [usize; 3]) -> LocalMesh {
        let spec = Arc::new(MeshSpec::box_mesh(
            order,
            elems,
            [1.0, 1.3, 0.9],
            [false; 3],
        ));
        LocalMesh::new(spec, 0, 1)
    }

    fn on_one_rank<R: Send + 'static>(f: impl Fn(&mut Comm) -> R + Send + Sync + 'static) -> R {
        run_ranks(1, MachineModel::test_tiny(), f).remove(0)
    }

    #[test]
    fn deriv_is_exact_for_linear_fields() {
        // Order 4 takes a fixed kernel, order 8 the runtime fallback.
        for order in [4, 8] {
            let err = on_one_rank(move |comm| {
                let mesh = single_rank_mesh(order, [2, 2, 2]);
                let ops = Ops::new(&mesh);
                let u = mesh.eval_nodal(|x| 2.0 * x[0] - 3.0 * x[1] + 0.5 * x[2]);
                let mut out = vec![0.0; u.len()];
                let mut max_err: f64 = 0.0;
                for (axis, exact) in [(0usize, 2.0), (1, -3.0), (2, 0.5)] {
                    ops.deriv(comm, &u, axis, &mut out);
                    for &v in &out {
                        max_err = max_err.max((v - exact).abs());
                    }
                }
                max_err
            });
            assert!(err < 1e-10, "order {order}: {err}");
        }
    }

    #[test]
    fn deriv_is_spectrally_accurate_for_sin() {
        let err = on_one_rank(|comm| {
            let mesh = single_rank_mesh(7, [2, 1, 1]);
            let ops = Ops::new(&mesh);
            let u = mesh.eval_nodal(|x| (2.0 * x[0]).sin());
            let mut out = vec![0.0; u.len()];
            ops.deriv(comm, &u, 0, &mut out);
            let exact = mesh.eval_nodal(|x| 2.0 * (2.0 * x[0]).cos());
            out.iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        });
        assert!(err < 5e-7, "{err}");
    }

    #[test]
    fn mass_integrates_volume() {
        let total = on_one_rank(|comm| {
            let mesh = single_rank_mesh(3, [2, 3, 2]);
            let ops = Ops::new(&mesh);
            let ones = vec![1.0; mesh.layout().n_nodes()];
            let mut mu = vec![0.0; ones.len()];
            ops.mass_apply(comm, &ones, &mut mu);
            mu.iter().sum::<f64>()
        });
        // Volume = 1.0 × 1.3 × 0.9.
        assert!((total - 1.0 * 1.3 * 0.9).abs() < 1e-12, "{total}");
    }

    #[test]
    fn stiffness_is_symmetric_and_kills_constants() {
        let (asym, const_norm) = on_one_rank(|comm| {
            let mesh = single_rank_mesh(3, [2, 2, 2]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let mut scratch = vec![0.0; n];
            // A·1 must vanish.
            let ones = vec![1.0; n];
            let mut a1 = vec![0.0; n];
            ops.stiffness_apply(comm, &ones, &mut a1, &mut scratch);
            let const_norm = a1.iter().map(|v| v.abs()).fold(0.0, f64::max);
            // Symmetry: ⟨Au, v⟩ = ⟨u, Av⟩ for two deterministic fields.
            let u = mesh.eval_nodal(|x| (3.0 * x[0] + x[1]).sin());
            let v = mesh.eval_nodal(|x| (x[1] * x[2] * 5.0).cos());
            let mut au = vec![0.0; n];
            let mut av = vec![0.0; n];
            ops.stiffness_apply(comm, &u, &mut au, &mut scratch);
            ops.stiffness_apply(comm, &v, &mut av, &mut scratch);
            let uav: f64 = u.iter().zip(&av).map(|(a, b)| a * b).sum();
            let vau: f64 = v.iter().zip(&au).map(|(a, b)| a * b).sum();
            ((uav - vau).abs(), const_norm)
        });
        assert!(const_norm < 1e-9, "A·1 = {const_norm}");
        assert!(asym < 1e-9 * 100.0, "asymmetry {asym}");
    }

    #[test]
    fn stiffness_matches_dirichlet_energy_of_linear_field() {
        // For u = x on [0,1]³-ish box, ⟨Au, u⟩ = ∫|∇u|² = volume.
        let energy = on_one_rank(|comm| {
            let mesh = single_rank_mesh(4, [2, 2, 2]);
            let ops = Ops::new(&mesh);
            let gs = GatherScatter::new(&mesh, comm);
            let u = mesh.eval_nodal(|x| x[0]);
            let n = u.len();
            let mut au = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            ops.stiffness_apply(comm, &u, &mut au, &mut scratch);
            // Unassembled quadratic form is already the global integral.
            let local: f64 = u.iter().zip(&au).map(|(a, b)| a * b).sum();
            let _ = gs; // (single rank: no assembly needed for the form)
            comm.allreduce(local, ReduceOp::Sum)
        });
        assert!((energy - 1.0 * 1.3 * 0.9).abs() < 1e-10, "{energy}");
    }

    #[test]
    fn stiffness_diag_matches_operator_diagonal() {
        let err = on_one_rank(|comm| {
            let mesh = single_rank_mesh(2, [1, 1, 1]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let diag = ops.stiffness_diag();
            let mut scratch = vec![0.0; n];
            let mut max_err: f64 = 0.0;
            for i in 0..n {
                let mut e = vec![0.0; n];
                e[i] = 1.0;
                let mut ae = vec![0.0; n];
                ops.stiffness_apply(comm, &e, &mut ae, &mut scratch);
                max_err = max_err.max((ae[i] - diag[i]).abs());
            }
            max_err
        });
        assert!(err < 1e-10, "{err}");
    }

    #[test]
    fn divergence_of_linear_solenoidal_field_vanishes() {
        let err = on_one_rank(|comm| {
            let mesh = single_rank_mesh(3, [2, 2, 2]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let ux = mesh.eval_nodal(|x| x[0]);
            let uy = mesh.eval_nodal(|x| x[1]);
            let uz = mesh.eval_nodal(|x| -2.0 * x[2]);
            let mut div = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            ops.div(comm, &ux, &uy, &uz, &mut div, &mut scratch);
            div.iter().map(|v| v.abs()).fold(0.0, f64::max)
        });
        assert!(err < 1e-10, "{err}");
    }

    #[test]
    fn advect_linear_by_constant_velocity() {
        // -(c·∇)(x + 2z) with c = (1, 0, 3) is -(1·1 + 3·2) = -7 everywhere.
        let err = on_one_rank(|comm| {
            let mesh = single_rank_mesh(3, [2, 2, 2]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let u = mesh.eval_nodal(|x| x[0] + 2.0 * x[2]);
            let cx = vec![1.0; n];
            let cy = vec![0.0; n];
            let cz = vec![3.0; n];
            let mut out = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            ops.advect(comm, &cx, &cy, &cz, &u, &mut out, &mut scratch);
            out.iter().map(|v| (v + 7.0).abs()).fold(0.0, f64::max)
        });
        assert!(err < 1e-9, "{err}");
    }

    #[test]
    fn q_criterion_signs_rotation_vs_strain() {
        let (q_rot, q_strain) = on_one_rank(|comm| {
            let mesh = single_rank_mesh(3, [2, 2, 2]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            // Rigid rotation: pure Ω ⇒ Q > 0.
            let ux = mesh.eval_nodal(|x| -x[1]);
            let uy = mesh.eval_nodal(|x| x[0]);
            let uz = vec![0.0; n];
            let mut q = vec![0.0; n];
            let mut ws = Workspace::new(n);
            ops.q_criterion(comm, &ux, &uy, &uz, &mut q, &mut ws);
            let q_rot = q[0];
            // Pure strain: u = (x, -y, 0) ⇒ Q < 0.
            let ux = mesh.eval_nodal(|x| x[0]);
            let uy = mesh.eval_nodal(|x| -x[1]);
            ops.q_criterion(comm, &ux, &uy, &uz, &mut q, &mut ws);
            assert_eq!(ws.available(), 9, "q_criterion must return its buffers");
            (q_rot, q[0])
        });
        assert!(q_rot > 0.9, "rotation must give Q>0: {q_rot}");
        assert!(q_strain < -0.9, "strain must give Q<0: {q_strain}");
    }

    #[test]
    fn grad_charges_virtual_time() {
        let t = on_one_rank(|comm| {
            let mesh = single_rank_mesh(4, [2, 2, 2]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let u = vec![0.0; n];
            let (mut a, mut b, mut c) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let t0 = comm.now();
            ops.grad(comm, &u, &mut a, &mut b, &mut c);
            comm.now() - t0
        });
        assert!(t > 0.0);
    }

    #[test]
    fn add_assign_adds_elementwise() {
        let mut out = vec![21.0, 42.0, 63.0];
        add_assign(&mut out, &[1.0, 1.0, 1.0]);
        assert_eq!(out, vec![22.0, 43.0, 64.0]);
    }

    /// Deterministic noise in (-1, 1) (xorshift64*), so the bitwise tests
    /// see operands with full mantissas.
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}, node {i}: {x} vs {y}");
        }
    }

    /// Run `$body` once with `$k` bound to each kernel build this host
    /// runs at `$np` nodes: [`Fixed`], then [`Avx2`] where the CPU has
    /// AVX2 (a line on stderr says so where it has not); [`Runtime`] alone
    /// at any other node count.
    macro_rules! each_build {
        ($np:expr, $k:ident => $body:expr) => {
            each_build!(@fixed 2 3 4 5 6 7 8, $np, $k => $body)
        };
        (@fixed $($n:literal)*, $np:expr, $k:ident => $body:expr) => {
            match $np {
                $($n => {
                    { let $k = Fixed::<$n>; $body }
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        let $k = Avx2::<$n>;
                        $body
                    } else {
                        eprintln!("np={}: no AVX2 on this CPU, its build skipped", $n);
                    }
                })*
                np => { let $k = Runtime(np); $body }
            }
        };
    }

    fn contract_matches_oracle(k: impl Kernel, np: usize, build: &str) {
        let npe = np * np * np;
        let u = noise(npe, 7 + np as u64);
        let m = noise(np * np, 99 + np as u64);
        let mt = transpose_op(&m, np);
        for axis in 0..3 {
            for (a, at, name) in [(&m, &mt, "M"), (&mt, &m, "Mᵀ")] {
                let what = format!("{build} np={np} axis={axis} {name}");
                let mut fast = noise(npe, 3);
                let mut oracle = fast.clone();
                k.contract::<false>(&u, a, at, axis, 1.7, &mut fast);
                Runtime(np).contract::<false>(&u, a, at, axis, 1.7, &mut oracle);
                assert_bits_eq(&fast, &oracle, &format!("{what} assign"));
                k.contract::<true>(&u, a, at, axis, 0.9, &mut fast);
                Runtime(np).contract::<true>(&u, a, at, axis, 0.9, &mut oracle);
                assert_bits_eq(&fast, &oracle, &format!("{what} accumulate"));
            }
        }
    }

    #[test]
    fn fixed_kernels_match_the_runtime_oracle_bitwise() {
        for np in 2..=8 {
            each_build!(np, k => contract_matches_oracle(k, np, std::any::type_name_of_val(&k)));
        }
    }

    /// The weak Laplacian as three full-field sweeps (axis outermost), from
    /// the runtime oracle alone.
    fn three_sweep_stiffness(ops: &Ops, u: &[f64]) -> Vec<f64> {
        let (k, npe) = (Runtime(ops.np()), ops.layout.nodes_per_elem());
        let (d, dt) = (&ops.basis.deriv, &ops.dt);
        let mut out = vec![0.0; u.len()];
        let mut g = vec![0.0; npe];
        for (axis, &s) in ops.scale.iter().enumerate() {
            for (oe, ue) in out.chunks_exact_mut(npe).zip(u.chunks_exact(npe)) {
                k.contract::<false>(ue, d, dt, axis, s, &mut g);
                for (v, &w) in g.iter_mut().zip(&ops.w3) {
                    *v *= ops.jac * w;
                }
                k.contract::<true>(&g, dt, d, axis, s, oe);
            }
        }
        out
    }

    #[test]
    fn fused_stiffness_and_helmholtz_match_reference_bitwise() {
        // Orders 1..=7 take the fixed kernels, order 8 the runtime fallback.
        for order in 1..=8usize {
            for threads in [1usize, 3, 4] {
                on_one_rank(move |comm| {
                    rayon::pool::with_threads(threads, || {
                        let mesh = single_rank_mesh(order, [2, 2, 2]);
                        let ops = Ops::new(&mesh);
                        let n = mesh.layout().n_nodes();
                        let u = noise(n, 11);
                        let what = format!("order {order}, {threads} threads");
                        let reference = three_sweep_stiffness(&ops, &u);
                        // Helmholtz = coeff·A + h0·M∘ fused must equal the
                        // two-pass composition exactly.
                        let (nu, h0) = (0.04, 150.0);
                        let mass = ops.mass_diag();
                        let composed: Vec<f64> = (0..n)
                            .map(|i| nu * reference[i] + h0 * mass[i] * u[i])
                            .collect();
                        // The build this CPU picks, through the public,
                        // charged applies.
                        let mut a = vec![1.0; n];
                        ops.stiffness_apply(comm, &u, &mut a, &mut []);
                        assert_bits_eq(&a, &reference, &format!("stiffness, {what}"));
                        let mut h = vec![1.0; n];
                        ops.helmholtz_apply(comm, h0, &mass, &[HelmholtzTerm::new(nu, &u, &mut h)]);
                        assert_bits_eq(&h, &composed, &format!("helmholtz, {what}"));
                        let v = noise(n, 12);
                        each_build!(ops.np(), k => {
                            let what = format!("{}, {what}", std::any::type_name_of_val(&k));
                            let mut a = vec![1.0; n];
                            ops.stiffness_on(k, &u, &mut a);
                            assert_bits_eq(&a, &reference, &format!("stiffness, {what}"));
                            let mut h = vec![1.0; n];
                            ops.helmholtz_on(k, h0, &mass, &[HelmholtzTerm::new(nu, &u, &mut h)]);
                            assert_bits_eq(&h, &composed, &format!("helmholtz, {what}"));
                            // Three terms in one dispatch: each the bits of
                            // its own dispatch.
                            let mut alone = vec![1.0; n];
                            ops.helmholtz_on(k, h0, &mass, &[HelmholtzTerm::new(2.0 * nu, &v, &mut alone)]);
                            let mut block = [vec![1.0; n], vec![1.0; n], vec![1.0; n]];
                            let [b0, b1, b2] = block.each_mut();
                            ops.helmholtz_on(
                                k,
                                h0,
                                &mass,
                                &[
                                    HelmholtzTerm::new(nu, &u, b0),
                                    HelmholtzTerm::new(2.0 * nu, &v, b1),
                                    HelmholtzTerm::new(nu, &u, b2),
                                ],
                            );
                            for (got, want) in block.iter().zip([&h, &alone, &h]) {
                                assert_bits_eq(got, want, &format!("helmholtz block, {what}"));
                            }
                        });
                    })
                });
            }
        }
    }

    /// Guards the dispatch's `unsafe` block: at every pool width the
    /// blocks tile the elements, so each output value is written by
    /// exactly one job — `threads` of them above [`POOLED_MIN_NODES`], the
    /// caller alone below it.
    #[test]
    fn zip_blocks_writes_every_element_exactly_once() {
        // 7 and 161 elements: no width but 1 divides either evenly.
        for (elems, pooled) in [([7, 1, 1], false), ([7, 23, 1], true)] {
            let mesh = single_rank_mesh(2, elems);
            let ops = Ops::new(&mesh);
            let (n, npe) = (mesh.layout().n_nodes(), mesh.layout().nodes_per_elem());
            assert_eq!(n >= POOLED_MIN_NODES, pooled);
            let u: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for threads in [1usize, 2, 3, 4] {
                let mut writes = vec![0.0; n];
                let blocks = std::sync::Mutex::new(Vec::new());
                rayon::pool::with_threads(threads, || {
                    ops.zip_blocks(&mut writes, &u, |e0, ob, ub| {
                        assert_eq!(ub[0], (e0 * npe) as f64, "u block is not out's");
                        assert_eq!(ob.len(), ub.len());
                        for o in ob.iter_mut() {
                            *o += 1.0;
                        }
                        blocks.lock().unwrap().push((e0, ob.len() / npe));
                    });
                });
                assert!(writes.iter().all(|&w| w == 1.0), "{threads} threads");
                let mut blocks = blocks.into_inner().unwrap();
                blocks.sort();
                assert_eq!(blocks.len(), if pooled { threads } else { 1 });
                let mut next = 0;
                for (e0, len) in blocks {
                    assert_eq!(e0, next, "{threads} threads: gap or overlap");
                    next += len;
                }
                assert_eq!(next, mesh.layout().n_elems);
            }
        }
    }

    /// The inline threshold moves work between threads, never bits: a
    /// field below it gives the same result through the pooled dispatch.
    #[test]
    fn zip_blocks_inline_and_pooled_paths_give_identical_bits() {
        let mesh = single_rank_mesh(3, [3, 2, 2]);
        let ops = Ops::new(&mesh);
        let (n, npe) = (mesh.layout().n_nodes(), mesh.layout().nodes_per_elem());
        assert!(n < POOLED_MIN_NODES);
        let u = noise(n, 5);
        let (d, dt) = (&ops.basis.deriv, &ops.dt);
        let body = |_: usize, ob: &mut [f64], ub: &[f64]| {
            for (oe, ue) in ob.chunks_exact_mut(npe).zip(ub.chunks_exact(npe)) {
                Fixed::<4>.contract::<false>(ue, d, dt, 1, 1.3, oe);
            }
        };
        let mut inline = vec![0.0; n];
        ops.zip_blocks(&mut inline, &u, body);
        for threads in [2usize, 3] {
            let mut pooled = vec![0.0; n];
            rayon::pool::with_threads(threads, || {
                ops.zip_fields_on(true, &[Zip::new(&u, &mut pooled)], |_, e0, ob, ub| {
                    body(e0, ob, ub)
                })
            });
            assert_bits_eq(&inline, &pooled, &format!("{threads} threads"));
        }
    }
}
