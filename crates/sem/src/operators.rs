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
use crate::workspace::{BlockArena, Workspace};
use commsim::Comm;
use rayon::pool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Raw-pointer wrapper so per-block disjoint output ranges can be handed
/// to pool workers.
struct SendPtr(*mut f64);
// SAFETY: each block derives a disjoint subslice; no two jobs alias.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}
impl SendPtr {
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// Block-dispatch accounting: how many pool dispatches an operator
/// context has issued and how many element-slots of slack (idle capacity
/// in the largest block beyond a perfectly even split) they carried.
/// Fed to the telemetry bus per solver phase by `FlowSolver::step`.
#[derive(Debug, Default)]
pub struct DispatchStats {
    dispatches: AtomicU64,
    slack_elems: AtomicU64,
}

impl Clone for DispatchStats {
    fn clone(&self) -> Self {
        Self {
            dispatches: AtomicU64::new(self.dispatches.load(Ordering::Relaxed)),
            slack_elems: AtomicU64::new(self.slack_elems.load(Ordering::Relaxed)),
        }
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
    /// Transposed derivative matrix `Dᵀ[m][i] = D[i][m]` — the layout the
    /// axis-0 SIMD kernels consume so their reads stay unit-stride.
    dt: Vec<f64>,
    stats: DispatchStats,
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
            stats: DispatchStats::default(),
        }
    }

    fn np(&self) -> usize {
        self.basis.np()
    }

    /// Record one block dispatch over `ne` elements: slack is how many
    /// element-slots the largest block holds beyond `ne / n_blocks`
    /// rounded down, summed over blocks — 0 when the split is perfectly
    /// even, up to `n_blocks - 1` otherwise.
    fn note_dispatch(&self, ne: usize) {
        let nb = pool::n_blocks(ne);
        let rem = ne % nb.max(1);
        let slack = if rem > 0 { (nb - rem) as u64 } else { 0 };
        self.stats.dispatches.fetch_add(1, Ordering::Relaxed);
        self.stats.slack_elems.fetch_add(slack, Ordering::Relaxed);
    }

    /// Drain the dispatch counters: `(dispatches, slack_elems)` since the
    /// last call. The solver reads this after each phase to feed the
    /// per-phase block-imbalance telemetry.
    pub fn take_dispatch_stats(&self) -> (u64, u64) {
        (
            self.stats.dispatches.swap(0, Ordering::Relaxed),
            self.stats.slack_elems.swap(0, Ordering::Relaxed),
        )
    }

    /// Run `f(out_block, u_block)` over per-thread contiguous element
    /// blocks — the one dispatch every element-local operator goes
    /// through. Elements are partitioned once per call (contiguous
    /// ranges, sizes differing by at most one), so each worker sweeps a
    /// cache-friendly run of whole elements instead of interleaving
    /// per-element chunks with other threads.
    fn zip_blocks(&self, out: &mut [f64], u: &[f64], f: impl Fn(&mut [f64], &[f64]) + Sync) {
        let npe = self.layout.nodes_per_elem();
        let ne = self.layout.n_elems;
        debug_assert_eq!(out.len(), ne * npe);
        debug_assert_eq!(u.len(), ne * npe);
        let base = SendPtr(out.as_mut_ptr());
        pool::run_partitioned(ne, |_b, e0, e1| {
            // SAFETY: blocks are disjoint element ranges of `out`.
            let ob =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(e0 * npe), (e1 - e0) * npe) };
            f(ob, &u[e0 * npe..e1 * npe]);
        });
        self.note_dispatch(ne);
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
        let np = self.np();
        let npe = self.layout.nodes_per_elem();
        let (d, dt) = (&self.basis.deriv, &self.dt);
        let s = self.scale[axis];
        self.zip_blocks(out, u, |ob, ub| {
            for (oe, ue) in ob.chunks_exact_mut(npe).zip(ub.chunks_exact(npe)) {
                deriv_elem(ue, d, dt, np, axis, s, oe);
            }
        });
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
        self.zip_blocks(out, u, |ob, ub| {
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
    /// of six full-field passes. `scratch` is only used element-wise
    /// (each block touches its own elements' region), so the signature
    /// and results are unchanged from the unfused version.
    pub fn stiffness_apply(
        &self,
        comm: &mut Comm,
        u: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        // 6 derivative sweeps + pointwise weights.
        self.charge_derivs(comm, 6.0);
        self.charge_pointwise(comm, 3.0, 3.0);
        let npe = self.layout.nodes_per_elem();
        let ne = self.layout.n_elems;
        if ne == 0 {
            return;
        }
        let (d, dt) = (&self.basis.deriv, &self.dt);
        let (np, scale, jac, w3) = (self.np(), self.scale, self.jac, &self.w3);
        let out_p = SendPtr(out.as_mut_ptr());
        let scr_p = SendPtr(scratch.as_mut_ptr());
        pool::run_partitioned(ne, |_b, e0, e1| {
            for e in e0..e1 {
                // SAFETY: per-block element ranges are disjoint in both
                // `out` and `scratch`.
                let oe = unsafe { std::slice::from_raw_parts_mut(out_p.get().add(e * npe), npe) };
                let se = unsafe { std::slice::from_raw_parts_mut(scr_p.get().add(e * npe), npe) };
                let ue = &u[e * npe..(e + 1) * npe];
                stiffness_elem(ue, d, dt, np, scale, jac, w3, se, oe);
            }
        });
        self.note_dispatch(ne);
    }

    /// [`Self::stiffness_apply`] with per-worker scratch pencils from a
    /// [`BlockArena`] instead of a field-sized scratch buffer: each block
    /// reuses one element-sized pencil for all its elements, so the
    /// working set per element stays at three pencils regardless of mesh
    /// size. Bitwise identical to `stiffness_apply`.
    pub fn stiffness_apply_blocked(
        &self,
        comm: &mut Comm,
        u: &[f64],
        out: &mut [f64],
        arena: &mut BlockArena,
    ) {
        self.charge_derivs(comm, 6.0);
        self.charge_pointwise(comm, 3.0, 3.0);
        self.stiffness_arena_blocks(u, out, arena, None);
    }

    /// Fused Helmholtz application `out = coeff·A u + h0·(M ∘ u)` — the
    /// viscous/temperature CG operator — with the diagonal-mass term
    /// folded into the same per-element sweep so `u` is read once.
    /// Charges match the unfused `stiffness_apply` (the pointwise post
    /// pass was never charged separately).
    #[allow(clippy::too_many_arguments)]
    pub fn helmholtz_apply_blocked(
        &self,
        comm: &mut Comm,
        coeff: f64,
        h0: f64,
        mass_diag: &[f64],
        u: &[f64],
        out: &mut [f64],
        arena: &mut BlockArena,
    ) {
        self.charge_derivs(comm, 6.0);
        self.charge_pointwise(comm, 3.0, 3.0);
        self.stiffness_arena_blocks(u, out, arena, Some((coeff, h0, mass_diag)));
    }

    fn stiffness_arena_blocks(
        &self,
        u: &[f64],
        out: &mut [f64],
        arena: &mut BlockArena,
        post: Option<(f64, f64, &[f64])>,
    ) {
        let npe = self.layout.nodes_per_elem();
        let ne = self.layout.n_elems;
        if ne == 0 {
            return;
        }
        arena.ensure(pool::n_blocks(ne), npe);
        let slots = arena.slots();
        let (d, dt) = (&self.basis.deriv, &self.dt);
        let (np, scale, jac, w3) = (self.np(), self.scale, self.jac, &self.w3);
        let out_p = SendPtr(out.as_mut_ptr());
        pool::run_partitioned(ne, |b, e0, e1| {
            // SAFETY: one slot per block index; run_partitioned gives each
            // job a unique `b`.
            let se = unsafe { slots.slot(b) };
            for e in e0..e1 {
                // SAFETY: per-block element ranges of `out` are disjoint.
                let oe = unsafe { std::slice::from_raw_parts_mut(out_p.get().add(e * npe), npe) };
                let ue = &u[e * npe..(e + 1) * npe];
                stiffness_elem(ue, d, dt, np, scale, jac, w3, se, oe);
                if let Some((coeff, h0, mass)) = post {
                    let me = &mass[e * npe..(e + 1) * npe];
                    for i in 0..npe {
                        oe[i] = coeff * oe[i] + h0 * me[i] * ue[i];
                    }
                }
            }
        });
        self.note_dispatch(ne);
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
        let np = self.np();
        let k1 = &self.k1;
        let w = &self.basis.weights;
        for e in 0..self.layout.n_elems {
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        let v = self.jac
                            * (self.scale[0] * self.scale[0] * k1[i] * w[j] * w[k]
                                + self.scale[1] * self.scale[1] * w[i] * k1[j] * w[k]
                                + self.scale[2] * self.scale[2] * w[i] * w[j] * k1[k]);
                        out[self.layout.idx(e, i, j, k)] = v;
                    }
                }
            }
        }
    }

    /// Apply a 1-D operator matrix `m` (row-major (N+1)², with `mt` its
    /// transpose) along all three tensor directions of `u` in place — the
    /// application pattern of the modal filter, `u ← (F⊗F⊗F)u`. The
    /// transpose feeds the axis-0 SIMD kernel's unit-stride reads; build
    /// it once with [`transpose_op`].
    pub fn apply_tensor_op(
        &self,
        comm: &mut Comm,
        m: &[f64],
        mt: &[f64],
        u: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.charge_derivs(comm, 3.0);
        let np = self.np();
        assert_eq!(m.len(), np * np, "operator must be (N+1)²");
        assert_eq!(mt.len(), np * np, "transpose must be (N+1)²");
        // Reuse the derivative sweeps with scale 1 by swapping buffers.
        let npe = self.layout.nodes_per_elem();
        for axis in 0..3 {
            scratch.copy_from_slice(u);
            self.zip_blocks(u, &*scratch, |ob, ub| {
                for (oe, ue) in ob.chunks_exact_mut(npe).zip(ub.chunks_exact(npe)) {
                    deriv_elem(ue, m, mt, np, axis, 1.0, oe);
                }
            });
        }
    }

    /// Curl of a vector field (collocation): `out = ∇×u`.
    ///
    /// Uses six derivative sweeps; callers typically gather-scatter-average
    /// the result to restore continuity.
    #[allow(clippy::too_many_arguments)]
    pub fn curl(
        &self,
        comm: &mut Comm,
        ux: &[f64],
        uy: &[f64],
        uz: &[f64],
        wx: &mut [f64],
        wy: &mut [f64],
        wz: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.charge_derivs(comm, 6.0);
        self.charge_pointwise(comm, 3.0, 6.0);
        // ω_x = ∂y uz − ∂z uy
        self.deriv_nocost(uz, 1, wx);
        self.deriv_nocost(uy, 2, scratch);
        for (o, &s) in wx.iter_mut().zip(scratch.iter()) {
            *o -= s;
        }
        // ω_y = ∂z ux − ∂x uz
        self.deriv_nocost(ux, 2, wy);
        self.deriv_nocost(uz, 0, scratch);
        for (o, &s) in wy.iter_mut().zip(scratch.iter()) {
            *o -= s;
        }
        // ω_z = ∂x uy − ∂y ux
        self.deriv_nocost(uy, 0, wz);
        self.deriv_nocost(ux, 1, scratch);
        for (o, &s) in wz.iter_mut().zip(scratch.iter()) {
            *o -= s;
        }
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

/// `out = a + s·b` elementwise (allocation-free AXPY helper).
pub fn axpy(out: &mut [f64], a: &[f64], s: f64, b: &[f64]) {
    for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
        *o = av + s * bv;
    }
}

/// Transpose of a row-major (N+1)² operator matrix — the layout the
/// axis-0 SIMD kernels consume (see [`Ops::apply_tensor_op`]).
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

/// Fused per-element weak Laplacian: `oe = Σ_axis s² J Dᵀ(w ∘ D ue)`.
/// The element's derivative lives in `se` (one pencil, cache-resident)
/// across all three axes — identical accumulation order to three
/// full-field sweeps, so results are bitwise unchanged.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stiffness_elem(
    ue: &[f64],
    d: &[f64],
    dt: &[f64],
    np: usize,
    scale: [f64; 3],
    jac: f64,
    w3: &[f64],
    se: &mut [f64],
    oe: &mut [f64],
) {
    for v in oe.iter_mut() {
        *v = 0.0;
    }
    for (axis, &s) in scale.iter().enumerate() {
        deriv_elem(ue, d, dt, np, axis, s, se);
        // se ← s J w ∘ se (one factor of s comes from each D).
        for (v, &w) in se.iter_mut().zip(w3) {
            *v *= jac * w;
        }
        deriv_t_elem_accum(se, d, np, axis, s, oe);
    }
}

// ----------------------------------------------------------------------
// Element-local derivative kernels.
//
// Two tiers share one dispatch: generic bodies (runtime `np`, m-innermost
// — the original reference kernels) and const-generic SIMD bodies for
// the production orders (N = 2..7 ⇒ np = 3..8). The SIMD forms put the
// unit-stride `i` index innermost with the operator coefficient
// broadcast as a scalar and accumulate into a stack pencil `[f64; NP]`,
// so LLVM autovectorizes the inner loop with no gathers and no aliasing;
// axis 0 consumes the *transposed* matrix `dt` to keep its reads
// unit-stride too. Every variant accumulates each output's m-sum in the
// same ascending-m order into an explicitly zeroed accumulator, so
// results are bitwise identical regardless of dispatch path (verified by
// `simd_kernels_match_generic_bitwise_at_all_fixed_orders`).
// ----------------------------------------------------------------------

#[inline(always)]
fn deriv_elem_body(u: &[f64], d: &[f64], np: usize, axis: usize, s: f64, out: &mut [f64]) {
    match axis {
        0 => {
            for k in 0..np {
                for j in 0..np {
                    let row = (k * np + j) * np;
                    for i in 0..np {
                        let mut acc = 0.0;
                        for m in 0..np {
                            acc += d[i * np + m] * u[row + m];
                        }
                        out[row + i] = s * acc;
                    }
                }
            }
        }
        1 => {
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        let mut acc = 0.0;
                        for m in 0..np {
                            acc += d[j * np + m] * u[(k * np + m) * np + i];
                        }
                        out[(k * np + j) * np + i] = s * acc;
                    }
                }
            }
        }
        2 => {
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        let mut acc = 0.0;
                        for m in 0..np {
                            acc += d[k * np + m] * u[(m * np + j) * np + i];
                        }
                        out[(k * np + j) * np + i] = s * acc;
                    }
                }
            }
        }
        _ => unreachable!("axis must be 0..3"),
    }
}

#[inline(always)]
fn deriv_t_elem_body(u: &[f64], d: &[f64], np: usize, axis: usize, s: f64, out: &mut [f64]) {
    match axis {
        0 => {
            for k in 0..np {
                for j in 0..np {
                    let row = (k * np + j) * np;
                    for i in 0..np {
                        let mut acc = 0.0;
                        for m in 0..np {
                            acc += d[m * np + i] * u[row + m];
                        }
                        out[row + i] += s * acc;
                    }
                }
            }
        }
        1 => {
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        let mut acc = 0.0;
                        for m in 0..np {
                            acc += d[m * np + j] * u[(k * np + m) * np + i];
                        }
                        out[(k * np + j) * np + i] += s * acc;
                    }
                }
            }
        }
        2 => {
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        let mut acc = 0.0;
                        for m in 0..np {
                            acc += d[m * np + k] * u[(m * np + j) * np + i];
                        }
                        out[(k * np + j) * np + i] += s * acc;
                    }
                }
            }
        }
        _ => unreachable!("axis must be 0..3"),
    }
}

fn deriv_elem_simd<const NP: usize>(
    u: &[f64],
    d: &[f64],
    dt: &[f64],
    axis: usize,
    s: f64,
    out: &mut [f64],
) {
    match axis {
        0 => {
            for p in 0..NP * NP {
                let row = p * NP;
                let mut acc = [0.0; NP];
                for m in 0..NP {
                    let um = u[row + m];
                    let dr = &dt[m * NP..m * NP + NP];
                    for i in 0..NP {
                        acc[i] += dr[i] * um;
                    }
                }
                for i in 0..NP {
                    out[row + i] = s * acc[i];
                }
            }
        }
        1 => {
            for k in 0..NP {
                for j in 0..NP {
                    let mut acc = [0.0; NP];
                    for m in 0..NP {
                        let c = d[j * NP + m];
                        let base = (k * NP + m) * NP;
                        let ur = &u[base..base + NP];
                        for i in 0..NP {
                            acc[i] += c * ur[i];
                        }
                    }
                    let row = (k * NP + j) * NP;
                    for i in 0..NP {
                        out[row + i] = s * acc[i];
                    }
                }
            }
        }
        2 => {
            for k in 0..NP {
                for j in 0..NP {
                    let mut acc = [0.0; NP];
                    for m in 0..NP {
                        let c = d[k * NP + m];
                        let base = (m * NP + j) * NP;
                        let ur = &u[base..base + NP];
                        for i in 0..NP {
                            acc[i] += c * ur[i];
                        }
                    }
                    let row = (k * NP + j) * NP;
                    for i in 0..NP {
                        out[row + i] = s * acc[i];
                    }
                }
            }
        }
        _ => unreachable!("axis must be 0..3"),
    }
}

fn deriv_t_elem_simd<const NP: usize>(u: &[f64], d: &[f64], axis: usize, s: f64, out: &mut [f64]) {
    match axis {
        0 => {
            // Dᵀ along x already reads `d` column-major in the generic
            // body — which is row-major in `d` itself here, so no
            // transposed copy is needed.
            for p in 0..NP * NP {
                let row = p * NP;
                let mut acc = [0.0; NP];
                for m in 0..NP {
                    let um = u[row + m];
                    let dr = &d[m * NP..m * NP + NP];
                    for i in 0..NP {
                        acc[i] += dr[i] * um;
                    }
                }
                for i in 0..NP {
                    out[row + i] += s * acc[i];
                }
            }
        }
        1 => {
            for k in 0..NP {
                for j in 0..NP {
                    let mut acc = [0.0; NP];
                    for m in 0..NP {
                        let c = d[m * NP + j];
                        let base = (k * NP + m) * NP;
                        let ur = &u[base..base + NP];
                        for i in 0..NP {
                            acc[i] += c * ur[i];
                        }
                    }
                    let row = (k * NP + j) * NP;
                    for i in 0..NP {
                        out[row + i] += s * acc[i];
                    }
                }
            }
        }
        2 => {
            for k in 0..NP {
                for j in 0..NP {
                    let mut acc = [0.0; NP];
                    for m in 0..NP {
                        let c = d[m * NP + k];
                        let base = (m * NP + j) * NP;
                        let ur = &u[base..base + NP];
                        for i in 0..NP {
                            acc[i] += c * ur[i];
                        }
                    }
                    let row = (k * NP + j) * NP;
                    for i in 0..NP {
                        out[row + i] += s * acc[i];
                    }
                }
            }
        }
        _ => unreachable!("axis must be 0..3"),
    }
}

fn deriv_elem(u: &[f64], d: &[f64], dt: &[f64], np: usize, axis: usize, s: f64, out: &mut [f64]) {
    // Monomorphized SIMD paths for the production polynomial orders
    // (N = 2..7 ⇒ np = 3..8); anything else takes the generic body.
    match np {
        3 => deriv_elem_simd::<3>(u, d, dt, axis, s, out),
        4 => deriv_elem_simd::<4>(u, d, dt, axis, s, out),
        5 => deriv_elem_simd::<5>(u, d, dt, axis, s, out),
        6 => deriv_elem_simd::<6>(u, d, dt, axis, s, out),
        7 => deriv_elem_simd::<7>(u, d, dt, axis, s, out),
        8 => deriv_elem_simd::<8>(u, d, dt, axis, s, out),
        _ => deriv_elem_body(u, d, np, axis, s, out),
    }
}

fn deriv_t_elem_accum(u: &[f64], d: &[f64], np: usize, axis: usize, s: f64, out: &mut [f64]) {
    match np {
        3 => deriv_t_elem_simd::<3>(u, d, axis, s, out),
        4 => deriv_t_elem_simd::<4>(u, d, axis, s, out),
        5 => deriv_t_elem_simd::<5>(u, d, axis, s, out),
        6 => deriv_t_elem_simd::<6>(u, d, axis, s, out),
        7 => deriv_t_elem_simd::<7>(u, d, axis, s, out),
        8 => deriv_t_elem_simd::<8>(u, d, axis, s, out),
        _ => deriv_t_elem_body(u, d, np, axis, s, out),
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
        let err = on_one_rank(|comm| {
            let mesh = single_rank_mesh(4, [2, 2, 2]);
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
        assert!(err < 1e-10, "{err}");
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
    fn curl_of_rigid_rotation_is_twice_omega() {
        // u = ω × x with ω = (0,0,1): u = (-y, x, 0); ∇×u = (0,0,2).
        let err = on_one_rank(|comm| {
            let mesh = single_rank_mesh(4, [2, 2, 2]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let ux = mesh.eval_nodal(|x| -x[1]);
            let uy = mesh.eval_nodal(|x| x[0]);
            let uz = vec![0.0; n];
            let (mut wx, mut wy, mut wz) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut scratch = vec![0.0; n];
            ops.curl(comm, &ux, &uy, &uz, &mut wx, &mut wy, &mut wz, &mut scratch);
            let mut e: f64 = 0.0;
            for i in 0..n {
                e = e.max(wx[i].abs()).max(wy[i].abs()).max((wz[i] - 2.0).abs());
            }
            e
        });
        assert!(err < 1e-10, "{err}");
    }

    #[test]
    fn curl_of_gradient_field_vanishes() {
        // u = ∇φ with φ = x² + 3yz ⇒ ∇×u = 0 (φ quadratic: exact at N≥2).
        let err = on_one_rank(|comm| {
            let mesh = single_rank_mesh(3, [2, 2, 2]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            let ux = mesh.eval_nodal(|x| 2.0 * x[0]);
            let uy = mesh.eval_nodal(|x| 3.0 * x[2]);
            let uz = mesh.eval_nodal(|x| 3.0 * x[1]);
            let (mut wx, mut wy, mut wz) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut scratch = vec![0.0; n];
            ops.curl(comm, &ux, &uy, &uz, &mut wx, &mut wy, &mut wz, &mut scratch);
            wx.iter()
                .chain(&wy)
                .chain(&wz)
                .map(|v| v.abs())
                .fold(0.0, f64::max)
        });
        assert!(err < 1e-10, "{err}");
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
    fn axpy_helpers() {
        let mut out = vec![0.0; 3];
        axpy(&mut out, &[1.0, 2.0, 3.0], 2.0, &[10.0, 20.0, 30.0]);
        assert_eq!(out, vec![21.0, 42.0, 63.0]);
        add_assign(&mut out, &[1.0, 1.0, 1.0]);
        assert_eq!(out, vec![22.0, 43.0, 64.0]);
    }

    fn test_elem(np: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let npe = np * np * np;
        let u: Vec<f64> = (0..npe).map(|i| ((i * 37 + np) as f64 * 0.7).sin()).collect();
        let d: Vec<f64> = (0..np * np).map(|i| ((i * 13 + 1) as f64 * 0.3).cos()).collect();
        let dt = transpose_op(&d, np);
        (u, d, dt)
    }

    #[test]
    fn simd_kernels_match_generic_bitwise_at_all_fixed_orders() {
        for np in 3..=8usize {
            let (u, d, dt) = test_elem(np);
            let npe = np * np * np;
            for axis in 0..3 {
                let mut fast = vec![0.0; npe];
                let mut generic = vec![0.0; npe];
                deriv_elem(&u, &d, &dt, np, axis, 1.7, &mut fast);
                deriv_elem_body(&u, &d, np, axis, 1.7, &mut generic);
                for i in 0..npe {
                    assert_eq!(
                        fast[i].to_bits(),
                        generic[i].to_bits(),
                        "deriv np={np} axis={axis} node {i}: {} vs {}",
                        fast[i],
                        generic[i],
                    );
                }
                let mut fast_t = vec![0.5; npe];
                let mut generic_t = vec![0.5; npe];
                deriv_t_elem_accum(&u, &d, np, axis, 0.9, &mut fast_t);
                deriv_t_elem_body(&u, &d, np, axis, 0.9, &mut generic_t);
                for i in 0..npe {
                    assert_eq!(
                        fast_t[i].to_bits(),
                        generic_t[i].to_bits(),
                        "deriv_t np={np} axis={axis} node {i}",
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_stiffness_and_helmholtz_match_reference_bitwise() {
        let widths = [1usize, 3, 4];
        for threads in widths {
            let ok = on_one_rank(move |comm| {
                rayon::pool::with_threads(threads, || {
                    let mesh = single_rank_mesh(3, [2, 2, 2]);
                    let ops = Ops::new(&mesh);
                    let n = mesh.layout().n_nodes();
                    let u = mesh.eval_nodal(|x| (3.0 * x[0] + x[1] * x[2]).sin());
                    let mut scratch = vec![0.0; n];
                    let mut a = vec![0.0; n];
                    ops.stiffness_apply(comm, &u, &mut a, &mut scratch);
                    let mut arena = BlockArena::new();
                    let mut b = vec![1.0; n];
                    ops.stiffness_apply_blocked(comm, &u, &mut b, &mut arena);
                    for i in 0..n {
                        assert_eq!(a[i].to_bits(), b[i].to_bits(), "stiffness node {i}");
                    }
                    // Helmholtz = coeff·A + h0·M∘ fused must equal the
                    // two-pass composition exactly.
                    let (nu, h0) = (0.04, 150.0);
                    let mass = ops.mass_diag();
                    let mut r = a.clone();
                    for i in 0..n {
                        r[i] = nu * r[i] + h0 * mass[i] * u[i];
                    }
                    let mut hout = vec![0.0; n];
                    ops.helmholtz_apply_blocked(comm, nu, h0, &mass, &u, &mut hout, &mut arena);
                    for i in 0..n {
                        assert_eq!(r[i].to_bits(), hout[i].to_bits(), "helmholtz node {i}");
                    }
                    true
                })
            });
            assert!(ok, "width {threads}");
        }
    }

    #[test]
    fn dispatch_stats_drain_and_reset() {
        on_one_rank(|comm| {
            let mesh = single_rank_mesh(3, [3, 1, 1]);
            let ops = Ops::new(&mesh);
            let n = mesh.layout().n_nodes();
            ops.take_dispatch_stats();
            let u = vec![1.0; n];
            let mut out = vec![0.0; n];
            let mut arena = BlockArena::new();
            rayon::pool::with_threads(2, || {
                ops.stiffness_apply_blocked(comm, &u, &mut out, &mut arena);
            });
            let (dispatches, slack) = ops.take_dispatch_stats();
            assert_eq!(dispatches, 1, "one fused dispatch per apply");
            // 3 elements over 2 blocks: split 2+1 ⇒ one idle slot.
            assert_eq!(slack, 1);
            assert_eq!(ops.take_dispatch_stats(), (0, 0), "drain must reset");
        });
    }
}
