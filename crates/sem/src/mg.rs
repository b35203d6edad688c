//! p-multigrid preconditioner for the pressure Poisson solve.
//!
//! One V-cycle over polynomial orders N → 3 → 1 (N → 1 when N ≤ 3) on the
//! same elements, NekRS's default pressure preconditioner. Every level above
//! the last is the ordinary machinery at a lower order — [`LocalMesh`] →
//! [`GatherScatter`] → [`Ops`] — smoothed once before and once after the
//! coarse correction by damped additive Schwarz over closed elements
//! ([`Schwarz`]): each element's block of the assembled operator is
//! separable on these congruent boxes and is inverted exactly by fast
//! diagonalisation ([`Ops::fdm_apply`]), the sum of the element solves
//! weighted on both sides by `√W`, `W` one over the number of elements that
//! hold a node, so that the cycle stays symmetric, and damped by [`OMEGA`].
//! The order-1 level is not smoothed but solved: its global vertex matrix
//! is factored once per world ([`CoarseFactor`], banded Cholesky, one copy
//! shared by every rank) and each cycle makes one collective in which the
//! ranks' unassembled restricted residuals are summed in rank order and
//! the two substitutions run once, for everybody ([`CoarseSolve`]) —
//! NekRS's XXT / AMG coarse solve at the scale of this reproduction.
//! Prolongation interpolates between the levels' GLL nodes element by
//! element and restriction is its transpose, so the cycle is a fixed,
//! symmetric, positive operator — what plain PCG needs — costing
//! gather–scatter halo rounds on the smoothed levels plus that one
//! collective, and bitwise the same at any pool width and under either
//! scheduler.
//!
//! Vectors follow [`crate::cg`]'s conventions: element-major with every
//! copy of a shared node holding the same value, residuals assembled and
//! masked, inner products weighted by 1/multiplicity.

use crate::basis::Basis1d;
use crate::gs::GatherScatter;
use crate::mesh::{LocalMesh, MeshSpec};
use crate::operators::{transpose_op, AxisEigen, Ops};
use commsim::Comm;
use memtrack::Charge;
use std::sync::Arc;

/// Damping of the Schwarz smoother: Chebyshev degree 1 on `[λ/10, 1.1λ]`
/// with `λ = 2`, i.e. `2/(0.2 + 2.2)`. The weighted `λ_max(M⁻¹A)` reads
/// 1.33–2.00 at orders 3–7 and at most 2.12 at order 2 (the meshes of
/// `schwarz_keeps_omega_lambda_max_below_two`), so `ω·λ_max < 2`.
pub const OMEGA: f64 = 5.0 / 6.0;

/// One level's assembled, masked operator `x ↦ mask·GS(A_local x)`:
/// borrowed from the solver on the fine level, from a [`Level`] below it.
#[derive(Clone, Copy)]
pub struct Operator<'a> {
    /// Assembly topology.
    pub gs: &'a GatherScatter,
    /// Element operators.
    pub ops: &'a Ops,
    /// 1 on free nodes, 0 on Dirichlet nodes.
    pub mask: &'a [f64],
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
}

/// What lies beyond one end of an element along one axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum End {
    /// A fluid element, across a face or a periodic wrap.
    Neighbour,
    /// The element itself, the only one round a periodic axis: its two end
    /// nodes are one node.
    Itself,
    /// A wholly masked face: the block drops its nodes.
    Dirichlet,
    /// The domain boundary or a solid element: nothing is added.
    Neumann,
}

/// The 1-D reference stiffness matrix `K̂ = D̂ᵀŴD̂`, row-major (N+1)².
fn reference_stiffness(basis: &Basis1d) -> Vec<f64> {
    let (np, w, d) = (basis.np(), &basis.weights, &basis.deriv);
    let mut k = vec![0.0; np * np];
    for i in 0..np {
        for j in 0..np {
            k[i * np + j] = (0..np).map(|m| w[m] * d[m * np + i] * d[m * np + j]).sum();
        }
    }
    k
}

/// `C = Q·diag(λ)·Qᵀ` for a symmetric row-major `n × n` matrix `c`, by
/// cyclic Jacobi rotations: `(λ, Q)`, eigenvectors in the columns of `Q`.
/// The sweeps end when no off-diagonal entry is above rounding, `ε‖C‖`.
fn symmetric_eigen(mut c: Vec<f64>, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut q = vec![0.0; n * n];
    for i in 0..n {
        q[i * n + i] = 1.0;
    }
    let tol = f64::EPSILON * c.iter().map(|v| v * v).sum::<f64>().sqrt();
    for _ in 0..50 {
        let mut rotated = false;
        for p in 0..n {
            for r in p + 1..n {
                let cpr = c[p * n + r];
                if cpr.abs() <= tol {
                    continue;
                }
                rotated = true;
                // The rotation in the (p, r) plane that zeroes c[p][r].
                let theta = (c[r * n + r] - c[p * n + p]) / (2.0 * cpr);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let cos = 1.0 / (t * t + 1.0).sqrt();
                let sin = t * cos;
                let rotate = |m: &mut [f64], a: usize, b: usize| {
                    let (ma, mb) = (m[a], m[b]);
                    m[a] = cos * ma - sin * mb;
                    m[b] = sin * ma + cos * mb;
                };
                for k in 0..n {
                    rotate(&mut c, k * n + p, k * n + r);
                    rotate(&mut q, k * n + p, k * n + r);
                }
                for k in 0..n {
                    rotate(&mut c, p * n + k, r * n + k);
                }
                // Zero in exact arithmetic; drop what rounding left.
                (c[p * n + r], c[r * n + p]) = (0.0, 0.0);
            }
        }
        if !rotated {
            break;
        }
    }
    ((0..n).map(|i| c[i * n + i]).collect(), q)
}

/// One axis of an element block of the assembled operator, in its
/// generalised eigenbasis. The 1-D stiffness is `(2/h)K̂` and the 1-D mass
/// `(h/2)Ŵ`; a neighbour end adds the neighbour's corner entries
/// `(2/h)K̂₀₀` and `(h/2)w₀` to that end's diagonal, a Dirichlet end drops
/// its node, and an element that is its own neighbour folds its last node
/// into its first and drops it. `Ã s = λ B̃ s` is solved as the symmetric
/// `B̃^{-½}ÃB̃^{-½}`, and `S = B̃^{-½}Q`.
fn axis_eigen(khat: &[f64], w: &[f64], h: f64, ends: [End; 2]) -> AxisEigen {
    let np = w.len();
    let (ks, ms) = (2.0 / h, h / 2.0);
    let mut a: Vec<f64> = khat.iter().map(|k| ks * k).collect();
    let mut b: Vec<f64> = w.iter().map(|w| ms * w).collect();
    let (first, last) = (0, np - 1);
    for (end, node) in ends.into_iter().zip([first, last]) {
        if end == End::Neighbour {
            a[node * np + node] += ks * khat[0];
            b[node] += ms * w[0];
        }
    }
    if ends == [End::Itself; 2] {
        // Node N is node 0: its row and column add to node 0's.
        for j in 0..np {
            a[first * np + j] += a[last * np + j];
        }
        for i in 0..np {
            a[i * np + first] += a[i * np + last];
        }
        b[first] += b[last];
    }
    let dropped = |i: usize| match ends {
        [End::Itself, _] => i == last,
        [lo, hi] => (lo, i) == (End::Dirichlet, first) || (hi, i) == (End::Dirichlet, last),
    };
    let kept: Vec<usize> = (0..np).filter(|&i| !dropped(i)).collect();
    let m = kept.len();
    let c = (0..m * m)
        .map(|ij| {
            let (i, j) = (kept[ij / m], kept[ij % m]);
            a[i * np + j] / (b[i] * b[j]).sqrt()
        })
        .collect();
    let (lambda_kept, q) = symmetric_eigen(c, m);
    let (mut s, mut lambda) = (vec![0.0; np * np], vec![0.0; np]);
    for (col, &l) in lambda_kept.iter().enumerate() {
        lambda[col] = l;
        for (row, &i) in kept.iter().enumerate() {
            s[i * np + col] = q[row * m + col] / b[i].sqrt();
        }
    }
    if ends == [End::Neumann; 2] || ends == [End::Itself; 2] {
        // Singular by the constants: make its rounding-sized eigenvalue
        // the exact zero `fdm_apply` recognises.
        let zero = (0..m).min_by(|&i, &j| lambda[i].total_cmp(&lambda[j]));
        lambda[zero.expect("a Neumann or periodic axis keeps nodes")] = 0.0;
    }
    AxisEigen {
        st: transpose_op(&s, np),
        s,
        lambda,
    }
}

/// Damped additive Schwarz over closed elements on one smoothed level:
/// `x ← x + ω·mask·W^½·GS(Σ_e Ã_e⁻¹ (mask·W^½ r)_e)`, `W` being one over
/// the number of elements that hold a node and `Ã_e` element `e`'s block
/// `R_e A R_eᵀ` of the assembled operator. Weighting both sides keeps the
/// smoother, and so the V-cycle, symmetric. The blocks are read off the
/// mesh without communication: what lies beyond each end of an element is
/// the level's mask (a wholly masked face) or the global [`MeshSpec`] (a
/// fluid neighbour, the element itself round a periodic axis one element
/// wide, or a domain or solid face). Such an element holds its end nodes
/// twice along that axis: its block is over the distinct nodes, read from
/// and written to the first copy, so the gather–scatter adds it once, and
/// `W` is twice 1/multiplicity there. A block is exact wherever an
/// element's edge and corner neighbours are fluid exactly when its face
/// neighbours are — everywhere but beside some solids, where it is a
/// symmetric positive stand-in.
struct Schwarz {
    /// `mask·W^½` per node.
    weight: Vec<f64>,
    /// The level's distinct axis blocks, one per element size and pair of
    /// end kinds: at most 3 × 9.
    axes: Vec<AxisEigen>,
    /// Each element's x, y and z entry in `axes`.
    elem_axes: Vec<[u8; 3]>,
}

impl Schwarz {
    /// The smoother of the level `mesh`, `ops`, `mult_inv` and `mask`
    /// describe.
    fn new(mesh: &LocalMesh, ops: &Ops, mult_inv: &[f64], mask: &[f64]) -> Self {
        let (np, npe) = (ops.basis.np(), ops.layout.nodes_per_elem());
        let khat = reference_stiffness(&ops.basis);
        let stride = [1, np, np * np];
        let wraps: [bool; 3] =
            std::array::from_fn(|axis| mesh.spec.periodic[axis] && mesh.spec.elems[axis] == 1);
        let end = |le: usize, axis: usize, hi: bool| {
            let face = le * npe + if hi { (np - 1) * stride[axis] } else { 0 };
            let (s1, s2) = (stride[(axis + 1) % 3], stride[(axis + 2) % 3]);
            let mut nodes = (0..np * np).map(|f| face + f % np * s1 + f / np * s2);
            if nodes.all(|n| mask[n] == 0.0) {
                return End::Dirichlet;
            }
            if wraps[axis] {
                return End::Itself;
            }
            let mut offset = [0; 3];
            offset[axis] = if hi { 1 } else { -1 };
            match mesh.neighbor_elem(mesh.elems[le], offset) {
                Some(e) if !mesh.spec.is_solid(e) => End::Neighbour,
                _ => End::Neumann,
            }
        };
        let mut keys: Vec<(u64, [End; 2])> = Vec::new();
        let mut axes = Vec::new();
        let elem_axes = (0..mesh.elems.len())
            .map(|le| {
                std::array::from_fn(|axis| {
                    let (h, ends) = (ops.h[axis], [end(le, axis, false), end(le, axis, true)]);
                    let key = (h.to_bits(), ends);
                    let at = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                        keys.push(key);
                        axes.push(axis_eigen(&khat, &ops.basis.weights, h, ends));
                        axes.len() - 1
                    });
                    u8::try_from(at).expect("at most 27 axis blocks")
                })
            })
            .collect();
        let weight = (0..mask.len())
            .map(|idx| {
                // At either end of a wrapping axis a node has two copies
                // in one element: its multiplicity counts both.
                let (_, i, j, k) = ops.layout.coords(idx);
                let ends = ([i, j, k].into_iter().zip(wraps))
                    .filter(|&(c, w)| w && (c == 0 || c == np - 1))
                    .count();
                mask[idx] * (2f64.powi(ends as i32) * mult_inv[idx]).sqrt()
            })
            .collect();
        Self {
            weight,
            axes,
            elem_axes,
        }
    }

    /// Device memory: the weights, the axis tables and the element index.
    fn device_bytes(&self) -> u64 {
        let tables: usize = (self.axes.iter())
            .map(|a| a.s.len() + a.st.len() + a.lambda.len())
            .sum();
        (8 * (self.weight.len() + tables) + 3 * self.elem_axes.len()) as u64
    }

    /// `x += ω·mask·W^½·GS(Σ_e Ã_e⁻¹ (mask·W^½ r)_e)` on the level `op`
    /// describes, through `d` and `q`. The weights carry the mask, so no
    /// update touches a Dirichlet node.
    fn smooth(
        &self,
        comm: &mut Comm,
        op: Operator<'_>,
        x: &mut [f64],
        r: &[f64],
        d: &mut [f64],
        q: &mut [f64],
    ) {
        let n = x.len();
        // Two pointwise passes over seven vectors.
        comm.compute_gpu((4 * n) as f64, (7 * 8 * n) as f64);
        for ((dv, &rv), &w) in d.iter_mut().zip(r).zip(&self.weight) {
            *dv = w * rv;
        }
        op.ops.fdm_apply(comm, &self.axes, &self.elem_axes, d, q);
        op.gs.sum(comm, q);
        for ((xv, &qv), &w) in x.iter_mut().zip(&*q).zip(&self.weight) {
            *xv += OMEGA * w * qv;
        }
    }
}

/// A coarse level: its operator, its transfer to the next finer level and
/// its vectors — all allocated here, none per cycle.
struct Level {
    gs: GatherScatter,
    ops: Ops,
    mask: Vec<f64>,
    /// 1-D interpolation from this level's GLL nodes to the finer level's,
    /// row-major `np_finer × np`, and its transpose.
    interp: Vec<f64>,
    interp_t: Vec<f64>,
    np_finer: usize,
    /// Right-hand side, correction, residual and the smoother's two work
    /// vectors.
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
/// Every output is summed in ascending column order from `+0.0`, whichever
/// loop computes it.
fn contract(m: &[f64], rows: usize, u: &[f64], n: [usize; 3], axis: usize, out: &mut [f64]) {
    let cols = n[axis];
    let stride: usize = n[..axis].iter().product();
    let outer: usize = n[axis + 1..].iter().product();
    if axis == 0 {
        // Unit stride: output `r` of x-line `o` is row `r` of `M` dotted
        // with x-line `o` of `u`.
        let lines = u[..outer * cols].chunks_exact(cols);
        for (u_line, out_line) in lines.zip(out[..outer * rows].chunks_exact_mut(rows)) {
            for (ov, m_row) in out_line.iter_mut().zip(m.chunks_exact(cols)) {
                *ov = (m_row.iter().zip(u_line)).fold(0.0, |acc, (&a, &b)| acc + a * b);
            }
        }
        return;
    }
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
    /// element.
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
        let (mut mult_inv, mut mask) = (vec![0.0; n], vec![0.0; n]);
        for idx in 0..n {
            let (e, i, j, k) = lc.coords(idx);
            let f = lf.idx(e, same_entity(i), same_entity(j), same_entity(k));
            mult_inv[idx] = finer_mult_inv[f];
            mask[idx] = finer_mask[f];
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
            ops,
            mask,
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
        self.restrict_unassembled(comm, w, r);
        self.gs.sum(comm, &mut self.b);
        for (b, &m) in self.b.iter_mut().zip(&self.mask) {
            *b *= m;
        }
    }

    /// `self.b = Pᵀ(w ∘ r)` element by element: [`Self::restrict`] before
    /// its assembly, which on the order-1 level is [`CoarseSolve`]'s.
    fn restrict_unassembled(&mut self, comm: &mut Comm, w: &[f64], r: &[f64]) {
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

/// The 8×8 stiffness matrix of one order-1 element, rows and columns in
/// element-local node order (x fastest): what [`Ops::stiffness_apply`]
/// applies, `J Σ_d s_d² K̂_d ⊗ Ŵ ⊗ Ŵ` with `K̂ = D̂ᵀŴD̂`, written out.
fn vertex_element_matrix(ops: &Ops) -> [[f64; 8]; 8] {
    let (w, khat) = (&ops.basis.weights, reference_stiffness(&ops.basis));
    let mut a = [[0.0; 8]; 8];
    for (row, a_row) in a.iter_mut().enumerate() {
        let p = [row & 1, (row >> 1) & 1, row >> 2];
        for (col, v) in a_row.iter_mut().enumerate() {
            let q = [col & 1, (col >> 1) & 1, col >> 2];
            for axis in 0..3 {
                let lumped: f64 = (0..3)
                    .filter(|&o| o != axis)
                    .map(|o| if p[o] == q[o] { w[p[o]] } else { 0.0 })
                    .product();
                *v += ops.jac
                    * ops.scale[axis]
                    * ops.scale[axis]
                    * khat[2 * p[axis] + q[axis]]
                    * lumped;
            }
        }
    }
    a
}

/// The order-1 level's exact solver, one per world: the banded Cholesky
/// factor `L·Lᵀ` of the assembled, masked vertex stiffness matrix in the
/// mesh's own lexicographic vertex numbering ([`MeshSpec::gid`] at order 1).
/// GLL quadrature lumps the element matrix to a 7-point stencil — vertices
/// couple along element edges only — so the half-bandwidth is one x–y plane
/// of vertices, `nx·ny` — 4 on a one-element column however tall, periodic
/// in x and y or not (only a periodic z wraps the last plane onto the
/// first). A vertex that carries no unknown — Dirichlet, touched by solid
/// elements only, or the one vertex pinned to fix the level of an
/// all-Neumann operator — is an identity row whose right-hand side is
/// zeroed, so the solve is a fixed symmetric operator, positive on what it
/// does not zero.
///
/// Every rank could build it from the global [`MeshSpec`] it holds; one
/// rank does, from what the ranks hand it of their slabs, and shares it,
/// because `P` copies of it, and `P` solves a cycle, are what a simulator
/// that runs its ranks on one host cannot afford at the paper's rank counts. A factor held whole
/// in one memory is a device of this reproduction's scale (a few thousand
/// vertices); XXT and AMG are the distributed forms.
struct CoarseFactor {
    band: usize,
    /// Row-major `n × (band + 1)`: row `i` is `L[i][i − band ..= i]`, its
    /// diagonal last.
    l: Vec<f64>,
    /// 1 on the vertices that carry an unknown, 0 on the identity rows.
    free: Vec<f64>,
    /// Nothing is Dirichlet anywhere: the operator has the constants for a
    /// null space, and one vertex is pinned.
    singular: bool,
    /// The global vertex of every local order-1 node, rank by rank.
    rank_nodes: Vec<Vec<u32>>,
    /// How many distinct vertices each rank holds.
    rank_vertices: Vec<usize>,
}

impl CoarseFactor {
    /// Assemble and factor the order-1 operator on `n` global vertices from
    /// its element matrix and what every rank knows of its own slab: the
    /// global vertex and the Dirichlet mask of each local node, eight to an
    /// element.
    fn build(n: usize, a_elem: [[f64; 8]; 8], ranks: Vec<(Vec<u32>, Vec<f64>)>) -> Self {
        let elements = || {
            ranks
                .iter()
                .flat_map(|(nodes, mask)| nodes.chunks_exact(8).zip(mask.chunks_exact(8)))
        };
        let (mut free, mut band) = (vec![0.0; n], 0);
        for (v, m) in elements() {
            for (row, &gi) in v.iter().enumerate() {
                free[gi as usize] = m[row];
                for (col, &gj) in v.iter().enumerate() {
                    if a_elem[row][col] != 0.0 {
                        band = band.max(gi.abs_diff(gj) as usize);
                    }
                }
            }
        }
        let singular = ranks.iter().all(|(_, mask)| mask.iter().all(|&m| m == 1.0));
        if singular {
            // All-Neumann: the operator is singular by the constants. One
            // pinned vertex picks a solution; CG's mean projection moves it
            // to the one it wants.
            if let Some(pin) = free.iter_mut().find(|f| **f == 1.0) {
                *pin = 0.0;
            }
        }

        let bw = band + 1;
        let mut l = vec![0.0; n * bw];
        for (v, _) in elements() {
            for (row, &gi) in v.iter().enumerate() {
                for (col, &gj) in v.iter().enumerate() {
                    let (gi, gj) = (gi as usize, gj as usize);
                    if gi >= gj && free[gi] * free[gj] == 1.0 {
                        l[gi * bw + band + gj - gi] += a_elem[row][col];
                    }
                }
            }
        }
        for (i, &f) in free.iter().enumerate() {
            if f == 0.0 {
                l[i * bw + band] = 1.0;
            }
        }

        // In-place banded Cholesky, row by row.
        for i in 0..n {
            let (done, rest) = l.split_at_mut(i * bw);
            let row_i = &mut rest[..bw];
            let first = i.saturating_sub(band);
            for j in first..i {
                let row_j = &done[j * bw..][..bw];
                let k0 = first.max(j.saturating_sub(band));
                let dot: f64 = row_i[band + k0 - i..band + j - i]
                    .iter()
                    .zip(&row_j[band + k0 - j..band])
                    .map(|(a, b)| a * b)
                    .sum();
                row_i[band + j - i] = (row_i[band + j - i] - dot) / row_j[band];
            }
            let pivot = row_i[band]
                - row_i[band + first - i..band]
                    .iter()
                    .map(|a| a * a)
                    .sum::<f64>();
            assert!(
                pivot > 0.0,
                "coarse pressure operator is not positive definite at vertex {i}: \
                 a fluid region touches no Dirichlet boundary and holds no pinned vertex"
            );
            row_i[band] = pivot.sqrt();
        }

        let rank_nodes: Vec<Vec<u32>> = ranks.into_iter().map(|r| r.0).collect();
        let rank_vertices = (rank_nodes.iter())
            .map(|nodes| {
                let mut distinct = nodes.clone();
                distinct.sort_unstable();
                distinct.dedup();
                distinct.len()
            })
            .collect();
        Self {
            band,
            l,
            free,
            singular,
            rank_nodes,
            rank_vertices,
        }
    }

    /// Vertices of the global numbering, unknowns and identity rows alike.
    fn n(&self) -> usize {
        self.free.len()
    }

    /// `rhs += ` rank `rank`'s unassembled nodal values `part`.
    fn add(&self, rank: usize, part: &[f64], rhs: &mut [f64]) {
        for (&g, &v) in self.rank_nodes[rank].iter().zip(part) {
            rhs[g as usize] += v;
        }
    }

    /// `rhs ← (L·Lᵀ)⁻¹ (free ∘ rhs)`, in place.
    fn solve(&self, rhs: &mut [f64]) {
        let (band, bw) = (self.band, self.band + 1);
        for (v, &f) in rhs.iter_mut().zip(&self.free) {
            *v *= f;
        }
        for i in 0..rhs.len() {
            let first = i.saturating_sub(band);
            let row = &self.l[i * bw..][..bw];
            let dot: f64 = row[band + first - i..band]
                .iter()
                .zip(&rhs[first..i])
                .map(|(a, y)| a * y)
                .sum();
            rhs[i] = (rhs[i] - dot) / row[band];
        }
        for i in (0..rhs.len()).rev() {
            let first = i.saturating_sub(band);
            let row = &self.l[i * bw..][..bw];
            let xi = rhs[i] / row[band];
            rhs[i] = xi;
            for (y, &a) in rhs[first..i].iter_mut().zip(&row[band + first - i..band]) {
                *y -= a * xi;
            }
        }
    }
}

/// One rank's handle on the world's [`CoarseFactor`]. The virtual machine
/// is charged what a distributed coarse solver costs a rank, not what the
/// shared factor costs this simulator: per cycle the rank's own vertices
/// leave the device and come back (the coarse solve is host work in NekRS),
/// cross the collective once each way, and a `1/P` share of the two banded
/// substitutions runs on the host, which also holds `1/P` of the factor.
/// The copies are charged as time only: [`commsim::CommStats`]' `bytes_d2h`
/// is the in situ staging traffic the paper measures, and stays that.
struct CoarseSolve {
    factor: Arc<CoarseFactor>,
    /// Where a one-rank world, which has nobody to meet, sums and solves:
    /// the cycle stays free of allocation there (`tests/zero_alloc_step.rs`).
    global: Vec<f64>,
    _host_charge: Charge,
}

impl CoarseSolve {
    /// One collective: the world's last arriver builds the factor of the
    /// order-1 mesh `mesh` is a slab of, `mask` being its Dirichlet mask.
    fn new(comm: &mut Comm, mesh: &LocalMesh, mask: &[f64]) -> Self {
        assert_eq!(
            mesh.spec.order, 1,
            "the coarse operator lives on the vertices"
        );
        let n: usize = (0..3).map(|axis| mesh.spec.n_nodes_axis(axis)).product();
        assert!(u32::try_from(n).is_ok(), "{n} coarse vertices overflow u32");
        let l = mesh.layout();
        let nodes: Vec<u32> = (0..l.n_nodes())
            .map(|idx| {
                let (e, i, j, k) = l.coords(idx);
                mesh.gid(e, i, j, k) as u32
            })
            .collect();
        let a_elem = vertex_element_matrix(&Ops::new(mesh));
        let factor = comm.reduce_with((nodes, mask.to_vec()), 8, move |ranks| {
            CoarseFactor::build(n, a_elem, ranks)
        });
        let (band, p) = (factor.band as f64, comm.size() as f64);
        let bytes = 8.0 * n as f64 * (band + 1.0) / p;
        comm.compute_host(n as f64 * band * band / p, bytes);
        Self {
            global: vec![0.0; if comm.size() == 1 { n } else { 0 }],
            _host_charge: comm.accountant("mg-coarse").charge(bytes as u64),
            factor,
        }
    }

    /// `x = A₁⁻¹·assemble(b)`: `b` holds this rank's unassembled nodal
    /// right-hand side on the order-1 level and `x` receives the solution
    /// on the same nodes, zero where the operator is constrained. The
    /// collective is the assembly: contributions are summed in rank order
    /// by whichever rank arrives last, which substitutes once for all.
    fn apply(&mut self, comm: &mut Comm, b: &[f64], x: &mut [f64]) {
        let _sp = comm.span("sem/mg_coarse");
        let factor = &self.factor;
        let own_bytes = 8 * factor.rank_vertices[comm.rank()] as u64;
        comm.advance(comm.machine().d2h_time(own_bytes));
        let mine = &factor.rank_nodes[comm.rank()];
        let read = |global: &[f64], x: &mut [f64]| {
            for (xv, &g) in x.iter_mut().zip(mine) {
                *xv = global[g as usize];
            }
        };
        if comm.size() == 1 {
            self.global.fill(0.0);
            factor.add(0, b, &mut self.global);
            factor.solve(&mut self.global);
            read(&self.global, x);
        } else {
            let shared = Arc::clone(factor);
            let most = factor.rank_vertices.iter().max().copied().unwrap_or(0);
            let payload = 16 * most as u64;
            let global = comm.reduce_with(b.to_vec(), payload, move |parts: Vec<Vec<f64>>| {
                let mut rhs = vec![0.0; shared.n()];
                for (rank, part) in parts.iter().enumerate() {
                    shared.add(rank, part, &mut rhs);
                }
                shared.solve(&mut rhs);
                rhs
            });
            read(&global, x);
        }
        let (n, band, p) = (factor.n() as f64, factor.band as f64, comm.size() as f64);
        comm.compute_host(4.0 * n * band / p, 16.0 * n * (band + 1.0) / p);
        comm.advance(comm.machine().h2d_time(own_bytes));
    }
}

/// `x ≈ A⁻¹ b` by one V-cycle from a zero guess on the smoothed level `op`
/// describes; `smoothers` are its smoother and those of the smoothed levels
/// below it, and `coarse` the levels below it, finest first and never
/// empty, the last being the order-1 level `solve` solves.
#[allow(clippy::too_many_arguments)]
fn cycle(
    comm: &mut Comm,
    op: Operator<'_>,
    smoothers: &[Schwarz],
    coarse: &mut [Level],
    solve: &mut CoarseSolve,
    b: &[f64],
    x: &mut [f64],
    [r, d, q]: [&mut [f64]; 3],
) {
    let (smoother, smoothers_below) = smoothers
        .split_first()
        .expect("every level above the order-1 level is smoothed");
    let (next, below) = coarse
        .split_first_mut()
        .expect("a smoothed level sits above the order-1 level");
    x.fill(0.0);
    smoother.smooth(comm, op, x, b, d, q);
    op.residual(comm, b, x, r, q);
    if below.is_empty() {
        next.restrict_unassembled(comm, op.gs.mult_inv(), r);
        solve.apply(comm, &next.b, &mut next.x);
    } else {
        next.restrict(comm, op.gs.mult_inv(), r);
        let Level {
            gs,
            ops,
            mask,
            b: nb,
            x: nx,
            r: nr,
            d: nd,
            q: nq,
            ..
        } = next;
        cycle(
            comm,
            Operator { gs, ops, mask },
            smoothers_below,
            below,
            solve,
            nb,
            nx,
            [nr, nd, nq],
        );
    }
    next.prolong_add(comm, x);
    op.residual(comm, b, x, r, q);
    smoother.smooth(comm, op, x, r, d, q);
}

/// The pressure preconditioner: the smoothers and coarse levels below the
/// solver's own fine level and the order-1 solve under them, built once
/// per solver.
pub struct Multigrid {
    /// One per smoothed level, the fine level's first.
    smoothers: Vec<Schwarz>,
    /// Coarse levels, finest first; the last is the order-1 level, whose
    /// operator `solve` inverts (empty when the fine level is order 1).
    coarse: Vec<Level>,
    solve: CoarseSolve,
}

impl Multigrid {
    /// Build the hierarchy under the fine level (`mesh`, its `gs`, `ops`
    /// and Dirichlet `mask`). The levels and their smoothers are local
    /// work — see [`Level::coarsen`] and [`Schwarz::new`] — and the
    /// order-1 factor costs one collective ([`CoarseSolve::new`]).
    pub fn new(
        comm: &mut Comm,
        mesh: &LocalMesh,
        gs: &GatherScatter,
        ops: &Ops,
        mask: &[f64],
    ) -> Self {
        let orders: &[usize] = match mesh.spec.order {
            1 => &[],
            2 | 3 => &[1],
            _ => &[3, 1],
        };
        let mut smoothers = Vec::with_capacity(orders.len());
        let mut coarse: Vec<Level> = Vec::with_capacity(orders.len());
        let mut finer_mesh = mesh.clone();
        for &order in orders {
            let (ops, mult_inv, mask) = match coarse.last() {
                Some(l) => (&l.ops, l.gs.mult_inv(), l.mask.as_slice()),
                None => (ops, gs.mult_inv(), mask),
            };
            smoothers.push(Schwarz::new(&finer_mesh, ops, mult_inv, mask));
            let (mesh, level) = Level::coarsen(&finer_mesh, mult_inv, mask, order);
            coarse.push(level);
            finer_mesh = mesh;
        }
        let vertex_mask = coarse.last().map_or(mask, |l| l.mask.as_slice());
        let solve = CoarseSolve::new(comm, &finer_mesh, vertex_mask);
        Self {
            smoothers,
            coarse,
            solve,
        }
    }

    /// Device memory the hierarchy holds: five vectors plus mask and
    /// multiplicity per coarse level, and the smoothers' weights and
    /// tables.
    pub fn device_bytes(&self) -> u64 {
        let levels: u64 = self.coarse.iter().map(|l| 8 * 7 * l.b.len() as u64).sum();
        levels
            + self
                .smoothers
                .iter()
                .map(Schwarz::device_bytes)
                .sum::<u64>()
    }

    /// Is the pressure operator all-Neumann — no Dirichlet node on any rank,
    /// so the solution is defined up to a constant? The coarse factor's
    /// builder saw the whole mesh, which saves the solver a collective.
    pub fn operator_is_singular(&self) -> bool {
        self.solve.factor.singular
    }

    /// Unknowns of the order-1 system the cycle solves exactly, and the
    /// half-bandwidth of its factor.
    pub fn coarse_dofs_and_band(&self) -> (usize, usize) {
        let factor = &self.solve.factor;
        (
            factor.free.iter().filter(|&&f| f == 1.0).count(),
            factor.band,
        )
    }

    /// `z ≈ A⁻¹ r`: one V-cycle, `fine` being the solver's pressure
    /// operator — the one this was built on — and `work` three fine-level
    /// vectors of arbitrary content.
    pub fn apply(
        &mut self,
        comm: &mut Comm,
        fine: Operator<'_>,
        work: &mut [Vec<f64>; 3],
        r: &[f64],
        z: &mut [f64],
    ) {
        let [w0, w1, w2] = work;
        if self.coarse.is_empty() {
            // An order-1 fine level is the level that is solved: `w ∘ r`
            // is its assembled residual taken apart again.
            for ((o, &rv), &wv) in w0.iter_mut().zip(r).zip(fine.gs.mult_inv()) {
                *o = wv * rv;
            }
            self.solve.apply(comm, w0, z);
            return;
        }
        cycle(
            comm,
            fine,
            &self.smoothers,
            &mut self.coarse,
            &mut self.solve,
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
    use crate::mesh::{Bc, BcSet};
    use crate::workspace::Workspace;
    use commsim::{run_ranks, MachineModel, ReduceOp};

    /// The pressure operator of `spec` under `bc` on this rank, as
    /// `FlowSolver::new` assembles it.
    struct Fine {
        mesh: LocalMesh,
        gs: GatherScatter,
        ops: Ops,
        mask: Vec<f64>,
    }

    impl Fine {
        fn new(comm: &mut Comm, spec: &Arc<MeshSpec>, bc: &BcSet) -> Self {
            let mesh = LocalMesh::new(Arc::clone(spec), comm.rank(), comm.size());
            let gs = GatherScatter::new(&mesh, comm);
            let ops = Ops::new(&mesh);
            let (mask, _) = mesh.dirichlet_mask(bc);
            Self {
                mesh,
                gs,
                ops,
                mask,
            }
        }

        fn operator(&self) -> Operator<'_> {
            Operator {
                gs: &self.gs,
                ops: &self.ops,
                mask: &self.mask,
            }
        }

        fn multigrid(&self, comm: &mut Comm) -> Multigrid {
            Multigrid::new(comm, &self.mesh, &self.gs, &self.ops, &self.mask)
        }

        fn schwarz(&self) -> Schwarz {
            Schwarz::new(&self.mesh, &self.ops, self.gs.mult_inv(), &self.mask)
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
        pb146_on(order, [4, 4, 4])
    }

    fn pb146_on(order: usize, elems: [usize; 3]) -> (Arc<MeshSpec>, BcSet) {
        let mut params = CaseParams::pb146_default();
        (params.order, params.elems) = (order, elems);
        let case = pb146(&params, 146);
        let all: usize = elems.iter().product();
        assert!(
            case.n_fluid_elems() < all,
            "the pb146 mesh must have solids"
        );
        (case.spec, case.bcs.pressure)
    }

    fn rbc_all_neumann(order: usize) -> (Arc<MeshSpec>, BcSet) {
        rbc_on(order, [3, 3, 4])
    }

    fn rbc_on(order: usize, elems: [usize; 3]) -> (Arc<MeshSpec>, BcSet) {
        let mut params = CaseParams::rbc_default();
        (params.order, params.elems) = (order, elems);
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
                    let mut mg = fine.multigrid(comm);
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
    /// solved to a relative 1e-8 within `max_iter` iterations on `elems`
    /// elements over a box of `lengths`: the CG iteration count.
    fn poisson_iterations(
        order: usize,
        elems: [usize; 3],
        lengths: [f64; 3],
        max_iter: usize,
    ) -> usize {
        run_ranks(2, MachineModel::test_tiny(), move |comm| {
            use std::f64::consts::PI;
            let fine = walled_box(comm, order, elems, lengths);
            let exact = fine
                .mesh
                .eval_nodal(|x| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin());
            let f: Vec<f64> = exact.iter().map(|&u| 3.0 * PI * PI * u).collect();
            let (x, iterations) = pcg_solve(comm, &fine, &f, max_iter);
            let err = x
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            // Interpolation error of the order-N elements, h^(N+1).
            let h = lengths[0] / elems[0] as f64;
            let bound = 2e-2 * (2.0 * h).powi(order as i32 + 1) / order.pow(3) as f64;
            assert!(err < bound, "order {order}, {elems:?}: {err}");
            iterations
        })[0]
    }

    /// The pressure operator on `elems` elements over a box of `lengths`
    /// with homogeneous Dirichlet walls all round.
    fn walled_box(comm: &mut Comm, order: usize, elems: [usize; 3], lengths: [f64; 3]) -> Fine {
        let spec = Arc::new(MeshSpec::box_mesh(order, elems, lengths, [false; 3]));
        Fine::new(comm, &spec, &BcSet::all_dirichlet_zero())
    }

    /// `−∇²u = f`, `f` given at the nodes, solved by PCG under the V-cycle
    /// to a relative 1e-8, which it must reach within `max_iter`
    /// iterations: the solution and the iteration count.
    fn pcg_solve(comm: &mut Comm, fine: &Fine, f: &[f64], max_iter: usize) -> (Vec<f64>, usize) {
        let mut mg = fine.multigrid(comm);
        let n = fine.mask.len();
        let mut b = vec![0.0; n];
        fine.ops.mass_apply(comm, f, &mut b);
        fine.gs.sum(comm, &mut b);
        b.iter_mut().zip(&fine.mask).for_each(|(v, &m)| *v *= m);
        let mut x = vec![0.0; n];
        let mut work = [(); 3].map(|_| vec![0.0; n]);
        let cfg = CgConfig {
            tol: 1e-8,
            abs_tol: 0.0,
            max_iter,
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
        let spec = &fine.mesh.spec;
        assert!(
            res.converged,
            "order {}, {:?}: {res:?}",
            spec.order, spec.elems
        );
        (x, res.iterations)
    }

    #[test]
    fn poisson_iterations_are_independent_of_order_and_mesh() {
        // Cubic elements: [0,1]³, [0,1]²×[0,2], [0,1]²×[0,16].
        let counts: Vec<usize> = [[2, 2, 2], [4, 4, 8], [2, 2, 32]]
            .into_iter()
            .flat_map(|elems| {
                let lengths = elems.map(|e| e as f64 / elems[0] as f64);
                [3, 5, 7].map(|order| poisson_iterations(order, elems, lengths, 20))
            })
            .collect();

        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        for &c in &counts {
            assert!(
                (c as f64 - mean).abs() <= 0.3 * mean,
                "iteration counts {counts:?} spread beyond ±30 % of {mean}"
            );
        }

        // A column of 16:1 elements, one element across, with a right-hand
        // side at every wavelength the mesh resolves: its order-1 level is
        // all wall, so the smoothers carry the solve alone. Element Schwarz
        // takes 42 / 42 / 55 iterations at orders 3 / 5 / 7, Chebyshev–
        // Jacobi took 57 / 63 / 94: at most 60.
        for order in [3, 5, 7] {
            run_ranks(2, MachineModel::test_tiny(), move |comm| {
                let fine = walled_box(comm, order, [1, 1, 32], [1.0, 1.0, 2.0]);
                let f = fine.field(comm, 0.3);
                pcg_solve(comm, &fine, &f, 60);
            });
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
                }
            });
        }
    }

    /// A box of `elems` elements of `1 × 1 × aspect`.
    fn box_of(order: usize, elems: [usize; 3], aspect: f64, periodic: [bool; 3]) -> MeshSpec {
        let lengths = [elems[0] as f64, elems[1] as f64, elems[2] as f64 * aspect];
        MeshSpec::box_mesh(order, elems, lengths, periodic)
    }

    /// Elements whose block the smoother must invert exactly, each with the
    /// mesh and pressure conditions around it: every neighbour fluid, a
    /// Dirichlet end, Neumann domain ends, a solid end, the neighbour across
    /// a periodic wrap, and a single element round two periodic axes.
    fn exact_block_cases(
        order: usize,
        aspect: f64,
    ) -> Vec<(&'static str, MeshSpec, BcSet, [usize; 3])> {
        let neumann = BcSet::all_neumann();
        let mut top = neumann;
        top.faces[5] = Bc::Dirichlet(0.0);
        let mut solid_plane = box_of(order, [3, 3, 3], aspect, [false; 3]);
        for (ey, ez) in (0..3).flat_map(|ey| (0..3).map(move |ez| (ey, ez))) {
            let at = solid_plane.elem_index([2, ey, ez]);
            solid_plane.solid[at] = true;
        }
        vec![
            (
                "interior",
                box_of(order, [3, 3, 3], aspect, [false; 3]),
                neumann,
                [1, 1, 1],
            ),
            (
                "Dirichlet end",
                box_of(order, [3, 3, 2], aspect, [false; 3]),
                top,
                [1, 1, 1],
            ),
            (
                "Neumann ends",
                box_of(order, [2, 2, 2], aspect, [false; 3]),
                neumann,
                [0, 0, 0],
            ),
            ("solid end", solid_plane, neumann, [1, 1, 1]),
            (
                "periodic seam",
                box_of(order, [3, 1, 1], aspect, [true, false, false]),
                neumann,
                [0, 0, 0],
            ),
            (
                "single periodic element",
                box_of(order, [1, 1, 2], aspect, [true, true, false]),
                neumann,
                [0, 0, 0],
            ),
        ]
    }

    /// Runs through [`Ops::fdm_apply`], so it checks the kernel build this
    /// CPU picks (AVX2 where the CPU has it); the bitwise oracles in
    /// `operators` hold every build to the same bits.
    #[test]
    fn fdm_block_is_the_inverse_of_the_assembled_element_block() {
        for (order, aspect) in [2, 3, 5, 7].into_iter().flat_map(|o| [(o, 1.0), (o, 16.0)]) {
            for (name, spec, bc, elem) in exact_block_cases(order, aspect) {
                let spec = Arc::new(spec);
                let worst = run_ranks(1, MachineModel::test_tiny(), move |comm| {
                    let fine = Fine::new(comm, &spec, &bc);
                    let smoother = fine.schwarz();
                    let l = fine.ops.layout;
                    let (n, npe) = (l.n_nodes(), l.nodes_per_elem());
                    let gid: Vec<u64> = (0..n)
                        .map(|idx| {
                            let (e, i, j, k) = l.coords(idx);
                            fine.mesh.gid(e, i, j, k)
                        })
                        .collect();
                    let le = fine.mesh.elems.iter().position(|&e| e == elem);
                    let le = le.expect("a fluid element");
                    let elem_gid = &gid[le * npe..][..npe];
                    // The element's free nodes, each once: a single element
                    // round a periodic axis holds its end nodes twice.
                    let free: Vec<usize> = (0..npe)
                        .filter(|&q| fine.mask[le * npe + q] == 1.0)
                        .filter(|&q| !elem_gid[..q].contains(&elem_gid[q]))
                        .collect();
                    // Element e's block alone, through a one-element slab.
                    let alone = Ops::new(&LocalMesh {
                        elems: vec![elem],
                        ..fine.mesh.clone()
                    });
                    let elem_axes = &smoother.elem_axes[le..=le];
                    let (mut unit, mut col) = (vec![0.0; n], vec![0.0; n]);
                    let mut back = vec![0.0; npe];
                    let mut worst: f64 = 0.0;
                    for &p in &free {
                        // Column p of R_e A R_eᵀ: A on every copy of p's
                        // node, read on element e.
                        for (u, &g) in unit.iter_mut().zip(&gid) {
                            *u = f64::from(g == elem_gid[p]);
                        }
                        fine.operator().apply(comm, &unit, &mut col);
                        let col_e = &col[le * npe..][..npe];
                        alone.fdm_apply(comm, &smoother.axes, elem_axes, col_e, &mut back);
                        // Summed over the node's copies, as the gather–
                        // scatter sums them.
                        for &q in &free {
                            let got: f64 = (0..npe)
                                .filter(|&c| elem_gid[c] == elem_gid[q])
                                .map(|c| back[c])
                                .sum();
                            worst = worst.max((got - f64::from(q == p)).abs());
                        }
                    }
                    worst
                })[0];
                assert!(
                    worst <= 1e-12,
                    "order {order}, aspect {aspect}, {name}: Ã⁻¹(R A Rᵀ) is off the identity by {worst}"
                );
            }
        }
    }

    /// `λ_max(M⁻¹A)` of the undamped smoother `M⁻¹`, by power iteration in
    /// the A inner product.
    fn schwarz_lambda_max(comm: &mut Comm, fine: &Fine) -> f64 {
        let (op, smoother, w) = (fine.operator(), fine.schwarz(), fine.gs.mult_inv());
        let mut x = fine.field(comm, 0.7);
        let [mut ax, mut z, mut d, mut q] = [(); 4].map(|_| vec![0.0; x.len()]);
        let mut lambda = 0.0;
        for _ in 0..50 {
            op.apply(comm, &x, &mut ax);
            z.fill(0.0);
            smoother.smooth(comm, op, &mut z, &ax, &mut d, &mut q);
            lambda = wdot(comm, &ax, &z, w) / wdot(comm, &ax, &x, w) / OMEGA;
            let local = z.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let norm = comm.allreduce(local, ReduceOp::Max);
            for (xv, &zv) in x.iter_mut().zip(&z) {
                *xv = zv / norm;
            }
        }
        lambda
    }

    #[test]
    fn schwarz_keeps_omega_lambda_max_below_two() {
        let column = |order: usize, aspect: f64| {
            let spec = box_of(order, [1, 1, 32], 1.0 / aspect, [false; 3]);
            let mut outflow = BcSet::all_neumann();
            outflow.faces[5] = Bc::Dirichlet(0.0);
            (Arc::new(spec), outflow)
        };
        let walled = |order: usize| {
            let spec = box_of(order, [2, 2, 3], 1.0, [false; 3]);
            (Arc::new(spec), BcSet::all_dirichlet_zero())
        };
        let one_wide = |order: usize| {
            let spec = box_of(order, [1, 1, 3], 1.0, [true, true, false]);
            (Arc::new(spec), BcSet::all_neumann())
        };
        for order in [2, 3, 5, 7] {
            let cases = [
                ("16:1 column", column(order, 16.0)),
                ("128:1 column", column(order, 128.0)),
                ("pb146", pb146_with_solids(order)),
                ("rbc", rbc_all_neumann(order)),
                ("Dirichlet box", walled(order)),
                ("one element round x and y", one_wide(order)),
            ];
            for (name, (spec, bc)) in cases {
                for ranks in [1, 2, 3] {
                    let spec = Arc::clone(&spec);
                    let lambda = run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
                        let fine = Fine::new(comm, &spec, &bc);
                        schwarz_lambda_max(comm, &fine)
                    })[0];
                    assert!(
                        (1.0..=2.2).contains(&lambda),
                        "order {order}, {name}, {ranks} ranks: λ_max(M⁻¹A) = {lambda}"
                    );
                }
            }
        }
    }

    /// `contract` as first written, one strided triple loop for all three
    /// axes: the oracle for its unit-stride branch.
    fn contract_strided(
        m: &[f64],
        rows: usize,
        u: &[f64],
        n: [usize; 3],
        axis: usize,
        out: &mut [f64],
    ) {
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

    #[test]
    fn transfers_contract_bitwise_as_the_strided_loop_on_every_axis() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The cycle's two transfers: orders 7 ↔ 3 and 3 ↔ 1.
        for (nf, nc) in [(8, 4), (4, 2)] {
            let coarse = Basis1d::new(nc - 1);
            let (fine_nodes, _) = crate::quadrature::gll(nf - 1);
            let interp: Vec<f64> = fine_nodes.iter().flat_map(|&x| coarse.eval_at(x)).collect();
            let interp_t: Vec<f64> = (0..nc * nf)
                .map(|cf| interp[cf % nf * nc + cf / nf])
                .collect();
            // Prolongation and restriction, along each axis, with every
            // mix of coarse and fine extents on the other two.
            for (m, rows, cols) in [(&interp, nf, nc), (&interp_t, nc, nf)] {
                for axis in 0..3 {
                    for others in [[nc, nc], [nc, nf], [nf, nc], [nf, nf]] {
                        let mut others = others.into_iter();
                        let n: [usize; 3] = std::array::from_fn(|d| {
                            if d == axis {
                                cols
                            } else {
                                others.next().expect("two other axes")
                            }
                        });
                        let len: usize = n.iter().product();
                        let inputs = [
                            (0..len).map(|_| next()).collect::<Vec<_>>(),
                            (0..len).map(|q| [0.0, -0.0, next()][q % 3]).collect(),
                            vec![-0.0; len],
                        ];
                        let out_len = len / cols * rows;
                        for u in inputs {
                            let (mut got, mut want) = (vec![1.0; out_len], vec![1.0; out_len]);
                            contract(m, rows, &u, n, axis, &mut got);
                            contract_strided(m, rows, &u, n, axis, &mut want);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{rows}×{cols}, axis {axis}, {n:?}"
                            );
                        }
                    }
                }
            }
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

    /// Order-1 meshes five slabs deep: pb146 with solids and its Dirichlet
    /// outflow, all-Neumann RBC periodic in x and y, and a box of 15:1
    /// elements, periodic in y, with one Dirichlet face.
    fn coarse_cases() -> Vec<(&'static str, Arc<MeshSpec>, BcSet)> {
        let (pb_spec, pb_bc) = pb146_on(1, [4, 4, 6]);
        let (rbc_spec, rbc_bc) = rbc_on(1, [3, 3, 5]);
        let thin = MeshSpec::box_mesh(1, [3, 2, 5], [1.0, 0.4, 25.0], [false, true, false]);
        let mut one_face = BcSet::all_neumann();
        one_face.faces[0] = Bc::Dirichlet(0.0);
        vec![
            ("pb146", pb_spec, pb_bc),
            ("rbc", rbc_spec, rbc_bc),
            ("anisotropic", Arc::new(thin), one_face),
        ]
    }

    #[test]
    fn coarse_factor_is_the_cholesky_factor_of_the_assembled_masked_operator() {
        for (name, spec, bc) in coarse_cases() {
            run_ranks(1, MachineModel::test_tiny(), move |comm| {
                let fine = Fine::new(comm, &spec, &bc);
                let mg = fine.multigrid(comm);
                let factor = &mg.solve.factor;
                let (n, band, nodes) = (factor.n(), factor.band, &factor.rank_nodes[0]);

                // Identity rows: Dirichlet vertices, vertices no fluid
                // element touches, and one pin iff nothing is Dirichlet.
                let mut want_free = vec![0.0; n];
                for (&g, &m) in nodes.iter().zip(&fine.mask) {
                    want_free[g as usize] = m;
                }
                let pins: Vec<usize> = (0..n).filter(|&g| factor.free[g] != want_free[g]).collect();
                let singular = fine.mask.iter().all(|&m| m == 1.0);
                assert_eq!(pins.len(), usize::from(singular), "{name}: pins {pins:?}");
                assert_eq!(mg.operator_is_singular(), singular, "{name}");
                assert!(pins.iter().all(|&g| want_free[g] == 1.0), "{name}");
                assert_eq!(singular, name == "rbc");

                // Dense reference, a column per vertex: the assembled,
                // masked operator applied to that vertex's unit vector.
                let mut a = vec![0.0; n * n];
                let (mut unit, mut col) = (vec![0.0; nodes.len()], vec![0.0; nodes.len()]);
                for g in 0..n {
                    if factor.free[g] == 0.0 {
                        a[g * n + g] = 1.0;
                        continue;
                    }
                    for (u, &v) in unit.iter_mut().zip(nodes) {
                        *u = f64::from(v as usize == g);
                    }
                    fine.ops.stiffness_apply(comm, &unit, &mut col, &mut []);
                    fine.gs.sum(comm, &mut col);
                    for (&v, &c) in nodes.iter().zip(&col) {
                        a[v as usize * n + g] = c * factor.free[v as usize];
                    }
                }
                // Dense Cholesky, in place in the lower triangle.
                for i in 0..n {
                    for j in 0..=i {
                        let dot: f64 = (0..j).map(|k| a[i * n + k] * a[j * n + k]).sum();
                        a[i * n + j] = if i == j {
                            (a[i * n + i] - dot).sqrt()
                        } else {
                            (a[i * n + j] - dot) / a[j * n + j]
                        };
                    }
                }
                let scale = (0..n).map(|i| a[i * n + i]).fold(0.0, f64::max);
                let mut widest = 0;
                for i in 0..n {
                    for j in 0..=i {
                        let want = a[i * n + j];
                        if i - j > band {
                            assert!(want.abs() <= 1e-13 * scale, "{name}: L[{i}][{j}] = {want}");
                            continue;
                        }
                        let got = factor.l[i * (band + 1) + band + j - i];
                        assert!(
                            (got - want).abs() <= 1e-12 * scale,
                            "{name}: L[{i}][{j}] = {got}, dense {want}"
                        );
                        if want.abs() > 1e-13 * scale {
                            widest = widest.max(i - j);
                        }
                    }
                }
                assert_eq!(widest, band, "{name}: the band is no wider than the factor");
            });
        }
    }

    #[test]
    fn on_an_order_one_level_the_cycle_is_the_inverse() {
        for (name, spec, bc) in coarse_cases() {
            for ranks in [1, 2, 5] {
                let spec = Arc::clone(&spec);
                let res = run_ranks(ranks, MachineModel::test_tiny(), move |comm| {
                    let fine = Fine::new(comm, &spec, &bc);
                    let mut mg = fine.multigrid(comm);
                    let singular = bc == BcSet::all_neumann();
                    let n = fine.mask.len();
                    // A right-hand side in the operator's range.
                    let mut b = vec![0.0; n];
                    let u = fine.field(comm, 0.9);
                    fine.operator().apply(comm, &u, &mut b);
                    let mut x = vec![0.0; n];
                    let mut work = [(); 3].map(|_| vec![0.0; n]);
                    let cfg = CgConfig {
                        tol: 1e-10,
                        abs_tol: 0.0,
                        max_iter: 10,
                        project_mean: singular,
                    };
                    cg::solve(
                        comm,
                        &fine.gs,
                        |comm, p, out| fine.ops.stiffness_apply(comm, p, out, &mut []),
                        |comm, r, z| mg.apply(comm, fine.operator(), &mut work, r, z),
                        &b,
                        &mut x,
                        &fine.mask,
                        &cfg,
                        &mut Workspace::new(n),
                    )
                });
                for r in res {
                    assert!(
                        r.converged && r.iterations <= 2,
                        "{name}, {ranks} ranks: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_cycle_is_bitwise_the_same_under_either_scheduler() {
        use commsim::{with_mode, SchedMode};
        let (spec, bc) = pb146_on(5, [3, 3, 5]);
        let run = |mode: SchedMode| {
            let spec = Arc::clone(&spec);
            with_mode(mode, move || {
                run_ranks(5, MachineModel::test_tiny(), move |comm| {
                    let fine = Fine::new(comm, &spec, &bc);
                    let mut mg = fine.multigrid(comm);
                    let n = fine.mask.len();
                    let mut work = [(); 3].map(|_| vec![0.0; n]);
                    // Uneven clocks: the ranks reach the collective in a
                    // different order each cycle.
                    comm.advance(((3 * comm.rank()) % 5) as f64 * 1e-5);
                    let (r, mut z) = (fine.field(comm, 0.4), vec![0.0; n]);
                    mg.apply(comm, fine.operator(), &mut work, &r, &mut z);
                    let r2 = z.clone();
                    mg.apply(comm, fine.operator(), &mut work, &r2, &mut z);
                    let bits: Vec<u64> = z.iter().map(|v| v.to_bits()).collect();
                    (bits, comm.now().to_bits(), comm.stats().collectives)
                })
            })
        };
        assert_eq!(run(SchedMode::Thread), run(SchedMode::Event));
    }
}
