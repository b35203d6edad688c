//! Lagrange basis on GLL points: barycentric interpolation and the
//! collocation derivative matrix.

use crate::quadrature::gll;

/// The 1-D reference element: GLL nodes, weights, barycentric weights, and
/// the dense derivative matrix `D[i][j] = ℓⱼ′(xᵢ)` stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis1d {
    /// Polynomial order N.
    pub order: usize,
    /// GLL nodes (N+1 of them).
    pub nodes: Vec<f64>,
    /// GLL quadrature weights.
    pub weights: Vec<f64>,
    /// Barycentric weights for stable interpolation.
    pub bary: Vec<f64>,
    /// Derivative matrix, row-major `(N+1)×(N+1)`.
    pub deriv: Vec<f64>,
}

impl Basis1d {
    /// Build the order-`n` basis.
    pub fn new(n: usize) -> Self {
        let (nodes, weights) = gll(n);
        let np = n + 1;
        let mut bary = vec![1.0; np];
        for i in 0..np {
            for j in 0..np {
                if i != j {
                    bary[i] *= nodes[i] - nodes[j];
                }
            }
            bary[i] = 1.0 / bary[i];
        }
        // D[i][j] = (b_j / b_i) / (x_i − x_j) for i≠j; D[i][i] = −Σ_{j≠i} D[i][j].
        let mut deriv = vec![0.0; np * np];
        for i in 0..np {
            let mut diag = 0.0;
            for j in 0..np {
                if i != j {
                    let d = (bary[j] / bary[i]) / (nodes[i] - nodes[j]);
                    deriv[i * np + j] = d;
                    diag -= d;
                }
            }
            deriv[i * np + i] = diag;
        }
        Self {
            order: n,
            nodes,
            weights,
            bary,
            deriv,
        }
    }

    /// Number of points (N+1).
    pub fn np(&self) -> usize {
        self.order + 1
    }

    /// Evaluate all Lagrange cardinal functions at `x` (barycentric form).
    pub fn eval_at(&self, x: f64) -> Vec<f64> {
        let np = self.np();
        // Exact hit on a node ⇒ cardinal vector.
        for (i, &xi) in self.nodes.iter().enumerate() {
            if (x - xi).abs() < 1e-14 {
                let mut e = vec![0.0; np];
                e[i] = 1.0;
                return e;
            }
        }
        let mut terms = vec![0.0; np];
        let mut denom = 0.0;
        for i in 0..np {
            terms[i] = self.bary[i] / (x - self.nodes[i]);
            denom += terms[i];
        }
        terms.iter().map(|t| t / denom).collect()
    }

    /// Interpolate nodal values `u` to point `x`.
    pub fn interpolate(&self, u: &[f64], x: f64) -> f64 {
        self.eval_at(x).iter().zip(u).map(|(l, v)| l * v).sum()
    }

    /// The 1-D modal low-pass filter matrix `F = V·diag(σ)·V⁻¹` (row-major)
    /// of Fischer & Mullen: nodal values are transformed to the Legendre
    /// modal basis, the top `modes` coefficients are attenuated by up to
    /// `strength` (quadratic ramp), and transformed back. `F·u` preserves
    /// polynomials below the cutoff exactly.
    ///
    /// # Panics
    /// Panics when `modes` is 0 or exceeds N, or `strength` ∉ [0, 1].
    pub fn filter_matrix(&self, strength: f64, modes: usize) -> Vec<f64> {
        let np = self.np();
        assert!((1..np).contains(&modes), "filter needs 1..=N modes");
        assert!((0.0..=1.0).contains(&strength), "strength must be in [0,1]");
        // Vandermonde V[i][k] = P_k(x_i).
        let mut v = vec![0.0; np * np];
        for i in 0..np {
            for k in 0..np {
                v[i * np + k] = crate::quadrature::legendre(k, self.nodes[i]).0;
            }
        }
        let v_inv = invert_dense(&v, np);
        // σ_k: identity below the cutoff, quadratic roll-off above.
        let k0 = np - modes;
        let mut f = vec![0.0; np * np];
        for i in 0..np {
            for j in 0..np {
                let mut acc = 0.0;
                for k in 0..np {
                    let sigma = if k < k0 {
                        1.0
                    } else {
                        let t = (k - k0 + 1) as f64 / modes as f64;
                        1.0 - strength * t * t
                    };
                    acc += v[i * np + k] * sigma * v_inv[k * np + j];
                }
                f[i * np + j] = acc;
            }
        }
        f
    }
}

/// Dense matrix inverse by Gauss–Jordan with partial pivoting (basis-sized
/// matrices only: (N+1)² entries).
///
/// # Panics
/// Panics on singular input.
fn invert_dense(m: &[f64], n: usize) -> Vec<f64> {
    let mut a = m.to_vec();
    let mut inv = vec![0.0; n * n];
    for (i, row) in inv.chunks_mut(n).enumerate() {
        row[i] = 1.0;
    }
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| a[r1 * n + col].abs().total_cmp(&a[r2 * n + col].abs()))
            .expect("nonempty");
        assert!(
            a[pivot_row * n + col].abs() > 1e-13,
            "singular matrix in basis filter construction"
        );
        if pivot_row != col {
            for j in 0..n {
                a.swap(col * n + j, pivot_row * n + j);
                inv.swap(col * n + j, pivot_row * n + j);
            }
        }
        let p = a[col * n + col];
        for j in 0..n {
            a[col * n + j] /= p;
            inv[col * n + j] /= p;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = a[r * n + col];
            if factor != 0.0 {
                for j in 0..n {
                    a[r * n + j] -= factor * a[col * n + j];
                    inv[r * n + j] -= factor * inv[col * n + j];
                }
            }
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `D·u`: the nodal derivative of `u`.
    fn deriv_of(b: &Basis1d, u: &[f64]) -> Vec<f64> {
        b.deriv
            .chunks(b.np())
            .map(|row| row.iter().zip(u).map(|(d, v)| d * v).sum())
            .collect()
    }

    #[test]
    fn derivative_of_constant_is_zero() {
        for n in 1..9 {
            let b = Basis1d::new(n);
            let u = vec![3.5; b.np()];
            for d in deriv_of(&b, &u) {
                assert!(d.abs() < 1e-11, "n={n}");
            }
        }
    }

    #[test]
    fn derivative_is_exact_for_polynomials_up_to_n() {
        for n in 2..9 {
            let b = Basis1d::new(n);
            for k in 1..=n {
                let u: Vec<f64> = b.nodes.iter().map(|x| x.powi(k as i32)).collect();
                let du = deriv_of(&b, &u);
                for (i, &x) in b.nodes.iter().enumerate() {
                    let exact = k as f64 * x.powi(k as i32 - 1);
                    assert!(
                        (du[i] - exact).abs() < 1e-9,
                        "n={n} k={k} i={i}: {} vs {exact}",
                        du[i]
                    );
                }
            }
        }
    }

    #[test]
    fn interpolation_reproduces_nodal_values() {
        let b = Basis1d::new(6);
        let u: Vec<f64> = b.nodes.iter().map(|x| (2.0 * x).sin()).collect();
        for (i, &x) in b.nodes.iter().enumerate() {
            assert!((b.interpolate(&u, x) - u[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn interpolation_is_spectrally_accurate_for_smooth_functions() {
        // sin interpolated at order 10 should be ~1e-9 accurate mid-element.
        let b = Basis1d::new(10);
        let u: Vec<f64> = b.nodes.iter().map(|x| x.sin()).collect();
        for &x in &[-0.55, 0.11, 0.77] {
            assert!((b.interpolate(&u, x) - x.sin()).abs() < 1e-9);
        }
    }

    #[test]
    fn cardinal_property_of_eval_at() {
        let b = Basis1d::new(5);
        for (i, &x) in b.nodes.iter().enumerate() {
            let l = b.eval_at(x);
            for (j, &lj) in l.iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((lj - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn eval_partition_of_unity() {
        let b = Basis1d::new(7);
        for &x in &[-0.83, -0.2, 0.4, 0.999] {
            let s: f64 = b.eval_at(x).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn filter_preserves_low_order_polynomials() {
        let b = Basis1d::new(7);
        let f = b.filter_matrix(0.3, 2); // attenuate only modes 6, 7
        let np = b.np();
        for degree in 0..=5 {
            let u: Vec<f64> = b.nodes.iter().map(|x| x.powi(degree)).collect();
            for i in 0..np {
                let fu: f64 = (0..np).map(|j| f[i * np + j] * u[j]).sum();
                assert!(
                    (fu - u[i]).abs() < 1e-10,
                    "degree {degree} must pass through unchanged"
                );
            }
        }
    }

    #[test]
    fn filter_attenuates_the_highest_mode() {
        let b = Basis1d::new(6);
        let strength = 0.4;
        let f = b.filter_matrix(strength, 1);
        let np = b.np();
        // Highest Legendre mode sampled at the nodes.
        let u: Vec<f64> = b
            .nodes
            .iter()
            .map(|&x| crate::quadrature::legendre(6, x).0)
            .collect();
        for i in 0..np {
            let fu: f64 = (0..np).map(|j| f[i * np + j] * u[j]).sum();
            assert!(
                (fu - (1.0 - strength) * u[i]).abs() < 1e-10,
                "top mode must be scaled by 1−α"
            );
        }
    }

    #[test]
    fn zero_strength_filter_is_identity() {
        let b = Basis1d::new(5);
        let f = b.filter_matrix(0.0, 2);
        let np = b.np();
        for i in 0..np {
            for j in 0..np {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((f[i * np + j] - expected).abs() < 1e-11);
            }
        }
    }

    #[test]
    #[should_panic(expected = "modes")]
    fn filter_rejects_zero_modes() {
        Basis1d::new(4).filter_matrix(0.5, 0);
    }

    #[test]
    fn deriv_rows_sum_to_zero() {
        // D·1 = 0 exactly encodes consistency.
        let b = Basis1d::new(8);
        let np = b.np();
        for i in 0..np {
            let s: f64 = b.deriv[i * np..(i + 1) * np].iter().sum();
            assert!(s.abs() < 1e-11);
        }
    }
}
