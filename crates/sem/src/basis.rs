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
