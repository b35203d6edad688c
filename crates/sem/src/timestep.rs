//! BDFk / EXTk time integration coefficients (k = 1..3), NekRS's default
//! temporal discretization for the Pₙ–Pₙ scheme.

/// Backward-differentiation coefficients in the convention
/// `(b0·u^{n+1} + Σ_{j=1..k} b[j-1]·u^{n+1-j}) / dt = RHS`.
///
/// Returns `(b0, b_prev)` with `b_prev.len() == k`, borrowed from static
/// tables so the stepping hot path never allocates.
///
/// # Panics
/// Panics for `k` outside 1..=3.
pub fn bdf_coeffs(k: usize) -> (f64, &'static [f64]) {
    match k {
        1 => (1.0, &[-1.0]),
        2 => (1.5, &[-2.0, 0.5]),
        3 => (11.0 / 6.0, &[-3.0, 1.5, -1.0 / 3.0]),
        _ => panic!("BDF order {k} not supported (1..=3)"),
    }
}

/// Extrapolation coefficients of order `k`: an explicit term at time
/// `n+1` is approximated by `Σ_{j=0..k-1} a[j]·N^{n-j}`.
///
/// Borrowed from static tables.
///
/// # Panics
/// Panics for `k` outside 1..=3.
pub fn ext_coeffs(k: usize) -> &'static [f64] {
    match k {
        1 => &[1.0],
        2 => &[2.0, -1.0],
        3 => &[3.0, -3.0, 1.0],
        _ => panic!("EXT order {k} not supported (1..=3)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdf_coefficients_sum_to_zero() {
        // Consistency: a constant state must have zero discrete derivative.
        for k in 1..=3 {
            let (b0, b) = bdf_coeffs(k);
            let total: f64 = b0 + b.iter().sum::<f64>();
            assert!(total.abs() < 1e-14, "k={k}");
        }
    }

    #[test]
    fn bdf_first_moment_is_one() {
        // Σ j·(-b_j) = 1 gives first-order consistency (du/dt of u = t).
        for k in 1..=3 {
            let (_, b) = bdf_coeffs(k);
            let m: f64 = b
                .iter()
                .enumerate()
                .map(|(i, &bj)| -((i + 1) as f64) * bj)
                .sum();
            assert!((m - 1.0).abs() < 1e-13, "k={k}: {m}");
        }
    }

    #[test]
    fn ext_reproduces_polynomials() {
        // EXTk extrapolates values at t = -0, -1, -2 to t = +1 exactly for
        // polynomials of degree < k.
        for k in 1..=3usize {
            let a = ext_coeffs(k);
            for degree in 0..k {
                let f = |t: f64| t.powi(degree as i32);
                let approx: f64 = a
                    .iter()
                    .enumerate()
                    .map(|(j, &aj)| aj * f(-(j as f64)))
                    .sum();
                assert!(
                    (approx - f(1.0)).abs() < 1e-12,
                    "k={k} degree={degree}: {approx}"
                );
            }
        }
    }

    #[test]
    fn bdf_exact_on_low_order_polynomials() {
        // BDFk differentiates t^d exactly for d <= k at t = 1 with dt = 1.
        for k in 1..=3usize {
            let (b0, b) = bdf_coeffs(k);
            for d in 0..=k {
                let f = |t: f64| t.powi(d as i32);
                let deriv_exact = d as f64; // d/dt t^d at t=1 is d·1^{d-1}.
                let mut acc = b0 * f(1.0);
                for (j, &bj) in b.iter().enumerate() {
                    acc += bj * f(1.0 - (j + 1) as f64);
                }
                assert!((acc - deriv_exact).abs() < 1e-12, "k={k} d={d}: {acc}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn bdf_rejects_order_4() {
        bdf_coeffs(4);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn ext_rejects_order_0() {
        ext_coeffs(0);
    }
}
