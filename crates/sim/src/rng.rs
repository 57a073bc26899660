//! Deterministic random variates for the simulation substrate.
//!
//! The approved dependency set includes `rand` but not `rand_distr`, so
//! the continuous distributions needed by the network models (normal,
//! log-normal, exponential, Pareto) are implemented here on top of
//! `rand`'s uniform source:
//!
//! * normal — Box–Muller with a cached spare variate,
//! * log-normal — `exp` of a normal variate,
//! * exponential — inversion,
//! * Pareto — inversion.
//!
//! Everything is seeded explicitly; no generator in this workspace ever
//! draws entropy from the OS, which keeps every experiment and test
//! reproducible bit-for-bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The deterministic RNG used throughout the simulator.
///
/// A thin wrapper around [`SmallRng`] so that call sites never accidentally
/// construct an OS-seeded generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    /// Cached second variate from the last Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates a generator from an explicit 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator. Useful to give each
    /// simulated component its own stream so that adding draws to one
    /// component does not perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.inner.gen::<u64>())
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `(0, 1]` — safe as a `ln` argument.
    fn uniform_open(&mut self) -> f64 {
        1.0 - self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal variate via Box–Muller (polar-free form).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // u1 in (0,1] so ln(u1) is finite; u2 in [0,1).
        let u1 = self.uniform_open();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal variate parametrised by the *underlying* normal's
    /// `mu` and `sigma` (i.e. `exp(N(mu, sigma^2))`).
    fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential variate with the given mean (`1/lambda`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        -mean * self.uniform_open().ln()
    }

    /// Pareto variate with scale `x_min > 0` and shape `alpha > 0`.
    fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        x_min / self.uniform_open().powf(1.0 / alpha)
    }
}

/// Converts a log-normal's desired *linear-space* mean and standard
/// deviation into the `(mu, sigma)` parameters of the underlying normal.
///
/// Network delay models are most naturally specified as "mean delay
/// 120 ms, std dev 40 ms"; this helper performs the standard moment
/// matching so `SimRng::log_normal` produces exactly those moments.
pub fn log_normal_params(mean: f64, std_dev: f64) -> (f64, f64) {
    assert!(mean > 0.0, "log-normal mean must be positive");
    assert!(std_dev >= 0.0, "log-normal std dev must be non-negative");
    if std_dev == 0.0 {
        return (mean.ln(), 0.0);
    }
    let cv2 = (std_dev / mean).powi(2);
    let sigma2 = (1.0 + cv2).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu, sigma2.sqrt())
}

/// Plain-data description of a scalar distribution; the simulation
/// scenarios use this to script network phases.
///
/// Variant fields are the distributions' usual parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub enum DistSpec {
    /// A degenerate point mass.
    Constant { value: f64 },
    /// Uniform over `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Normal with given mean/std-dev, truncated below at `min`.
    Normal { mean: f64, std_dev: f64, min: f64 },
    /// Log-normal specified by linear-space mean/std-dev.
    LogNormal { mean: f64, std_dev: f64 },
    /// Exponential with the given mean, shifted by `offset`.
    Exponential { mean: f64, offset: f64 },
    /// Pareto with scale `x_min` and shape `alpha`.
    Pareto { x_min: f64, alpha: f64 },
}

impl DistSpec {
    /// Draws one variate from the described distribution.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            DistSpec::Constant { value } => value,
            DistSpec::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            DistSpec::Normal { mean, std_dev, min } => rng.normal(mean, std_dev).max(min),
            DistSpec::LogNormal { mean, std_dev } => {
                let (mu, sigma) = log_normal_params(mean, std_dev);
                rng.log_normal(mu, sigma)
            }
            DistSpec::Exponential { mean, offset } => offset + rng.exponential(mean),
            DistSpec::Pareto { x_min, alpha } => rng.pareto(x_min, alpha),
        }
    }

    /// The distribution's theoretical mean (used for sanity checks and
    /// for seeding online estimators).
    pub fn mean(&self) -> f64 {
        match *self {
            DistSpec::Constant { value } => value,
            DistSpec::Uniform { lo, hi } => (lo + hi) / 2.0,
            // Truncation shifts the mean slightly; for the tiny tail
            // masses used in practice the untruncated mean is accurate.
            DistSpec::Normal { mean, .. } => mean,
            DistSpec::LogNormal { mean, .. } => mean,
            DistSpec::Exponential { mean, offset } => mean + offset,
            DistSpec::Pareto { x_min, alpha } => {
                if alpha > 1.0 {
                    alpha * x_min / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_independent_of_parent_consumption() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut child1 = parent1.fork();
        let mut child2 = parent2.fork();
        // Consuming from parent1 must not change child1's stream.
        for _ in 0..10 {
            parent1.uniform();
        }
        for _ in 0..50 {
            assert_eq!(child1.uniform().to_bits(), child2.uniform().to_bits());
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..200_000).map(|_| rng.standard_normal()).collect();
        let (mean, var) = moments(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_moments() {
        let mut rng = SimRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..200_000).map(|_| rng.exponential(2.5)).collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
        assert!((var - 6.25).abs() < 0.3, "var {var}");
    }

    #[test]
    fn log_normal_moment_matching() {
        let mut rng = SimRng::seed_from_u64(5);
        let (mu, sigma) = log_normal_params(0.120, 0.040);
        let samples: Vec<f64> = (0..200_000).map(|_| rng.log_normal(mu, sigma)).collect();
        let (mean, var) = moments(&samples);
        assert!((mean - 0.120).abs() < 0.002, "mean {mean}");
        assert!((var.sqrt() - 0.040).abs() < 0.002, "std {}", var.sqrt());
    }

    #[test]
    fn log_normal_zero_std_dev_is_constant() {
        let (mu, sigma) = log_normal_params(3.0, 0.0);
        assert_eq!(sigma, 0.0);
        let mut rng = SimRng::seed_from_u64(6);
        assert!((rng.log_normal(mu, sigma) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_stays_above_scale() {
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..10_000 {
            assert!(rng.pareto(0.5, 1.5) >= 0.5);
        }
    }

    #[test]
    fn chance_edge_cases() {
        let mut rng = SimRng::seed_from_u64(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
        let hits = (0..100_000).filter(|_| rng.chance(0.1)).count();
        assert!((hits as f64 / 100_000.0 - 0.1).abs() < 0.01);
    }

    #[test]
    fn dist_spec_sampling_matches_means() {
        let mut rng = SimRng::seed_from_u64(10);
        let specs = [
            DistSpec::Constant { value: 1.5 },
            DistSpec::Uniform { lo: 0.0, hi: 2.0 },
            DistSpec::Normal {
                mean: 5.0,
                std_dev: 1.0,
                min: 0.0,
            },
            DistSpec::LogNormal {
                mean: 0.1,
                std_dev: 0.02,
            },
            DistSpec::Exponential {
                mean: 1.0,
                offset: 0.5,
            },
            DistSpec::Pareto {
                x_min: 1.0,
                alpha: 3.0,
            },
        ];
        for spec in specs {
            let n = 100_000;
            let mean: f64 = (0..n).map(|_| spec.sample(&mut rng)).sum::<f64>() / n as f64;
            let expected = spec.mean();
            assert!(
                (mean - expected).abs() < 0.05 * expected.max(0.2),
                "{spec:?}: empirical {mean} vs theoretical {expected}"
            );
        }
    }

    #[test]
    fn uniform_open_never_zero() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..100_000 {
            let u = rng.uniform_open();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
