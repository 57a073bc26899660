//! Chen's QoS configuration procedure (§V-A of the paper).
//!
//! Applications express their requirements as a tuple
//! `(T_Dᵁ, T_MRᵁ, T_Mᵁ)` — an upper bound on detection time, a lower
//! bound on mean mistake *recurrence* time (equivalently an upper bound
//! on mistake rate), and an upper bound on mean mistake duration. Given
//! the network's probabilistic behaviour — loss probability `pL` and
//! delay variance `V(D)` — the procedure computes the largest heartbeat
//! interval `Δi` (to minimize network load) and the safety margin
//! `Δto = T_Dᵁ − Δi` such that the detector meets the requirements.
//!
//! The published steps (Eqs. 14–16) specialize Chen's NFD-U analysis with
//! one-sided Chebyshev bounds:
//!
//! * **Step 1** — achievability of the mistake-duration bound. A mistake
//!   is corrected by the first subsequent heartbeat that arrives in time,
//!   which happens per period with probability at least
//!   `γ′ = (1 − pL)·(T_Mᵁ)² / (V(D) + (T_Mᵁ)²)` (Chebyshev at `T_Mᵁ`),
//!   so `E[T_M] ≤ Δi/γ′` and `Δi ≤ γ′·T_Mᵁ` suffices. `Δi` is further
//!   capped at `T_Dᵁ` so the safety margin stays non-negative.
//! * **Step 2** — the mistake-recurrence bound. A mistake at a freshness
//!   point requires *every* heartbeat whose timely arrival would have
//!   prevented it to be late or lost; message `j` (counting back from
//!   the deadline) is late-or-lost with probability at most
//!   `p_j = (V(D) + pL·(T_Dᵁ − j·Δi)²) / (V(D) + (T_Dᵁ − j·Δi)²)`,
//!   giving `E[T_MR] ≥ f(Δi) = Δi / Π_j p_j` (Eq. 16). The procedure
//!   finds the largest `Δi ≤ Δi_max` with `f(Δi) ≥ T_MRᵁ` numerically.
//! * **Step 3** — `Δto = T_Dᵁ − Δi`.

use std::fmt;
use twofd_sim::time::Span;

/// An application's QoS requirement tuple `(T_Dᵁ, T_MRᵁ, T_Mᵁ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSpec {
    /// Upper bound on detection time `T_Dᵁ`, seconds.
    pub detection_time: f64,
    /// Lower bound on average mistake recurrence time `T_MRᵁ`, seconds
    /// (one mistake per at most this often).
    pub mistake_recurrence: f64,
    /// Upper bound on average mistake duration `T_Mᵁ`, seconds.
    pub mistake_duration: f64,
}

impl QosSpec {
    /// Creates a spec, validating positivity.
    pub fn new(detection_time: f64, mistake_recurrence: f64, mistake_duration: f64) -> Self {
        assert!(detection_time > 0.0, "T_D^U must be positive");
        assert!(mistake_recurrence > 0.0, "T_MR^U must be positive");
        assert!(mistake_duration > 0.0, "T_M^U must be positive");
        QosSpec {
            detection_time,
            mistake_recurrence,
            mistake_duration,
        }
    }

    /// The equivalent upper bound on mistake *rate*, per second.
    pub fn max_mistake_rate(&self) -> f64 {
        1.0 / self.mistake_recurrence
    }
}

/// The network's probabilistic behaviour as seen by the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkBehavior {
    /// Message loss probability `pL`.
    pub loss_prob: f64,
    /// Message delay variance `V(D)`, seconds².
    pub delay_var: f64,
}

impl NetworkBehavior {
    /// Creates a behaviour description, validating ranges.
    pub fn new(loss_prob: f64, delay_var: f64) -> Self {
        assert!((0.0..1.0).contains(&loss_prob), "pL must be in [0,1)");
        assert!(delay_var >= 0.0, "V(D) must be non-negative");
        NetworkBehavior {
            loss_prob,
            delay_var,
        }
    }
}

/// The failure-detector parameters output by the procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdConfig {
    /// Heartbeat inter-sending interval Δi.
    pub interval: Span,
    /// Constant safety margin Δto.
    pub safety_margin: Span,
}

impl FdConfig {
    /// The detection-time budget `Δi + Δto` this configuration consumes.
    pub fn detection_budget(&self) -> Span {
        self.interval + self.safety_margin
    }
}

/// Why a QoS specification cannot be met.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Step 1 produced a non-positive maximum interval: the network is
    /// too lossy/noisy for the requested mistake duration.
    Unachievable {
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Unachievable { reason } => {
                write!(f, "QoS specification unachievable: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Eq. 16: the lower bound `f(Δi)` on the average mistake recurrence
/// time, in seconds. When no heartbeat deadline falls inside the
/// detection window (`Δi ≥ T_Dᵁ`), the empty product means the mistake
/// probability bound is 1 and `f(Δi) = Δi` — one mistake per period.
pub fn recurrence_lower_bound(delta_i: f64, spec: &QosSpec, net: &NetworkBehavior) -> f64 {
    match log_recurrence_bound(delta_i, spec, net, 700.0) {
        Some(log_f) if log_f <= 700.0 => log_f.exp(),
        _ => f64::INFINITY,
    }
}

/// Natural log of `f(Δi)`, or `None` for `+∞`.
///
/// The factors `p_j ≤ 1` make the partial value of `ln f` monotone
/// non-decreasing in the number of factors processed, so the loop stops
/// as soon as the partial value exceeds `early_exit` (the caller only
/// needs to know "at least this big"). A hard cap on the factor count
/// guards degenerate inputs (`Δi` smaller than `T_Dᵁ/10⁶` would mean
/// over a million heartbeat deadlines inside one detection window);
/// truncation *under*-estimates `f`, which is the conservative
/// direction for the configuration search.
fn log_recurrence_bound(
    delta_i: f64,
    spec: &QosSpec,
    net: &NetworkBehavior,
    early_exit: f64,
) -> Option<f64> {
    debug_assert!(delta_i > 0.0);
    const MAX_FACTORS: i64 = 1_000_000;
    let td = spec.detection_time;
    let k = (td / delta_i).ceil() as i64 - 1;
    if k < 1 {
        // Empty product: no message sent inside the detection window can
        // avert the mistake, so the mistake-probability bound is 1 and
        // the recurrence bound is one mistake per sending period.
        let log_f = delta_i.ln();
        return if log_f > early_exit {
            None
        } else {
            Some(log_f)
        };
    }
    // Π_j p_j computed in log space: the factors get astronomically
    // small for small Δi and would underflow a plain product.
    let mut log_f = delta_i.ln();
    for j in 1..=k.min(MAX_FACTORS) {
        let x = td - j as f64 * delta_i;
        debug_assert!(x > 0.0);
        let p = (net.delay_var + net.loss_prob * x * x) / (net.delay_var + x * x);
        if p <= 0.0 {
            return None; // lossless, zero-variance: never late
        }
        log_f -= p.ln();
        if log_f > early_exit {
            return None;
        }
    }
    Some(log_f)
}

/// The smallest heartbeat interval the procedure will emit (100 µs).
/// Below this, "satisfying" a QoS tuple by heartbeating at megahertz
/// rates is a mathematical artifact, not a deployable configuration —
/// the paper's Step 1 declares such specs unachievable.
const MIN_INTERVAL_SECS: f64 = 1e-4;

/// Runs the three-step configuration procedure.
///
/// ```
/// use twofd_core::{configure, NetworkBehavior, QosSpec};
///
/// // Detect within 1 s, ≤1 mistake/hour, corrected within 1 s,
/// // on a link with 1% loss and 20 ms delay std-dev.
/// let spec = QosSpec::new(1.0, 3600.0, 1.0);
/// let net = NetworkBehavior::new(0.01, 0.02 * 0.02);
/// let cfg = configure(&spec, &net).unwrap();
/// // Δi + Δto = T_D^U exactly.
/// assert_eq!(cfg.detection_budget().as_secs_f64(), 1.0);
/// ```
pub fn configure(spec: &QosSpec, net: &NetworkBehavior) -> Result<FdConfig, ConfigError> {
    // ---- Step 1 (Eqs. 14–15): the largest interval compatible with the
    // mistake-duration bound.
    let tm = spec.mistake_duration;
    let gamma = (1.0 - net.loss_prob) * tm * tm / (net.delay_var + tm * tm);
    let delta_i_max = (gamma * tm).min(spec.detection_time);
    if delta_i_max < MIN_INTERVAL_SECS {
        return Err(ConfigError::Unachievable {
            reason: format!(
                "step 1: Δi_max = {delta_i_max:.3e}s is below the practical minimum \
                 interval (pL={}, V(D)={})",
                net.loss_prob, net.delay_var
            ),
        });
    }

    // ---- Step 2: largest Δi ≤ Δi_max with f(Δi) ≥ T_MRᵁ.
    // f is piecewise-smooth and, over the relevant range, decreasing in
    // Δi (each extra heartbeat deadline multiplies the recurrence bound
    // by 1/p_j ≫ 1). Scan a geometric grid downward over six decades,
    // then refine by bisection between the first passing point and its
    // failing neighbour.
    let log_target = spec.mistake_recurrence.ln();
    let meets = |di: f64| match log_recurrence_bound(di, spec, net, log_target) {
        None => true, // +∞, or the partial value already passed the target
        Some(log_f) => log_f >= log_target,
    };

    if meets(delta_i_max) {
        return Ok(finish(spec, delta_i_max));
    }
    let mut passing: Option<f64> = None;
    let mut failing = delta_i_max;
    let mut di = delta_i_max * 0.98;
    let floor = MIN_INTERVAL_SECS;
    while di > floor {
        if meets(di) {
            passing = Some(di);
            break;
        }
        failing = di;
        di *= 0.98;
    }
    let Some(mut lo) = passing else {
        return Err(ConfigError::Unachievable {
            reason: format!(
                "step 2: no Δi in ({floor:.3e}, {delta_i_max:.4}s] gives mistake recurrence ≥ {}s",
                spec.mistake_recurrence
            ),
        });
    };
    // Bisection refinement: invariant lo passes, failing fails, lo < failing.
    let mut hi = failing;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(finish(spec, lo))
}

/// Step 3: assemble the output with `Δto = T_Dᵁ − Δi`.
fn finish(spec: &QosSpec, delta_i: f64) -> FdConfig {
    let delta_i = delta_i.min(spec.detection_time);
    FdConfig {
        interval: Span::from_secs_f64(delta_i),
        safety_margin: Span::from_secs_f64(spec.detection_time - delta_i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wan_net() -> NetworkBehavior {
        // ~1% loss, 20 ms delay std-dev.
        NetworkBehavior::new(0.01, 0.02f64 * 0.02)
    }

    fn spec(td: f64, tmr: f64, tm: f64) -> QosSpec {
        QosSpec::new(td, tmr, tm)
    }

    #[test]
    fn budget_identity_always_holds() {
        // Δi + Δto = T_D^U exactly (Step 3).
        for td in [0.2, 0.5, 1.0, 5.0] {
            let cfg = configure(&spec(td, 3600.0, 1.0), &wan_net()).unwrap();
            let budget = cfg.detection_budget().as_secs_f64();
            assert!((budget - td).abs() < 1e-6, "td {td}: budget {budget}");
        }
    }

    #[test]
    fn interval_positive_and_margin_non_negative() {
        let cfg = configure(&spec(1.0, 3600.0, 1.0), &wan_net()).unwrap();
        assert!(cfg.interval > Span::ZERO);
        assert!(cfg.safety_margin >= Span::ZERO);
    }

    #[test]
    fn stricter_recurrence_shrinks_interval() {
        // Figure 11's shape: as the recurrence requirement grows (fewer
        // mistakes allowed), Δi decreases and Δto grows.
        let net = wan_net();
        let td = 1.0;
        let weak = configure(&spec(td, 60.0, 1.0), &net).unwrap();
        let strong = configure(&spec(td, 86_400.0 * 30.0, 1.0), &net).unwrap();
        assert!(
            strong.interval <= weak.interval,
            "strong {:?} vs weak {:?}",
            strong.interval,
            weak.interval
        );
        assert!(strong.safety_margin >= weak.safety_margin);
    }

    #[test]
    fn larger_detection_budget_grows_both_parameters() {
        // Figure 10's shape.
        let net = wan_net();
        let small = configure(&spec(0.3, 3600.0, 0.5), &net).unwrap();
        let large = configure(&spec(3.0, 3600.0, 0.5), &net).unwrap();
        assert!(large.interval >= small.interval);
        assert!(large.safety_margin >= small.safety_margin);
    }

    #[test]
    fn looser_mistake_duration_grows_interval_until_saturation() {
        // Figure 12's shape: Δi grows with T_M^U, then plateaus once the
        // recurrence constraint binds.
        let net = wan_net();
        let tight = configure(&spec(1.0, 3600.0, 0.05), &net).unwrap();
        let loose = configure(&spec(1.0, 3600.0, 5.0), &net).unwrap();
        assert!(loose.interval >= tight.interval);
    }

    #[test]
    fn interval_never_exceeds_mistake_duration_allowance() {
        // Step 1: Δi ≤ γ'·T_M^U ≤ T_M^U.
        let net = wan_net();
        let cfg = configure(&spec(5.0, 60.0, 0.2), &net).unwrap();
        assert!(cfg.interval.as_secs_f64() <= 0.2 + 1e-9);
    }

    #[test]
    fn recurrence_bound_decreases_with_interval() {
        let net = wan_net();
        let s = spec(1.0, 3600.0, 1.0);
        let f_small = recurrence_lower_bound(0.05, &s, &net);
        let f_large = recurrence_lower_bound(0.45, &s, &net);
        assert!(
            f_small > f_large,
            "f(0.05)={f_small:.3e} should exceed f(0.45)={f_large:.3e}"
        );
    }

    #[test]
    fn recurrence_bound_degenerates_to_delta_i_without_deadlines() {
        // Δi = T_D^U: no averting message fits in the window, the
        // mistake-probability bound is 1, and f = Δi.
        let net = wan_net();
        let s = spec(1.0, 3600.0, 1.0);
        assert!((recurrence_lower_bound(1.0, &s, &net) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn output_satisfies_the_recurrence_requirement() {
        let net = wan_net();
        let s = spec(1.0, 86_400.0, 1.0);
        let cfg = configure(&s, &net).unwrap();
        let f = recurrence_lower_bound(cfg.interval.as_secs_f64(), &s, &net);
        assert!(
            f >= s.mistake_recurrence * 0.999,
            "f = {f:.3e} < required {}",
            s.mistake_recurrence
        );
    }

    #[test]
    fn very_lossy_network_with_tight_duration_is_unachievable() {
        // pL = 99.9%: a mistake essentially can't be corrected within a
        // tiny T_M^U no matter the interval... Step 2 cannot find any Δi.
        let net = NetworkBehavior::new(0.999, 1.0);
        let s = spec(0.1, 1e9, 0.001);
        assert!(configure(&s, &net).is_err());
    }

    #[test]
    fn lossless_zero_variance_network_is_trivial() {
        let net = NetworkBehavior::new(0.0, 0.0);
        let cfg = configure(&spec(1.0, 1e12, 1.0), &net).unwrap();
        // Mistakes are impossible: the interval goes as high as allowed.
        assert!(cfg.interval.as_secs_f64() > 0.9);
    }

    #[test]
    #[should_panic(expected = "pL must be in [0,1)")]
    fn rejects_certain_loss() {
        NetworkBehavior::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "T_D^U must be positive")]
    fn rejects_zero_detection_time() {
        QosSpec::new(0.0, 1.0, 1.0);
    }

    #[test]
    fn max_mistake_rate_is_reciprocal() {
        let s = spec(1.0, 50.0, 1.0);
        assert!((s.max_mistake_rate() - 0.02).abs() < 1e-12);
    }
}
