//! Combining multiple QoS requirements (§V-C of the paper).
//!
//! One physical machine sends a single heartbeat stream that must serve
//! every application's failure detector. The paper's procedure:
//!
//! 1. For each application `app_j`, run Chen's configuration procedure on
//!    its own tuple, obtaining `(Δi_j, Δto_j)`.
//! 2. Use `Δi_min = min_j Δi_j` as the shared heartbeat interval.
//! 3. Give each application the timeout `Δto_j' = T_D,j − Δi_min`, so its
//!    detection-time budget is preserved *exactly*.
//! 4. The service computes freshness points per application from its own
//!    `Δto_j'`.
//!
//! Consequences (§V-C.1): every application whose own `Δi_j` exceeded
//! `Δi_min` gets a **larger** safety margin and a **faster** heartbeat
//! than it asked for — both its mistake rate and its mistake duration
//! improve — while the network carries one stream instead of `n`.

use crate::registry::{AppId, AppRegistry};
use twofd_core::{configure, ConfigError, FdConfig, NetworkBehavior};
use twofd_sim::time::Span;

/// Per-application share of the combined configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AppShare {
    /// The application this share belongs to.
    pub id: AppId,
    /// Application name (echoed for reporting).
    pub name: String,
    /// The configuration the app would use with a dedicated detector.
    pub dedicated: FdConfig,
    /// The safety margin under the shared stream:
    /// `Δto' = T_D − Δi_min ≥ Δto`.
    pub shared_margin: Span,
    /// Whether the app's parameters were adapted (its own `Δi_j` was not
    /// the minimum).
    pub adapted: bool,
}

/// The combined service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedConfig {
    /// The shared heartbeat interval `Δi_min`.
    pub interval: Span,
    /// Per-application shares, in registry order.
    pub shares: Vec<AppShare>,
}

impl SharedConfig {
    /// The share of a specific application.
    pub fn share(&self, id: AppId) -> Option<&AppShare> {
        self.shares.iter().find(|s| s.id == id)
    }

    /// Heartbeats per second of the shared stream.
    pub fn shared_rate(&self) -> f64 {
        1.0 / self.interval.as_secs_f64()
    }

    /// Heartbeats per second if every app ran a dedicated detector.
    pub fn dedicated_rate(&self) -> f64 {
        self.shares
            .iter()
            .map(|s| 1.0 / s.dedicated.interval.as_secs_f64())
            .sum()
    }
}

/// Errors from combining requirements.
#[derive(Debug, Clone, PartialEq)]
pub enum CombineError {
    /// No applications are registered.
    EmptyRegistry,
    /// One application's own QoS tuple is unachievable on this network.
    AppUnachievable {
        /// The offending application.
        id: AppId,
        /// Its name.
        name: String,
        /// The underlying configuration error.
        source: ConfigError,
    },
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineError::EmptyRegistry => write!(f, "no applications registered"),
            CombineError::AppUnachievable { name, source, .. } => {
                write!(f, "application {name:?}: {source}")
            }
        }
    }
}

impl std::error::Error for CombineError {}

/// Runs Steps 1–3 of §V-C for every registered application.
///
/// ```
/// use twofd_core::{NetworkBehavior, QosSpec};
/// use twofd_service::{combine, AppRegistry};
///
/// let mut apps = AppRegistry::new();
/// apps.register("strict", QosSpec::new(0.5, 86_400.0, 0.5));
/// apps.register("lax", QosSpec::new(5.0, 600.0, 3.0));
/// let net = NetworkBehavior::new(0.01, 0.0004);
///
/// let shared = combine(&apps, &net).unwrap();
/// // One heartbeat stream at the strictest app's interval…
/// assert!(shared.interval.as_secs_f64() < 0.5);
/// // …and fewer messages than one detector per app.
/// assert!(shared.dedicated_rate() > shared.shared_rate());
/// ```
pub fn combine(
    registry: &AppRegistry,
    net: &NetworkBehavior,
) -> Result<SharedConfig, CombineError> {
    if registry.is_empty() {
        return Err(CombineError::EmptyRegistry);
    }

    // Step 1: per-app dedicated configurations.
    let mut dedicated = Vec::with_capacity(registry.len());
    for app in registry.apps() {
        let cfg = configure(&app.qos, net).map_err(|source| CombineError::AppUnachievable {
            id: app.id,
            name: app.name.clone(),
            source,
        })?;
        dedicated.push((app, cfg));
    }

    // Step 2: the shared interval is the minimum.
    let interval = dedicated
        .iter()
        .map(|(_, cfg)| cfg.interval)
        .min()
        .expect("registry not empty");

    // Step 3: per-app shared margins preserve each detection budget.
    let shares = dedicated
        .into_iter()
        .map(|(app, cfg)| {
            let shared_margin = Span::from_secs_f64(app.qos.detection_time) - interval;
            AppShare {
                id: app.id,
                name: app.name.clone(),
                adapted: cfg.interval > interval,
                dedicated: cfg,
                shared_margin,
            }
        })
        .collect();

    Ok(SharedConfig { interval, shares })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twofd_core::QosSpec;

    fn net() -> NetworkBehavior {
        NetworkBehavior::new(0.01, 0.02 * 0.02)
    }

    fn registry_of(specs: &[(&str, f64, f64, f64)]) -> AppRegistry {
        let mut r = AppRegistry::new();
        for &(name, td, tmr, tm) in specs {
            r.register(name, QosSpec::new(td, tmr, tm));
        }
        r
    }

    #[test]
    fn empty_registry_is_an_error() {
        assert_eq!(
            combine(&AppRegistry::new(), &net()),
            Err(CombineError::EmptyRegistry)
        );
    }

    #[test]
    fn single_app_matches_dedicated_configuration() {
        let r = registry_of(&[("only", 1.0, 3600.0, 1.0)]);
        let combined = combine(&r, &net()).unwrap();
        let share = &combined.shares[0];
        assert_eq!(combined.interval, share.dedicated.interval);
        assert_eq!(share.shared_margin, share.dedicated.safety_margin);
        assert!(!share.adapted);
        assert!((combined.dedicated_rate() / combined.shared_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_interval_is_the_minimum() {
        let r = registry_of(&[("strict", 0.3, 86_400.0, 0.5), ("lax", 3.0, 600.0, 2.0)]);
        let combined = combine(&r, &net()).unwrap();
        let min = combined
            .shares
            .iter()
            .map(|s| s.dedicated.interval)
            .min()
            .unwrap();
        assert_eq!(combined.interval, min);
    }

    #[test]
    fn detection_budget_preserved_exactly_for_every_app() {
        let r = registry_of(&[
            ("a", 0.4, 3600.0, 0.5),
            ("b", 1.0, 600.0, 1.0),
            ("c", 5.0, 60.0, 3.0),
        ]);
        let combined = combine(&r, &net()).unwrap();
        for (share, app) in combined.shares.iter().zip(r.apps()) {
            let budget = (combined.interval + share.shared_margin).as_secs_f64();
            assert!(
                (budget - app.qos.detection_time).abs() < 1e-6,
                "{}: budget {budget} vs T_D {}",
                share.name,
                app.qos.detection_time
            );
        }
    }

    #[test]
    fn adapted_apps_get_larger_margins() {
        let r = registry_of(&[("strict", 0.3, 86_400.0, 0.5), ("lax", 3.0, 600.0, 2.0)]);
        let combined = combine(&r, &net()).unwrap();
        let lax = combined.shares.iter().find(|s| s.name == "lax").unwrap();
        assert!(lax.adapted);
        assert!(lax.shared_margin > lax.dedicated.safety_margin);
    }

    #[test]
    fn load_reduction_grows_with_apps() {
        let two = registry_of(&[("a", 0.5, 3600.0, 0.5), ("b", 2.0, 600.0, 1.0)]);
        let three = registry_of(&[
            ("a", 0.5, 3600.0, 0.5),
            ("b", 2.0, 600.0, 1.0),
            ("c", 4.0, 300.0, 2.0),
        ]);
        let reduction = |c: SharedConfig| c.dedicated_rate() / c.shared_rate();
        let r2 = reduction(combine(&two, &net()).unwrap());
        let r3 = reduction(combine(&three, &net()).unwrap());
        assert!(r2 > 1.0);
        assert!(r3 > r2);
    }

    #[test]
    fn unachievable_app_is_reported_by_name() {
        let mut r = AppRegistry::new();
        r.register("fine", QosSpec::new(1.0, 3600.0, 1.0));
        r.register("impossible", QosSpec::new(0.1, 1e12, 1e-6));
        let err = combine(&r, &NetworkBehavior::new(0.5, 1.0)).unwrap_err();
        match err {
            CombineError::AppUnachievable { name, .. } => assert_eq!(name, "impossible"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn share_lookup_by_id() {
        let r = registry_of(&[("a", 0.5, 3600.0, 0.5), ("b", 2.0, 600.0, 1.0)]);
        let combined = combine(&r, &net()).unwrap();
        let id = r.apps()[1].id;
        assert_eq!(combined.share(id).unwrap().name, "b");
        assert!(combined.share(AppId(999)).is_none());
    }
}
