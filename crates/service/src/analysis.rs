//! Empirical QoS analysis of the shared service (§V-C.1, plus the
//! paper's proposed future work: "an empirical analysis on resulting QoS
//! of applications using the service").
//!
//! For every registered application the analysis replays two deployments
//! over equivalent network conditions:
//!
//! * **dedicated** — a heartbeat stream at the app's own `Δi_j`, a
//!   detector with its own `Δto_j`;
//! * **shared** — the single stream at `Δi_min`, a detector with the
//!   app's widened margin `Δto_j' = T_D,j − Δi_min`.
//!
//! The paper predicts: detection budgets identical, and for every
//! *adapted* application (one whose own `Δi_j > Δi_min`) both the mistake
//! rate and the mistake duration improve. [`analyze`] measures exactly
//! that, alongside the network-load comparison.

use crate::accounting::{load_report, LoadReport};
use crate::combine::{combine, CombineError, SharedConfig};
use crate::registry::{AppId, AppRegistry};
use twofd_core::{replay, DetectorConfig, DetectorSpec, NetworkBehavior, QosMetrics};
use twofd_sim::time::Span;
use twofd_trace::Trace;

/// QoS of one application under both deployments.
#[derive(Debug, Clone, PartialEq)]
pub struct AppQosComparison {
    /// The application.
    pub id: AppId,
    /// Its name.
    pub name: String,
    /// Whether the shared service adapted its parameters.
    pub adapted: bool,
    /// Metrics with a dedicated detector at `(Δi_j, Δto_j)`.
    pub dedicated: QosMetrics,
    /// Metrics on the shared stream at `(Δi_min, Δto_j')`.
    pub shared: QosMetrics,
}

/// Full analysis output.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAnalysis {
    /// The combined configuration under analysis.
    pub config: SharedConfig,
    /// Per-application QoS comparison, in registry order.
    pub apps: Vec<AppQosComparison>,
    /// The network-load comparison.
    pub load: LoadReport,
}

/// Runs the full shared-vs-dedicated analysis.
///
/// `trace_for_interval` must produce a heartbeat trace of the *same
/// network conditions* for any requested sending interval — the analysis
/// calls it once per distinct interval (the shared `Δi_min` plus each
/// app's dedicated `Δi_j`).
pub fn analyze(
    registry: &AppRegistry,
    net: &NetworkBehavior,
    spec: &DetectorSpec,
    horizon: Span,
    mut trace_for_interval: impl FnMut(Span) -> Trace,
) -> Result<ServiceAnalysis, CombineError> {
    let config = combine(registry, net)?;
    let shared_trace = trace_for_interval(config.interval);
    assert_eq!(
        shared_trace.interval, config.interval,
        "trace_for_interval must honour the requested interval"
    );

    let mut apps = Vec::with_capacity(config.shares.len());
    for share in &config.shares {
        // Dedicated deployment.
        let dedicated_trace = if share.dedicated.interval == config.interval {
            shared_trace.clone()
        } else {
            trace_for_interval(share.dedicated.interval)
        };
        let mut fd = DetectorConfig::new(
            spec.clone(),
            share.dedicated.interval,
            share.dedicated.safety_margin.as_secs_f64(),
        )
        .build();
        let dedicated = replay(&mut fd, &dedicated_trace).metrics();

        // Shared deployment.
        let mut fd = DetectorConfig::new(
            spec.clone(),
            config.interval,
            share.shared_margin.as_secs_f64(),
        )
        .build();
        let shared = replay(&mut fd, &shared_trace).metrics();

        apps.push(AppQosComparison {
            id: share.id,
            name: share.name.clone(),
            adapted: share.adapted,
            dedicated,
            shared,
        });
    }

    let load = load_report(&config, horizon);
    Ok(ServiceAnalysis { config, apps, load })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twofd_core::QosSpec;
    use twofd_sim::{DelaySpec, DistSpec, LossSpec, NetworkScenario};
    use twofd_trace::generate_scripted;

    fn lossy_trace(interval: Span) -> Trace {
        // ~60 s of heartbeats with moderate jitter and loss, scaled to
        // the interval so all traces cover the same wall-clock span.
        let n = (60.0 / interval.as_secs_f64()).ceil() as u64;
        let scenario = NetworkScenario::uniform(
            "svc",
            n,
            DelaySpec::Iid {
                dist: DistSpec::LogNormal {
                    mean: 0.02,
                    std_dev: 0.01,
                },
                floor_nanos: 100_000,
            },
            LossSpec::Bernoulli { p: 0.02 },
        );
        generate_scripted("svc", interval, scenario, 77, None)
    }

    fn registry() -> AppRegistry {
        let mut r = AppRegistry::new();
        r.register("strict", QosSpec::new(0.25, 86_400.0, 0.3));
        r.register("lax", QosSpec::new(2.0, 600.0, 1.5));
        r
    }

    fn net() -> NetworkBehavior {
        NetworkBehavior::new(0.02, 0.01 * 0.01)
    }

    #[test]
    fn analysis_covers_all_apps_and_load() {
        let analysis = analyze(
            &registry(),
            &net(),
            &DetectorSpec::default(),
            Span::from_secs(3600),
            lossy_trace,
        )
        .unwrap();
        assert_eq!(analysis.apps.len(), 2);
        assert!(analysis.load.reduction_factor > 1.0);
    }

    #[test]
    fn adapted_app_mistake_rate_improves_or_holds() {
        let analysis = analyze(
            &registry(),
            &net(),
            &DetectorSpec::Chen { window: 1000 },
            Span::from_secs(3600),
            lossy_trace,
        )
        .unwrap();
        let lax = analysis.apps.iter().find(|a| a.name == "lax").unwrap();
        assert!(lax.adapted);
        assert!(
            lax.shared.mistake_rate <= lax.dedicated.mistake_rate + 1e-12,
            "shared {} vs dedicated {}",
            lax.shared.mistake_rate,
            lax.dedicated.mistake_rate
        );
    }

    #[test]
    fn non_adapted_app_unchanged_in_configuration() {
        let analysis = analyze(
            &registry(),
            &net(),
            &DetectorSpec::default(),
            Span::from_secs(60),
            lossy_trace,
        )
        .unwrap();
        // The strictest app defines Δi_min: by definition not adapted.
        let strict = analysis.apps.iter().find(|a| a.name == "strict").unwrap();
        assert!(!strict.adapted);
        let share = analysis.config.share(strict.id).unwrap();
        assert_eq!(share.shared_margin, share.dedicated.safety_margin);
    }

    #[test]
    #[should_panic(expected = "must honour the requested interval")]
    fn mismatched_trace_interval_is_rejected() {
        let _ = analyze(
            &registry(),
            &net(),
            &DetectorSpec::default(),
            Span::from_secs(60),
            |_interval| lossy_trace(Span::from_millis(999)),
        );
    }
}
