//! The shared-stream multi-application detector (§V-C Step 4).
//!
//! The service consumes the single heartbeat stream (interval `Δi_min`)
//! and runs, per application, a freshness-point detector parametrized
//! with that application's own margin `Δto_j' = T_D,j − Δi_min`. Each
//! application queries its own view; a crash of the remote host is
//! reported to each application within its own detection-time bound.

use crate::combine::SharedConfig;
use crate::registry::AppId;
use twofd_core::{AnyDetector, Decision, DetectorConfig, DetectorSpec, FailureDetector, FdOutput};
use twofd_sim::time::{Nanos, Span};

/// One application's live detector inside the service.
struct AppDetector {
    id: AppId,
    /// Inline spec-built detector: the service has no private
    /// construction path — everything goes through [`DetectorSpec`].
    fd: AnyDetector,
}

/// The shared failure-detection service endpoint on the monitoring host.
///
/// Feed it every heartbeat of the shared stream; query any application's
/// output at any instant.
pub struct SharedServiceDetector {
    apps: Vec<AppDetector>,
    interval: Span,
}

impl SharedServiceDetector {
    /// Builds the per-application detectors from a combined
    /// configuration: each application runs `spec` (any algorithm of the
    /// paper's suite) at the shared interval with its own margin
    /// `Δto_j' = T_D,j − Δi_min`.
    pub fn new(config: &SharedConfig, spec: &DetectorSpec) -> Self {
        let apps = config
            .shares
            .iter()
            .map(|share| AppDetector {
                id: share.id,
                fd: DetectorConfig::new(
                    spec.clone(),
                    config.interval,
                    share.shared_margin.as_secs_f64(),
                )
                .build(),
            })
            .collect();
        SharedServiceDetector {
            apps,
            interval: config.interval,
        }
    }

    /// Feeds one shared-stream heartbeat to every application's detector.
    /// Returns the per-application decisions (None entries for stale
    /// deliveries).
    pub fn on_heartbeat(&mut self, seq: u64, arrival: Nanos) -> Vec<(AppId, Option<Decision>)> {
        self.apps
            .iter_mut()
            .map(|a| (a.id, a.fd.on_heartbeat(seq, arrival)))
            .collect()
    }

    /// The output the service reports to application `id` at time `t`.
    pub fn output_for(&self, id: AppId, t: Nanos) -> Option<FdOutput> {
        self.apps
            .iter()
            .find(|a| a.id == id)
            .map(|a| a.fd.output_at(t))
    }

    /// The shared heartbeat interval.
    pub fn interval(&self) -> Span {
        self.interval
    }

    /// Number of applications served.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True when no application is served.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::combine;
    use crate::registry::AppRegistry;
    use twofd_core::{NetworkBehavior, QosSpec};

    fn service(spec: &DetectorSpec) -> (SharedServiceDetector, Vec<AppId>, SharedConfig) {
        let mut r = AppRegistry::new();
        let strict = r.register("strict", QosSpec::new(0.4, 86_400.0, 0.5));
        let lax = r.register("lax", QosSpec::new(3.0, 600.0, 2.0));
        let net = NetworkBehavior::new(0.01, 0.02 * 0.02);
        let cfg = combine(&r, &net).unwrap();
        (
            SharedServiceDetector::new(&cfg, spec),
            vec![strict, lax],
            cfg,
        )
    }

    #[test]
    fn all_apps_trust_after_fresh_heartbeat() {
        let (mut svc, ids, cfg) = service(&DetectorSpec::default());
        let di = cfg.interval;
        for seq in 1..=5u64 {
            svc.on_heartbeat(seq, Nanos(seq * di.0) + Span::from_millis(5));
        }
        let now = Nanos(5 * di.0) + Span::from_millis(6);
        for id in &ids {
            assert_eq!(svc.output_for(*id, now), Some(FdOutput::Trust));
        }
    }

    #[test]
    fn strict_app_suspects_before_lax_app() {
        let (mut svc, ids, cfg) = service(&DetectorSpec::default());
        let di = cfg.interval;
        for seq in 1..=5u64 {
            svc.on_heartbeat(seq, Nanos(seq * di.0) + Span::from_millis(5));
        }
        // Long silence after heartbeat 5.
        let last = Nanos(5 * di.0) + Span::from_millis(5);
        let strict_deadline = last + Span::from_secs_f64(0.4);
        let lax_deadline = last + Span::from_secs_f64(3.0);
        // Shortly after the strict app's budget: strict suspects, lax trusts.
        let t1 = strict_deadline + Span::from_millis(50);
        assert_eq!(svc.output_for(ids[0], t1), Some(FdOutput::Suspect));
        assert_eq!(svc.output_for(ids[1], t1), Some(FdOutput::Trust));
        // Past the lax budget: both suspect.
        let t2 = lax_deadline + Span::from_millis(50);
        assert_eq!(svc.output_for(ids[1], t2), Some(FdOutput::Suspect));
    }

    #[test]
    fn detection_happens_within_each_apps_budget() {
        // The freshness point after the last heartbeat must fall within
        // send-time + T_D for each app (that is what "budget preserved"
        // means operationally).
        let (mut svc, ids, cfg) = service(&DetectorSpec::default());
        let di = cfg.interval;
        let mut decisions = Vec::new();
        for seq in 1..=20u64 {
            decisions = svc.on_heartbeat(seq, Nanos(seq * di.0) + Span::from_millis(5));
        }
        let last_send = Nanos(20 * di.0);
        let budgets = [0.4, 3.0];
        for ((id, d), budget) in decisions.iter().zip(budgets) {
            let d = d.expect("fresh");
            let td = d.trust_until.saturating_since(last_send).as_secs_f64();
            // Within budget plus the observed delay slack (5 ms + estimator noise).
            assert!(
                td <= budget + 0.05,
                "app {id:?}: implied detection {td} vs budget {budget}"
            );
        }
        let _ = ids;
    }

    #[test]
    fn stale_heartbeats_are_stale_for_every_app() {
        let (mut svc, _, cfg) = service(&DetectorSpec::Chen { window: 10 });
        let di = cfg.interval;
        svc.on_heartbeat(5, Nanos(5 * di.0));
        let results = svc.on_heartbeat(4, Nanos(5 * di.0) + Span::from_millis(1));
        assert!(results.iter().all(|(_, d)| d.is_none()));
    }

    #[test]
    fn unknown_app_returns_none() {
        let (svc, _, _) = service(&DetectorSpec::default());
        assert_eq!(svc.output_for(AppId(404), Nanos::ZERO), None);
    }

    #[test]
    fn every_suite_algorithm_works_in_the_service() {
        for spec in [
            DetectorSpec::Chen { window: 100 },
            DetectorSpec::Bertier { window: 100 },
            DetectorSpec::Phi { window: 100 },
            DetectorSpec::Ed { window: 100 },
            DetectorSpec::TwoWindow { n1: 1, n2: 100 },
        ] {
            let (mut svc, ids, cfg) = service(&spec);
            for seq in 1..=3u64 {
                svc.on_heartbeat(seq, Nanos(seq * cfg.interval.0) + Span::from_millis(2));
            }
            let now = Nanos(3 * cfg.interval.0) + Span::from_millis(3);
            assert_eq!(svc.output_for(ids[0], now), Some(FdOutput::Trust));
        }
    }
}
