//! Network-load accounting: shared service vs. dedicated detectors.
//!
//! The paper's final claim (§V-C.1): "network traffic is reduced from the
//! case of using a single failure detector per application, because in
//! that case, for each app_j a heartbeat should be sent every Δi_j."
//! This module quantifies it: heartbeats per second and total messages
//! over an horizon, for both deployments.

use crate::combine::SharedConfig;
use twofd_sim::time::Span;

/// Message-load comparison over a given horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Horizon the totals are computed over, seconds.
    pub horizon_secs: f64,
    /// Heartbeats per second on the wire with the shared service.
    pub shared_rate: f64,
    /// Heartbeats per second with one dedicated detector per app.
    pub dedicated_rate: f64,
    /// Total messages with the shared service.
    pub shared_messages: u64,
    /// Total messages with dedicated detectors.
    pub dedicated_messages: u64,
    /// `dedicated_rate / shared_rate`.
    pub reduction_factor: f64,
    /// Absolute messages saved over the horizon.
    pub messages_saved: u64,
}

/// Computes the load comparison for a combined configuration.
pub fn load_report(config: &SharedConfig, horizon: Span) -> LoadReport {
    let horizon_secs = horizon.as_secs_f64();
    let shared_rate = config.shared_rate();
    let dedicated_rate = config.dedicated_rate();
    let count = |rate: f64| (rate * horizon_secs).floor() as u64;
    let shared_messages = count(shared_rate);
    let dedicated_messages: u64 = config
        .shares
        .iter()
        .map(|s| count(1.0 / s.dedicated.interval.as_secs_f64()))
        .sum();
    LoadReport {
        horizon_secs,
        shared_rate,
        dedicated_rate,
        shared_messages,
        dedicated_messages,
        reduction_factor: dedicated_rate / shared_rate,
        messages_saved: dedicated_messages.saturating_sub(shared_messages),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::combine;
    use crate::registry::AppRegistry;
    use twofd_core::{NetworkBehavior, QosSpec};

    fn config(specs: &[(f64, f64, f64)]) -> SharedConfig {
        let mut r = AppRegistry::new();
        for (i, &(td, tmr, tm)) in specs.iter().enumerate() {
            r.register(format!("app{i}"), QosSpec::new(td, tmr, tm));
        }
        combine(&r, &NetworkBehavior::new(0.01, 0.0004)).unwrap()
    }

    #[test]
    fn shared_never_exceeds_dedicated() {
        let cfg = config(&[(0.5, 3600.0, 0.5), (2.0, 600.0, 1.0), (5.0, 60.0, 3.0)]);
        let report = load_report(&cfg, Span::from_secs(3600));
        assert!(report.shared_messages <= report.dedicated_messages);
        assert!(report.reduction_factor >= 1.0);
        assert_eq!(
            report.messages_saved,
            report.dedicated_messages - report.shared_messages
        );
    }

    #[test]
    fn single_app_sees_no_reduction() {
        let cfg = config(&[(1.0, 3600.0, 1.0)]);
        let report = load_report(&cfg, Span::from_secs(100));
        assert!((report.reduction_factor - 1.0).abs() < 1e-9);
        assert_eq!(report.messages_saved, 0);
    }

    #[test]
    fn rates_are_reciprocal_intervals() {
        let cfg = config(&[(0.5, 3600.0, 0.5), (2.0, 600.0, 1.0)]);
        let report = load_report(&cfg, Span::from_secs(10));
        let expect_shared = 1.0 / cfg.interval.as_secs_f64();
        assert!((report.shared_rate - expect_shared).abs() < 1e-9);
        assert!(report.dedicated_rate > report.shared_rate);
    }

    #[test]
    fn reduction_grows_with_heterogeneous_apps() {
        let homo = config(&[(1.0, 3600.0, 1.0), (1.0, 3600.0, 1.0)]);
        let hetero = config(&[(0.3, 86_400.0, 0.3), (5.0, 60.0, 3.0)]);
        let r_homo = load_report(&homo, Span::from_secs(100)).reduction_factor;
        let r_hetero = load_report(&hetero, Span::from_secs(100)).reduction_factor;
        // Identical apps: dedicated streams are identical → factor n.
        assert!((r_homo - 2.0).abs() < 1e-6);
        // Heterogeneous: the lax app's slow stream is replaced by the
        // strict app's fast one → factor between 1 and 2.
        assert!(r_hetero > 1.0 && r_hetero < 2.0);
    }
}
