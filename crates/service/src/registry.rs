//! Application registry for the shared failure-detection service.
//!
//! Section V of the paper considers `n` applications (or VMs) on one
//! physical host, each with its own QoS requirement tuple, all monitoring
//! the same remote host through a single shared heartbeat stream.
//! [`AppRegistry`] holds the applications and their requirements.
//!
//! With the sharded fleet runtime one service endpoint multiplexes many
//! heartbeat streams, so each application additionally *binds* to the
//! stream id it monitors. The registry can then answer, per stream, the
//! strictest QoS any bound application demands — which is what the
//! detector factory needs when a shard instantiates a stream's detector.

use twofd_core::QosSpec;

/// Identifier of a registered application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u32);

/// A registered application with its QoS requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRequirement {
    /// Stable identifier.
    pub id: AppId,
    /// Human-readable name.
    pub name: String,
    /// The application's QoS tuple `(T_Dᵁ, T_MRᵁ, T_Mᵁ)`.
    pub qos: QosSpec,
    /// Wire stream id this application monitors, once bound
    /// (`None` for apps on the legacy single-stream deployment).
    pub stream: Option<u64>,
}

/// The set of applications sharing one failure-detection service.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppRegistry {
    apps: Vec<AppRequirement>,
    next_id: u32,
}

impl AppRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an application, returning its id.
    pub fn register(&mut self, name: impl Into<String>, qos: QosSpec) -> AppId {
        let id = AppId(self.next_id);
        self.next_id += 1;
        self.apps.push(AppRequirement {
            id,
            name: name.into(),
            qos,
            stream: None,
        });
        id
    }

    /// Registers an application already bound to a heartbeat stream.
    pub fn register_on_stream(
        &mut self,
        name: impl Into<String>,
        qos: QosSpec,
        stream: u64,
    ) -> AppId {
        let id = self.register(name, qos);
        self.bind_stream(id, stream);
        id
    }

    /// Binds (or re-binds) an application to a heartbeat stream; returns
    /// whether the application exists.
    pub fn bind_stream(&mut self, id: AppId, stream: u64) -> bool {
        match self.apps.iter_mut().find(|a| a.id == id) {
            Some(app) => {
                app.stream = Some(stream);
                true
            }
            None => false,
        }
    }

    /// The stream an application is bound to, if any.
    pub fn stream_of(&self, id: AppId) -> Option<u64> {
        self.get(id).and_then(|a| a.stream)
    }

    /// All applications bound to `stream`, in registration order.
    pub fn apps_on_stream(&self, stream: u64) -> Vec<&AppRequirement> {
        self.apps
            .iter()
            .filter(|a| a.stream == Some(stream))
            .collect()
    }

    /// The strictest QoS demanded by any application bound to `stream`:
    /// componentwise minimum of `T_Dᵁ` and `T_Mᵁ`, maximum of `T_MRᵁ`
    /// (shorter detection/mistake-duration bounds and longer
    /// mistake-recurrence bounds are all *harder* to satisfy). `None`
    /// when no application is bound to the stream.
    pub fn strictest_qos_for_stream(&self, stream: u64) -> Option<QosSpec> {
        self.apps_on_stream(stream)
            .into_iter()
            .map(|a| a.qos)
            .reduce(|acc, q| QosSpec {
                detection_time: acc.detection_time.min(q.detection_time),
                mistake_recurrence: acc.mistake_recurrence.max(q.mistake_recurrence),
                mistake_duration: acc.mistake_duration.min(q.mistake_duration),
            })
    }

    /// The [`DetectorConfig`](twofd_core::DetectorConfig) a shard should
    /// run for `stream`: the given algorithm `spec` at the `(Δi, Δto)`
    /// that Chen's configuration procedure derives from the strictest QoS
    /// any bound application demands under network behaviour `net`.
    ///
    /// `None` when no application is bound to the stream;
    /// `Some(Err(_))` when the strictest requirement is infeasible under
    /// `net` (Eq. 16 has no solution).
    pub fn detector_config_for_stream(
        &self,
        stream: u64,
        net: &twofd_core::NetworkBehavior,
        spec: &twofd_core::DetectorSpec,
    ) -> Option<Result<twofd_core::DetectorConfig, twofd_core::ConfigError>> {
        let qos = self.strictest_qos_for_stream(stream)?;
        Some(
            twofd_core::configure(&qos, net)
                .map(|fd_config| twofd_core::DetectorConfig::from_qos(spec.clone(), &fd_config)),
        )
    }

    /// Removes an application; returns whether it existed.
    pub fn deregister(&mut self, id: AppId) -> bool {
        let before = self.apps.len();
        self.apps.retain(|a| a.id != id);
        self.apps.len() != before
    }

    /// Looks up an application.
    pub fn get(&self, id: AppId) -> Option<&AppRequirement> {
        self.apps.iter().find(|a| a.id == id)
    }

    /// All registered applications, in registration order.
    pub fn apps(&self) -> &[AppRequirement] {
        &self.apps
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True when no application is registered.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(td: f64) -> QosSpec {
        QosSpec::new(td, 3600.0, 1.0)
    }

    #[test]
    fn register_assigns_unique_ids() {
        let mut r = AppRegistry::new();
        let a = r.register("a", spec(1.0));
        let b = r.register("b", spec(2.0));
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).unwrap().name, "a");
        assert_eq!(r.get(b).unwrap().qos.detection_time, 2.0);
    }

    #[test]
    fn deregister_removes() {
        let mut r = AppRegistry::new();
        let a = r.register("a", spec(1.0));
        assert!(r.deregister(a));
        assert!(!r.deregister(a));
        assert!(r.is_empty());
        assert_eq!(r.get(a), None);
    }

    #[test]
    fn ids_are_not_reused_after_deregistration() {
        let mut r = AppRegistry::new();
        let a = r.register("a", spec(1.0));
        r.deregister(a);
        let b = r.register("b", spec(1.0));
        assert_ne!(a, b);
    }

    #[test]
    fn stream_binding_round_trips() {
        let mut r = AppRegistry::new();
        let a = r.register("a", spec(1.0));
        assert_eq!(r.stream_of(a), None);
        assert!(r.bind_stream(a, 7));
        assert_eq!(r.stream_of(a), Some(7));
        // Re-binding moves the app to the new stream.
        assert!(r.bind_stream(a, 8));
        assert_eq!(r.stream_of(a), Some(8));
        assert!(r.apps_on_stream(7).is_empty());
        // Unknown app ids are reported, not silently ignored.
        assert!(!r.bind_stream(AppId(999), 1));
    }

    #[test]
    fn apps_on_stream_filters_and_preserves_order() {
        let mut r = AppRegistry::new();
        let a = r.register_on_stream("a", spec(1.0), 5);
        let _b = r.register_on_stream("b", spec(2.0), 6);
        let c = r.register_on_stream("c", spec(3.0), 5);
        let on5: Vec<_> = r.apps_on_stream(5).iter().map(|x| x.id).collect();
        assert_eq!(on5, vec![a, c]);
    }

    #[test]
    fn strictest_qos_takes_hardest_component_bounds() {
        let mut r = AppRegistry::new();
        r.register_on_stream("fast-detect", QosSpec::new(0.5, 600.0, 2.0), 1);
        r.register_on_stream("rare-mistakes", QosSpec::new(4.0, 86_400.0, 0.3), 1);
        let q = r.strictest_qos_for_stream(1).unwrap();
        assert_eq!(q.detection_time, 0.5);
        assert_eq!(q.mistake_recurrence, 86_400.0);
        assert_eq!(q.mistake_duration, 0.3);
        assert_eq!(r.strictest_qos_for_stream(2), None);
    }

    #[test]
    fn detector_config_for_stream_follows_strictest_qos() {
        use twofd_core::{DetectorSpec, NetworkBehavior};
        let mut r = AppRegistry::new();
        r.register_on_stream("lax", QosSpec::new(4.0, 600.0, 2.0), 1);
        r.register_on_stream("strict", QosSpec::new(0.5, 3600.0, 0.5), 1);
        let net = NetworkBehavior::new(0.01, 0.02 * 0.02);
        let spec = DetectorSpec::default();

        let config = r
            .detector_config_for_stream(1, &net, &spec)
            .expect("stream 1 has apps")
            .expect("feasible requirement");
        assert_eq!(config.spec, spec);
        // The derived interval must fit inside the strictest detection
        // budget (Δi ≤ T_D by Eq. 14/15), not the lax app's.
        assert!(config.interval.as_secs_f64() <= 0.5);
        assert!(config.tuning >= 0.0);

        assert!(r.detector_config_for_stream(2, &net, &spec).is_none());
    }

    #[test]
    fn apps_keep_registration_order() {
        let mut r = AppRegistry::new();
        r.register("first", spec(1.0));
        r.register("second", spec(2.0));
        let names: Vec<_> = r.apps().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }
}
