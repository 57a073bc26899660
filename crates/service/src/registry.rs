//! Application registry for the shared failure-detection service.
//!
//! Section V of the paper considers `n` applications (or VMs) on one
//! physical host, each with its own QoS requirement tuple, all monitoring
//! the same remote host through a single shared heartbeat stream.
//! [`AppRegistry`] holds the applications and their requirements.

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
        });
        id
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
    fn apps_keep_registration_order() {
        let mut r = AppRegistry::new();
        r.register("first", spec(1.0));
        r.register("second", spec(2.0));
        let names: Vec<_> = r.apps().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }
}
