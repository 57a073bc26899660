//! A registry of named metric families with label support.
//!
//! A **family** is one exposition name (`twofd_shard_received_total`),
//! one kind (counter / gauge / histogram), one help string and one label
//! schema; its **children** are the concrete metric cells, keyed by
//! label values. Resolving a child (`CounterVec::with`) takes the
//! registry lock once and returns a lock-free handle ([`Counter`],
//! [`Gauge`], [`Histogram`]) that the hot path updates without ever
//! touching the registry again — the intended pattern is *resolve at
//! construction, update forever*.
//!
//! Snapshot-style values (queue depths, live/suspect tallies, the
//! per-stream QoS estimates) are pulled, not pushed: a **scrape hook**
//! registered with [`Registry::on_scrape`] runs at the start of every
//! [`Registry::render`] call, before the exposition lock is taken, and
//! copies current state into gauges. Hooks must therefore not call
//! `render` themselves, but may freely resolve children.
//!
//! `Registry` is `Clone`; clones share the same family table, so one
//! registry can be threaded through the runtime, the service layer and
//! the HTTP exposition thread without an outer `Arc`.

use crate::metric::{Counter, Gauge, Histogram};
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Log-linear duration histogram.
    Histogram,
}

#[derive(Clone)]
pub(crate) enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    pub(crate) label_names: Vec<String>,
    pub(crate) children: BTreeMap<Vec<String>, Cell>,
}

type Families = BTreeMap<String, Family>;
type ScrapeHook = Arc<dyn Fn() + Send + Sync>;

/// A shared table of metric families. See the module docs.
#[derive(Clone, Default)]
pub struct Registry {
    pub(crate) families: Arc<Mutex<Families>>,
    hooks: Arc<Mutex<Vec<ScrapeHook>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("families", &families.keys().collect::<Vec<_>>())
            .finish()
    }
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().enumerate().all(|(i, b)| {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
        })
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .enumerate()
            .all(|(i, b)| b.is_ascii_alphabetic() || b == b'_' || (i > 0 && b.is_ascii_digit()))
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&self, name: &str, help: &str, kind: MetricKind, labels: &[&str]) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(
            labels.iter().all(|l| valid_label_name(l)),
            "invalid label name in {labels:?}"
        );
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            label_names: labels.iter().map(|s| s.to_string()).collect(),
            children: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} re-registered with a different kind"
        );
        assert_eq!(
            family.label_names, labels,
            "metric {name} re-registered with a different label schema"
        );
    }

    fn child(&self, name: &str, values: &[&str]) -> Cell {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.get_mut(name).expect("family registered");
        assert_eq!(
            family.label_names.len(),
            values.len(),
            "metric {name}: {} label value(s) given, {} expected",
            values.len(),
            family.label_names.len()
        );
        let kind = family.kind;
        family
            .children
            .entry(values.iter().map(|s| s.to_string()).collect())
            .or_insert_with(|| match kind {
                MetricKind::Counter => Cell::Counter(Counter::new()),
                MetricKind::Gauge => Cell::Gauge(Gauge::new()),
                MetricKind::Histogram => Cell::Histogram(Histogram::new()),
            })
            .clone()
    }

    fn remove_child(&self, name: &str, values: &[&str]) -> bool {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.get_mut(name).expect("family registered");
        let key: Vec<String> = values.iter().map(|s| s.to_string()).collect();
        family.children.remove(&key).is_some()
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_vec(name, help, &[]).with(&[])
    }

    /// Registers (or finds) a labeled counter family.
    pub fn counter_vec(&self, name: &str, help: &str, labels: &[&str]) -> CounterVec {
        self.family(name, help, MetricKind::Counter, labels);
        CounterVec {
            registry: self.clone(),
            name: name.to_string(),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_vec(name, help, &[]).with(&[])
    }

    /// Registers (or finds) a labeled gauge family.
    pub fn gauge_vec(&self, name: &str, help: &str, labels: &[&str]) -> GaugeVec {
        self.family(name, help, MetricKind::Gauge, labels);
        GaugeVec {
            registry: self.clone(),
            name: name.to_string(),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_vec(name, help, &[]).with(&[])
    }

    /// Registers (or finds) a labeled histogram family.
    pub fn histogram_vec(&self, name: &str, help: &str, labels: &[&str]) -> HistogramVec {
        self.family(name, help, MetricKind::Histogram, labels);
        HistogramVec {
            registry: self.clone(),
            name: name.to_string(),
        }
    }

    /// Registers a scrape hook, run at the start of every
    /// [`Registry::render`] (and therefore on every `/metrics` request)
    /// *before* the exposition lock is taken. Hooks may resolve and set
    /// metrics but must not call `render`.
    pub fn on_scrape(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.hooks
            .lock()
            .expect("registry poisoned")
            .push(Arc::new(hook));
    }

    /// Runs the scrape hooks and renders the Prometheus text exposition.
    pub fn render(&self) -> String {
        let hooks: Vec<ScrapeHook> = self.hooks.lock().expect("registry poisoned").clone();
        for hook in hooks {
            hook();
        }
        crate::expose::render(self)
    }
}

macro_rules! vec_handle {
    ($(#[$doc:meta])* $name:ident, $cell:ident, $out:ty) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $name {
            registry: Registry,
            name: String,
        }

        impl $name {
            /// Resolves the child for these label values (creating it at
            /// zero if new) and returns its lock-free handle.
            ///
            /// # Panics
            /// If the number of values does not match the family's label
            /// schema.
            pub fn with(&self, values: &[&str]) -> $out {
                match self.registry.child(&self.name, values) {
                    Cell::$cell(c) => c,
                    _ => unreachable!("kind checked at registration"),
                }
            }

            /// Drops the child for these label values, so it is no
            /// longer rendered; returns whether it existed. Handles
            /// already resolved are detached: a later `with` starts a
            /// new child at zero.
            pub fn remove(&self, values: &[&str]) -> bool {
                self.registry.remove_child(&self.name, values)
            }

            /// The family's exposition name.
            pub fn name(&self) -> &str {
                &self.name
            }
        }
    };
}

vec_handle!(
    /// A labeled counter family; `with` resolves one counter per label
    /// combination.
    CounterVec,
    Counter,
    Counter
);
vec_handle!(
    /// A labeled gauge family; `with` resolves one gauge per label
    /// combination.
    GaugeVec,
    Gauge,
    Gauge
);
vec_handle!(
    /// A labeled histogram family; `with` resolves one histogram per
    /// label combination.
    HistogramVec,
    Histogram,
    Histogram
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_cells_across_resolutions() {
        let r = Registry::new();
        let v = r.counter_vec("twofd_test_total", "help", &["shard"]);
        v.with(&["0"]).inc();
        v.with(&["0"]).add(2);
        v.with(&["1"]).inc();
        assert_eq!(v.with(&["0"]).get(), 3);
        assert_eq!(v.with(&["1"]).get(), 1);
    }

    #[test]
    fn removed_children_are_not_rendered_and_restart_from_zero() {
        let r = Registry::new();
        let v = r.gauge_vec("twofd_test_level", "help", &["stream"]);
        let five = v.with(&["5"]);
        five.set(0.25);
        v.with(&["6"]).set(0.5);
        assert!(v.remove(&["5"]));
        assert!(!v.remove(&["5"]), "already gone");
        let text = r.render();
        assert!(!text.contains("stream=\"5\""), "{text}");
        assert!(
            text.contains("twofd_test_level{stream=\"6\"} 0.5"),
            "{text}"
        );
        // The old handle is detached; resolving again starts from zero.
        five.set(0.75);
        assert_eq!(v.with(&["5"]).get(), 0.0);
    }

    #[test]
    fn clones_share_the_table() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("twofd_a_total", "a").inc();
        assert_eq!(r2.counter("twofd_a_total", "a").get(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("twofd_x", "x");
        let _ = r.gauge("twofd_x", "x");
    }

    #[test]
    #[should_panic(expected = "different label schema")]
    fn label_schema_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter_vec("twofd_x_total", "x", &["a"]);
        let _ = r.counter_vec("twofd_x_total", "x", &["b"]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let r = Registry::new();
        let _ = r.counter("0bad", "x");
    }

    #[test]
    fn scrape_hooks_run_before_render() {
        let r = Registry::new();
        let g = r.gauge("twofd_depth", "queue depth");
        let hook_gauge = g.clone();
        r.on_scrape(move || hook_gauge.set(42.0));
        assert!(r.render().contains("twofd_depth 42"));
    }
}
