//! The metric catalogue (the same names, units, directions and bounds
//! as `BENCHMARK.json`) and the per-workload report built from it.

use crate::json::Json;
use crate::stats::{Aggregate, WindowEnv};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub aggregate: Aggregate,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    aggregate: Aggregate,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        aggregate,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        aggregate: Aggregate::Median,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the monitor sees. Every workload reports every one
/// (README.md says what each means on each workload). The bounds are
/// what this host's run-to-run spread allows, not what one would wish:
/// whatever depends on CPU or memory speed drifts by 5–15 % over
/// minutes here, and by 30 % over hours (README.md, "Steadiness").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, Aggregate::Median, 0.25),
    e2e("hb_per_s", "1/s", Higher, Aggregate::Median, 0.25),
    e2e("cpu_ns_per_hb", "ns", Lower, Aggregate::Min, 0.25),
    e2e("suspect_lag_p90_us", "us", Lower, Aggregate::Median, 0.25),
    e2e("trust_path_p90_us", "us", Lower, Aggregate::Median, 0.25),
    e2e("detect_time_p99_ms", "ms", Lower, Aggregate::Median, 0.10),
    e2e(
        "output_queries_per_s",
        "1/s",
        Higher,
        Aggregate::Median,
        0.25,
    ),
    e2e("peak_rss_mb", "MB", Lower, Aggregate::Max, 0.25),
];

/// One layer each; see the README table for the end-to-end metric each
/// should move. A layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("wire.encode_ns", "ns", Lower),
    layer("wire.decode_ns", "ns", Lower),
    layer("intake.send_batch_ns_per_dgram", "ns", Lower),
    layer("intake.recv_batch_ns_per_dgram", "ns", Lower),
    layer("intake.recv_single_ns_per_dgram", "ns", Lower),
    layer("intake.batch_fill", "count", Higher),
    layer("intake.rejected", "count", Lower),
    layer("transport.sim_ns_per_dgram", "ns", Lower),
    layer("fleet.ingest_cpu_ns_per_hb", "ns", Lower),
    layer("shard.worker_cpu_ns_per_hb", "ns", Lower),
    layer("shard.ingest_batch_ns_per_hb", "ns", Lower),
    layer("shard.backlog_mean", "count", Lower),
    layer("shard.backlog_max", "count", Lower),
    layer("shard.dropped", "count", Lower),
    layer("shard.stale", "count", Lower),
    layer("shard.events_dropped", "count", Lower),
    layer("shard.sweep_count", "count", Lower),
    layer("shard.sweep_p50_us", "us", Lower),
    layer("shard.sweep_now_us", "us", Lower),
    layer("shard.flush_us", "us", Lower),
    layer("shard.statuses_us", "us", Lower),
    layer("shard.suspected_us", "us", Lower),
    layer("shard.stats_us", "us", Lower),
    layer("lag.suspect_p50_us", "us", Lower),
    layer("lag.suspect_p99_us", "us", Lower),
    layer("lag.trust_p50_us", "us", Lower),
    layer("lag.trust_p99_us", "us", Lower),
    layer("lag.arrival_stamp_p50_us", "us", Lower),
    layer("multi.apply_ns", "ns", Lower),
    layer("multi.apply_wide_ns", "ns", Lower),
    layer("multi.sweep_ns_per_expiry", "ns", Lower),
    layer("multi.next_expiry_ns", "ns", Lower),
    layer("slab.intern_ns", "ns", Lower),
    layer("wheel.insert_ns", "ns", Lower),
    layer("wheel.advance_ns_per_due", "ns", Lower),
    layer("detector.2w-fd_ns", "ns", Lower),
    layer("detector.chen_ns", "ns", Lower),
    layer("detector.bertier_ns", "ns", Lower),
    layer("detector.phi_ns", "ns", Lower),
    layer("detector.ed_ns", "ns", Lower),
    layer("replay.ns_per_hb", "ns", Lower),
    layer("replay.metrics_us", "us", Lower),
    layer("trace.gen_ns_per_sample", "ns", Lower),
    layer("obs.tracker_ns", "ns", Lower),
    layer("obs.hist_observe_ns", "ns", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("obs.render_ms", "ms", Lower),
    layer("obs.overhead_ratio", "ratio", Lower),
    layer("gen.late_p99_us", "us", Lower),
    layer("gen.late_max_us", "us", Lower),
    layer("gen.cpu_ns_per_hb", "ns", Lower),
    layer("env.steal_ratio", "ratio", Lower),
    layer("env.windows_rerun", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
    layer("hb_lost_ratio", "ratio", Lower),
    layer("verdict_errors", "count", Lower),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured metric: the reported value, the per-window values it
/// was folded from, and for percentiles what they were taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub windows: Vec<f64>,
    pub samples: Option<u64>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub measured: Vec<Measured>,
    /// Heartbeats sent plus transitions the script expected.
    pub attempted: u64,
    pub hb_sent: u64,
    pub hb_lost: u64,
    pub verdict_errors: u64,
    /// The first few failures in words.
    pub errors: Vec<String>,
    pub windows: Vec<WindowEnv>,
    pub windows_rerun: u32,
    pub disturbed: bool,
    /// Span file written by a traced run.
    pub span_file: Option<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            ..Report::default()
        }
    }

    /// Notes what the host did to the windows a workload ended up with
    /// and hands back their values.
    pub fn take_windows<T>(&mut self, windows: crate::stats::Windows<T>) -> Vec<T> {
        self.windows_rerun = windows.rerun;
        self.disturbed = windows.disturbed;
        let (values, envs) = windows.used.into_iter().unzip();
        self.windows = envs;
        values
    }

    /// Records a metric from its per-window values, folded by the
    /// catalogue's aggregate.
    pub fn record(&mut self, name: &'static str, windows: Vec<f64>) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        let value = def.aggregate.apply(&windows);
        self.measured.push(Measured {
            name,
            value,
            windows,
            samples: None,
        });
    }

    /// Records a metric whose value was taken over all windows' samples
    /// pooled (a high percentile); the windows only show the spread.
    pub fn record_pooled(&mut self, name: &'static str, value: f64, windows: Vec<f64>) {
        assert!(
            lookup(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.measured.push(Measured {
            name,
            value,
            windows,
            samples: None,
        });
    }

    /// Records a single-valued metric.
    pub fn record_one(&mut self, name: &'static str, value: f64) {
        self.record(name, vec![value]);
    }

    /// Notes how many samples a percentile metric was taken over.
    pub fn samples(&mut self, name: &str, n: u64) {
        if let Some(m) = self.measured.iter_mut().find(|m| m.name == name) {
            m.samples = Some(n);
        }
    }

    pub fn error(&mut self, message: String) {
        self.verdict_errors += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.measured
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn failed(&self) -> u64 {
        self.hb_lost + self.verdict_errors
    }

    /// Correct means every check passed *and* every metric this run
    /// owes was measured: a missing or non-positive end-to-end value
    /// is a harness failure, not a fast system.
    pub fn finish(&mut self) {
        self.attempted = self.attempted.max(1);
        let owed = if self.traced { PER_LAYER } else { END_TO_END };
        for def in owed {
            match self.value(def.name) {
                Some(v) if v.is_finite() && (self.traced || v > 0.0) => {}
                Some(v) => self.error(format!("{} measured as {v}", def.name)),
                None if self.traced => self.record_one(def.name, 0.0),
                None => self.error(format!("{} was not measured", def.name)),
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// The driver's result line.
    pub fn result_line(&self) -> Json {
        let owed = if self.traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Json::obj();
        for def in owed {
            let value = self
                .value(def.name)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            metrics.set(
                def.name,
                Json::obj().with("value", value).with("unit", def.unit),
            );
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed())
            .with("metrics", metrics)
    }

    /// The detailed record kept in the results files.
    pub fn detail(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.measured {
            let def = lookup(m.name).expect("recorded metrics are catalogued");
            let mut entry = Json::obj()
                .with("value", m.value)
                .with("unit", def.unit)
                .with("better", def.better.label())
                .with("aggregate", def.aggregate.label())
                .with("bound", def.bound)
                .with("windows", m.windows.clone());
            if let Some(n) = m.samples {
                entry.set("samples", n);
            }
            metrics.set(m.name, entry);
        }
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("traced", self.traced)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed())
            .with("hb_sent", self.hb_sent)
            .with("hb_lost", self.hb_lost)
            .with("verdict_errors", self.verdict_errors)
            .with("errors", self.errors.clone())
            .with("disturbed", self.disturbed)
            .with("windows_rerun", u64::from(self.windows_rerun))
            .with(
                "window_steal_ratio",
                self.windows
                    .iter()
                    .map(|w| w.steal_ratio)
                    .collect::<Vec<_>>(),
            )
            .with(
                "window_late_max_us",
                self.windows
                    .iter()
                    .map(|w| w.late_max_us)
                    .collect::<Vec<_>>(),
            )
            .with("span_file", self.span_file.clone())
            .with("metrics", metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_fit_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = lookup("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what
    /// the binary prints. They must not drift apart.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit));
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(def.better.label())
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn report_folds_windows_and_counts_failures_against_attempts() {
        let mut r = Report::new("core_wide", 7, 10.0, false);
        r.record("hb_per_s", vec![4.0e6, 5.0e6, 4.5e6]);
        r.record("cpu_ns_per_hb", vec![410.0, 395.0, 440.0]);
        assert_eq!(r.value("hb_per_s"), Some(4.5e6));
        assert_eq!(r.value("cpu_ns_per_hb"), Some(395.0));
        r.attempted = 1000;
        r.hb_lost = 2;
        r.error("stream 3: unexpected Suspect".into());
        assert_eq!(r.failed(), 3);
        assert!(!r.correct());
        let line = r.result_line();
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            line.at(&["metrics", "hb_per_s", "unit"]).unwrap().as_str(),
            Some("1/s")
        );
        // Every end-to-end metric is present in the line, measured or not.
        assert_eq!(
            line.get("metrics").unwrap().fields().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_fails_the_run() {
        let mut r = Report::new("replay_wan", 1, 1.0, false);
        for def in END_TO_END.iter().skip(1) {
            r.record_one(def.name, 1.0);
        }
        r.finish();
        assert!(!r.correct());
        assert!(r.errors[0].contains("setup_s"));
    }
}
