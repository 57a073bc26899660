//! `spine compare A.json B.json`: one row per (metric, workload) of
//! the end-to-end metrics, judged by each metric's own aggregate and
//! bound. Where the windows' spread is wider than the bound the row
//! reads *unresolved*, not *unchanged*.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::quartile_spread;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Better,
    Regressed,
    Unresolved,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        }
    }
}

/// One side of a row: the aggregated value and its per-window values.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub value: f64,
    pub windows: Vec<f64>,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(def: &MetricDef, a: &Side, b: &Side) -> (Verdict, f64, f64) {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let change = worse_by(def, a.value, b.value);
    let spread = [&a.windows, &b.windows]
        .into_iter()
        .filter_map(|w| quartile_spread(w))
        .fold(0.0, f64::max);
    if !change.is_finite() {
        return (Verdict::Missing, change, spread);
    }
    let verdict = if spread > bound {
        // Too noisy to call, unless the two sides do not even overlap.
        let every_b_beats_every_a = a
            .windows
            .iter()
            .all(|&x| b.windows.iter().all(|&y| worse_by(def, x, y) < 0.0));
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (verdict, change, spread)
}

fn side(file: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = file.at(&["workloads", workload, "run", "metrics", metric])?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        windows: m
            .get("windows")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

/// The comparison table and whether anything regressed or failed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<22} {:<11} {:>14} {:>14} {:>8} {:>7} {:>7}  {}\n",
        "metric", "workload", "A", "B", "worse%", "spread%", "bound%", "verdict"
    );
    let mut bad = false;
    let workloads = a.get("workloads").map_or(&[][..], Json::fields);
    for def in END_TO_END {
        for (workload, _) in workloads {
            let (sa, sb) = (side(a, workload, def.name), side(b, workload, def.name));
            let (verdict, change, spread) = match (&sa, &sb) {
                (Some(sa), Some(sb)) => judge(def, sa, sb),
                _ => (Verdict::Missing, f64::NAN, f64::NAN),
            };
            bad |= matches!(verdict, Verdict::Regressed | Verdict::Missing);
            out.push_str(&format!(
                "{:<22} {:<11} {:>14.4} {:>14.4} {:>+8.2} {:>7.2} {:>7.1}  {}\n",
                def.name,
                workload,
                sa.map_or(f64::NAN, |s| s.value),
                sb.map_or(f64::NAN, |s| s.value),
                change * 100.0,
                spread * 100.0,
                def.bound.unwrap_or(f64::NAN) * 100.0,
                verdict.label()
            ));
        }
    }
    for (label, file) in [("A", a), ("B", b)] {
        for (workload, runs) in file.get("workloads").map_or(&[][..], Json::fields) {
            let run = runs.get("run");
            let failed = run.and_then(|r| r.get("failed")).and_then(Json::as_f64);
            let disturbed = run.and_then(|r| r.get("disturbed")).and_then(Json::as_bool);
            if failed != Some(0.0) || disturbed != Some(false) {
                bad |= failed != Some(0.0);
                out.push_str(&format!(
                    "{label}: {workload}: failed = {failed:?}, disturbed = {disturbed:?}\n"
                ));
            }
        }
    }
    (out, bad)
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: spine compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, bad) = compare(&a, &b);
            print!("{table}");
            if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Aggregate;

    /// A metric with a 10 % bound, whatever the catalogue's are.
    fn bounded(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            better,
            aggregate: Aggregate::Median,
            bound: Some(0.10),
        }
    }

    fn side(value: f64, windows: &[f64]) -> Side {
        Side {
            value,
            windows: windows.to_vec(),
        }
    }

    #[test]
    fn within_the_bound_is_unchanged_and_beyond_it_is_a_regression() {
        let def = &bounded(Better::Higher);
        let a = side(100.0, &[99.0, 100.0, 101.0, 100.0, 100.0]);
        let (v, change, _) = judge(def, &a, &side(95.0, &[94.0, 95.0, 96.0, 95.0, 95.0]));
        assert_eq!(v, Verdict::Unchanged);
        assert!((change - 0.05).abs() < 1e-12);
        let (v, ..) = judge(def, &a, &side(85.0, &[84.0, 85.0, 86.0, 85.0, 85.0]));
        assert_eq!(v, Verdict::Regressed);
        let (v, ..) = judge(def, &a, &side(120.0, &[119.0, 120.0, 121.0, 120.0, 120.0]));
        assert_eq!(v, Verdict::Better);
        // Lower is better: the sign flips.
        let lag = &bounded(Better::Lower);
        let (v, change, _) = judge(lag, &side(300.0, &[300.0; 5]), &side(360.0, &[360.0; 5]));
        assert_eq!(v, Verdict::Regressed);
        assert!((change - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let def = &bounded(Better::Higher);
        let noisy = side(100.0, &[70.0, 85.0, 100.0, 115.0, 130.0]);
        let (v, _, spread) = judge(def, &noisy, &side(98.0, &[97.0, 98.0, 99.0, 98.0, 98.0]));
        assert_eq!(v, Verdict::Unresolved);
        assert!(spread > 0.10);
        // ...unless every window of B beats every window of A.
        let (v, ..) = judge(
            def,
            &noisy,
            &side(140.0, &[135.0, 140.0, 145.0, 140.0, 141.0]),
        );
        assert_eq!(v, Verdict::Better);
    }

    #[test]
    fn table_has_a_row_per_metric_and_workload_and_flags_failures() {
        let run = |hb: f64, failed: u64| {
            let mut metrics = Json::obj();
            for def in END_TO_END {
                let v = if def.name == "hb_per_s" { hb } else { 1.0 };
                metrics.set(
                    def.name,
                    Json::obj().with("value", v).with("windows", vec![v, v, v]),
                );
            }
            Json::obj().with(
                "workloads",
                Json::obj().with(
                    "core_wide",
                    Json::obj().with(
                        "run",
                        Json::obj()
                            .with("failed", failed)
                            .with("disturbed", false)
                            .with("metrics", metrics),
                    ),
                ),
            )
        };
        let (table, bad) = compare(&run(100.0, 0), &run(99.0, 0));
        assert!(!bad, "{table}");
        assert_eq!(table.lines().count(), 1 + END_TO_END.len());
        assert!(table.lines().all(|l| !l.contains("REGRESSED")));
        let (table, bad) = compare(&run(100.0, 0), &run(50.0, 3));
        assert!(bad);
        assert!(table.contains("REGRESSED") && table.contains("B: core_wide: failed = Some(3.0)"));
    }
}
