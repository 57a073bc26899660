//! `spine` — the repo's benchmark: crash→Suspect lag, heartbeat cost
//! and per-layer attribution over five named workloads. See README.md.
//!
//! ```text
//! spine [--seed N] [--seconds S] [--out NAME] [--quick]
//!       every workload, untraced then traced, each in a fresh process;
//!       writes crates/bench/results/spine/NAME.json
//! spine --workload W --seed N --seconds S --trace 0|1
//!       one workload; the last line of output is the result as JSON
//! spine compare A.json B.json
//! ```

mod api;
mod compare;
mod json;
mod layers;
mod metrics;
mod procfs;
mod span;
mod stats;
mod workloads;

use json::Json;
use metrics::{Report, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use workloads::Plan;

struct Args {
    workload: Option<String>,
    plan: Plan,
    out: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        plan: Plan {
            seed: 1,
            seconds: 10.0,
            traced: false,
            quick: false,
        },
        out: "latest".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.plan.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => parsed.plan.traced = value()? != "0",
            "--out" => parsed.out = value()?.clone(),
            "--quick" => parsed.plan.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.plan.quick {
        parsed.plan.seconds = parsed.plan.seconds.min(1.0);
    }
    if !(parsed.plan.seconds > 0.0 && parsed.plan.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(parsed)
}

/// Every metric of a report by name, with its unit.
fn print_metrics(report: &Report) {
    println!(
        "== {} (seed {}, {} s{}) ==",
        report.workload,
        report.seed,
        report.seconds,
        if report.traced { ", traced" } else { "" }
    );
    for def in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(m) = report.measured.iter().find(|m| m.name == def.name) {
            let samples = m
                .samples
                .map_or(String::new(), |n| format!("  ({n} samples)"));
            println!("{:<34} {:>16.4} {}{samples}", def.name, m.value, def.unit);
        }
    }
    println!(
        "attempted {}  failed {} (heartbeats lost {}, verdict errors {})  windows re-run {}{}",
        report.attempted,
        report.failed(),
        report.hb_lost,
        report.verdict_errors,
        report.windows_rerun,
        if report.disturbed { "  DISTURBED" } else { "" }
    );
    for e in &report.errors {
        println!("  error: {e}");
    }
}

fn detail_path(workload: &str, traced: bool) -> std::path::PathBuf {
    let suffix = if traced { "_traced" } else { "" };
    layers::results_dir().join(format!("run_{workload}{suffix}.json"))
}

/// One workload in this process; the driver's protocol.
fn run_one(workload: &str, plan: &Plan) -> ExitCode {
    let Some(report) = workloads::run(workload, plan) else {
        eprintln!("unknown workload {workload}; one of {:?}", workloads::NAMES);
        return ExitCode::from(2);
    };
    print_metrics(&report);
    let detail = report.detail().with("env", procfs::environment());
    let path = detail_path(workload, plan.traced);
    if let Err(e) = std::fs::create_dir_all(layers::results_dir())
        .and_then(|_| std::fs::write(&path, detail.pretty()))
    {
        eprintln!("{}: {e}", path.display());
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in a fresh process (clean
/// RSS, threads and allocator), folded into one results file.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut workloads = Json::obj();
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut disturbed = Vec::new();
    let mut broken = false;
    for name in workloads::NAMES {
        let mut runs = Json::obj();
        for traced in [false, true] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &args.plan.seed.to_string()])
                .args(["--seconds", &args.plan.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.plan.quick {
                child.arg("--quick");
            }
            let path = detail_path(name, traced);
            let _ = std::fs::remove_file(&path);
            let status = child.status();
            let detail = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text));
            match (status, detail) {
                (Ok(status), Ok(detail)) => {
                    broken |= !status.success();
                    attempted += detail
                        .get("attempted")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    failed += detail.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                    if detail.get("disturbed").and_then(Json::as_bool) != Some(false) {
                        disturbed.push(format!("{name}{}", if traced { " (traced)" } else { "" }));
                    }
                    runs.set(if traced { "traced" } else { "run" }, detail);
                }
                (status, detail) => {
                    eprintln!("{name}: child {status:?}, result file {:?}", detail.err());
                    broken = true;
                }
            }
        }
        workloads.set(name, runs);
    }

    println!("\n== end to end ==");
    print!("{:<22}", "metric");
    for name in workloads::NAMES {
        print!(" {name:>14}");
    }
    println!("  unit");
    for def in END_TO_END {
        print!("{:<22}", def.name);
        for name in workloads::NAMES {
            let v = workloads
                .at(&[name, "run", "metrics", def.name, "value"])
                .and_then(Json::as_f64);
            print!(" {:>14.4}", v.unwrap_or(f64::NAN));
        }
        println!("  {}", def.unit);
    }

    let correct = !broken && failed == 0.0;
    let file = Json::obj()
        .with("benchmark", "spine")
        .with("seed", args.plan.seed)
        .with("seconds", args.plan.seconds)
        .with("quick", args.plan.quick)
        .with("env", procfs::environment())
        .with("workloads", workloads)
        .with(
            "summary",
            Json::obj()
                .with("correct", correct)
                .with("attempted", attempted)
                .with("failed", failed)
                .with("disturbed", disturbed)
                // The harness measures; it never claims a gain.
                .with("claim", Json::Null),
        );
    let path = layers::results_dir().join(format!("{}.json", args.out));
    match std::fs::write(&path, file.pretty()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            broken = true;
        }
    }
    println!("{}", file.get("summary").expect("set above"));
    if correct && !broken {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare::main(&args[1..]);
    }
    match parse(&args) {
        Ok(Args {
            workload: Some(w),
            plan,
            ..
        }) => run_one(&w, &plan),
        Ok(args) => run_all(&args),
        Err(e) => {
            eprintln!("{e}\nusage: spine [--seed N] [--seconds S] [--out NAME] [--quick] | --workload W --seed N --seconds S --trace 0|1 | compare A.json B.json");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--quick` smoke run: every workload, untraced and traced, on
    /// small fleets and short windows. Every named metric must be
    /// present, every correctness check must pass, and every layer
    /// must be measured by at least one workload.
    #[test]
    fn quick_run_reports_every_metric_and_passes_every_check() {
        let mut measured = BTreeSet::new();
        for name in workloads::NAMES {
            for traced in [false, true] {
                let plan = Plan {
                    seed: 5,
                    seconds: 1.0,
                    traced,
                    quick: true,
                };
                let report = workloads::run(name, &plan).expect("a known workload");
                assert!(
                    report.correct(),
                    "{name} traced={traced}: {:?}",
                    report.errors
                );
                let owed = if traced { PER_LAYER } else { END_TO_END };
                let line = report.result_line();
                let metrics = line.get("metrics").expect("metrics in the result line");
                assert_eq!(metrics.fields().len(), owed.len());
                for def in owed {
                    let value = metrics
                        .at(&[def.name, "value"])
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{name}: {} missing", def.name));
                    assert!(value.is_finite());
                    assert!(traced || value > 0.0, "{name}: {} = {value}", def.name);
                    if value != 0.0 {
                        measured.insert(def.name);
                    }
                }
                if traced {
                    let spans = report
                        .span_file
                        .as_ref()
                        .expect("a traced run writes spans");
                    assert!(std::fs::metadata(spans).is_ok_and(|m| m.len() > 0));
                    assert!(report
                        .value("trace.overhead_ratio")
                        .is_some_and(|r| r > 0.0));
                }
            }
        }
        // Counts that are zero when nothing went wrong.
        let zero_is_fine = [
            "intake.rejected",
            "shard.dropped",
            "shard.stale",
            "shard.events_dropped",
            "env.steal_ratio",
            "env.windows_rerun",
            "hb_lost_ratio",
            "verdict_errors",
        ];
        for def in PER_LAYER {
            assert!(
                measured.contains(def.name) || zero_is_fine.contains(&def.name),
                "no workload measured {}",
                def.name
            );
        }
    }

    #[test]
    fn arguments_follow_the_driver_protocol() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&args(
            "--workload core_obs --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("core_obs"));
        assert_eq!(
            (a.plan.seed, a.plan.seconds, a.plan.traced),
            (42, 10.0, true)
        );
        let a = parse(&args("--seed 7 --out baseline")).unwrap();
        assert!(a.workload.is_none() && !a.plan.traced && a.out == "baseline");
        assert_eq!(parse(&args("--quick")).unwrap().plan.seconds, 1.0);
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
