//! Runs the scripted cluster-scenario library against the real sharded
//! monitor runtime in virtual time, prints the QoS verdict table, and
//! writes `results/BENCH_simcluster.json` (`target/` in quick mode, so
//! a smoke run never overwrites the tracked full-scale file) with the
//! virtual-time event rate and wall-clock cost of each scenario.
//!
//! ```sh
//! cargo run --release --example cluster_sim            # full fleets
//! TWOFD_SIM_QUICK=1 cargo run --example cluster_sim    # CI smoke
//! ```

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use twofd::cluster::{library, Scale};

const SEED: u64 = 0x2FD0_51ED;

struct Row {
    name: String,
    senders: usize,
    monitors: usize,
    beats_sent: u64,
    deliveries: u64,
    sim_events: u64,
    transitions: u64,
    virtual_secs: f64,
    wall_secs: f64,
    digest: u64,
    envelope_ok: bool,
}

fn main() {
    let quick = std::env::var("TWOFD_SIM_QUICK").is_ok();
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let mode = if quick { "quick" } else { "full" };

    println!("cluster simulation — scale {mode}, seed {SEED:#x}\n");
    println!(
        "{:<20} {:>7} {:>9} {:>10} {:>11} {:>8} {:>9} {:>12} {:>8}",
        "scenario",
        "senders",
        "beats",
        "delivered",
        "transitions",
        "virt s",
        "wall ms",
        "sim ev/s",
        "envelope"
    );

    let mut rows = Vec::new();
    for scenario in library(scale) {
        let senders = scenario.config.senders.len();
        let monitors = scenario.config.monitors.len();
        let started = Instant::now();
        let report = scenario.run(SEED);
        let wall_secs = started.elapsed().as_secs_f64();
        let envelope_ok = match scenario.envelope.check(&report) {
            Ok(()) => true,
            Err(violations) => {
                eprintln!("{}: envelope violated:", report.name);
                for v in &violations {
                    eprintln!("  {v}");
                }
                false
            }
        };
        let virtual_secs = report.virtual_duration.as_secs_f64();
        let row = Row {
            name: report.name.clone(),
            senders,
            monitors,
            beats_sent: report.beats_sent,
            deliveries: report.deliveries,
            sim_events: report.sim_events,
            transitions: report.transitions() as u64,
            virtual_secs,
            wall_secs,
            digest: report.digest(),
            envelope_ok,
        };
        println!(
            "{:<20} {:>7} {:>9} {:>10} {:>11} {:>8.0} {:>9.1} {:>12.0} {:>8}",
            row.name,
            row.senders,
            row.beats_sent,
            row.deliveries,
            row.transitions,
            row.virtual_secs,
            row.wall_secs * 1e3,
            row.sim_events as f64 / row.wall_secs,
            if row.envelope_ok { "ok" } else { "VIOLATED" }
        );
        rows.push(row);
    }

    let speedup: f64 = rows.iter().map(|r| r.virtual_secs).sum::<f64>()
        / rows.iter().map(|r| r.wall_secs).sum::<f64>();
    println!("\naggregate virtual/wall speedup: {speedup:.0}x");

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"cluster_sim/scenarios\",").unwrap();
    writeln!(json, "  \"mode\": \"{mode}\",").unwrap();
    writeln!(json, "  \"seed\": {SEED},").unwrap();
    writeln!(json, "  \"rows\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"senders\": {}, \"monitors\": {}, \
             \"beats_sent\": {}, \"deliveries\": {}, \"transitions\": {}, \
             \"virtual_secs\": {:.0}, \"wall_secs\": {:.4}, \
             \"sim_events_per_sec\": {:.0}, \"digest\": \"{:#018x}\", \
             \"envelope_ok\": {}}}{comma}",
            r.name,
            r.senders,
            r.monitors,
            r.beats_sent,
            r.deliveries,
            r.transitions,
            r.virtual_secs,
            r.wall_secs,
            r.sim_events as f64 / r.wall_secs,
            r.digest,
            r.envelope_ok
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(if quick { "target" } else { "results" })
        .join("BENCH_simcluster.json");
    std::fs::write(&out, &json).expect("write bench artifact");
    println!("wrote {}", out.display());

    if rows.iter().any(|r| !r.envelope_ok) {
        std::process::exit(1);
    }
}
