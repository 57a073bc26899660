//! End-to-end cluster simulation: the scripted scenario library runs
//! the real sharded monitor runtime in virtual time, every scenario's
//! report must land inside its declared QoS envelope, and every run
//! must replay bit-identically from its seed.

use twofd::cluster::{library, run, FederationPlan, Scale, Scenario};
use twofd::core::{DetectorConfig, DetectorSpec};
use twofd::sim::Span;

const SEED: u64 = 0x2FD0_51ED;

fn by_name(name: &str) -> Scenario {
    library(Scale::Quick)
        .into_iter()
        .find(|s| s.name() == name)
        .expect("scenario in library")
}

#[test]
fn every_scenario_lands_in_its_envelope() {
    for scenario in library(Scale::Quick) {
        match scenario.run_checked(SEED) {
            Ok(report) => {
                assert!(
                    report.deliveries > 0,
                    "{}: no heartbeats delivered",
                    scenario.name()
                );
            }
            Err(violations) => panic!(
                "scenario {} violated its envelope:\n  {}",
                scenario.name(),
                violations.join("\n  ")
            ),
        }
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    // `crash` exercises both arrival ingestion and sweep-driven
    // expiries, so its timeline, final outputs and QoS metrics all
    // depend on the stochastic link draws.
    let scenario = by_name("crash");
    let a = scenario.run(42);
    let b = scenario.run(42);
    assert_eq!(a, b, "same seed must reproduce the identical report");
    assert_eq!(a.digest(), b.digest());
    assert!(a.transitions() > 0, "crash scenario must produce events");
}

#[test]
fn different_seeds_diverge() {
    let scenario = by_name("crash");
    let a = scenario.run(1);
    let b = scenario.run(2);
    assert_ne!(
        a.digest(),
        b.digest(),
        "stochastic link delays must make distinct seeds observable"
    );
}

#[test]
fn federation_is_inert_for_crash_stop_traffic() {
    // Turning the digest relay on over a plain crash-stop run (no
    // restarts, every incarnation 0, no monitor deaths → no adoptions)
    // must leave the observable report — timelines, final outputs, QoS
    // bits — identical to the pre-federation runtime. The relay may
    // only ever *add* behaviour when a monitor actually dies.
    let base = by_name("asymmetric_link");
    let plain = base.run(SEED);

    let mut federated = base.config.clone();
    federated.federation = Some(FederationPlan {
        digest_interval: Span::from_millis(200),
        relay_delay: Span::from_millis(1),
        peer_detector: DetectorConfig::new(
            DetectorSpec::Chen { window: 1 },
            Span::from_millis(200),
            0.15,
        ),
    });
    let fed = run(&federated, SEED);

    assert_eq!(
        plain.digest(),
        fed.digest(),
        "digest relay changed a crash-stop timeline"
    );
    assert_eq!(plain.monitors, fed.monitors);
    assert_eq!(
        fed.monitors.iter().map(|m| m.adopted).sum::<u64>(),
        0,
        "nothing to adopt while every monitor lives"
    );
    // The relay itself did run: digest + relay events are scheduler
    // work on top of the identical heartbeat traffic.
    assert!(fed.sim_events > plain.sim_events);
}

#[test]
fn monitor_failover_adopts_and_replays_bit_identically() {
    // The federation tentpole, end to end: monitor 0 dies mid-run, the
    // survivor adopts its relayed digest view (bumped incarnation
    // included) and holds every stream trusted across the gap — and the
    // whole failover replays bit-identically from its seed.
    let scenario = by_name("monitor_failover");
    let a = scenario.run(SEED);
    let b = scenario.run(SEED);
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());

    assert_eq!(a.monitors[0].adopted, 0, "the dead monitor adopts nothing");
    assert_eq!(
        a.monitors[1].adopted as usize,
        scenario.config.senders.len(),
        "the survivor adopts every relayed stream"
    );
}

#[test]
fn qos_metrics_replay_exactly() {
    // QosMetrics are f64-valued estimates; determinism means exact
    // bit-equality, not approximate agreement.
    let scenario = by_name("steady_state");
    let a = scenario.run(7);
    let b = scenario.run(7);
    for (ma, mb) in a.monitors.iter().zip(&b.monitors) {
        assert_eq!(ma.qos, mb.qos);
    }
}
