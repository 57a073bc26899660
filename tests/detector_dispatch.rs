//! Differential dispatch tests.
//!
//! The refactor to inline enum dispatch is only sound if the three ways
//! of instantiating an algorithm — the inline [`AnyDetector`] enum, the
//! boxed `Box<dyn FailureDetector>` compat path, and a hand-constructed
//! concrete detector — are observationally identical. These properties
//! replay randomly generated traces through all three and assert the
//! transition timelines (the chronological mistake log) and every other
//! replay observable match exactly, for every algorithm in the suite.

use proptest::prelude::*;
use twofd::core::ReplayResult;
use twofd::prelude::*;
use twofd::sim::{DelaySpec, DistSpec, LossSpec, NetworkScenario};
use twofd::trace::generate_scripted;

/// Builds a random-but-valid trace from proptest-chosen parameters.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        50u64..400,    // heartbeats
        1u64..200,     // interval ms
        0.0f64..0.4,   // loss
        0.001f64..0.3, // delay mean (s)
        0.0f64..0.1,   // delay std (s)
        any::<u64>(),  // seed
    )
        .prop_map(|(n, interval_ms, loss, mean, std, seed)| {
            let scenario = NetworkScenario::uniform(
                "prop",
                n,
                DelaySpec::Iid {
                    dist: DistSpec::LogNormal {
                        mean,
                        std_dev: std.min(mean),
                    },
                    floor_nanos: 1,
                },
                LossSpec::Bernoulli { p: loss },
            );
            generate_scripted("prop", Span::from_millis(interval_ms), scenario, seed, None)
        })
}

/// Replays `trace` through the inline enum built from `spec`.
fn replay_inline(spec: &DetectorSpec, trace: &Trace, tuning: f64) -> ReplayResult {
    let mut fd: AnyDetector = spec.build_any(trace.interval, tuning);
    replay(&mut fd, trace)
}

/// Replays `trace` through the boxed compat path built from `spec`.
fn replay_boxed(spec: &DetectorSpec, trace: &Trace, tuning: f64) -> ReplayResult {
    let mut fd = spec.build(trace.interval, tuning);
    replay(fd.as_mut(), trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every algorithm in the suite produces the same transition
    /// timeline whether dispatched inline or through the vtable.
    #[test]
    fn inline_and_boxed_dispatch_agree(
        trace in arb_trace(),
        tuning in 0.01f64..5.0,
        window in 1usize..64,
        n1 in 1usize..10,
        extra in 1usize..64,
    ) {
        let specs = [
            DetectorSpec::Chen { window },
            DetectorSpec::Bertier { window },
            DetectorSpec::Phi { window },
            DetectorSpec::Ed { window },
            DetectorSpec::TwoWindow { n1, n2: n1 + extra },
            DetectorSpec::MultiWindow { windows: vec![n1, n1 + extra] },
        ];
        for spec in &specs {
            let inline = replay_inline(spec, &trace, tuning);
            let boxed = replay_boxed(spec, &trace, tuning);
            prop_assert_eq!(&inline, &boxed, "inline vs boxed diverged for {}", spec);
        }
    }

    /// The enum variants are faithful to hand-constructed concrete
    /// detectors: building `ChenFd::new(...)` directly and replaying it
    /// yields the timeline that `AnyDetector::Chen` yields, and so on
    /// for all five algorithms of the paper's comparison.
    #[test]
    fn enum_variants_match_concrete_detectors(
        trace in arb_trace(),
        tuning in 0.01f64..5.0,
        window in 1usize..64,
        n1 in 1usize..10,
        extra in 1usize..64,
    ) {
        let interval = trace.interval;
        let margin = Span::from_secs_f64(tuning);
        let n2 = n1 + extra;

        let mut concrete: Vec<(DetectorSpec, ReplayResult)> = Vec::new();

        let mut chen = ChenFd::new(window, interval, margin);
        concrete.push((DetectorSpec::Chen { window }, replay(&mut chen, &trace)));

        let mut bertier = BertierFd::new(window, interval);
        concrete.push((DetectorSpec::Bertier { window }, replay(&mut bertier, &trace)));

        let mut phi = PhiAccrualFd::with_threshold(window, tuning);
        concrete.push((DetectorSpec::Phi { window }, replay(&mut phi, &trace)));

        let mut ed = EdFd::with_kappa(window, tuning);
        concrete.push((DetectorSpec::Ed { window }, replay(&mut ed, &trace)));

        let mut two = TwoWindowFd::new(n1, n2, interval, margin);
        concrete.push((DetectorSpec::TwoWindow { n1, n2 }, replay(&mut two, &trace)));

        for (spec, expected) in &concrete {
            let inline = replay_inline(spec, &trace, tuning);
            prop_assert_eq!(&inline, expected, "enum variant diverged from concrete {}", spec);
        }
    }

    /// Where a 2W-FD keeps its estimators is not observable: the
    /// two-window spec (estimators inline), the multi-window spec given
    /// the same two sizes, and two separate Chen detectors combined by
    /// `max` (Eq. 12) return the same freshness point, bit for bit, for
    /// every heartbeat — including `n1 = 1` (sample held in the window
    /// itself), equal sizes, and long windows the trace never fills.
    #[test]
    fn two_window_storages_agree_bit_for_bit(
        trace in arb_trace(),
        tuning in 0.0f64..2.0,
        n1 in 1usize..4,
        n2 in 1usize..2000,
    ) {
        let interval = trace.interval;
        let margin = Span::from_secs_f64(tuning);
        let mut two = DetectorSpec::TwoWindow { n1, n2 }.build_any(interval, tuning);
        let mut multi = DetectorSpec::MultiWindow { windows: vec![n1, n2] }
            .build_any(interval, tuning);
        let mut short = ChenFd::new(n1, interval, margin);
        let mut long = ChenFd::new(n2, interval, margin);
        for a in trace.arrivals() {
            let by_max = match (
                short.on_heartbeat(a.seq, a.at),
                long.on_heartbeat(a.seq, a.at),
            ) {
                (Some(s), Some(l)) => Some(s.trust_until.max(l.trust_until)),
                (None, None) => None,
                mixed => panic!("Chen detectors disagree on freshness: {mixed:?}"),
            };
            let t = two.on_heartbeat(a.seq, a.at).map(|d| d.trust_until);
            let m = multi.on_heartbeat(a.seq, a.at).map(|d| d.trust_until);
            prop_assert_eq!(t, by_max, "2w-fd({},{}) vs max of Chen at seq {}", n1, n2, a.seq);
            prop_assert_eq!(m, by_max, "mw-fd({},{}) vs max of Chen at seq {}", n1, n2, a.seq);
        }
    }

    /// `DetectorConfig` reaches the same timeline through both of its
    /// constructors — `build()` (inline) and `build_boxed()` (compat).
    #[test]
    fn detector_config_constructors_agree(
        trace in arb_trace(),
        tuning in 0.01f64..5.0,
        n1 in 1usize..10,
        extra in 1usize..64,
    ) {
        let config = DetectorConfig::new(
            DetectorSpec::TwoWindow { n1, n2: n1 + extra },
            trace.interval,
            tuning,
        );
        let mut inline = config.build();
        let mut boxed = config.build_boxed();
        let a = replay(&mut inline, &trace);
        let b = replay(boxed.as_mut(), &trace);
        prop_assert_eq!(a, b);
    }
}

/// One `AnyDetector` per monitored stream sits in the shard's slab, and
/// a heartbeat pulls all of it through the cache: four lines today, the
/// 2W-FD's two inline estimators being the largest variant. Growing
/// past that should be decided, not discovered.
#[cfg(target_pointer_width = "64")]
#[test]
fn any_detector_fits_four_cache_lines() {
    let size = std::mem::size_of::<AnyDetector>();
    assert!(size <= 256, "AnyDetector grew to {size} bytes");
    // The slab stores `Option<AnyDetector>`; the vacancy must stay free.
    assert_eq!(std::mem::size_of::<Option<AnyDetector>>(), size);
}
