//! QoS metrics for failure detectors (§II-A2 of the paper).
//!
//! In the paper's evaluation model the monitored process never crashes,
//! so every S-transition is a *mistake*. From the mistake log of a replay
//! the four primary metrics follow:
//!
//! * **T_D** — detection time: how long after a crash the detector would
//!   suspect for ever. Measured per heartbeat as the worst case (crash
//!   immediately after the heartbeat is sent ⇒ detection at that
//!   heartbeat's freshness point) and as the average case (crash
//!   uniformly distributed within the following inter-send interval).
//! * **T_MR** — average mistake rate: S-transitions per unit time.
//! * **T_M** — average mistake duration: mean S→T span.
//! * **P_A** — query accuracy probability: fraction of time the output
//!   is correct (`Trust`, since `p` is alive throughout).

use serde::{Deserialize, Serialize};
use twofd_sim::time::{Nanos, Span};

use crate::Segment;

/// One suspicion period of a detector monitoring a live process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mistake {
    /// The S-transition instant.
    pub start: Nanos,
    /// The T-transition instant (or the replay horizon if censored).
    pub end: Nanos,
    /// Sequence number of the last fresh heartbeat processed before the
    /// S-transition — used to attribute the mistake to a trace segment.
    pub after_seq: u64,
    /// True if the replay horizon arrived before the mistake was
    /// corrected.
    pub censored: bool,
}

impl Mistake {
    /// How long the mistaken suspicion lasted.
    pub fn duration(&self) -> Span {
        self.end - self.start
    }
}

/// Aggregated QoS metrics of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosMetrics {
    /// Average-case detection time T_D, seconds (crash uniformly within
    /// an inter-send interval).
    pub detection_time: f64,
    /// Worst-case detection time, seconds (crash right after a send).
    pub worst_detection_time: f64,
    /// Average mistake rate T_MR, S-transitions per second.
    pub mistake_rate: f64,
    /// Average mistake duration T_M, seconds (uncensored mistakes).
    pub avg_mistake_duration: f64,
    /// Query accuracy probability P_A.
    pub query_accuracy: f64,
    /// Total number of mistakes (S-transitions), censored included.
    pub mistakes: u64,
    /// Observation span the rates are normalized over, seconds.
    pub observed_secs: f64,
}

impl QosMetrics {
    /// Computes the metrics from a mistake log: folds it, in order, into
    /// the totals [`QosMetrics::from_totals`] takes.
    ///
    /// * `mistakes` — the replay's mistake log.
    /// * `observed` — observation span (first fresh arrival → horizon).
    /// * `sum_worst_td` — Σ over fresh heartbeats of `(τ − σ)`, seconds.
    /// * `fresh` — number of fresh heartbeats.
    /// * `interval` — the sender's Δi (for the average-case correction).
    pub fn from_mistakes(
        mistakes: &[Mistake],
        observed: Span,
        sum_worst_td: f64,
        fresh: u64,
        interval: Span,
    ) -> QosMetrics {
        let (mut closed, mut closed_secs, mut suspect_secs) = (0u64, 0.0f64, 0.0f64);
        for m in mistakes {
            let secs = m.duration().as_secs_f64();
            suspect_secs += secs;
            if !m.censored {
                closed += 1;
                closed_secs += secs;
            }
        }
        QosMetrics::from_totals(
            mistakes.len() as u64,
            closed,
            closed_secs,
            suspect_secs,
            observed,
            sum_worst_td,
            fresh,
            interval,
        )
    }

    /// Computes the metrics from running totals — the one formula both
    /// the offline mistake log ([`QosMetrics::from_mistakes`]) and the
    /// online tracker feed.
    ///
    /// * `mistakes` — mistakes in the span, censored included.
    /// * `closed` — how many of them are closed (not censored).
    /// * `closed_secs` — Σ duration of the closed ones, seconds.
    /// * `suspect_secs` — Σ duration of all of them, seconds.
    /// * `observed`, `sum_worst_td`, `fresh`, `interval` — as for
    ///   [`QosMetrics::from_mistakes`].
    ///
    /// The mean mistake duration is over closed mistakes only, unless
    /// every mistake is censored: then the mean over censored spans is
    /// the only estimate there is.
    #[allow(clippy::too_many_arguments)]
    pub fn from_totals(
        mistakes: u64,
        closed: u64,
        closed_secs: f64,
        suspect_secs: f64,
        observed: Span,
        sum_worst_td: f64,
        fresh: u64,
        interval: Span,
    ) -> QosMetrics {
        let observed_secs = observed.as_secs_f64();
        let avg_mistake_duration = if closed > 0 {
            closed_secs / closed as f64
        } else if mistakes > 0 {
            suspect_secs / mistakes as f64
        } else {
            0.0
        };
        let worst = if fresh == 0 {
            0.0
        } else {
            sum_worst_td / fresh as f64
        };
        QosMetrics {
            detection_time: (worst - interval.as_secs_f64() / 2.0).max(0.0),
            worst_detection_time: worst,
            mistake_rate: if observed_secs > 0.0 {
                mistakes as f64 / observed_secs
            } else {
                0.0
            },
            avg_mistake_duration,
            query_accuracy: if observed_secs > 0.0 {
                (1.0 - suspect_secs / observed_secs).clamp(0.0, 1.0)
            } else {
                1.0
            },
            mistakes,
            observed_secs,
        }
    }

    /// Average mistake *recurrence* time (the reciprocal metric Chen's
    /// QoS spec bounds from below), seconds; infinite with no mistakes.
    pub fn mistake_recurrence(&self) -> f64 {
        if self.mistake_rate > 0.0 {
            1.0 / self.mistake_rate
        } else {
            f64::INFINITY
        }
    }
}

/// Counts mistakes per trace segment, attributing each mistake to the
/// segment containing the heartbeat it followed.
pub fn mistakes_by_segment(mistakes: &[Mistake], segments: &[Segment]) -> Vec<u64> {
    let mut counts = vec![0u64; segments.len()];
    for m in mistakes {
        if let Some(i) = segments.iter().position(|s| s.contains(m.after_seq)) {
            counts[i] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mk(start_ms: u64, end_ms: u64, after_seq: u64, censored: bool) -> Mistake {
        Mistake {
            start: Nanos::from_millis(start_ms),
            end: Nanos::from_millis(end_ms),
            after_seq,
            censored,
        }
    }

    #[test]
    fn duration_is_end_minus_start() {
        assert_eq!(mk(100, 150, 1, false).duration(), Span::from_millis(50));
    }

    #[test]
    fn metrics_on_clean_replay() {
        let m = QosMetrics::from_mistakes(
            &[],
            Span::from_secs(100),
            215.0,
            1000,
            Span::from_millis(100),
        );
        assert_eq!(m.mistakes, 0);
        assert_eq!(m.mistake_rate, 0.0);
        assert_eq!(m.query_accuracy, 1.0);
        assert_eq!(m.mistake_recurrence(), f64::INFINITY);
        assert!((m.worst_detection_time - 0.215).abs() < 1e-12);
        assert!((m.detection_time - 0.165).abs() < 1e-12);
    }

    #[test]
    fn metrics_count_rates_and_accuracy() {
        let mistakes = vec![mk(1_000, 1_100, 10, false), mk(5_000, 5_300, 50, false)];
        let m = QosMetrics::from_mistakes(
            &mistakes,
            Span::from_secs(100),
            0.0,
            0,
            Span::from_millis(100),
        );
        assert_eq!(m.mistakes, 2);
        assert!((m.mistake_rate - 0.02).abs() < 1e-12);
        // Suspect time 0.4 s of 100 s.
        assert!((m.query_accuracy - 0.996).abs() < 1e-12);
        assert!((m.avg_mistake_duration - 0.2).abs() < 1e-12);
        assert!((m.mistake_recurrence() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn censored_mistakes_count_for_rate_not_duration() {
        let mistakes = vec![mk(0, 100, 1, false), mk(900, 1_000, 9, true)];
        let m = QosMetrics::from_mistakes(
            &mistakes,
            Span::from_secs(1),
            0.0,
            0,
            Span::from_millis(100),
        );
        assert_eq!(m.mistakes, 2);
        // Average duration uses only the closed mistake (0.1 s).
        assert!((m.avg_mistake_duration - 0.1).abs() < 1e-12);
        // Accuracy accounts for both periods (0.2 s suspect of 1 s).
        assert!((m.query_accuracy - 0.8).abs() < 1e-12);
    }

    #[test]
    fn all_censored_falls_back_to_overall_mean() {
        let mistakes = vec![mk(0, 500, 1, true)];
        let m = QosMetrics::from_mistakes(
            &mistakes,
            Span::from_secs(1),
            0.0,
            0,
            Span::from_millis(100),
        );
        assert!((m.avg_mistake_duration - 0.5).abs() < 1e-12);
    }

    #[test]
    fn detection_time_floor_at_zero() {
        let m = QosMetrics::from_mistakes(&[], Span::from_secs(1), 0.01, 1, Span::from_millis(100));
        assert_eq!(m.detection_time, 0.0);
        assert!((m.worst_detection_time - 0.01).abs() < 1e-12);
    }

    #[test]
    fn zero_observation_span() {
        let m = QosMetrics::from_mistakes(&[], Span::ZERO, 0.0, 0, Span::from_millis(100));
        assert_eq!(m.mistake_rate, 0.0);
        assert_eq!(m.query_accuracy, 1.0);
    }

    /// The formula as it stood before the totals were split out, kept
    /// as the reference `from_totals` must reproduce to the bit.
    fn reference(
        mistakes: &[Mistake],
        observed: Span,
        sum_worst_td: f64,
        fresh: u64,
        interval: Span,
    ) -> QosMetrics {
        let observed_secs = observed.as_secs_f64();
        let suspect: f64 = mistakes.iter().map(|m| m.duration().as_secs_f64()).sum();
        let closed: Vec<&Mistake> = mistakes.iter().filter(|m| !m.censored).collect();
        let avg_mistake_duration = if closed.is_empty() {
            if mistakes.is_empty() {
                0.0
            } else {
                suspect / mistakes.len() as f64
            }
        } else {
            closed
                .iter()
                .map(|m| m.duration().as_secs_f64())
                .sum::<f64>()
                / closed.len() as f64
        };
        let worst = if fresh == 0 {
            0.0
        } else {
            sum_worst_td / fresh as f64
        };
        QosMetrics {
            detection_time: (worst - interval.as_secs_f64() / 2.0).max(0.0),
            worst_detection_time: worst,
            mistake_rate: if observed_secs > 0.0 {
                mistakes.len() as f64 / observed_secs
            } else {
                0.0
            },
            avg_mistake_duration,
            query_accuracy: if observed_secs > 0.0 {
                (1.0 - suspect / observed_secs).clamp(0.0, 1.0)
            } else {
                1.0
            },
            mistakes: mistakes.len() as u64,
            observed_secs,
        }
    }

    /// Every field as raw bits, so `-0.0 != 0.0` and NaNs compare.
    fn bits(m: &QosMetrics) -> [u64; 7] {
        [
            m.detection_time.to_bits(),
            m.worst_detection_time.to_bits(),
            m.mistake_rate.to_bits(),
            m.avg_mistake_duration.to_bits(),
            m.query_accuracy.to_bits(),
            m.mistakes,
            m.observed_secs.to_bits(),
        ]
    }

    proptest! {
        /// `from_mistakes` is `from_totals` over the log folded in
        /// order, and both match the pre-split formula to the bit. The
        /// log is empty, all censored, mixed or all closed by `shape`;
        /// one case in four has a zero observation span.
        #[test]
        fn from_totals_is_from_mistakes_to_the_bit(
            raw in prop::collection::vec((0u64..1 << 40, 0u64..1 << 37, 0u32..100), 0..40),
            shape in 0u8..4,
            observed_ns in 0u64..1 << 45,
            zero_span in 0u8..4,
            sum_worst_td in 0.0f64..1e6,
            fresh in 0u64..1_000_000,
            interval_ns in 1u64..10_000_000_000,
        ) {
            let mistakes: Vec<Mistake> = raw
                .iter()
                .take(if shape == 0 { 0 } else { raw.len() })
                .enumerate()
                .map(|(i, &(start, len, roll))| Mistake {
                    start: Nanos(start),
                    end: Nanos(start + len),
                    after_seq: i as u64,
                    censored: match shape {
                        1 => true,
                        2 => roll < 30,
                        _ => false,
                    },
                })
                .collect();
            let observed = Span(if zero_span == 0 { 0 } else { observed_ns });
            let interval = Span(interval_ns);

            let (mut closed, mut closed_secs, mut suspect_secs) = (0u64, 0.0f64, 0.0f64);
            for m in &mistakes {
                let secs = m.duration().as_secs_f64();
                suspect_secs += secs;
                if !m.censored {
                    closed += 1;
                    closed_secs += secs;
                }
            }
            let totals = QosMetrics::from_totals(
                mistakes.len() as u64,
                closed,
                closed_secs,
                suspect_secs,
                observed,
                sum_worst_td,
                fresh,
                interval,
            );
            let folded =
                QosMetrics::from_mistakes(&mistakes, observed, sum_worst_td, fresh, interval);
            let old = reference(&mistakes, observed, sum_worst_td, fresh, interval);
            prop_assert_eq!(bits(&folded), bits(&totals));
            prop_assert_eq!(bits(&folded), bits(&old));
        }
    }

    #[test]
    fn segment_attribution() {
        let segments = vec![Segment::new("a", 1, 100), Segment::new("b", 100, 200)];
        let mistakes = vec![
            mk(0, 1, 5, false),
            mk(2, 3, 99, false),
            mk(4, 5, 100, false),
            mk(6, 7, 500, false), // outside all segments
        ];
        assert_eq!(mistakes_by_segment(&mistakes, &segments), vec![2, 1]);
    }
}
