//! Summary statistics over traces.
//!
//! [`TraceStats`] condenses a trace into the quantities the paper's
//! configuration machinery needs — loss probability `pL` and delay
//! variance `V(D)` (Section V-A.1) — plus descriptive statistics used by
//! the experiment reports (delay percentiles, inter-arrival behaviour).

use crate::record::Trace;
use twofd_sim::time::Span;

/// Descriptive statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Heartbeats sent.
    pub sent: u64,
    /// Heartbeats delivered.
    pub received: u64,
    /// Estimated loss probability `pL`.
    pub loss_rate: f64,
    /// Mean one-way delay in seconds.
    pub delay_mean: f64,
    /// Delay variance `V(D)` in seconds².
    pub delay_var: f64,
    /// Smallest observed delay in seconds.
    pub delay_min: f64,
    /// Largest observed delay in seconds.
    pub delay_max: f64,
    /// Delay percentiles `(p50, p90, p99, p999)` in seconds.
    pub delay_percentiles: (f64, f64, f64, f64),
    /// Mean inter-arrival time in seconds (arrival-ordered).
    pub interarrival_mean: f64,
    /// Largest gap between consecutive arrivals, in seconds.
    pub interarrival_max: f64,
}

impl TraceStats {
    /// Computes statistics for `trace`. Delay statistics are zero if no
    /// heartbeat was delivered.
    pub fn compute(trace: &Trace) -> TraceStats {
        let sent = trace.sent() as u64;
        let received = trace.received() as u64;
        let loss_rate = trace.loss_rate();

        let mut delays: Vec<f64> = trace
            .records
            .iter()
            .filter_map(|r| r.delay())
            .map(Span::as_secs_f64)
            .collect();
        delays.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let (delay_mean, delay_var) = mean_var(&delays);
        let pct = |p: f64| percentile(&delays, p);

        let arrivals = trace.arrivals();
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_secs_f64())
            .collect();
        let interarrival_mean = if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };
        let interarrival_max = gaps.iter().copied().fold(0.0, f64::max);

        TraceStats {
            sent,
            received,
            loss_rate,
            delay_mean,
            delay_var,
            delay_min: delays.first().copied().unwrap_or(0.0),
            delay_max: delays.last().copied().unwrap_or(0.0),
            delay_percentiles: (pct(0.50), pct(0.90), pct(0.99), pct(0.999)),
            interarrival_mean,
            interarrival_max,
        }
    }

    /// Delay standard deviation in seconds.
    pub fn delay_std(&self) -> f64 {
        self.delay_var.sqrt()
    }
}

/// Sample mean and (unbiased) variance; `(0, 0)` for fewer than one / two
/// samples respectively.
fn mean_var(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Nearest-rank percentile of a **sorted** slice; 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!((0.0..=1.0).contains(&p));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HeartbeatRecord;
    use twofd_sim::time::Nanos;

    fn rec(seq: u64, send_ms: u64, arrival_ms: Option<u64>) -> HeartbeatRecord {
        HeartbeatRecord {
            seq,
            send: Nanos::from_millis(send_ms),
            arrival: arrival_ms.map(Nanos::from_millis),
        }
    }

    #[test]
    fn basic_counts() {
        let t = Trace::new(
            "t",
            Span::from_millis(100),
            vec![
                rec(1, 100, Some(110)),
                rec(2, 200, None),
                rec(3, 300, Some(330)),
            ],
        );
        let s = TraceStats::compute(&t);
        assert_eq!(s.sent, 3);
        assert_eq!(s.received, 2);
        assert!((s.loss_rate - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn delay_moments() {
        let t = Trace::new(
            "t",
            Span::from_millis(100),
            vec![rec(1, 100, Some(110)), rec(2, 200, Some(230))],
        );
        let s = TraceStats::compute(&t);
        // Delays: 10 ms and 30 ms.
        assert!((s.delay_mean - 0.020).abs() < 1e-12);
        assert!((s.delay_var - 0.0002).abs() < 1e-9); // ((0.01)^2 + (0.01)^2)/1
        assert!((s.delay_min - 0.010).abs() < 1e-12);
        assert!((s.delay_max - 0.030).abs() < 1e-12);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.001), 1.0);
    }

    #[test]
    fn interarrival_gap_tracking() {
        let t = Trace::new(
            "t",
            Span::from_millis(100),
            vec![
                rec(1, 100, Some(110)),
                rec(2, 200, None), // lost → creates a 200 ms gap
                rec(3, 300, Some(310)),
            ],
        );
        let s = TraceStats::compute(&t);
        assert!((s.interarrival_max - 0.200).abs() < 1e-12);
        assert!((s.interarrival_mean - 0.200).abs() < 1e-12);
    }

    #[test]
    fn all_lost_trace_has_zero_delay_stats() {
        let t = Trace::new(
            "t",
            Span::from_millis(100),
            vec![rec(1, 100, None), rec(2, 200, None)],
        );
        let s = TraceStats::compute(&t);
        assert_eq!(s.received, 0);
        assert_eq!(s.delay_mean, 0.0);
        assert_eq!(s.delay_var, 0.0);
        assert_eq!(s.loss_rate, 1.0);
    }

    #[test]
    fn single_delivery_has_zero_variance() {
        let t = Trace::new("t", Span::from_millis(100), vec![rec(1, 100, Some(150))]);
        let s = TraceStats::compute(&t);
        assert!((s.delay_mean - 0.05).abs() < 1e-12);
        assert_eq!(s.delay_var, 0.0);
    }
}
