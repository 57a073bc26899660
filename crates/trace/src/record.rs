//! Heartbeat traces.
//!
//! A [`Trace`] is the unit of evaluation in the paper: the complete log of
//! one heartbeat experiment — for each heartbeat `m_i`, its sequence
//! number, its send time on the monitored host `p`, and its arrival time
//! at the monitoring host `q` (or nothing if the network lost it).
//!
//! Replaying a trace against different failure-detector algorithms is the
//! paper's methodology ("these logged arrival times are used to replay the
//! execution for each FD algorithm"), so the trace type is shared by
//! every higher layer of this workspace.

use twofd_sim::heartbeat::HeartbeatOutcome;
use twofd_sim::time::{Nanos, Span};

/// One heartbeat's log entry. Identical in content to
/// [`HeartbeatOutcome`]; re-exported under the trace vocabulary.
pub type HeartbeatRecord = HeartbeatOutcome;

/// A complete heartbeat experiment log.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable origin ("synthetic-wan", "synthetic-lan", …).
    pub name: String,
    /// The heartbeat interval Δi used by the sender.
    pub interval: Span,
    /// Per-heartbeat records, in send (= sequence) order.
    pub records: Vec<HeartbeatRecord>,
}

/// A delivered heartbeat as seen by the monitor: `(seq, arrival)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Sequence number of the delivered heartbeat.
    pub seq: u64,
    /// Send time on `p`'s clock.
    pub send: Nanos,
    /// Arrival time at `q`.
    pub at: Nanos,
}

impl Trace {
    /// Creates a trace, validating record ordering.
    ///
    /// # Panics
    /// If records are not in strictly increasing sequence order.
    pub fn new(name: impl Into<String>, interval: Span, records: Vec<HeartbeatRecord>) -> Self {
        assert!(
            records.windows(2).all(|w| w[0].seq < w[1].seq),
            "trace records must be in strictly increasing sequence order"
        );
        Trace {
            name: name.into(),
            interval,
            records,
        }
    }

    /// Number of heartbeats sent.
    pub fn sent(&self) -> usize {
        self.records.len()
    }

    /// Number of heartbeats delivered.
    pub fn received(&self) -> usize {
        self.records.iter().filter(|r| r.arrival.is_some()).count()
    }

    /// Fraction of heartbeats lost (0 for an empty trace).
    pub fn loss_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        1.0 - self.received() as f64 / self.sent() as f64
    }

    /// The instant the experiment ends: the latest of the last send time
    /// and the last arrival. Used as the replay horizon.
    pub fn end_time(&self) -> Nanos {
        self.records
            .iter()
            .map(|r| r.arrival.unwrap_or(r.send).max(r.send))
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Delivered heartbeats, ordered by **arrival time** — the order the
    /// monitor observes them in. Ties (identical arrival instants) keep
    /// sequence order.
    pub fn arrivals(&self) -> Vec<Arrival> {
        let mut v: Vec<Arrival> = self
            .records
            .iter()
            .filter_map(|r| {
                r.arrival.map(|at| Arrival {
                    seq: r.seq,
                    send: r.send,
                    at,
                })
            })
            .collect();
        v.sort_by(|a, b| a.at.cmp(&b.at).then(a.seq.cmp(&b.seq)));
        v
    }

    /// Restricts the trace to records with `lo <= seq < hi`.
    pub fn slice_by_seq(&self, lo: u64, hi: u64) -> Trace {
        Trace {
            name: format!("{}[{lo}..{hi}]", self.name),
            interval: self.interval,
            records: self
                .records
                .iter()
                .filter(|r| r.seq >= lo && r.seq < hi)
                .copied()
                .collect(),
        }
    }

    /// Largest sequence number in the trace (0 if empty).
    pub fn max_seq(&self) -> u64 {
        self.records.last().map(|r| r.seq).unwrap_or(0)
    }

    /// True if no heartbeat was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, send_ms: u64, arrival_ms: Option<u64>) -> HeartbeatRecord {
        HeartbeatRecord {
            seq,
            send: Nanos::from_millis(send_ms),
            arrival: arrival_ms.map(Nanos::from_millis),
        }
    }

    fn sample() -> Trace {
        Trace::new(
            "t",
            Span::from_millis(100),
            vec![
                rec(1, 100, Some(110)),
                rec(2, 200, None),
                rec(3, 300, Some(340)),
                rec(4, 400, Some(405)),
            ],
        )
    }

    #[test]
    fn counts_and_loss_rate() {
        let t = sample();
        assert_eq!(t.sent(), 4);
        assert_eq!(t.received(), 3);
        assert!((t.loss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::new("empty", Span::from_millis(100), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.loss_rate(), 0.0);
        assert_eq!(t.end_time(), Nanos::ZERO);
        assert_eq!(t.max_seq(), 0);
        assert!(t.arrivals().is_empty());
    }

    #[test]
    fn end_time_covers_late_arrivals() {
        let t = Trace::new(
            "t",
            Span::from_millis(100),
            vec![rec(1, 100, Some(900)), rec(2, 200, None)],
        );
        assert_eq!(t.end_time(), Nanos::from_millis(900));
    }

    #[test]
    fn arrivals_are_sorted_by_arrival_time() {
        // Reordered delivery: seq 2 overtakes seq 1.
        let t = Trace::new(
            "t",
            Span::from_millis(100),
            vec![rec(1, 100, Some(350)), rec(2, 200, Some(210))],
        );
        let a = t.arrivals();
        assert_eq!(a[0].seq, 2);
        assert_eq!(a[1].seq, 1);
    }

    #[test]
    fn arrival_ties_keep_sequence_order() {
        let t = Trace::new(
            "t",
            Span::from_millis(100),
            vec![rec(1, 100, Some(300)), rec(2, 200, Some(300))],
        );
        let a = t.arrivals();
        assert_eq!(a[0].seq, 1);
        assert_eq!(a[1].seq, 2);
    }

    #[test]
    fn slicing_by_sequence() {
        let t = sample();
        let s = t.slice_by_seq(2, 4);
        assert_eq!(s.sent(), 2);
        assert_eq!(s.records[0].seq, 2);
        assert_eq!(s.records[1].seq, 3);
        assert_eq!(s.interval, t.interval);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_out_of_order_records() {
        Trace::new(
            "bad",
            Span::from_millis(100),
            vec![rec(2, 200, None), rec(1, 100, None)],
        );
    }

    #[test]
    fn max_seq_reports_last() {
        assert_eq!(sample().max_seq(), 4);
    }
}
