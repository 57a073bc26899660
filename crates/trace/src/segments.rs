//! Trace sub-sampling (Table I of the paper).
//!
//! The paper splits its WAN trace into four segments — *Stable 1*,
//! *Burst*, *Worm Period*, *Stable 2* — by heartbeat sequence number and
//! reports per-segment mistake counts (Figure 8). [`Segment`] names a
//! half-open sequence range; [`table1_segments`] reproduces the paper's
//! boundaries, proportionally rescaled when a trace is generated at a
//! smaller sample count.

use crate::record::Trace;

/// Paper's total WAN sample count (Table I).
pub const PAPER_WAN_SAMPLES: u64 = 5_845_712;
/// Paper's segment boundaries: name plus `[from, to]` inclusive 1-based
/// sample indices exactly as printed in Table I.
pub const PAPER_TABLE1: [(&str, u64, u64); 4] = [
    ("Stable 1", 1, 2_900_000),
    ("Burst", 2_900_001, 2_930_000),
    ("Worm", 2_930_001, 4_860_000),
    ("Stable 2", 4_860_001, PAPER_WAN_SAMPLES),
];

/// A named half-open sequence-number range `[from_seq, to_seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Segment label.
    pub name: String,
    /// First sequence number in the segment.
    pub from_seq: u64,
    /// One past the last sequence number in the segment.
    pub to_seq: u64,
}

impl Segment {
    /// Creates a segment; `from_seq < to_seq` required.
    pub fn new(name: impl Into<String>, from_seq: u64, to_seq: u64) -> Self {
        assert!(from_seq < to_seq, "segment range must be non-empty");
        Segment {
            name: name.into(),
            from_seq,
            to_seq,
        }
    }

    /// Whether `seq` lies in this segment.
    pub fn contains(&self, seq: u64) -> bool {
        seq >= self.from_seq && seq < self.to_seq
    }

    /// Number of sequence numbers covered.
    pub fn len(&self) -> u64 {
        self.to_seq - self.from_seq
    }

    /// Whether the segment is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.from_seq >= self.to_seq
    }

    /// The records of `trace` falling in this segment, as a sub-trace.
    pub fn slice<'a>(&self, trace: &'a Trace) -> Trace
    where
        'a: 'a,
    {
        trace.slice_by_seq(self.from_seq, self.to_seq)
    }
}

/// The paper's Table I segmentation, rescaled to a trace of
/// `total_samples` heartbeats. With `total_samples == PAPER_WAN_SAMPLES`
/// the exact published boundaries are returned.
///
/// Boundaries scale proportionally and are kept contiguous: each segment
/// starts where the previous one ends, the last ends at
/// `total_samples + 1` (sequence numbers are 1-based).
pub fn table1_segments(total_samples: u64) -> Vec<Segment> {
    assert!(total_samples >= 8, "trace too small to segment");
    let scale = |paper_boundary: u64| -> u64 {
        // Proportional position, rounded; 1-based.
        let frac = paper_boundary as f64 / PAPER_WAN_SAMPLES as f64;
        ((frac * total_samples as f64).round() as u64).clamp(1, total_samples)
    };
    let mut segments = Vec::with_capacity(PAPER_TABLE1.len());
    let mut start = 1u64;
    for (i, (name, _, paper_to)) in PAPER_TABLE1.iter().enumerate() {
        let end = if i == PAPER_TABLE1.len() - 1 {
            total_samples + 1
        } else {
            (scale(*paper_to) + 1).max(start + 1)
        };
        segments.push(Segment::new(*name, start, end));
        start = end;
    }
    segments
}

/// Counts how many of `seqs` fall in each segment.
pub fn count_by_segment(segments: &[Segment], seqs: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut counts = vec![0u64; segments.len()];
    for seq in seqs {
        if let Some(i) = segments.iter().position(|s| s.contains(seq)) {
            counts[i] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_reproduces_table1() {
        let segs = table1_segments(PAPER_WAN_SAMPLES);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].from_seq, 1);
        assert_eq!(segs[0].to_seq, 2_900_001);
        assert_eq!(segs[1].from_seq, 2_900_001);
        assert_eq!(segs[1].to_seq, 2_930_001);
        assert_eq!(segs[2].from_seq, 2_930_001);
        assert_eq!(segs[2].to_seq, 4_860_001);
        assert_eq!(segs[3].from_seq, 4_860_001);
        assert_eq!(segs[3].to_seq, PAPER_WAN_SAMPLES + 1);
    }

    #[test]
    fn segments_are_contiguous_at_any_scale() {
        for n in [100u64, 1_000, 58_457, 584_571] {
            let segs = table1_segments(n);
            assert_eq!(segs[0].from_seq, 1);
            for w in segs.windows(2) {
                assert_eq!(w[0].to_seq, w[1].from_seq, "gap at scale {n}");
            }
            assert_eq!(segs.last().unwrap().to_seq, n + 1);
            assert!(segs.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn proportions_roughly_preserved() {
        let n = 100_000u64;
        let segs = table1_segments(n);
        let stable1_frac = segs[0].len() as f64 / n as f64;
        assert!((stable1_frac - 2_900_000.0 / PAPER_WAN_SAMPLES as f64).abs() < 0.01);
        // Burst is small but non-empty.
        assert!(!segs[1].is_empty());
        assert!(segs[1].len() < segs[0].len() / 10);
    }

    #[test]
    fn contains_and_len() {
        let s = Segment::new("x", 10, 20);
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(9));
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn counting_by_segment() {
        let segs = vec![Segment::new("a", 1, 5), Segment::new("b", 5, 10)];
        let counts = count_by_segment(&segs, [1, 2, 5, 9, 100]);
        assert_eq!(counts, vec![2, 2]); // 100 falls nowhere
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_segment() {
        Segment::new("bad", 5, 5);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_traces() {
        table1_segments(4);
    }
}
