//! Trace serialization.
//!
//! Two formats, both self-contained and dependency-light:
//!
//! * **Binary** (`.twtr`) — a compact little-endian layout. Arrival times are stored as deltas from the send
//!   time; lost heartbeats use a sentinel. This is the format the bench
//!   harnesses cache generated traces in.
//! * **CSV** — `seq,send_nanos,arrival_nanos` rows with an empty third
//!   field for lost heartbeats, for inspection and plotting with external
//!   tools.
//!
//! Both round-trip exactly (the unit tests and the workspace proptest
//! suite verify bit-for-bit equality).

use crate::record::{HeartbeatRecord, Trace};
use std::fmt;
use std::io::{self, Read, Write};
use twofd_sim::time::{Nanos, Span};

/// Magic bytes opening every binary trace file.
const MAGIC: &[u8; 4] = b"2WTR";
/// Current binary format version.
const VERSION: u16 = 1;
/// Sentinel delta marking a lost heartbeat.
const LOST: u64 = u64::MAX;

/// Errors from decoding a trace.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a trace file or is structurally invalid.
    Malformed(String),
    /// The file uses an unsupported format version.
    UnsupportedVersion(u16),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Malformed(m) => write!(f, "malformed trace: {m}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Encodes a trace into the binary format.
pub fn encode_binary(trace: &Trace) -> Vec<u8> {
    let name = trace.name.as_bytes();
    let mut buf = Vec::with_capacity(4 + 2 + 4 + name.len() + 8 + 8 + trace.sent() * 24);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&trace.interval.0.to_le_bytes());
    buf.extend_from_slice(&(trace.sent() as u64).to_le_bytes());
    for r in &trace.records {
        // Delta keeps numbers small; LOST is the drop sentinel.
        // Arrival can precede send only through clock skew, which the
        // simulated traces never produce, so the delta is uniquely
        // decodable; a real-world extension would add a signed delta.
        let delta = r.arrival.map_or(LOST, |a| a.0 - r.send.0);
        for word in [r.seq, r.send.0, delta] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }
    buf
}

/// Splits the first `N` bytes off `data`; the caller has checked the
/// length.
fn take<const N: usize>(data: &mut &[u8]) -> [u8; N] {
    let (head, rest) = data
        .split_first_chunk()
        .expect("the caller checked the length");
    *data = rest;
    *head
}

fn take_u64(data: &mut &[u8]) -> u64 {
    u64::from_le_bytes(take(data))
}

/// Decodes a binary trace.
pub fn decode_binary(mut data: &[u8]) -> Result<Trace, CodecError> {
    fn need(data: &[u8], n: usize, what: &str) -> Result<(), CodecError> {
        if data.len() < n {
            Err(CodecError::Malformed(format!("truncated {what}")))
        } else {
            Ok(())
        }
    }
    need(data, 4 + 2 + 4, "header")?;
    if &take::<4>(&mut data) != MAGIC {
        return Err(CodecError::Malformed("bad magic".into()));
    }
    let version = u16::from_le_bytes(take(&mut data));
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let name_len = u32::from_le_bytes(take(&mut data)) as usize;
    need(data, name_len, "name")?;
    let name = String::from_utf8(data[..name_len].to_vec())
        .map_err(|_| CodecError::Malformed("name is not UTF-8".into()))?;
    data = &data[name_len..];
    need(data, 16, "interval/count")?;
    let interval = Span(take_u64(&mut data));
    let count = take_u64(&mut data) as usize;
    need(data, count.saturating_mul(24), "records")?;
    let mut records = Vec::with_capacity(count);
    let mut prev_seq = 0u64;
    for _ in 0..count {
        let seq = take_u64(&mut data);
        let send = Nanos(take_u64(&mut data));
        let delta = take_u64(&mut data);
        if seq <= prev_seq {
            return Err(CodecError::Malformed(format!(
                "non-increasing sequence number {seq}"
            )));
        }
        prev_seq = seq;
        let arrival = if delta == LOST {
            None
        } else {
            Some(Nanos(send.0.checked_add(delta).ok_or_else(|| {
                CodecError::Malformed("arrival overflow".into())
            })?))
        };
        records.push(HeartbeatRecord { seq, send, arrival });
    }
    Ok(Trace {
        name,
        interval,
        records,
    })
}

/// Writes a binary trace to a writer.
pub fn write_binary<W: Write>(trace: &Trace, mut w: W) -> Result<(), CodecError> {
    w.write_all(&encode_binary(trace))?;
    Ok(())
}

/// Reads a binary trace from a reader.
pub fn read_binary<R: Read>(mut r: R) -> Result<Trace, CodecError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    decode_binary(&data)
}

/// Encodes a trace as CSV (`# name=…,interval_nanos=…` header comment,
/// then `seq,send_nanos,arrival_nanos` rows; empty arrival = lost).
pub fn encode_csv(trace: &Trace) -> String {
    let mut out = String::with_capacity(32 + trace.sent() * 24);
    out.push_str(&format!(
        "# name={},interval_nanos={}\n",
        trace.name, trace.interval.0
    ));
    out.push_str("seq,send_nanos,arrival_nanos\n");
    for r in &trace.records {
        match r.arrival {
            Some(a) => out.push_str(&format!("{},{},{}\n", r.seq, r.send.0, a.0)),
            None => out.push_str(&format!("{},{},\n", r.seq, r.send.0)),
        }
    }
    out
}

/// Decodes a CSV trace produced by [`encode_csv`].
pub fn decode_csv(text: &str) -> Result<Trace, CodecError> {
    let mut name = String::from("csv-trace");
    let mut interval = Span::ZERO;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix('#') {
            for field in meta.split(',') {
                let field = field.trim();
                if let Some(v) = field.strip_prefix("name=") {
                    name = v.to_string();
                } else if let Some(v) = field.strip_prefix("interval_nanos=") {
                    interval = Span(v.parse().map_err(|_| {
                        CodecError::Malformed(format!("bad interval on line {}", lineno + 1))
                    })?);
                }
            }
            continue;
        }
        if line.starts_with("seq,") {
            continue; // column header
        }
        let mut cols = line.split(',');
        let bad = |what: &str| CodecError::Malformed(format!("{what} on line {}", lineno + 1));
        let seq: u64 = cols
            .next()
            .ok_or_else(|| bad("missing seq"))?
            .parse()
            .map_err(|_| bad("bad seq"))?;
        let send: u64 = cols
            .next()
            .ok_or_else(|| bad("missing send"))?
            .parse()
            .map_err(|_| bad("bad send"))?;
        let arrival_field = cols.next().ok_or_else(|| bad("missing arrival"))?;
        let arrival = if arrival_field.is_empty() {
            None
        } else {
            Some(Nanos(
                arrival_field.parse().map_err(|_| bad("bad arrival"))?,
            ))
        };
        records.push(HeartbeatRecord {
            seq,
            send: Nanos(send),
            arrival,
        });
    }
    if records.windows(2).any(|w| w[0].seq >= w[1].seq) {
        return Err(CodecError::Malformed(
            "records not in increasing sequence order".into(),
        ));
    }
    Ok(Trace {
        name,
        interval,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample",
            Span::from_millis(100),
            vec![
                HeartbeatRecord {
                    seq: 1,
                    send: Nanos::from_millis(100),
                    arrival: Some(Nanos::from_millis(112)),
                },
                HeartbeatRecord {
                    seq: 2,
                    send: Nanos::from_millis(200),
                    arrival: None,
                },
                HeartbeatRecord {
                    seq: 5,
                    send: Nanos::from_millis(500),
                    arrival: Some(Nanos::from_millis(640)),
                },
            ],
        )
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let decoded = decode_binary(&encode_binary(&t)).unwrap();
        assert_eq!(t, decoded);
    }

    #[test]
    fn binary_round_trip_empty() {
        let t = Trace::new("empty", Span::from_millis(20), vec![]);
        assert_eq!(decode_binary(&encode_binary(&t)).unwrap(), t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut data = encode_binary(&sample()).to_vec();
        data[0] = b'X';
        assert!(matches!(
            decode_binary(&data),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn binary_rejects_future_version() {
        let mut data = encode_binary(&sample()).to_vec();
        data[4] = 0xFF;
        assert!(matches!(
            decode_binary(&data),
            Err(CodecError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn binary_rejects_truncation() {
        let data = encode_binary(&sample());
        for cut in [3, 9, data.len() - 1] {
            assert!(
                decode_binary(&data[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let decoded = read_binary(&buf[..]).unwrap();
        assert_eq!(t, decoded);
    }

    #[test]
    fn csv_round_trip() {
        let t = sample();
        let decoded = decode_csv(&encode_csv(&t)).unwrap();
        assert_eq!(t, decoded);
    }

    #[test]
    fn csv_lost_heartbeat_has_empty_field() {
        let csv = encode_csv(&sample());
        assert!(csv.contains("2,200000000,\n"));
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(decode_csv("seq,send_nanos,arrival_nanos\nnot,a,number\n").is_err());
    }

    #[test]
    fn csv_rejects_out_of_order() {
        let csv = "# name=x,interval_nanos=1\n2,2,\n1,1,\n";
        assert!(decode_csv(csv).is_err());
    }
}
