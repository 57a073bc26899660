//! Heartbeat wire format.
//!
//! The paper's experiments send heartbeats over UDP/IP; this is the
//! datagram layout used by the live transport:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "2WHB"
//! 4       2     version (LE)
//! 6       2     reserved (zero)
//! 8       8     stream id (LE)   — distinguishes concurrent senders
//! 16      8     sequence number (LE, starts at 1)
//! 24      8     send timestamp, nanos on the sender's clock (LE)
//! 32      4     incarnation (LE, v2 only — 0 on the first boot)
//! 36      4     reserved (zero, v2 only)
//! ```
//!
//! 40 bytes total in version 2; version-1 frames are the 32-byte prefix
//! and still decode (yielding incarnation 0 — crash-stop traffic).
//! The sender timestamp feeds the `V(D)` estimator (§V-A.1), which is
//! immune to clock skew by construction. The incarnation number carries
//! the crash-*recovery* model: a restarted process bumps it, which
//! tells the monitor that a sequence-number reset is a new boot of the
//! same process rather than a stale duplicate.

use twofd_sim::time::Nanos;

/// Datagram magic bytes.
pub const MAGIC: [u8; 4] = *b"2WHB";
/// Current wire version (incarnation-aware).
pub const VERSION: u16 = 2;
/// The original crash-stop wire version (no incarnation field).
pub const VERSION_V1: u16 = 1;
/// Encoded datagram size in bytes (current version).
pub const WIRE_SIZE: usize = 40;
/// Encoded size of a version-1 datagram (also the v2 prefix the two
/// versions share).
pub const WIRE_SIZE_V1: usize = 32;

/// One heartbeat datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Identifies the sending stream (one per monitored process).
    pub stream: u64,
    /// Sequence number, starting at 1 (per incarnation).
    pub seq: u64,
    /// Send time on the sender's clock.
    pub sent_at: Nanos,
    /// Boot counter of the sending process: 0 on first start, bumped on
    /// every crash-recovery restart. Version-1 frames decode as 0.
    pub incarnation: u32,
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Datagram shorter than its version requires ([`WIRE_SIZE_V1`] for
    /// v1, [`WIRE_SIZE`] for v2 — a truncated incarnation field is
    /// rejected, never guessed).
    TooShort {
        /// Received length.
        len: usize,
    },
    /// Magic bytes do not match.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort { len } => write!(f, "datagram too short ({len} bytes)"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
        }
    }
}

impl std::error::Error for WireError {}

impl Heartbeat {
    /// Encodes the heartbeat (current version) into a caller-provided
    /// buffer. This is the sender hot-loop and batch-arena path;
    /// [`Heartbeat::encode`] wraps it for callers that want the frame
    /// by value.
    pub fn encode_into(&self, buf: &mut [u8; WIRE_SIZE]) {
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
        buf[6..8].copy_from_slice(&0u16.to_le_bytes());
        buf[8..16].copy_from_slice(&self.stream.to_le_bytes());
        buf[16..24].copy_from_slice(&self.seq.to_le_bytes());
        buf[24..32].copy_from_slice(&self.sent_at.0.to_le_bytes());
        buf[32..36].copy_from_slice(&self.incarnation.to_le_bytes());
        buf[36..40].copy_from_slice(&0u32.to_le_bytes());
    }

    /// Encodes the heartbeat (current version) into a frame by value.
    pub fn encode(&self) -> [u8; WIRE_SIZE] {
        let mut buf = [0u8; WIRE_SIZE];
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes a heartbeat from a received datagram. Borrows the slice
    /// and allocates nothing, so a batch receive can decode every
    /// datagram in place in its buffer arena.
    ///
    /// Both wire versions are accepted: a version-1 frame (32-byte
    /// prefix, no incarnation field) decodes with incarnation 0, which
    /// is exactly the crash-stop semantics those senders encode. Each
    /// version reads only its own prefix, so trailing bytes are
    /// tolerated — but a version-2 frame whose incarnation field is
    /// truncated is rejected, never zero-filled.
    pub fn decode(data: &[u8]) -> Result<Heartbeat, WireError> {
        if data.len() < WIRE_SIZE_V1 {
            return Err(WireError::TooShort { len: data.len() });
        }
        let field =
            |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8-byte field"));
        if data[0..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u16::from_le_bytes(data[4..6].try_into().expect("2-byte field"));
        let incarnation = match version {
            VERSION_V1 => 0,
            VERSION => {
                if data.len() < WIRE_SIZE {
                    return Err(WireError::TooShort { len: data.len() });
                }
                u32::from_le_bytes(data[32..36].try_into().expect("4-byte field"))
            }
            other => return Err(WireError::BadVersion(other)),
        };
        Ok(Heartbeat {
            stream: field(8),
            seq: field(16),
            sent_at: Nanos(field(24)),
            incarnation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The version-1 (crash-stop) frame of `hb`, incarnation dropped —
    /// what a pre-federation sender puts on the wire. Nothing in the
    /// workspace sends v1 any more; only its decode is kept.
    fn encode_v1(hb: &Heartbeat) -> [u8; WIRE_SIZE_V1] {
        let mut buf = [0u8; WIRE_SIZE_V1];
        buf.copy_from_slice(&hb.encode()[..WIRE_SIZE_V1]);
        buf[4..6].copy_from_slice(&VERSION_V1.to_le_bytes());
        buf
    }

    #[test]
    fn encode_produces_fixed_size() {
        let hb = Heartbeat {
            stream: 7,
            seq: 42,
            sent_at: Nanos::from_millis(1234),
            incarnation: 3,
        };
        assert_eq!(hb.encode().len(), WIRE_SIZE);
        assert_eq!(encode_v1(&hb).len(), WIRE_SIZE_V1);
    }

    #[test]
    fn round_trip() {
        let hb = Heartbeat {
            stream: u64::MAX,
            seq: 1,
            sent_at: Nanos(987_654_321),
            incarnation: u32::MAX,
        };
        assert_eq!(Heartbeat::decode(&hb.encode()).unwrap(), hb);
    }

    #[test]
    fn encode_into_matches_encode() {
        let hb = Heartbeat {
            stream: 0xDEAD_BEEF,
            seq: 77,
            sent_at: Nanos(123_456_789),
            incarnation: 9,
        };
        let mut buf = [0u8; WIRE_SIZE];
        hb.encode_into(&mut buf);
        assert_eq!(&buf[..], &hb.encode()[..]);
        assert_eq!(Heartbeat::decode(&buf).unwrap(), hb);
    }

    #[test]
    fn v1_frames_decode_with_incarnation_zero() {
        let hb = Heartbeat {
            stream: 11,
            seq: 4,
            sent_at: Nanos(777),
            incarnation: 6, // dropped by the v1 encoding
        };
        let decoded = Heartbeat::decode(&encode_v1(&hb)).unwrap();
        assert_eq!(decoded.incarnation, 0);
        assert_eq!(
            decoded,
            Heartbeat {
                incarnation: 0,
                ..hb
            }
        );
    }

    #[test]
    fn rejects_short_datagrams() {
        assert_eq!(
            Heartbeat::decode(&[0u8; 10]),
            Err(WireError::TooShort { len: 10 })
        );
    }

    #[test]
    fn rejects_truncated_incarnation_field() {
        // A v2 frame cut anywhere inside [32, 40) claims an incarnation
        // it does not carry; the decoder must reject, not zero-fill.
        let hb = Heartbeat {
            stream: 5,
            seq: 2,
            sent_at: Nanos(42),
            incarnation: 1,
        };
        let full = hb.encode();
        for len in WIRE_SIZE_V1..WIRE_SIZE {
            assert_eq!(
                Heartbeat::decode(&full[..len]),
                Err(WireError::TooShort { len }),
                "truncated at {len}"
            );
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut data = Heartbeat {
            stream: 0,
            seq: 1,
            sent_at: Nanos::ZERO,
            incarnation: 0,
        }
        .encode()
        .to_vec();
        data[0] = b'X';
        assert_eq!(Heartbeat::decode(&data), Err(WireError::BadMagic));
    }

    #[test]
    fn rejects_unknown_version() {
        let mut data = Heartbeat {
            stream: 0,
            seq: 1,
            sent_at: Nanos::ZERO,
            incarnation: 0,
        }
        .encode()
        .to_vec();
        data[4] = 0xEE;
        data[5] = 0xEE;
        assert!(matches!(
            Heartbeat::decode(&data),
            Err(WireError::BadVersion(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_tolerated() {
        // Future versions may append fields; decoders read a prefix —
        // per version: 32 bytes for v1, 40 for v2.
        let hb = Heartbeat {
            stream: 3,
            seq: 9,
            sent_at: Nanos(55),
            incarnation: 2,
        };
        let mut v2 = hb.encode().to_vec();
        v2.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Heartbeat::decode(&v2).unwrap(), hb);
        let mut v1 = encode_v1(&hb).to_vec();
        v1.extend_from_slice(&[4, 5, 6]);
        assert_eq!(Heartbeat::decode(&v1).unwrap().incarnation, 0);
    }

    proptest! {
        #[test]
        fn round_trip_any_values(
            stream in any::<u64>(),
            seq in any::<u64>(),
            at in any::<u64>(),
            inc in any::<u32>(),
        ) {
            let hb = Heartbeat { stream, seq, sent_at: Nanos(at), incarnation: inc };
            prop_assert_eq!(Heartbeat::decode(&hb.encode()).unwrap(), hb);
            let v1 = Heartbeat::decode(&encode_v1(&hb)).unwrap();
            prop_assert_eq!(v1, Heartbeat { incarnation: 0, ..hb });
        }
    }
}
