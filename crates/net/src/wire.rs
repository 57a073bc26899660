//! Heartbeat wire format.
//!
//! The paper's experiments send heartbeats over UDP/IP; this is the
//! datagram layout used by the live transport:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "2WHB"
//! 4       2     version (LE, 2)
//! 6       2     reserved (zero)
//! 8       8     stream id (LE)   — distinguishes concurrent senders
//! 16      8     sequence number (LE, starts at 1)
//! 24      8     send timestamp, nanos on the sender's clock (LE)
//! 32      4     incarnation (LE, 0 on the first boot)
//! 36      4     reserved (zero)
//! ```
//!
//! 40 bytes total. Version 1, the 32-byte crash-stop frame without the
//! incarnation field, is retired: its frames are rejected, never
//! decoded. The sender timestamp feeds the `V(D)` estimator (§V-A.1),
//! which is immune to clock skew by construction. The incarnation
//! number carries the crash-*recovery* model: a restarted process bumps
//! it, which tells the monitor that a sequence-number reset is a new
//! boot of the same process rather than a stale duplicate.

use twofd_sim::time::Nanos;

/// Datagram magic bytes.
pub const MAGIC: [u8; 4] = *b"2WHB";
/// Wire version (incarnation-aware); the only one accepted.
pub const VERSION: u16 = 2;
/// Encoded datagram size in bytes.
pub const WIRE_SIZE: usize = 40;

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
    /// every crash-recovery restart.
    pub incarnation: u32,
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Datagram shorter than [`WIRE_SIZE`] (a truncated incarnation
    /// field is rejected, never guessed).
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
    /// Only the first [`WIRE_SIZE`] bytes are read, so trailing bytes
    /// are tolerated; anything shorter is rejected, never zero-filled.
    /// Any version but [`VERSION`] is rejected, including the retired
    /// version 1.
    pub fn decode(data: &[u8]) -> Result<Heartbeat, WireError> {
        let Some(frame) = data.first_chunk::<WIRE_SIZE>() else {
            return Err(WireError::TooShort { len: data.len() });
        };
        if field::<0, 4>(frame) != MAGIC {
            return Err(WireError::BadMagic);
        }
        match u16::from_le_bytes(field::<4, 2>(frame)) {
            VERSION => Ok(Heartbeat {
                stream: u64::from_le_bytes(field::<8, 8>(frame)),
                seq: u64::from_le_bytes(field::<16, 8>(frame)),
                sent_at: Nanos(u64::from_le_bytes(field::<24, 8>(frame))),
                incarnation: u32::from_le_bytes(field::<32, 4>(frame)),
            }),
            other => Err(WireError::BadVersion(other)),
        }
    }
}

/// The `N` bytes of `frame` starting at the fixed offset `AT`. The
/// bound is checked at compile time, so no index here can panic.
fn field<const AT: usize, const N: usize>(frame: &[u8; WIRE_SIZE]) -> [u8; N] {
    const { assert!(AT + N <= WIRE_SIZE) };
    std::array::from_fn(|i| frame[AT + i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `hb`'s frame with its version field overwritten by `version`.
    fn stamped(hb: &Heartbeat, version: u16) -> [u8; WIRE_SIZE] {
        let mut buf = hb.encode();
        buf[4..6].copy_from_slice(&version.to_le_bytes());
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
    fn rejects_short_datagrams() {
        assert_eq!(
            Heartbeat::decode(&[0u8; 10]),
            Err(WireError::TooShort { len: 10 })
        );
    }

    #[test]
    fn rejects_truncated_incarnation_field() {
        // A frame cut anywhere — inside the incarnation field or before
        // it — is rejected, not zero-filled.
        let hb = Heartbeat {
            stream: 5,
            seq: 2,
            sent_at: Nanos(42),
            incarnation: 1,
        };
        let full = hb.encode();
        for len in 0..WIRE_SIZE {
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
        let hb = Heartbeat {
            stream: 0,
            seq: 1,
            sent_at: Nanos::ZERO,
            incarnation: 0,
        };
        // Version 1 is the retired crash-stop format.
        for version in [1, 0xEEEE] {
            assert_eq!(
                Heartbeat::decode(&stamped(&hb, version)),
                Err(WireError::BadVersion(version))
            );
        }
    }

    #[test]
    fn trailing_bytes_are_tolerated() {
        // Future versions may append fields; the decoder reads a
        // WIRE_SIZE prefix.
        let hb = Heartbeat {
            stream: 3,
            seq: 9,
            sent_at: Nanos(55),
            incarnation: 2,
        };
        let mut v2 = hb.encode().to_vec();
        v2.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Heartbeat::decode(&v2).unwrap(), hb);
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
            // The same fields stamped version 1 are never decoded.
            prop_assert_eq!(
                Heartbeat::decode(&stamped(&hb, 1)),
                Err(WireError::BadVersion(1))
            );
        }
    }
}
