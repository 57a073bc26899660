//! Liveness-digest wire format.
//!
//! A federated monitor periodically summarizes the liveness state of
//! every stream it owns — key, incarnation, trust horizon, current
//! verdict — into one datagram and relays it to its peers over the same
//! [`Transport`](twofd_net::Transport) seam the heartbeats use. The
//! digest plays two roles at once (Dobre et al.'s large-scale
//! architecture): its *arrival* is a heartbeat of the sending monitor
//! (fed to a per-peer failure detector, so monitors monitor monitors),
//! and its *payload* is the state a surviving peer adopts when the
//! sender crashes.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "2WDG"
//! 4       2     version (LE, = 1)
//! 6       2     reserved (zero)
//! 8       8     origin monitor id (LE)
//! 16      8     digest sequence number (LE, starts at 1)
//! 24      8     send timestamp, nanos on the origin's clock (LE)
//! 32      4     entry count (LE)
//! 36      21·n  entries
//! ```
//!
//! Each entry is 21 bytes: stream id (8), incarnation (4), trust
//! horizon in nanos on the origin's clock (8), and a flags byte whose
//! low bit is the suspect verdict. The horizon rides the *origin's*
//! clock — an adopter on another node must rebase it before use (the
//! cluster simulator does this through its `NodeClock` maps).
//!
//! Decoding is total: truncated headers, truncated entry regions, bad
//! magic and unknown versions are all rejected with a typed error,
//! never a panic — digests cross the same hostile network heartbeats
//! do.

use twofd_sim::time::Nanos;

/// Digest magic bytes.
pub const DIGEST_MAGIC: [u8; 4] = *b"2WDG";
/// Current digest wire version.
pub const DIGEST_VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const DIGEST_HEADER: usize = 36;
/// Encoded size of one entry.
pub const DIGEST_ENTRY_SIZE: usize = 21;

/// One stream's liveness state inside a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestEntry {
    /// The monitored stream.
    pub stream: u64,
    /// The stream's current incarnation at the origin.
    pub incarnation: u32,
    /// The origin's trust horizon for the stream, on the origin's
    /// clock; `Nanos::ZERO` when the origin never trusted it.
    pub trust_until: Nanos,
    /// The origin's current verdict (true = suspected).
    pub suspect: bool,
}

/// One monitor's relayed liveness summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessDigest {
    /// The sending monitor's id.
    pub origin: u64,
    /// Digest sequence number, starting at 1 — the heartbeat counter
    /// of the monitor-monitoring-monitor detectors.
    pub seq: u64,
    /// Send time on the origin's clock.
    pub sent_at: Nanos,
    /// Per-stream liveness state, in the origin's slot order.
    pub entries: Vec<DigestEntry>,
}

/// Digest decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestError {
    /// Datagram shorter than the header, or than the entry region its
    /// count claims.
    TooShort {
        /// Received length.
        len: usize,
    },
    /// Magic bytes do not match.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
}

impl std::fmt::Display for DigestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DigestError::TooShort { len } => write!(f, "digest too short ({len} bytes)"),
            DigestError::BadMagic => write!(f, "bad digest magic"),
            DigestError::BadVersion(v) => write!(f, "unsupported digest version {v}"),
        }
    }
}

impl std::error::Error for DigestError {}

impl LivenessDigest {
    /// Encoded size of this digest on the wire.
    fn wire_size(&self) -> usize {
        DIGEST_HEADER + self.entries.len() * DIGEST_ENTRY_SIZE
    }

    /// Encodes the digest into a fresh owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        buf.extend_from_slice(&DIGEST_MAGIC);
        buf.extend_from_slice(&DIGEST_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&self.origin.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.sent_at.0.to_le_bytes());
        buf.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            buf.extend_from_slice(&e.stream.to_le_bytes());
            buf.extend_from_slice(&e.incarnation.to_le_bytes());
            buf.extend_from_slice(&e.trust_until.0.to_le_bytes());
            buf.push(u8::from(e.suspect));
        }
        buf
    }

    /// Decodes a digest from a received datagram. Total: any
    /// malformation is a typed error, never a panic. Trailing bytes
    /// beyond the declared entry region are tolerated (future versions
    /// may append fields).
    pub fn decode(data: &[u8]) -> Result<LivenessDigest, DigestError> {
        if data.len() < DIGEST_HEADER {
            return Err(DigestError::TooShort { len: data.len() });
        }
        if data[0..4] != DIGEST_MAGIC {
            return Err(DigestError::BadMagic);
        }
        let version = u16::from_le_bytes(data[4..6].try_into().expect("2-byte field"));
        if version != DIGEST_VERSION {
            return Err(DigestError::BadVersion(version));
        }
        let u64_at =
            |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8-byte field"));
        let count = u32::from_le_bytes(data[32..36].try_into().expect("4-byte field")) as usize;
        // The count is attacker-controlled; bound the allocation by what
        // the datagram actually carries before reserving anything.
        let need = DIGEST_HEADER + count * DIGEST_ENTRY_SIZE;
        if data.len() < need {
            return Err(DigestError::TooShort { len: data.len() });
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = DIGEST_HEADER + i * DIGEST_ENTRY_SIZE;
            entries.push(DigestEntry {
                stream: u64_at(at),
                incarnation: u32::from_le_bytes(
                    data[at + 8..at + 12].try_into().expect("4-byte field"),
                ),
                trust_until: Nanos(u64_at(at + 12)),
                suspect: data[at + 20] & 1 != 0,
            });
        }
        Ok(LivenessDigest {
            origin: u64_at(8),
            seq: u64_at(16),
            sent_at: Nanos(u64_at(24)),
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> LivenessDigest {
        LivenessDigest {
            origin: 7,
            seq: 42,
            sent_at: Nanos(1_234_567_890),
            entries: vec![
                DigestEntry {
                    stream: 1,
                    incarnation: 0,
                    trust_until: Nanos(2_000_000_000),
                    suspect: false,
                },
                DigestEntry {
                    stream: u64::MAX,
                    incarnation: 3,
                    trust_until: Nanos::ZERO,
                    suspect: true,
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let d = sample();
        let encoded = d.encode();
        assert_eq!(encoded.len(), d.wire_size());
        assert_eq!(LivenessDigest::decode(&encoded).unwrap(), d);
    }

    #[test]
    fn empty_digest_round_trips() {
        let d = LivenessDigest {
            origin: 1,
            seq: 1,
            sent_at: Nanos::ZERO,
            entries: Vec::new(),
        };
        assert_eq!(d.encode().len(), DIGEST_HEADER);
        assert_eq!(LivenessDigest::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn truncation_anywhere_is_rejected_without_panic() {
        let encoded = sample().encode();
        for len in 0..encoded.len() {
            assert_eq!(
                LivenessDigest::decode(&encoded[..len]),
                Err(DigestError::TooShort { len }),
                "truncated at {len}"
            );
        }
    }

    #[test]
    fn lying_entry_count_is_rejected() {
        let mut data = sample().encode().to_vec();
        // Claim far more entries than the datagram carries.
        data[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            LivenessDigest::decode(&data),
            Err(DigestError::TooShort { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bad_magic = sample().encode().to_vec();
        bad_magic[0] = b'X';
        assert_eq!(
            LivenessDigest::decode(&bad_magic),
            Err(DigestError::BadMagic)
        );
        let mut bad_version = sample().encode().to_vec();
        bad_version[4] = 0xEE;
        assert!(matches!(
            LivenessDigest::decode(&bad_version),
            Err(DigestError::BadVersion(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_tolerated() {
        let d = sample();
        let mut data = d.encode().to_vec();
        data.extend_from_slice(&[9, 9, 9]);
        assert_eq!(LivenessDigest::decode(&data).unwrap(), d);
    }

    proptest! {
        #[test]
        fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = LivenessDigest::decode(&data);
        }

        #[test]
        fn round_trip_any_entry(
            stream in any::<u64>(),
            inc in any::<u32>(),
            horizon in any::<u64>(),
            suspect in any::<bool>(),
        ) {
            let d = LivenessDigest {
                origin: 3,
                seq: 9,
                sent_at: Nanos(17),
                entries: vec![DigestEntry {
                    stream,
                    incarnation: inc,
                    trust_until: Nanos(horizon),
                    suspect,
                }],
            };
            prop_assert_eq!(LivenessDigest::decode(&d.encode()).unwrap(), d);
        }
    }
}
