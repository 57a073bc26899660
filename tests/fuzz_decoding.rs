//! Robustness of the decoders: arbitrary bytes must never panic, only
//! return errors; mutated valid encodings must never be mis-accepted as
//! a different trace.

use proptest::prelude::*;
use std::sync::Arc;
use twofd::net::{Heartbeat, Job, ManualClock, ShardConfig, ShardRuntime, WireError, WIRE_SIZE};
use twofd::prelude::*;
use twofd::trace::{decode_binary, decode_csv, encode_binary};

/// The retired version-1 (crash-stop) frame of `hb`: the first 32
/// bytes of its frame, stamped version 1 — what a sender from before
/// the incarnation field puts on the wire. The decoder rejects it.
fn retired_v1(hb: &Heartbeat) -> Vec<u8> {
    let mut frame = hb.encode()[..32].to_vec();
    frame[4..6].copy_from_slice(&1u16.to_le_bytes());
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The binary trace decoder is total: any byte string yields
    /// `Ok` or `Err`, never a panic, and `Ok` only for inputs that
    /// re-encode to themselves.
    #[test]
    fn binary_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(trace) = decode_binary(&data) {
            // Anything accepted must round-trip canonically.
            let re = encode_binary(&trace);
            prop_assert_eq!(decode_binary(&re).unwrap(), trace);
        }
    }

    /// The CSV decoder is total over arbitrary text.
    #[test]
    fn csv_decoder_never_panics(text in "\\PC{0,400}") {
        let _ = decode_csv(&text);
    }

    /// The wire decoder is total over arbitrary datagrams.
    #[test]
    fn wire_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..64)) {
        if let Ok(hb) = Heartbeat::decode(&data) {
            prop_assert_eq!(Heartbeat::decode(&hb.encode()).unwrap(), hb);
        }
    }

    /// Frames round-trip for arbitrary field values, and the retired v1
    /// frame — which cannot carry an incarnation — is always rejected:
    /// as too short, and padded to full length, for its version.
    #[test]
    fn versioned_wire_frames_round_trip(
        stream in any::<u64>(),
        seq in any::<u64>(),
        at in any::<u64>(),
        incarnation in any::<u32>(),
    ) {
        let hb = Heartbeat { stream, seq, sent_at: Nanos(at), incarnation };
        prop_assert_eq!(Heartbeat::decode(&hb.encode()).unwrap(), hb);
        let v1 = retired_v1(&hb);
        prop_assert_eq!(Heartbeat::decode(&v1), Err(WireError::TooShort { len: 32 }));
        let mut padded = v1;
        padded.resize(WIRE_SIZE, 0);
        prop_assert_eq!(Heartbeat::decode(&padded), Err(WireError::BadVersion(1)));
    }

    /// A frame truncated anywhere — including inside the incarnation
    /// field `[32, 40)`, where a sloppy decoder might zero-fill — is
    /// rejected without panicking; garbage stuffed into the incarnation
    /// bytes still decodes (any u32 is a legal incarnation) and
    /// round-trips rather than being reinterpreted.
    #[test]
    fn truncated_or_garbage_incarnation_is_handled(
        stream in any::<u64>(),
        seq in any::<u64>(),
        cut in 0usize..WIRE_SIZE,
        junk in any::<u32>(),
    ) {
        let hb = Heartbeat { stream, seq, sent_at: Nanos(7), incarnation: 1 };
        let full = hb.encode();
        prop_assert!(Heartbeat::decode(&full[..cut]).is_err(), "cut at {}", cut);

        let mut garbled = full.to_vec();
        garbled[32..36].copy_from_slice(&junk.to_le_bytes());
        let decoded = Heartbeat::decode(&garbled).unwrap();
        prop_assert_eq!(decoded.incarnation, junk);
        prop_assert_eq!(Heartbeat::decode(&decoded.encode()).unwrap(), decoded);
    }

    /// The full intake path is total and exactly accounted: an
    /// arbitrary mix of valid, truncated, oversized and garbage
    /// datagrams — rebatched arbitrarily through a deliberately tiny
    /// shard queue — never panics, and once the queues drain the
    /// counters reconcile exactly: `received` equals the number of
    /// decodable datagrams, and `received == applied + dropped` (the
    /// identity the model-check suite verifies schedule-by-schedule;
    /// this drives it input-by-input).
    #[test]
    fn intake_batches_reconcile_exactly(
        // One tuple per datagram. The leading integer selects the shape
        // (the vendored proptest has no `prop_oneof`): 0 = valid v2,
        // 1 = retired v1 frame (rejected), 2 = truncated,
        // 3 = valid prefix + trailing junk, 4 = garbage.
        specs in prop::collection::vec(
            (0u8..5, 0u64..8, 1u64..1_000_000, 0usize..64),
            1..120,
        ),
        batch in 1usize..200,
    ) {
        let mut datagrams: Vec<Vec<u8>> = Vec::with_capacity(specs.len());
        for &(kind, stream, seq, size) in &specs {
            let hb = Heartbeat {
                stream,
                seq,
                sent_at: Nanos(seq),
                incarnation: (seq % 3) as u32,
            };
            match kind {
                0 => datagrams.push(hb.encode().to_vec()),
                1 => datagrams.push(retired_v1(&hb)),
                // Truncated: shorter than WIRE_SIZE, never valid.
                2 => datagrams.push(hb.encode()[..size % WIRE_SIZE].to_vec()),
                3 => {
                    // Oversized: the decoder reads a WIRE_SIZE prefix
                    // and must ignore trailing bytes.
                    let mut d = hb.encode().to_vec();
                    d.resize(WIRE_SIZE + size, 0xA5);
                    datagrams.push(d);
                }
                _ => datagrams.push(
                    (0..size).map(|i| (seq >> (i % 8)) as u8 ^ i as u8).collect(),
                ),
            }
        }

        // Decode exactly as the fleet intake does: drop undecodable
        // datagrams, stamp the rest with arrival order.
        let jobs: Vec<Job> = datagrams
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                Heartbeat::decode(d)
                    .ok()
                    .map(|hb| (hb.stream, hb.seq, Nanos(1 + i as u64), hb.incarnation))
            })
            .collect();

        let runtime = ShardRuntime::new(
            ShardConfig {
                n_shards: 2,
                // Tiny on purpose: oversize batches must evict (and
                // count) rather than block or lose heartbeats.
                queue_capacity: 4,
                ..ShardConfig::default()
            },
            Arc::new(ManualClock::new()),
        );
        for chunk in jobs.chunks(batch) {
            runtime.ingest_batch(chunk);
        }
        runtime.flush();

        let stats = runtime.stats();
        prop_assert_eq!(stats.received(), jobs.len() as u64);
        prop_assert_eq!(stats.received(), stats.applied() + stats.dropped());
    }

    /// Single-byte corruption of a valid trace encoding either fails to
    /// decode or decodes to a structurally valid trace (never panics,
    /// never produces out-of-order records).
    #[test]
    fn corrupted_traces_fail_safely(
        seed in any::<u64>(),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let trace = WanTraceConfig::small(50, seed).generate();
        let mut data = encode_binary(&trace).to_vec();
        let i = flip_at.index(data.len());
        data[i] ^= 1 << flip_bit;
        if let Ok(decoded) = decode_binary(&data) {
            // Structural invariant enforced by the decoder.
            prop_assert!(decoded
                .records
                .windows(2)
                .all(|w| w[0].seq < w[1].seq));
        }
    }
}
