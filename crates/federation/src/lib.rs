//! Federation tier: a digest-relay monitor fleet with crash-recovery
//! semantics.
//!
//! The base runtime (`twofd-net`) scales one monitor to many streams;
//! this crate scales *monitors* to many monitors, following the
//! large-scale architecture of Dobre et al. and the crash-recovery
//! model of Reis & Vieira:
//!
//! * [`digest`] — the `2WDG` wire format: one datagram summarizing a
//!   monitor's per-stream liveness state (stream, incarnation, trust
//!   horizon, verdict), relayed over the same
//!   [`Transport`](twofd_net::Transport) seam heartbeats use.
//! * [`relay`] — the [`Federation`] state machine. Digest arrivals are
//!   heartbeats of the sending monitor, fed to per-peer detectors
//!   built from the same recipe as stream detectors.
//!   When a peer dies, its last relayed view is adopted
//!   ([`Adoption`] → `ShardRuntime::adopt`) so detection of its
//!   streams continues across the crash.
//!
//! Everything here is deterministic and clock-free (explicit `now`
//! parameters), so the whole protocol replays bit-identically inside
//! the virtual-time cluster simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod relay;

pub use digest::{
    DigestEntry, DigestError, LivenessDigest, DIGEST_ENTRY_SIZE, DIGEST_HEADER, DIGEST_MAGIC,
    DIGEST_VERSION,
};
pub use relay::{Adoption, Federation, FederationConfig};

#[cfg(test)]
mod integration {
    //! Two federated monitors over the in-memory transport: A digests
    //! its streams to B until it crashes; B detects the silence and
    //! adopts A's view into a real `ShardRuntime`, so A's streams stay
    //! under detection and expire through B's sweep path.

    use crate::{Federation, FederationConfig, LivenessDigest};
    use std::sync::Arc;
    use twofd_core::{DetectorConfig, DetectorSpec, FdOutput};
    use twofd_net::{sim_channel, ManualClock, SenderTransport, ShardConfig, ShardRuntime};
    use twofd_net::{TimeSource, Transport};
    use twofd_obs::Registry;
    use twofd_sim::time::{Nanos, Span};

    const MS: u64 = 1_000_000;
    const DIGEST_EVERY: u64 = 200 * MS;

    fn federation(local: u64) -> Federation {
        let mut f = Federation::new(
            FederationConfig {
                local,
                digest_interval: Span(DIGEST_EVERY),
            },
            &Registry::new(),
        );
        let peer_recipe =
            DetectorConfig::new(DetectorSpec::Chen { window: 1 }, Span(DIGEST_EVERY), 0.1);
        f.register_peer(3 - local, &peer_recipe);
        f
    }

    #[test]
    fn adoption_continues_detection_across_a_monitor_crash() {
        // Monitor A (id 1) owns streams 100 and 101; monitor B (id 2)
        // owns nothing but watches A through its digests.
        let mut a = federation(1);
        let mut b = federation(2);
        let (mut a_out, mut b_in) = sim_channel(64);

        let clock = Arc::new(ManualClock::new());
        let b_runtime = ShardRuntime::new(
            ShardConfig {
                detector: DetectorConfig::new(
                    DetectorSpec::TwoWindow { n1: 1, n2: 100 },
                    Span(100 * MS),
                    0.1,
                )
                .into(),
                n_shards: 1,
                ..ShardConfig::default()
            },
            clock.clone() as Arc<dyn TimeSource>,
        );

        // A digests on schedule until it crashes after 1 s. Its streams
        // are healthy: trust horizons always ~400 ms ahead of send time.
        let a_view = |at: Nanos| {
            [(100u64, 2u32), (101, 0)]
                .iter()
                .map(|&(stream, incarnation)| twofd_core::ProcessStatus {
                    key: stream,
                    output: FdOutput::Trust,
                    last_seq: Some(1),
                    trust_until: Some(Nanos(at.0 + 400 * MS)),
                    incarnation,
                })
                .collect::<Vec<_>>()
        };
        let crash_at = Nanos(1_000 * MS);
        let mut t = Nanos(DIGEST_EVERY);
        while t <= crash_at {
            assert!(a.digest_due(t));
            let d = a.build_digest(&a_view(t), t);
            a_out.send(&d.encode()).expect("b's inbox is open");
            t = Nanos(t.0 + DIGEST_EVERY);
        }

        // B drains the transport; every datagram decodes to a digest
        // heartbeat (delivery is instantaneous here — the virtual-time
        // cluster simulator exercises delayed/lossy variants).
        let n = b_in.recv_batch().expect("digests queued");
        assert_eq!(n, 5);
        for i in 0..n {
            let d = LivenessDigest::decode(b_in.datagram(i)).expect("well-formed digest");
            assert!(b.on_digest(&d, d.sent_at));
        }
        assert_eq!(b.peer_output(1, crash_at), Some(FdOutput::Trust));
        assert!(b.sweep(crash_at).is_empty(), "A still digesting at 1 s");

        // Silence: B's per-peer detector expires (next digest expected
        // at 1.2 s plus the 100 ms margin) and hands out A's view. The
        // failover must land inside the adopted horizons (1.4 s) — an
        // already-expired view has nothing left to seed.
        let detect_at = Nanos(1_350 * MS);
        clock.advance_to(detect_at);
        let adoptions = b.sweep(detect_at);
        assert_eq!(adoptions.len(), 1);
        let adoption = &adoptions[0];
        assert_eq!(adoption.peer, 1);
        assert_eq!(adoption.streams.len(), 2);

        // B seeds its runtime from the adopted view. The horizons ride
        // A's clock; here both clocks share an origin so the rebase is
        // the identity (the cluster simulator does a real NodeClock
        // rebase).
        for e in &adoption.streams {
            assert!(b_runtime.adopt(e.stream, e.incarnation, e.trust_until));
        }
        let statuses = b_runtime.statuses();
        assert_eq!(statuses.len(), 2);
        for s in &statuses {
            assert_eq!(s.output, FdOutput::Trust, "adopted streams start trusted");
        }
        let inc_of = |stream: u64| {
            statuses
                .iter()
                .find(|s| s.key == stream)
                .expect("adopted")
                .incarnation
        };
        assert_eq!(inc_of(100), 2, "incarnation survives the relay");
        assert_eq!(inc_of(101), 0);

        // Re-adoption of a stale incarnation is refused…
        assert!(!b_runtime.adopt(100, 1, Nanos(u64::MAX)));

        // …and with A's senders really gone, the adopted horizons
        // (last view sent at 1 s, trusted until 1.4 s) expire through
        // B's ordinary sweep path: detection continued across the crash.
        clock.advance_to(Nanos(3_000 * MS));
        b_runtime.sweep_now();
        for s in b_runtime.statuses() {
            assert_eq!(s.output, FdOutput::Suspect, "stream {}", s.key);
        }
    }
}
