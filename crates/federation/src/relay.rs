//! The digest-relay state machine: monitors monitoring monitors.
//!
//! [`Federation`] is the deterministic, transport-free core a federated
//! monitor drives. It owns:
//!
//! * **Digest emission** — [`Federation::build_digest`] summarizes the
//!   local runtime's [`ProcessStatus`] snapshot into a
//!   [`LivenessDigest`]; the caller encodes it and pushes it through
//!   whatever [`SenderTransport`](twofd_net::SenderTransport) reaches
//!   its peers, on the cadence [`Federation::digest_due`] reports.
//! * **Peer detection** — every received digest is a heartbeat of its
//!   origin: [`Federation::on_digest`] feeds a per-peer
//!   [`AnyDetector`], built from the same [`DetectorConfig`] recipe as
//!   stream detectors ([`Federation::register_peer`]).
//! * **Adoption** — when [`Federation::sweep`] finds a peer's detector
//!   suspecting it, the peer's last relayed view is handed back once as
//!   an [`Adoption`]; the caller seeds its own runtime from it
//!   (`ShardRuntime::adopt`) so detection of the dead monitor's streams
//!   continues without waiting for re-registration.
//!
//! All methods take explicit `now` instants and touch no clock, no
//! socket and no thread, so the whole protocol runs bit-identically
//! inside the virtual-time cluster simulator.

use crate::digest::{DigestEntry, LivenessDigest};
use std::collections::BTreeMap;
use twofd_core::{AnyDetector, DetectorConfig, FailureDetector, FdOutput, ProcessStatus};
use twofd_obs::{Counter, Gauge, Registry};
use twofd_sim::time::{Nanos, Span};

/// Identity and cadence of one federated monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationConfig {
    /// This monitor's id (the `origin` of every digest it emits).
    pub local: u64,
    /// How often digests are emitted (and therefore the heartbeat
    /// interval the per-peer detectors should be configured with).
    pub digest_interval: Span,
}

struct PeerState {
    fd: AnyDetector,
    /// The peer's last relayed view, adopted verbatim if it dies.
    view: Vec<DigestEntry>,
    /// Send instant (origin clock) of the stored view.
    view_sent_at: Nanos,
    /// Whether the peer is currently suspected by its detector.
    suspected: bool,
    /// Whether the stored view has already been handed out; reset when
    /// the peer digests again, so a later crash re-adopts.
    adopted: bool,
}

/// A dead peer's view, handed out exactly once per suspicion episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adoption {
    /// The suspected peer.
    pub peer: u64,
    /// Send instant (on the *peer's* clock) of the adopted view; the
    /// adopter rebases the entries' horizons relative to this.
    pub view_sent_at: Nanos,
    /// The streams the peer last reported trusted (suspect entries are
    /// filtered out — there is nothing live to keep detecting).
    pub streams: Vec<DigestEntry>,
}

/// The deterministic federation core of one monitor.
pub struct Federation {
    config: FederationConfig,
    seq: u64,
    last_sent: Option<Nanos>,
    peers: BTreeMap<u64, PeerState>,
    digests_sent: Counter,
    digests_received: Counter,
    peers_suspected: Gauge,
    streams_adopted: Counter,
}

impl Federation {
    /// Creates a federation core, registering its metrics (prefix
    /// `twofd_federation_*`) in `registry`.
    pub fn new(config: FederationConfig, registry: &Registry) -> Self {
        assert!(
            !config.digest_interval.is_zero(),
            "digest interval must be positive"
        );
        Federation {
            config,
            seq: 0,
            last_sent: None,
            peers: BTreeMap::new(),
            digests_sent: registry.counter(
                "twofd_federation_digests_sent_total",
                "Liveness digests emitted to peers",
            ),
            digests_received: registry.counter(
                "twofd_federation_digests_received_total",
                "Liveness digests received from peers",
            ),
            peers_suspected: registry.gauge(
                "twofd_federation_peers_suspected",
                "Peer monitors currently suspected crashed",
            ),
            streams_adopted: registry.counter(
                "twofd_federation_streams_adopted_total",
                "Streams adopted from dead peers' relayed views",
            ),
        }
    }

    /// This monitor's configuration.
    pub fn config(&self) -> FederationConfig {
        self.config
    }

    /// Registers a peer monitor, watched by a detector built from
    /// `detector` — use the digest interval as the recipe's Δi.
    pub fn register_peer(&mut self, peer: u64, detector: &DetectorConfig) {
        self.peers.insert(
            peer,
            PeerState {
                fd: detector.build(),
                view: Vec::new(),
                view_sent_at: Nanos::ZERO,
                suspected: false,
                adopted: false,
            },
        );
    }

    /// Whether the digest cadence calls for an emission at `now`.
    pub fn digest_due(&self, now: Nanos) -> bool {
        match self.last_sent {
            None => true,
            Some(at) => now.saturating_since(at).0 >= self.config.digest_interval.0,
        }
    }

    /// Builds the next outgoing digest from the local runtime's status
    /// snapshot, bumping the digest sequence number. The caller encodes
    /// and transmits it to every peer.
    pub fn build_digest(&mut self, statuses: &[ProcessStatus<u64>], now: Nanos) -> LivenessDigest {
        self.seq += 1;
        self.last_sent = Some(now);
        self.digests_sent.inc();
        LivenessDigest {
            origin: self.config.local,
            seq: self.seq,
            sent_at: now,
            entries: statuses
                .iter()
                .map(|s| DigestEntry {
                    stream: s.key,
                    incarnation: s.incarnation,
                    trust_until: s.trust_until.unwrap_or(Nanos::ZERO),
                    suspect: s.output == FdOutput::Suspect,
                })
                .collect(),
        }
    }

    /// Feeds one received digest: a heartbeat of its origin's detector
    /// plus a refresh of the stored view. Returns false (and ignores
    /// the digest) when the origin is not a registered peer. A digest
    /// from a previously suspected peer clears the suspicion episode,
    /// so a later crash adopts the *new* view.
    pub fn on_digest(&mut self, digest: &LivenessDigest, arrival: Nanos) -> bool {
        let Some(peer) = self.peers.get_mut(&digest.origin) else {
            return false;
        };
        self.digests_received.inc();
        // Stale digests (reordered/duplicated) are rejected by the
        // detector's freshness rule and must not regress the view.
        if peer.fd.on_heartbeat(digest.seq, arrival).is_some() {
            peer.view = digest.entries.clone();
            peer.view_sent_at = digest.sent_at;
            if peer.suspected {
                peer.suspected = false;
                peer.adopted = false;
                self.refresh_suspected_gauge();
            }
        }
        true
    }

    /// The current verdict on one peer (`None` if unregistered).
    pub fn peer_output(&self, peer: u64, now: Nanos) -> Option<FdOutput> {
        self.peers.get(&peer).map(|p| p.fd.output_at(now))
    }

    /// Checks every peer's detector at `now` and hands out the views of
    /// newly dead peers, exactly once per suspicion episode. Entries
    /// the peer itself had already suspected are filtered out.
    pub fn sweep(&mut self, now: Nanos) -> Vec<Adoption> {
        let mut adoptions = Vec::new();
        let mut gauge_dirty = false;
        for (&id, peer) in self.peers.iter_mut() {
            let suspect = peer.fd.output_at(now) == FdOutput::Suspect;
            if suspect != peer.suspected {
                peer.suspected = suspect;
                gauge_dirty = true;
            }
            if suspect && !peer.adopted && !peer.view.is_empty() {
                peer.adopted = true;
                let streams: Vec<DigestEntry> =
                    peer.view.iter().filter(|e| !e.suspect).copied().collect();
                self.streams_adopted.add(streams.len() as u64);
                adoptions.push(Adoption {
                    peer: id,
                    view_sent_at: peer.view_sent_at,
                    streams,
                });
            }
        }
        if gauge_dirty {
            self.refresh_suspected_gauge();
        }
        adoptions
    }

    fn refresh_suspected_gauge(&self) {
        let n = self.peers.values().filter(|p| p.suspected).count();
        self.peers_suspected.set(n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twofd_core::DetectorSpec;

    const MS: u64 = 1_000_000;

    fn peer_recipe(interval_ms: u64, margin_s: f64) -> DetectorConfig {
        // Window 1 tracks the latest digest arrival only, so a peer
        // that revives after a long silence is re-trusted by its first
        // digest — the property the re-arm test exercises.
        DetectorConfig::new(
            DetectorSpec::Chen { window: 1 },
            Span(interval_ms * MS),
            margin_s,
        )
    }

    fn federation(local: u64) -> Federation {
        Federation::new(
            FederationConfig {
                local,
                digest_interval: Span(200 * MS),
            },
            &Registry::new(),
        )
    }

    fn status(key: u64, trusted_until: Option<u64>, incarnation: u32) -> ProcessStatus<u64> {
        ProcessStatus {
            key,
            output: if trusted_until.is_some() {
                FdOutput::Trust
            } else {
                FdOutput::Suspect
            },
            last_seq: Some(1),
            trust_until: trusted_until.map(Nanos),
            incarnation,
        }
    }

    #[test]
    fn digest_cadence_and_sequence() {
        let mut f = federation(1);
        assert!(f.digest_due(Nanos::ZERO));
        let d1 = f.build_digest(&[], Nanos(1_000 * MS));
        assert_eq!((d1.origin, d1.seq), (1, 1));
        assert!(!f.digest_due(Nanos(1_100 * MS)));
        assert!(f.digest_due(Nanos(1_200 * MS)));
        let d2 = f.build_digest(&[], Nanos(1_200 * MS));
        assert_eq!(d2.seq, 2);
    }

    #[test]
    fn digest_carries_the_status_snapshot() {
        let mut f = federation(1);
        let d = f.build_digest(
            &[status(10, Some(5_000 * MS), 2), status(11, None, 0)],
            Nanos(1_000 * MS),
        );
        assert_eq!(d.entries.len(), 2);
        assert_eq!(d.entries[0].stream, 10);
        assert_eq!(d.entries[0].incarnation, 2);
        assert!(!d.entries[0].suspect);
        assert!(d.entries[1].suspect);
        assert_eq!(d.entries[1].trust_until, Nanos::ZERO);
    }

    #[test]
    fn dead_peer_is_adopted_exactly_once() {
        let mut f = federation(1);
        f.register_peer(2, &peer_recipe(200, 0.1));
        let mut remote = federation(2);
        // Peer 2 digests on schedule, then stops.
        for beat in 1..=5u64 {
            let at = Nanos(beat * 200 * MS);
            let d = remote.build_digest(&[status(20, Some(at.0 + 400 * MS), 0)], at);
            assert!(f.on_digest(&d, at));
        }
        assert_eq!(f.peer_output(2, Nanos(1_000 * MS)), Some(FdOutput::Trust));
        assert!(f.sweep(Nanos(1_000 * MS)).is_empty());
        // Silence long past the next expected digest.
        let adoptions = f.sweep(Nanos(3_000 * MS));
        assert_eq!(adoptions.len(), 1);
        assert_eq!(adoptions[0].peer, 2);
        assert_eq!(adoptions[0].view_sent_at, Nanos(1_000 * MS));
        assert_eq!(adoptions[0].streams.len(), 1);
        assert_eq!(adoptions[0].streams[0].stream, 20);
        // Once: a second sweep of the same episode hands out nothing.
        assert!(f.sweep(Nanos(3_100 * MS)).is_empty());
    }

    #[test]
    fn recovered_peer_re_arms_adoption_with_the_fresh_view() {
        let mut f = federation(1);
        f.register_peer(2, &peer_recipe(200, 0.1));
        let mut remote = federation(2);
        for beat in 1..=3u64 {
            let at = Nanos(beat * 200 * MS);
            let d = remote.build_digest(&[status(20, Some(at.0 + 400 * MS), 0)], at);
            f.on_digest(&d, at);
        }
        assert_eq!(f.sweep(Nanos(2_000 * MS)).len(), 1, "first episode");
        // The peer comes back with a different view…
        let back = Nanos(2_200 * MS);
        let d = remote.build_digest(&[status(21, Some(back.0 + 400 * MS), 1)], back);
        f.on_digest(&d, back);
        assert_eq!(f.peer_output(2, Nanos(2_300 * MS)), Some(FdOutput::Trust));
        // …crashes again, and the *new* view is handed out.
        let again = f.sweep(Nanos(4_000 * MS));
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].streams[0].stream, 21);
        assert_eq!(again[0].streams[0].incarnation, 1);
    }

    #[test]
    fn suspect_entries_are_not_adopted() {
        let mut f = federation(1);
        f.register_peer(2, &peer_recipe(200, 0.1));
        let mut remote = federation(2);
        let at = Nanos(200 * MS);
        let d = remote.build_digest(
            &[status(20, Some(at.0 + 400 * MS), 0), status(21, None, 0)],
            at,
        );
        f.on_digest(&d, at);
        let adoptions = f.sweep(Nanos(2_000 * MS));
        assert_eq!(adoptions.len(), 1);
        let streams: Vec<u64> = adoptions[0].streams.iter().map(|e| e.stream).collect();
        assert_eq!(streams, vec![20], "the dead-at-origin stream stays out");
    }

    #[test]
    fn unknown_origins_and_stale_digests_are_ignored() {
        let mut f = federation(1);
        f.register_peer(2, &peer_recipe(200, 0.1));
        let mut remote = federation(99);
        let d = remote.build_digest(&[], Nanos(200 * MS));
        assert!(!f.on_digest(&d, Nanos(200 * MS)), "unregistered origin");

        let mut peer2 = federation(2);
        let d1 = peer2.build_digest(&[status(20, Some(900 * MS), 0)], Nanos(200 * MS));
        let d2 = peer2.build_digest(&[status(20, Some(1_100 * MS), 0)], Nanos(400 * MS));
        assert!(f.on_digest(&d2, Nanos(400 * MS)));
        // The reordered earlier digest must not regress the view.
        assert!(f.on_digest(&d1, Nanos(410 * MS)));
        let adoptions = f.sweep(Nanos(5_000 * MS));
        assert_eq!(adoptions[0].streams[0].trust_until, Nanos(1_100 * MS));
    }
}
