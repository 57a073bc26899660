//! # twofd-net — live UDP heartbeat transport
//!
//! The paper's experiments exchange heartbeats over UDP/IP; this crate
//! provides that substrate for the live examples and end-to-end tests:
//!
//! * [`wire`] — the heartbeat datagram format (40 bytes, carrying the
//!   sender's incarnation).
//! * [`clock`] — monotonic per-process clocks (deliberately
//!   unsynchronized between sender and monitor, as in the paper).
//! * [`sender`] — the monitored process `p`: a periodic emitter thread
//!   with crash and pause (partition) injection.
//! * [`monitor`] — the monitoring process `q`: a receiver thread feeding
//!   any set of [`twofd_core::FailureDetector`]s and an online
//!   `(pL, V(D))` estimator, with a transition event stream.
//! * [`shard`] — the sharded monitor runtime: per-stream detectors
//!   partitioned across bounded-queue shard workers with proactive
//!   freshness sweeping and drop-oldest backpressure. Each shard's
//!   state is a [`shard::ShardCore`], whose `pass` a single-threaded
//!   caller such as the cluster simulator can also call directly.
//! * [`inbox`] — the shard queue, with its contract (one producer,
//!   drop-oldest, an `applied` watermark `flush` waits on), and the
//!   bounded event queue transitions are published on.
//! * [`intake`] — batch UDP receive: `recvmmsg(2)` on Linux (raw FFI,
//!   no extra crates), portable single-`recv` fallback elsewhere.
//! * [`transport`] — the send/recv seam: batched UDP and an in-memory
//!   pair for deterministic, socket-free runs.
//! * [`fleet`] — one socket monitoring many senders, demultiplexed by
//!   the wire format's stream id into the sharded runtime.
//!
//! The runtime is instrumented with [`twofd_obs`]: its accounting
//! counters are registry cells exported over `/metrics`
//! ([`fleet::FleetMonitor::serve_metrics`]), and
//! [`shard::ObsOptions`] opts streams into inter-arrival histograms
//! and online QoS tracking against contracted bounds.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the [`intake`] module opts back in for
// the `recvmmsg(2)` FFI; every other module stays unsafe-free.
#![deny(unsafe_code)]

pub mod clock;
pub mod fleet;
pub mod inbox;
pub mod intake;
pub mod monitor;
pub mod sender;
pub mod shard;
pub mod transport;
pub mod wire;

pub use clock::{ManualClock, MonotonicClock, SkewedClock, TimeSource};
pub use fleet::{FleetMonitor, IntakeMode};
pub use inbox::Events;
pub use intake::BatchReceiver;
pub use monitor::{Monitor, TransitionEvent};
pub use sender::HeartbeatSender;
pub use shard::{
    DetectorPlan, FleetEvent, Job, ObsOptions, RuntimeStats, ShardConfig, ShardCore, ShardRuntime,
    ShardStats,
};
pub use transport::{
    sim_channel, SenderTransport, SimSender, SimTransport, Transport, UdpSenderTransport,
    UdpTransport,
};
pub use wire::{Heartbeat, WireError, WIRE_SIZE};

/// The crate's one poison policy: a lock whose holder panicked is taken
/// over as that holder left it, and the panic is not re-raised in later
/// callers. The inbox and event queues cannot panic inside their
/// critical sections. A shard pass can (a detector bug): that ends the
/// shard's worker and its counters stop moving, while queries, scrapes
/// and ingest keep working on the state the pass left instead of each
/// panicking in turn. Every `Mutex` and `Condvar` result in the crate
/// goes through here.
pub(crate) fn unpoison<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::unpoison;
    use std::sync::{Arc, Mutex};

    #[test]
    fn a_panicked_holders_lock_is_handed_on() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let mut held = m2.lock().unwrap();
            *held = 1;
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*unpoison(m.lock()), 1, "the holder's last write survives");
    }
}
