//! The monitored process `p`: a periodic UDP heartbeat emitter.
//!
//! Mirrors Algorithm 1's sender side — "at time `i·Δi` send heartbeat
//! `m_i` to `q`" — on a real socket. The sender runs on its own thread,
//! can be paused (to simulate transient network partitions) and crashed
//! (stops for ever), which is how the live examples and integration
//! tests exercise actual failure detection end to end.

use crate::clock::{MonotonicClock, TimeSource};
use crate::transport::{SenderTransport, UdpSenderTransport};
use crate::wire::{Heartbeat, WIRE_SIZE};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;
use twofd_sim::time::{Nanos, Span};

/// Longest single nap while waiting for the next beat deadline, so
/// [`HeartbeatSender::crash`] takes effect within this bound even for
/// very long heartbeat intervals.
const MAX_NAP: Duration = Duration::from_millis(20);

/// Control block shared with the sender thread.
#[derive(Debug)]
struct Shared {
    crashed: AtomicBool,
    paused: AtomicBool,
    sent: AtomicU64,
}

/// Handle to a running heartbeat sender.
///
/// Dropping the handle crashes the sender and joins the thread.
#[derive(Debug)]
pub struct HeartbeatSender {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl HeartbeatSender {
    /// Spawns a sender emitting heartbeats for `stream` every `interval`
    /// to `target`, timed by a fresh [`MonotonicClock`] (its own origin,
    /// deliberately unsynchronized with the monitor's — the paper's
    /// clock model).
    pub fn spawn(stream: u64, interval: Span, target: SocketAddr) -> io::Result<HeartbeatSender> {
        Self::spawn_with_clock(stream, interval, target, Arc::new(MonotonicClock::new()))
    }

    /// Like [`HeartbeatSender::spawn`] with an explicit [`TimeSource`]
    /// timing the beats — e.g. a [`crate::clock::SkewedClock`] to script
    /// this sender's clock running fast, slow, or offset from every
    /// other node's.
    pub fn spawn_with_clock(
        stream: u64,
        interval: Span,
        target: SocketAddr,
        clock: Arc<dyn TimeSource>,
    ) -> io::Result<HeartbeatSender> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let local_addr = socket.local_addr()?;
        socket.connect(target)?;
        Self::spawn_on_at(
            stream,
            interval,
            UdpSenderTransport::new(socket),
            clock,
            local_addr,
        )
    }

    /// Spawns the sender over an arbitrary [`SenderTransport`] — the
    /// seam that lets tests emit heartbeats into an in-memory
    /// [`crate::transport::SimSender`] inbox instead of a socket. The
    /// returned handle's [`HeartbeatSender::local_addr`] is the
    /// unspecified `127.0.0.1:0`, since a non-socket transport has no
    /// address.
    pub fn spawn_on<T: SenderTransport + 'static>(
        stream: u64,
        interval: Span,
        transport: T,
        clock: Arc<dyn TimeSource>,
    ) -> io::Result<HeartbeatSender> {
        Self::spawn_on_at(
            stream,
            interval,
            transport,
            clock,
            ([127, 0, 0, 1], 0).into(),
        )
    }

    fn spawn_on_at<T: SenderTransport + 'static>(
        stream: u64,
        interval: Span,
        mut transport: T,
        clock: Arc<dyn TimeSource>,
        local_addr: SocketAddr,
    ) -> io::Result<HeartbeatSender> {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        let shared = Arc::new(Shared {
            crashed: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            sent: AtomicU64::new(0),
        });
        let thread_shared = Arc::clone(&shared);
        let period = Duration::from_nanos(interval.0);
        // Algorithm 1 sends `m_i` at `i·Δi` on the sender's own time
        // axis, which starts when the sender does — not at the clock's
        // zero. A clock reading one hour at start would otherwise put
        // the sender 3 600 s / Δi beats behind, and it would send them
        // all back to back.
        let origin = clock.now();

        let thread = thread::Builder::new()
            .name(format!("twofd-sender-{stream}"))
            .spawn(move || {
                // Sleep against absolute deadlines `origin + i·Δi`, not
                // for `period` per loop: a relative sleep accumulates
                // its overshoot into every later beat, while sleeping
                // the *residual* to the next deadline keeps each beat
                // within one scheduler overshoot of its nominal instant
                // no matter how many came before.
                let mut buf = [0u8; WIRE_SIZE];
                let mut seq = 0u64;
                loop {
                    seq += 1;
                    let deadline = Nanos(origin.0.saturating_add(interval.0.saturating_mul(seq)));
                    loop {
                        let residual = deadline.saturating_since(clock.now());
                        if residual.is_zero() {
                            break;
                        }
                        // Cap each nap so a crash is honored promptly
                        // even with very long heartbeat intervals.
                        thread::sleep(Duration::from_nanos(residual.0).min(period).min(MAX_NAP));
                        if thread_shared.crashed.load(Ordering::Acquire) {
                            return;
                        }
                    }
                    if thread_shared.crashed.load(Ordering::Acquire) {
                        return;
                    }
                    if thread_shared.paused.load(Ordering::Acquire) {
                        // Paused senders still consume sequence numbers:
                        // to the monitor this is indistinguishable from
                        // network loss, which is the point.
                        continue;
                    }
                    // The live sender is a crash-stop process: a crash()
                    // is final, so it never sends a second incarnation.
                    // Restart scripting (incarnation bumps) lives in the
                    // cluster simulator's sender model.
                    let hb = Heartbeat {
                        stream,
                        seq,
                        sent_at: clock.now(),
                        incarnation: 0,
                    };
                    hb.encode_into(&mut buf);
                    // Send errors (e.g. monitor socket gone) are treated
                    // as losses; the detector's whole job is surviving
                    // those.
                    let _ = transport.send(&buf);
                    // ordering: Relaxed — standalone stat counter; no
                    // reader infers other memory from its value.
                    thread_shared.sent.fetch_add(1, Ordering::Relaxed);
                }
            })?;

        Ok(HeartbeatSender {
            shared,
            thread: Some(thread),
            local_addr,
        })
    }

    /// Crashes the monitored process: no further heartbeat will ever be
    /// sent. Idempotent.
    pub fn crash(&self) {
        self.shared.crashed.store(true, Ordering::Release);
    }

    /// Pauses emission (simulates a network partition); heartbeats sent
    /// while paused are lost, not delayed.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resumes emission after [`HeartbeatSender::pause`].
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
    }

    /// Heartbeats actually handed to the socket so far.
    pub fn sent(&self) -> u64 {
        // ordering: Relaxed — standalone stat counter, see the add site.
        self.shared.sent.load(Ordering::Relaxed)
    }

    /// The sender's local socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for HeartbeatSender {
    fn drop(&mut self) {
        self.crash();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::transport::{sim_channel, Transport};
    use std::net::UdpSocket;
    use std::time::Instant;

    fn bound_socket() -> (UdpSocket, SocketAddr) {
        let s = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let addr = s.local_addr().unwrap();
        (s, addr)
    }

    #[test]
    fn sender_emits_increasing_sequence_numbers() {
        let (socket, addr) = bound_socket();
        let sender = HeartbeatSender::spawn(1, Span::from_millis(5), addr).unwrap();
        let mut buf = [0u8; 64];
        let mut seqs = Vec::new();
        for _ in 0..5 {
            let n = socket.recv(&mut buf).unwrap();
            let hb = Heartbeat::decode(&buf[..n]).unwrap();
            assert_eq!(hb.stream, 1);
            seqs.push(hb.seq);
        }
        // Under parallel-test scheduler pressure the kernel may coalesce
        // wakeups; require distinct, overall-increasing sequence numbers
        // rather than strict per-datagram ordering.
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seqs.len(), "duplicate seqs in {seqs:?}");
        assert!(*sorted.last().unwrap() >= 5);
        // The counter increments after the send syscall, so the receiver
        // can observe the 5th datagram a beat before `sent()` reflects
        // it; wait out that window instead of asserting instantly.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while sender.sent() < 5 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(sender.sent() >= 5);
    }

    #[test]
    fn crash_stops_emission() {
        let (socket, addr) = bound_socket();
        let sender = HeartbeatSender::spawn(2, Span::from_millis(5), addr).unwrap();
        let mut buf = [0u8; 64];
        socket.recv(&mut buf).unwrap(); // at least one arrived
        sender.crash();
        // Drain anything in flight, then verify silence.
        thread::sleep(Duration::from_millis(30));
        while socket.recv(&mut buf).is_ok() {}
        socket
            .set_read_timeout(Some(Duration::from_millis(60)))
            .unwrap();
        assert!(socket.recv(&mut buf).is_err(), "heartbeat after crash");
    }

    #[test]
    fn pause_skips_sequence_numbers() {
        let (socket, addr) = bound_socket();
        let sender = HeartbeatSender::spawn(3, Span::from_millis(5), addr).unwrap();
        let mut buf = [0u8; 64];
        let n = socket.recv(&mut buf).unwrap();
        let before = Heartbeat::decode(&buf[..n]).unwrap().seq;
        sender.pause();
        thread::sleep(Duration::from_millis(40));
        sender.resume();
        // The next received heartbeat must have skipped several numbers.
        let deadline = Instant::now() + Duration::from_secs(1);
        let after = loop {
            let n = socket.recv(&mut buf).unwrap();
            let hb = Heartbeat::decode(&buf[..n]).unwrap();
            if hb.seq > before {
                break hb.seq;
            }
            assert!(Instant::now() < deadline);
        };
        assert!(
            after >= before + 4,
            "expected a gap: before {before}, after {after}"
        );
    }

    /// Beat `i` must be sent at its absolute deadline `i·Δi`, not `Δi`
    /// after the previous send: the old relative sleep accumulated its
    /// overshoot into every later beat, so send times drifted ever
    /// further past `i·Δi`. Every observed beat must sit within one
    /// period of its nominal instant, however many beats preceded it.
    #[test]
    fn beats_track_absolute_deadlines_without_drift() {
        let (socket, addr) = bound_socket();
        let interval = Span::from_millis(40);
        let sender = HeartbeatSender::spawn(5, interval, addr).unwrap();
        let mut buf = [0u8; 64];
        for _ in 0..12 {
            let n = socket.recv(&mut buf).unwrap();
            let hb = Heartbeat::decode(&buf[..n]).unwrap();
            let deadline = interval.0 * hb.seq;
            assert!(
                hb.sent_at.0 >= deadline,
                "beat {} sent early: {} < {}",
                hb.seq,
                hb.sent_at.0,
                deadline
            );
            let overshoot = hb.sent_at.0 - deadline;
            assert!(
                overshoot < interval.0,
                "beat {} drifted {}ns past its {}ns deadline",
                hb.seq,
                overshoot,
                deadline
            );
        }
        drop(sender);
    }

    /// Beat `i` is due at the sender's start plus `i·Δi`. Started on a
    /// clock that already reads one hour, the sender must not believe
    /// itself 36 000 beats late and send them back to back (a burst an
    /// in-memory inbox sheds part of, leaving the monitor's long window
    /// with samples an hour of sequence numbers apart). Nothing goes out
    /// until the clock reaches start + Δi; after that each Δi the clock
    /// advances releases exactly one beat, stamped with that instant.
    #[test]
    fn beats_are_anchored_at_the_senders_start_not_the_clocks_zero() {
        let clock = Arc::new(ManualClock::new());
        let start = Nanos::from_secs(3600);
        clock.advance_to(start);
        let interval = Span::from_millis(100);
        let (tx, mut rx) = sim_channel(1 << 16);
        let sender =
            HeartbeatSender::spawn_on(11, interval, tx, clock.clone() as Arc<dyn TimeSource>)
                .unwrap();
        // Every received beat, in order; an idle inbox returns nothing
        // after its receive timeout.
        let mut received = || -> Vec<Heartbeat> {
            let n = rx.recv_batch().unwrap_or(0);
            (0..n)
                .map(|i| Heartbeat::decode(rx.datagram(i)).unwrap())
                .collect()
        };

        clock.advance_to(Nanos(start.0 + interval.0 - 1));
        for _ in 0..3 {
            let early = received().len();
            assert_eq!(early, 0, "{early} beats before start + Δi");
        }
        for seq in 1..=10u64 {
            let due = Nanos(start.0 + interval.0 * seq);
            clock.advance_to(due);
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut got = Vec::new();
            while got.is_empty() && Instant::now() < deadline {
                got = received();
            }
            let expected = Heartbeat {
                stream: 11,
                seq,
                sent_at: due,
                incarnation: 0,
            };
            assert_eq!(got, vec![expected], "the beat due at {due:?}");
        }
        let early = received().len();
        assert_eq!(early, 0, "{early} beats the clock has not reached");
        drop(sender);
    }

    #[test]
    fn drop_joins_the_thread() {
        let (_socket, addr) = bound_socket();
        let sender = HeartbeatSender::spawn(4, Span::from_millis(5), addr).unwrap();
        drop(sender); // must not hang
    }
}
