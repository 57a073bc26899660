//! The transport seam: a trait over the datagram send/recv surface.
//!
//! The fleet ingest loop and the heartbeat sender used to talk to
//! `UdpSocket` directly, which welded the whole live stack to real
//! sockets (and therefore to real time). This module lifts the two
//! surfaces they actually use into traits:
//!
//! * [`Transport`] — the receive side: batch-oriented, mirroring
//!   [`crate::intake::BatchReceiver`]'s borrow-the-arena shape so the
//!   UDP fast path stays allocation-free.
//! * [`SenderTransport`] — the send side: one encoded datagram out.
//!
//! Two receive implementations exist: [`UdpTransport`] (batched
//! `recvmmsg` on Linux, single-`recv` fallback elsewhere) and
//! [`SimTransport`] (an in-memory inbox fed by [`SimSender`] handles —
//! no socket, no kernel, so a deterministic driver can carry heartbeats
//! between simulated nodes in virtual time).
//!
//! ## The idle contract
//!
//! `recv_batch` must *block bounded* and surface idleness as
//! [`io::ErrorKind::WouldBlock`] or [`io::ErrorKind::TimedOut`]: the
//! ingest loop re-checks its stop flag on every such error, which is
//! how a [`crate::fleet::FleetMonitor`] drop terminates the thread.
//! Any other error ends the loop, and the monitor's `/healthz` turns
//! unhealthy.

use crate::intake::{BatchReceiver, BATCH};
use std::io;
use std::net::UdpSocket;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::time::Duration;

/// Receive half of the heartbeat transport. See the module docs for the
/// idle contract `recv_batch` must honor.
pub trait Transport: Send {
    /// Pulls the next batch of datagrams into the transport's internal
    /// buffers, replacing the previous batch. Returns how many arrived
    /// (possibly zero); idle periods surface as `WouldBlock`/`TimedOut`.
    fn recv_batch(&mut self) -> io::Result<usize>;

    /// Borrows datagram `i` of the current batch (`i` < the last
    /// `recv_batch` return value).
    fn datagram(&self, i: usize) -> &[u8];
}

/// Send half of the heartbeat transport: one encoded datagram out.
/// Errors are advisory — the sender treats them as network loss, which
/// is exactly the failure detectors' job to survive.
pub trait SenderTransport: Send {
    /// Emits one encoded heartbeat datagram.
    fn send(&mut self, datagram: &[u8]) -> io::Result<()>;
}

/// The UDP receive path: batched intake via
/// [`BatchReceiver`] (`recvmmsg(2)` on Linux, single-`recv` fallback
/// elsewhere). Honors the socket's read timeout.
pub struct UdpTransport {
    socket: UdpSocket,
    receiver: BatchReceiver,
}

impl UdpTransport {
    /// Wraps a bound (and read-timeout-configured) socket.
    pub fn new(socket: UdpSocket) -> Self {
        UdpTransport {
            socket,
            receiver: BatchReceiver::new(),
        }
    }
}

impl Transport for UdpTransport {
    fn recv_batch(&mut self) -> io::Result<usize> {
        self.receiver.recv_batch(&self.socket)
    }

    fn datagram(&self, i: usize) -> &[u8] {
        self.receiver.datagram(i)
    }
}

/// Send half over a connected UDP socket — what
/// [`crate::sender::HeartbeatSender::spawn`] uses.
pub struct UdpSenderTransport {
    socket: UdpSocket,
}

impl UdpSenderTransport {
    /// Wraps a socket already `connect`ed to the monitor.
    pub fn new(socket: UdpSocket) -> Self {
        UdpSenderTransport { socket }
    }
}

impl SenderTransport for UdpSenderTransport {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        self.socket.send(datagram)?;
        Ok(())
    }
}

/// How long [`SimTransport::recv_batch`] waits for a first datagram
/// before reporting `TimedOut` — the same stop-flag re-check cadence
/// the UDP sockets use via their read timeout.
const SIM_RECV_TIMEOUT: Duration = Duration::from_millis(20);

/// In-memory receive half: an inbox of encoded datagrams delivered by
/// [`SimSender`] handles. [`sim_channel`] builds the pair.
pub struct SimTransport {
    rx: Receiver<Vec<u8>>,
    batch: Vec<Vec<u8>>,
}

/// In-memory send half, cloneable so many simulated senders can share
/// one monitor inbox. A full inbox drops the datagram — the in-memory
/// analogue of a full kernel receive buffer.
#[derive(Clone)]
pub struct SimSender {
    tx: SyncSender<Vec<u8>>,
}

/// Creates a connected in-memory transport pair with the given inbox
/// capacity (datagrams beyond it are dropped, like a full UDP receive
/// buffer).
pub fn sim_channel(capacity: usize) -> (SimSender, SimTransport) {
    let (tx, rx) = sync_channel(capacity.max(1));
    (
        SimSender { tx },
        SimTransport {
            rx,
            batch: Vec::with_capacity(BATCH),
        },
    )
}

impl SenderTransport for SimSender {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        match self.tx.try_send(datagram.to_vec()) {
            Ok(()) => Ok(()),
            // Overflow = loss, disconnect = monitor gone; both are
            // "the network ate it" from the sender's point of view.
            Err(TrySendError::Full(_)) => Ok(()),
            Err(TrySendError::Disconnected(_)) => {
                Err(io::Error::new(io::ErrorKind::NotConnected, "inbox closed"))
            }
        }
    }
}

impl Transport for SimTransport {
    fn recv_batch(&mut self) -> io::Result<usize> {
        self.batch.clear();
        match self.rx.recv_timeout(SIM_RECV_TIMEOUT) {
            Ok(first) => self.batch.push(first),
            Err(RecvTimeoutError::Timeout) => {
                return Err(io::ErrorKind::TimedOut.into());
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "all senders dropped",
                ));
            }
        }
        // Opportunistically drain whatever else is already queued, up
        // to one intake batch — same shape as `recvmmsg` returning the
        // socket buffer's backlog in one crossing.
        while self.batch.len() < BATCH {
            match self.rx.try_recv() {
                Ok(d) => self.batch.push(d),
                Err(_) => break,
            }
        }
        Ok(self.batch.len())
    }

    fn datagram(&self, i: usize) -> &[u8] {
        &self.batch[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_pair_carries_datagrams_in_order() {
        let (mut tx, mut rx) = sim_channel(16);
        tx.send(b"one").unwrap();
        tx.send(b"two").unwrap();
        let n = rx.recv_batch().unwrap();
        assert_eq!(n, 2);
        assert_eq!(rx.datagram(0), b"one");
        assert_eq!(rx.datagram(1), b"two");
    }

    #[test]
    fn sim_recv_times_out_when_idle() {
        let (_tx, mut rx) = sim_channel(4);
        let err = rx.recv_batch().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn sim_overflow_drops_like_a_full_socket_buffer() {
        let (mut tx, mut rx) = sim_channel(2);
        for _ in 0..5 {
            tx.send(b"hb").unwrap(); // overflow is loss, not an error
        }
        assert_eq!(rx.recv_batch().unwrap(), 2);
    }

    #[test]
    fn sim_recv_reports_disconnect_when_senders_drop() {
        let (tx, mut rx) = sim_channel(4);
        drop(tx);
        let err = rx.recv_batch().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
    }

    #[test]
    fn udp_transports_shuttle_real_datagrams() {
        let recv_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        recv_socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let target = recv_socket.local_addr().unwrap();
        let send_socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        send_socket.connect(target).unwrap();
        let mut tx = UdpSenderTransport::new(send_socket);
        tx.send(b"payload").unwrap();
        let mut rx = UdpTransport::new(recv_socket);
        let n = rx.recv_batch().unwrap();
        assert_eq!(n, 1);
        assert_eq!(rx.datagram(0), b"payload");
    }
}
