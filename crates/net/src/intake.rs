//! Batch UDP intake: `recvmmsg(2)` on Linux, single-`recv` elsewhere.
//!
//! The live ingest path is syscall-bound: one 40-byte heartbeat per
//! `recv(2)` means one kernel crossing per datagram. `recvmmsg(2)`
//! amortizes that crossing across up to [`BATCH`] datagrams — with
//! `MSG_WAITFORONE` it blocks until at least one datagram is available
//! and then drains whatever else the socket buffer holds, so latency
//! under light load is identical to `recv` while throughput under heavy
//! load scales with the batch size.
//!
//! The syscall is declared with a raw `extern "C"` block rather than a
//! libc crate dependency: three `#[repr(C)]` structs
//! (`iovec`/`msghdr`/`mmsghdr`, layouts fixed by the kernel ABI on
//! 64-bit Linux) are all it needs. The buffer arena is boxed so its
//! address is stable across moves of the [`BatchReceiver`]; the
//! scatter-gather descriptors are rebuilt on the stack each call, which
//! keeps the type free of self-references and costs a few cache lines
//! next to a syscall.
//!
//! On non-Linux targets [`BatchReceiver::recv_batch`] degrades to the
//! portable single-`recv` loop, returning one-datagram batches, so
//! callers stay `cfg`-free.
//!
//! This is the one module in the crate allowed to use `unsafe` (the
//! crate is `deny(unsafe_code)`): the FFI call and the pointer plumbing
//! around it are confined here behind a safe slice-returning API.
#![allow(unsafe_code)]
// Every unsafe operation must sit in an explicit `unsafe {}` block with
// its own `// SAFETY:` comment, even inside unsafe fns (there are none
// today; this keeps it that way).
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::net::UdpSocket;

/// Maximum datagrams received per [`BatchReceiver::recv_batch`] call.
pub const BATCH: usize = 64;

/// Bytes reserved per datagram slot. Heartbeats are
/// [`crate::wire::WIRE_SIZE`] (32) bytes; the headroom tolerates
/// future wire versions that append fields (decoders read a prefix).
const DATAGRAM: usize = 64;

#[cfg(target_os = "linux")]
mod linux {
    use std::ffi::{c_int, c_uint, c_void};

    /// Scatter-gather element (`struct iovec`, `<sys/uio.h>`).
    #[repr(C)]
    pub struct Iovec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    /// Message header (`struct msghdr`, `<sys/socket.h>`, 64-bit Linux
    /// layout: kernel pads `msg_controllen` to pointer width).
    #[repr(C)]
    pub struct Msghdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: c_uint,
        pub msg_iov: *mut Iovec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: c_int,
    }

    /// Multi-message header (`struct mmsghdr`, `<sys/socket.h>`).
    #[repr(C)]
    pub struct Mmsghdr {
        pub msg_hdr: Msghdr,
        pub msg_len: c_uint,
    }

    /// Block until at least one datagram arrives, then also return any
    /// further datagrams already queued, without waiting for more.
    pub(super) const MSG_WAITFORONE: c_int = 0x10000;

    /// `setsockopt` level/name for the receive buffer size.
    pub(super) const SOL_SOCKET: c_int = 1;
    pub(super) const SO_RCVBUF: c_int = 8;

    // SAFETY: these signatures must match the kernel/glibc ABI exactly.
    // `recvmmsg`/`sendmmsg` are in glibc ≥ 2.12 and take (fd, msgvec,
    // vlen, flags[, timeout]) with the `#[repr(C)]` layouts above;
    // `setsockopt` is POSIX. Callers uphold pointer validity per call
    // site (each has its own SAFETY comment).
    extern "C" {
        pub(super) fn recvmmsg(
            sockfd: c_int,
            msgvec: *mut Mmsghdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        pub(super) fn sendmmsg(
            sockfd: c_int,
            msgvec: *mut Mmsghdr,
            vlen: c_uint,
            flags: c_int,
        ) -> c_int;
        pub(super) fn setsockopt(
            sockfd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: c_uint,
        ) -> c_int;
    }
}

/// Requests a kernel receive buffer of `bytes` for `socket` (the kernel
/// doubles the request and caps it at `net.core.rmem_max`). A deep
/// buffer is the other half of batch intake: it is what absorbs a
/// traffic burst while the intake thread is between time slices, so the
/// next `recvmmsg` finds a full batch instead of a tail of drops.
/// Best-effort no-op off Linux.
#[cfg(target_os = "linux")]
pub fn set_recv_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<()> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
    let val: c_int = bytes.min(c_int::MAX as usize) as c_int;
    // SAFETY: passes a valid pointer/size pair for one c_int option.
    let rc = unsafe {
        linux::setsockopt(
            socket.as_raw_fd(),
            linux::SOL_SOCKET,
            linux::SO_RCVBUF,
            &val as *const c_int as *const c_void,
            std::mem::size_of::<c_int>() as std::ffi::c_uint,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Portable fallback: accepted but not applied.
#[cfg(not(target_os = "linux"))]
pub fn set_recv_buffer(_socket: &UdpSocket, _bytes: usize) -> io::Result<()> {
    Ok(())
}

/// Sends every datagram in `datagrams` on a connected socket, batching
/// kernel crossings with `sendmmsg(2)` on Linux (plain `send` loop
/// elsewhere). Returns how many datagrams were handed to the kernel;
/// short counts mean the socket reported an error mid-batch, which
/// heartbeat callers treat as loss.
#[cfg(target_os = "linux")]
pub fn send_batch(socket: &UdpSocket, datagrams: &[&[u8]]) -> io::Result<usize> {
    use linux::{sendmmsg, Iovec, Mmsghdr, Msghdr};
    use std::ffi::{c_uint, c_void};
    use std::os::fd::AsRawFd;
    use std::ptr;

    let mut sent = 0usize;
    for chunk in datagrams.chunks(BATCH) {
        let mut iovecs: [Iovec; BATCH] = std::array::from_fn(|i| {
            let d: &[u8] = chunk.get(i).copied().unwrap_or(&[]);
            Iovec {
                iov_base: d.as_ptr() as *mut c_void,
                iov_len: d.len(),
            }
        });
        let mut msgs: [Mmsghdr; BATCH] = std::array::from_fn(|i| Mmsghdr {
            msg_hdr: Msghdr {
                msg_name: ptr::null_mut(),
                msg_namelen: 0,
                msg_iov: &mut iovecs[i],
                msg_iovlen: 1,
                msg_control: ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            },
            msg_len: 0,
        });
        // SAFETY: the first `chunk.len()` descriptors point at live
        // caller slices; `vlen` never exceeds that count.
        let n = unsafe {
            sendmmsg(
                socket.as_raw_fd(),
                msgs.as_mut_ptr(),
                chunk.len() as c_uint,
                0,
            )
        };
        if n < 0 {
            if sent > 0 {
                return Ok(sent);
            }
            return Err(io::Error::last_os_error());
        }
        sent += n as usize;
        if (n as usize) < chunk.len() {
            return Ok(sent);
        }
    }
    Ok(sent)
}

/// Portable fallback: one `send` per datagram.
#[cfg(not(target_os = "linux"))]
pub fn send_batch(socket: &UdpSocket, datagrams: &[&[u8]]) -> io::Result<usize> {
    let mut sent = 0usize;
    for d in datagrams {
        match socket.send(d) {
            Ok(_) => sent += 1,
            Err(_) if sent > 0 => return Ok(sent),
            Err(e) => return Err(e),
        }
    }
    Ok(sent)
}

/// Reusable batch-receive state: a boxed buffer arena plus the received
/// length of each slot. One instance lives for the whole life of an
/// ingest thread; no per-batch allocation.
pub struct BatchReceiver {
    /// Datagram arena. Boxed so slot addresses survive moves of the
    /// receiver (the kernel writes through raw pointers into it).
    bufs: Box<[[u8; DATAGRAM]; BATCH]>,
    lens: [usize; BATCH],
}

impl Default for BatchReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchReceiver {
    /// Allocates the buffer arena.
    pub fn new() -> BatchReceiver {
        BatchReceiver {
            // hotpath:allow(alloc) — construction path: the arena is
            // allocated once per shard and reused for every batch; the
            // recv path only hands out slices into it.
            bufs: Box::new([[0u8; DATAGRAM]; BATCH]),
            lens: [0usize; BATCH],
        }
    }

    /// Receives up to [`BATCH`] datagrams in one kernel crossing,
    /// returning how many arrived. Honors the socket's configured read
    /// timeout (`WouldBlock`/`TimedOut` surface as errors, exactly like
    /// `UdpSocket::recv`). Datagrams longer than `DATAGRAM` (64) are
    /// truncated, as with `recv` into a short buffer.
    #[cfg(target_os = "linux")]
    pub fn recv_batch(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        use linux::{recvmmsg, Iovec, Mmsghdr, Msghdr, MSG_WAITFORONE};
        use std::ffi::{c_uint, c_void};
        use std::os::fd::AsRawFd;
        use std::ptr;

        // Rebuild the descriptors on the stack each call: they only
        // carry pointers into the (stable, boxed) arena, and a ~4 KiB
        // stack write is noise next to the syscall it precedes.
        let base = self.bufs.as_mut_ptr() as *mut u8;
        let mut iovecs: [Iovec; BATCH] = std::array::from_fn(|i| Iovec {
            // SAFETY: `i < BATCH`, so the offset stays inside the arena.
            iov_base: unsafe { base.add(i * DATAGRAM) } as *mut c_void,
            iov_len: DATAGRAM,
        });
        let mut msgs: [Mmsghdr; BATCH] = std::array::from_fn(|i| Mmsghdr {
            msg_hdr: Msghdr {
                msg_name: ptr::null_mut(),
                msg_namelen: 0,
                msg_iov: &mut iovecs[i],
                msg_iovlen: 1,
                msg_control: ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            },
            msg_len: 0,
        });
        // SAFETY: every `msg_iov` points at an `Iovec` that outlives the
        // call, every `iov_base` at `DATAGRAM` writable bytes of the
        // arena; a null timeout defers to the socket's own SO_RCVTIMEO.
        let n = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                msgs.as_mut_ptr(),
                BATCH as c_uint,
                MSG_WAITFORONE,
                ptr::null_mut(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let n = n as usize;
        for (len, msg) in self.lens.iter_mut().zip(msgs.iter()).take(n) {
            *len = (msg.msg_len as usize).min(DATAGRAM);
        }
        Ok(n)
    }

    /// Portable fallback: one `recv`, returned as a one-datagram batch.
    #[cfg(not(target_os = "linux"))]
    pub fn recv_batch(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        let len = socket.recv(&mut self.bufs[0])?;
        self.lens[0] = len.min(DATAGRAM);
        Ok(1)
    }

    /// The `i`-th datagram of the last batch (valid for `i < n` where
    /// `n` is the last `recv_batch` return value).
    pub fn datagram(&self, i: usize) -> &[u8] {
        &self.bufs[i][..self.lens[i]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn batch_receives_everything_queued() {
        let rx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        for i in 0..10u8 {
            tx.send(&[i; 32]).unwrap();
        }
        let mut receiver = BatchReceiver::new();
        let mut got = Vec::new();
        while got.len() < 10 {
            let n = receiver.recv_batch(&rx).expect("datagrams queued");
            assert!(n >= 1);
            for i in 0..n {
                let d = receiver.datagram(i);
                assert_eq!(d.len(), 32);
                got.push(d[0]);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_socket_times_out_like_recv() {
        let rx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut receiver = BatchReceiver::new();
        let err = receiver.recv_batch(&rx).unwrap_err();
        assert!(
            err.kind() == io::ErrorKind::WouldBlock || err.kind() == io::ErrorKind::TimedOut,
            "{err:?}"
        );
    }

    #[test]
    fn send_batch_round_trips_through_recv_batch() {
        let rx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        // More datagrams than one send chunk, with distinct payloads.
        let payloads: Vec<[u8; 4]> = (0..(BATCH as u8 + 10)).map(|i| [i, 1, 2, 3]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
        assert_eq!(send_batch(&tx, &refs).unwrap(), payloads.len());

        let mut receiver = BatchReceiver::new();
        let mut got = Vec::new();
        while got.len() < payloads.len() {
            let n = receiver.recv_batch(&rx).expect("datagrams queued");
            for i in 0..n {
                let d = receiver.datagram(i);
                assert_eq!(&d[1..], &[1, 2, 3]);
                got.push(d[0]);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..(BATCH as u8 + 10)).collect::<Vec<_>>());
    }

    #[test]
    fn recv_buffer_request_is_accepted() {
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        set_recv_buffer(&sock, 1 << 20).expect("SO_RCVBUF request");
    }

    #[test]
    fn oversized_datagrams_truncate() {
        let rx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        tx.send(&[7u8; 200]).unwrap();
        let mut receiver = BatchReceiver::new();
        let n = receiver.recv_batch(&rx).unwrap();
        assert_eq!(n, 1);
        assert_eq!(receiver.datagram(0).len(), DATAGRAM);
    }
}
