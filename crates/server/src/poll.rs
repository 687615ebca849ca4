//! A `libc`-free readiness primitive: a raw `poll(2)` wrapper plus a
//! self-wake pipe, the two building blocks of an evented serving loop.
//!
//! The workspace is `std`-only, but `std` exposes no readiness API — only
//! blocking reads. The serving layer needs to watch many nonblocking
//! sockets at once, so this module declares the one POSIX entry point it
//! needs (`poll`) as an `extern "C"` item. Every libc that Rust's `std`
//! itself links (glibc, musl, Apple libSystem) exports it with exactly
//! this signature, so no new dependency is introduced: the symbol is
//! already in the process image.
//!
//! [`WakePipe`] rides on [`std::os::unix::net::UnixStream::pair`] — a
//! socketpair, which `poll` treats like any other fd — so worker threads
//! can interrupt a sleeping event loop without a timeout dance.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`; layout fixed by POSIX.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

/// Readable (or a peer hangup that reads as EOF).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (always polled, never requested).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up.
pub(crate) const POLLHUP: i16 = 0x010;
/// The fd is not open — a bookkeeping bug on our side.
pub(crate) const POLLNVAL: i16 = 0x020;

impl PollFd {
    /// Watches `fd` for the interest set `events`.
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the kernel flag any of `mask` on the last poll?
    pub(crate) fn has(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Readable, hung up, or errored — any reason to attempt a read.
    pub(crate) fn readable(&self) -> bool {
        self.has(POLLIN | POLLHUP | POLLERR | POLLNVAL)
    }

    /// Writable or errored — any reason to attempt a write.
    pub(crate) fn writable(&self) -> bool {
        self.has(POLLOUT | POLLERR | POLLHUP | POLLNVAL)
    }
}

// The POSIX `nfds_t` is `unsigned long` on every platform std supports.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Blocks until at least one fd in `fds` is ready, the timeout elapses
/// (`None` = wait forever), or a non-EINTR error occurs. Returns the
/// number of ready fds (0 on timeout); `revents` is filled in place.
///
/// EINTR is retried internally with the timeout re-armed, so callers
/// never observe spurious wakeups from signals.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: std::ffi::c_int = match timeout {
        None => -1,
        // Round up so a 1 ns timeout still sleeps, and saturate far below
        // c_int::MAX to dodge overflow on 16-bit-int platforms (none that
        // std supports, but the clamp is free).
        Some(d) => d.as_millis().min(i32::MAX as u128 / 2) as std::ffi::c_int,
    };
    loop {
        // SAFETY: `PollFd` is `#[repr(C)]` with `struct pollfd`'s layout, and
        // the pointer/length pair comes from a live, exclusively borrowed
        // slice, so the kernel writes `revents` only inside it.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A self-wake channel for an event loop: the loop polls the receiving
/// end for `POLLIN`; any thread calls [`WakePipe::wake`] to make the next
/// (or current) poll return immediately.
///
/// Built on a nonblocking socketpair. Wakes coalesce: a full pipe means a
/// wake is already pending, which is exactly the semantic we want, so
/// `WouldBlock` on the write side is success.
#[derive(Debug)]
pub(crate) struct WakePipe {
    rx: UnixStream,
    tx: UnixStream,
}

impl WakePipe {
    pub(crate) fn new() -> io::Result<WakePipe> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakePipe { rx, tx })
    }

    /// The fd the event loop adds to its poll set (interest: `POLLIN`).
    pub(crate) fn poll_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// A cloneable waker handle for producer threads.
    pub(crate) fn waker(&self) -> io::Result<Waker> {
        Ok(Waker {
            tx: self.tx.try_clone()?,
        })
    }

    /// Drains pending wake bytes so the next poll blocks again. Call this
    /// whenever the poll reports the wake fd readable.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => return, // peer gone: nothing more will arrive
                Ok(_) => continue,
                Err(_) => return, // WouldBlock or a real error: stop either way
            }
        }
    }
}

/// The sending half of a [`WakePipe`]; cheap to clone across threads.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Interrupts the event loop. Never blocks; a full pipe already holds
    /// a pending wake, so dropping the byte is correct.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            tx: self.tx.try_clone().expect("clone wake pipe"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn poll_times_out_on_an_idle_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let t0 = Instant::now();
        let n = poll_fds(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "no data was sent, poll must time out");
        assert!(t0.elapsed() >= Duration::from_millis(25));
        drop(client);
    }

    #[test]
    fn poll_reports_readable_after_a_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
    }

    #[test]
    fn poll_reports_hangup_or_eof_after_peer_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        drop(client);
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "EOF must surface as readable/hup");
    }

    #[test]
    fn wake_pipe_interrupts_a_sleeping_poll() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker().unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut fds = [PollFd::new(pipe.poll_fd(), POLLIN)];
        let t0 = Instant::now();
        let n = poll_fds(&mut fds, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 1, "the wake must interrupt the poll");
        assert!(t0.elapsed() < Duration::from_secs(5));
        pipe.drain();
        // Drained: the next poll times out instead of spinning.
        let n = poll_fds(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "drained wake pipe must be quiet");
        handle.join().unwrap();
    }

    #[test]
    fn wakes_coalesce_and_never_block() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker().unwrap();
        // Far more wakes than the pipe buffers: must not block or error.
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut fds = [PollFd::new(pipe.poll_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        pipe.drain();
        assert_eq!(
            poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap(),
            0
        );
    }
}
