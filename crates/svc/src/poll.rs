//! Zero-dependency readiness polling for the event-loop server, also
//! used by the frontier coordinator to tell whether a reply is waiting.
//!
//! The server multiplexes every socket — listener, connections, and
//! the self-wake datagram socket — through one blocking wait per loop
//! iteration. On Linux that wait is the real `poll(2)`: std already
//! links the platform libc, so a direct `extern "C"` declaration (with
//! the `pollfd` layout from `poll.h`) gives us readiness notification
//! without adding any dependency. On other targets the fallback is a
//! bounded sleep-scan: report everything as ready and let nonblocking
//! I/O sort out reality (`WouldBlock` reads/writes are harmless) — a
//! degenerate but correct schedule, throttled by a short sleep.
//!
//! The interface is deliberately stateless: callers rebuild the entry
//! slice each iteration (interest changes every time a write buffer
//! drains), and `wait` fills in per-entry readiness flags.

use std::io;
use std::time::Duration;

/// The raw descriptor type `wait` polls. On the fallback path the
/// value is ignored, so non-unix builds can pass anything.
pub(crate) type SysFd = i32;

/// The descriptor `wait` polls for a socket.
#[cfg(unix)]
pub(crate) fn fd_of<T: std::os::fd::AsRawFd>(s: &T) -> SysFd {
    s.as_raw_fd()
}

/// The descriptor `wait` polls for a socket.
#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_: &T) -> SysFd {
    0
}

/// One descriptor's interest and (after [`wait`]) readiness.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollEntry {
    pub fd: SysFd,
    pub want_read: bool,
    pub want_write: bool,
    /// Set by [`wait`]: a read (or accept/recv) will not block — also
    /// set on error/hangup so the owner reads the error and closes.
    pub readable: bool,
    /// Set by [`wait`]: a write will not block.
    pub writable: bool,
}

impl PollEntry {
    pub(crate) fn new(fd: SysFd, want_read: bool, want_write: bool) -> PollEntry {
        PollEntry { fd, want_read, want_write, readable: false, writable: false }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `struct pollfd` from `poll.h` (identical layout on every Linux
    /// ABI rust targets: int fd, short events, short revents).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        /// `poll(2)`; `nfds_t` is `unsigned long` on Linux.
        pub fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    }
}

/// Block until at least one entry is ready or `timeout` elapses,
/// filling each entry's readiness flags. Returns the number of ready
/// descriptors (0 on timeout or on a harmless `EINTR`).
///
/// # Errors
///
/// Propagates a failed `poll(2)` (other than `EINTR`).
#[cfg(target_os = "linux")]
pub(crate) fn wait(entries: &mut [PollEntry], timeout: Duration) -> io::Result<usize> {
    use sys::{POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
    let mut fds: Vec<sys::PollFd> = entries
        .iter()
        .map(|e| sys::PollFd {
            fd: e.fd,
            events: if e.want_read { POLLIN } else { 0 } | if e.want_write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            for e in entries.iter_mut() {
                e.readable = false;
                e.writable = false;
            }
            return Ok(0);
        }
        return Err(err);
    }
    for (e, f) in entries.iter_mut().zip(&fds) {
        // Errors and hangups surface as readability: the owner's next
        // read returns 0/Err and tears the connection down.
        e.readable = f.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0;
        e.writable = f.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0;
    }
    Ok(rc as usize)
}

/// Fallback scheduler for targets without the `poll(2)` declaration:
/// every interest is reported ready and nonblocking I/O resolves the
/// truth; the sleep bounds the scan rate.
#[cfg(not(target_os = "linux"))]
pub(crate) fn wait(entries: &mut [PollEntry], timeout: Duration) -> io::Result<usize> {
    std::thread::sleep(timeout.min(Duration::from_millis(5)));
    let mut ready = 0usize;
    for e in entries.iter_mut() {
        e.readable = e.want_read;
        e.writable = e.want_write;
        if e.readable || e.writable {
            ready += 1;
        }
    }
    Ok(ready)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_reports_readability_and_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Nothing pending: a pure timeout, nothing readable.
        let mut entries = [PollEntry::new(listener.as_raw_fd(), true, false)];
        let n = wait(&mut entries, Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0);
        assert!(!entries[0].readable);

        // A pending connection makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        let n = wait(&mut entries, Duration::from_millis(1000)).unwrap();
        assert_eq!(n, 1);
        assert!(entries[0].readable);

        // A connected stream with buffered input is readable; an idle
        // one is writable (send buffer empty) but not readable.
        let (server_side, _) = listener.accept().unwrap();
        let mut entries = [PollEntry::new(server_side.as_raw_fd(), true, true)];
        wait(&mut entries, Duration::from_millis(10)).unwrap();
        assert!(entries[0].writable);
        assert!(!entries[0].readable);
        client.write_all(b"hi").unwrap();
        client.flush().unwrap();
        wait(&mut entries, Duration::from_millis(1000)).unwrap();
        assert!(entries[0].readable);
    }
}
