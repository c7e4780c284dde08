//! Level-triggered epoll readiness, declared straight against the libc
//! that Rust's std already links.
//!
//! The vendored-deps constraint leaves no `libc`/`mio` crate to lean on,
//! and none is needed: four syscalls (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`) cover the whole readiness model. Everything
//! here is level-triggered — a loop that cannot drain a socket in one
//! pass simply hears about it again — which keeps the connection state
//! machine re-entrant and simple.

use std::io;
use std::os::fd::RawFd;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel ABI for `struct epoll_event`: packed on x86-64, natural
/// alignment everywhere else (glibc's `__EPOLL_PACKED`).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut RawEpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest — a connection with pending output.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification, with the registration's token echoed back.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Input is (or may be) available.
    pub readable: bool,
    /// Output space is available.
    pub writable: bool,
    /// The peer closed or the fd errored — the connection is done.
    pub hangup: bool,
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Create a fresh epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flag word and returns an fd or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = RawEpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` lives across the call; the kernel copies it out.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change an existing registration's interest.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Remove a registration. Dropping the fd also removes it; this is for
    /// connections that outlive a registration change.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = RawEpollEvent { events: 0, data: 0 };
        // SAFETY: pre-2.6.9 kernels demanded a non-null event for DEL;
        // passing one is always valid.
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block up to `timeout_ms` (-1 = forever) and append ready events.
    /// EINTR is retried with the same timeout; spurious wakeups are the
    /// caller's to tolerate (level-triggering makes them harmless).
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        const CAP: usize = 256;
        let mut raw = [RawEpollEvent { events: 0, data: 0 }; CAP];
        let n = loop {
            // SAFETY: `raw` is a valid buffer of CAP events.
            let rc = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in raw.iter().take(n) {
            let bits = ev.events;
            out.push(PollEvent {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd is a valid owned fd; best-effort close on teardown.
        unsafe { close(self.epfd) };
    }
}

/// A cross-thread wake-up line: an `eventfd` registered in a loop's
/// poller. Any thread holding the waker can nudge the loop out of
/// `epoll_wait`; the loop drains it and checks its stop flag.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

// SAFETY: the waker is a plain fd; write(2) on an eventfd is thread-safe.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Create a nonblocking eventfd waker.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes an initial count and flags.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The fd to register in a poller (readable when woken).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Nudge the owning poller. Saturation (EAGAIN on a full counter) is
    /// success: the loop is already due to wake.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a valid u64; return value may be
        // -1/EAGAIN when the counter is already saturated, which still
        // leaves the fd readable.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the wake counter (called by the loop after waking).
    pub fn drain(&self) {
        let mut buf = 0u64;
        // SAFETY: reading 8 bytes into a valid u64; EAGAIN means the
        // counter was already zero.
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: fd is a valid owned eventfd.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 7, Interest::READ).unwrap();
        // No wake: a zero-timeout wait sees nothing.
        let mut evs = Vec::new();
        poller.wait(&mut evs, 0).unwrap();
        assert!(evs.is_empty());
        waker.wake();
        waker.wake(); // coalesces
        poller.wait(&mut evs, 1000).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].token, 7);
        assert!(evs[0].readable);
        waker.drain();
        evs.clear();
        poller.wait(&mut evs, 0).unwrap();
        assert!(evs.is_empty(), "drained waker is quiet");
    }

    #[test]
    fn socket_readability_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 42, Interest::READ).unwrap();
        let mut evs = Vec::new();
        poller.wait(&mut evs, 0).unwrap();
        assert!(evs.iter().all(|e| !e.readable), "no data yet");

        a.write_all(b"ping").unwrap();
        evs.clear();
        poller.wait(&mut evs, 2000).unwrap();
        let ev = evs.iter().find(|e| e.token == 42).expect("socket event");
        assert!(ev.readable);

        let mut c = b;
        let mut buf = [0u8; 8];
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Peer close surfaces as hangup/readable, never silence.
        drop(a);
        evs.clear();
        poller.wait(&mut evs, 2000).unwrap();
        let ev = evs.iter().find(|e| e.token == 42).expect("close event");
        assert!(ev.hangup || ev.readable);
    }

    #[test]
    fn interest_modify_gates_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        a.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut evs = Vec::new();
        poller.wait(&mut evs, 100).unwrap();
        assert!(evs.iter().all(|e| !e.writable), "no write interest yet");
        poller
            .modify(a.as_raw_fd(), 1, Interest::READ_WRITE)
            .unwrap();
        evs.clear();
        poller.wait(&mut evs, 2000).unwrap();
        assert!(
            evs.iter().any(|e| e.token == 1 && e.writable),
            "idle socket reports writable once asked"
        );
        poller.deregister(a.as_raw_fd()).unwrap();
        evs.clear();
        poller.wait(&mut evs, 0).unwrap();
        assert!(evs.is_empty());
    }
}
