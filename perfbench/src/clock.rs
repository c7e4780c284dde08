//! Clocks and the generator's pacing timer, declared straight against the
//! libc that std already links (the way `cvc_net::poll` declares epoll).
//!
//! Every timestamp in the benchmark is `CLOCK_MONOTONIC` nanoseconds, so a
//! due instant can be handed to a `timerfd` as an absolute deadline and the
//! generator sleeps in `epoll_wait` until exactly then: no millisecond
//! rounding and no busy-wait on the two cores it shares with the server.

use std::io;
use std::os::fd::RawFd;

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2000000;
const TFD_TIMER_ABSTIME: i32 = 1;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn read_clock(clk: i32) -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Monotonic wall clock, nanoseconds.
pub fn now_ns() -> u64 {
    read_clock(CLOCK_MONOTONIC)
}

/// CPU time the calling thread has consumed, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// A nonblocking `timerfd` on `CLOCK_MONOTONIC`, armed with absolute
/// deadlines. Register [`Timer::fd`] in a poller; it turns readable when the
/// deadline passes.
#[derive(Debug)]
pub struct Timer {
    fd: RawFd,
}

impl Timer {
    pub fn new() -> io::Result<Timer> {
        // SAFETY: timerfd_create takes a clock id and flags and returns an fd or -1.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Timer { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Fire once at monotonic instant `at_ns` (a past instant fires at once).
    pub fn arm_at(&self, at_ns: u64) -> io::Result<()> {
        // An all-zero it_value would disarm the timer instead.
        let at = at_ns.max(1);
        let spec = Itimerspec {
            it_interval: Timespec::default(),
            it_value: Timespec {
                tv_sec: (at / 1_000_000_000) as i64,
                tv_nsec: (at % 1_000_000_000) as i64,
            },
        };
        // SAFETY: `spec` lives across the call; a null old-value pointer is allowed.
        let rc =
            unsafe { timerfd_settime(self.fd, TFD_TIMER_ABSTIME, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Clear the expiry count so the fd stops reporting readable.
    pub fn drain(&self) {
        let mut buf = 0u64;
        // SAFETY: reading 8 bytes into a valid u64; EAGAIN (not expired) is fine.
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        // SAFETY: fd is a valid owned timerfd; best-effort close.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvc_net::{Interest, Poller};

    #[test]
    fn timer_fires_at_its_deadline_not_before() {
        let poller = Poller::new().unwrap();
        let timer = Timer::new().unwrap();
        poller.register(timer.fd(), 9, Interest::READ).unwrap();
        let due = now_ns() + 3_000_000;
        timer.arm_at(due).unwrap();
        let mut evs = Vec::new();
        while evs.is_empty() {
            poller.wait(&mut evs, 1000).unwrap();
        }
        assert!(now_ns() >= due, "woke before the deadline");
        assert_eq!(evs[0].token, 9);
        timer.drain();
        evs.clear();
        poller.wait(&mut evs, 0).unwrap();
        assert!(evs.is_empty(), "drained timer is quiet");
    }

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let a = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > a);
    }
}
