//! Keep every vCPU out of the halt state while a TCP workload runs.
//!
//! On a virtual machine an idle vCPU halts, and waking it again costs a
//! trip through the hypervisor that, on a shared host, takes from tens of
//! microseconds to several milliseconds. On a two-vCPU KVM guest (Intel
//! Xeon) a 2 ms sleep loop overslept by p90 0.15–1.1 ms when idle but by
//! 81 µs with both vCPUs kept busy, and the TCP workloads, whose every op
//! is a chain of thread wake-ups, inherited that noise in their latency
//! tails.
//!
//! The keep-warm threads run under `SCHED_IDLE`: the kernel runs them only
//! when no other thread wants the CPU and preempts them as soon as one
//! wakes, so they take no CPU from the generator or the server — they only
//! stop the vCPU from halting. They are never busy-waiting *for* anything;
//! the generator itself sleeps in `epoll_wait`.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Put the calling thread under `SCHED_IDLE`.
fn become_idle_class() -> io::Result<()> {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread; `param` lives across the call.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

pub struct KeepWarm {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepWarm {
    /// Start one idle-class spinner per CPU. Fails, with every spinner
    /// stopped, if any of them cannot leave the normal scheduling class.
    pub fn start(cpus: usize) -> io::Result<KeepWarm> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let mut warm = KeepWarm {
            stop: Arc::clone(&stop),
            threads: Vec::new(),
        };
        for i in 0..cpus {
            let (stop, tx) = (Arc::clone(&stop), tx.clone());
            let spawned = thread::Builder::new()
                .name(format!("perfbench-warm{i}"))
                .spawn(move || {
                    let ok = become_idle_class();
                    let idle = ok.is_ok();
                    let _ = tx.send(ok);
                    // Never spin in the normal class: that would take CPU
                    // from the threads being measured.
                    // The flag publishes no other data, so Relaxed suffices.
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            match spawned {
                Ok(h) => warm.threads.push(h),
                Err(e) => {
                    warm.stop();
                    return Err(e);
                }
            }
        }
        drop(tx);
        for _ in 0..cpus {
            let res = rx
                .recv()
                .unwrap_or_else(|_| Err(io::Error::other("keep-warm thread died")));
            if let Err(e) = res {
                warm.stop();
                return Err(e);
            }
        }
        Ok(warm)
    }

    /// Stop and join every spinner.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.threads.drain(..) {
            h.join().expect("keep-warm thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_idle_class_and_stop() {
        let w = KeepWarm::start(2).expect("SCHED_IDLE needs no privilege");
        assert_eq!(w.threads.len(), 2);
        w.stop();
    }
}
