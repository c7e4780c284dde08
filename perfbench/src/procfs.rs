//! Per-thread and machine accounting read from `/proc`.
//!
//! Threads are keyed by TID, never by name: a thread names itself after it
//! spawns, so a snapshot taken right after `EditorServer::spawn` can still
//! read the parent's name. Names are read once, at the end of a session,
//! and only used to classify the TIDs that appeared during spawn.

use std::collections::BTreeMap;
use std::fs;

/// `/proc/<pid>/task/<tid>/schedstat`: time on CPU, time waiting on a run
/// queue, and timeslices run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub cpu_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_ascii_whitespace().map(str::parse::<u64>);
    Some(SchedStat {
        cpu_ns: it.next()?.ok()?,
        wait_ns: it.next()?.ok()?,
        slices: it.next()?.ok()?,
    })
}

/// Context switches from a `status` file. A voluntary switch is the thread
/// blocking, so each one is a wake-up to come.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtxSwitches {
    pub voluntary: u64,
    pub nonvoluntary: u64,
}

/// The numeric value of `key:` in a `status` file (`VmHWM` reads in kB).
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

pub fn parse_status_ctxt(text: &str) -> Option<CtxSwitches> {
    Some(CtxSwitches {
        voluntary: status_field(text, "voluntary_ctxt_switches")?,
        nonvoluntary: status_field(text, "nonvoluntary_ctxt_switches")?,
    })
}

/// The aggregate `cpu` line of `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal (guest
    /// time is already inside user and nice).
    pub total: u64,
}

pub fn parse_stat_cpu(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if f.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        steal: f[7],
        total: f.iter().sum(),
    })
}

/// Steal ticks as a share of all ticks between two `/proc/stat` readings.
pub fn steal_share(a: CpuTimes, b: CpuTimes) -> f64 {
    let total = b.total.saturating_sub(a.total);
    if total == 0 {
        return 0.0;
    }
    b.steal.saturating_sub(a.steal) as f64 / total as f64
}

/// One thread's counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskSample {
    pub sched: SchedStat,
    pub ctx: CtxSwitches,
}

impl TaskSample {
    /// Counters accrued from `earlier` to `self`.
    pub fn since(&self, earlier: &TaskSample) -> TaskSample {
        TaskSample {
            sched: SchedStat {
                cpu_ns: self.sched.cpu_ns.saturating_sub(earlier.sched.cpu_ns),
                wait_ns: self.sched.wait_ns.saturating_sub(earlier.sched.wait_ns),
                slices: self.sched.slices.saturating_sub(earlier.sched.slices),
            },
            ctx: CtxSwitches {
                voluntary: self.ctx.voluntary.saturating_sub(earlier.ctx.voluntary),
                nonvoluntary: self
                    .ctx
                    .nonvoluntary
                    .saturating_sub(earlier.ctx.nonvoluntary),
            },
        }
    }

    pub fn add(&mut self, o: &TaskSample) {
        self.sched.cpu_ns += o.sched.cpu_ns;
        self.sched.wait_ns += o.sched.wait_ns;
        self.sched.slices += o.sched.slices;
        self.ctx.voluntary += o.ctx.voluntary;
        self.ctx.nonvoluntary += o.ctx.nonvoluntary;
    }
}

/// TIDs of this process's threads right now.
pub fn task_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = fs::read_dir("/proc/self/task")
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// Sample one thread; `None` once it has exited.
pub fn sample_task(tid: u32) -> Option<TaskSample> {
    let dir = format!("/proc/self/task/{tid}");
    let sched = parse_schedstat(&fs::read_to_string(format!("{dir}/schedstat")).ok()?)?;
    let ctx = parse_status_ctxt(&fs::read_to_string(format!("{dir}/status")).ok()?)?;
    Some(TaskSample { sched, ctx })
}

pub fn sample_tasks(tids: &[u32]) -> BTreeMap<u32, TaskSample> {
    tids.iter()
        .filter_map(|&t| Some((t, sample_task(t)?)))
        .collect()
}

pub fn task_name(tid: u32) -> Option<String> {
    let s = fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
    Some(s.trim_end().to_string())
}

/// Peak resident set of this process, KiB.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .unwrap_or(0)
}

pub fn cpu_times() -> CpuTimes {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fixture_parses() {
        let s = parse_schedstat("335542403 11613137 38\n").unwrap();
        assert_eq!(
            s,
            SchedStat {
                cpu_ns: 335542403,
                wait_ns: 11613137,
                slices: 38
            }
        );
        assert_eq!(parse_schedstat("12 34\n"), None, "three fields required");
        assert_eq!(parse_schedstat("12 x 3\n"), None);
    }

    #[test]
    fn status_fixture_parses() {
        let text = "Name:\tcvc-worker-1\nState:\tS (sleeping)\nTgid:\t4242\n\
                    VmHWM:\t    9876 kB\nVmRSS:\t    9000 kB\nThreads:\t6\n\
                    voluntary_ctxt_switches:\t1503\nnonvoluntary_ctxt_switches:\t27\n";
        assert_eq!(
            parse_status_ctxt(text),
            Some(CtxSwitches {
                voluntary: 1503,
                nonvoluntary: 27
            })
        );
        assert_eq!(status_field(text, "VmHWM"), Some(9876));
        // `voluntary_ctxt_switches` must not match inside `nonvoluntary_…`.
        assert_eq!(
            status_field(
                "nonvoluntary_ctxt_switches:\t5\n",
                "voluntary_ctxt_switches"
            ),
            None
        );
        assert_eq!(parse_status_ctxt("Name:\tx\n"), None);
    }

    #[test]
    fn stat_fixture_parses_and_yields_steal_share() {
        let a = "cpu  41209 0 6190 255947 1056 0 860 7137 0 0\n\
                 cpu0 20000 0 3000 128000 500 0 400 3500 0 0\nintr 1 2 3\n";
        let b = "cpu  41309 0 6240 256027 1056 0 870 7157 5 0\nctxt 99\n";
        let ca = parse_stat_cpu(a).unwrap();
        assert_eq!(ca.steal, 7137);
        assert_eq!(ca.total, 41209 + 6190 + 255947 + 1056 + 860 + 7137);
        let cb = parse_stat_cpu(b).unwrap();
        // 20 steal ticks out of 100 + 50 + 80 + 10 + 20 = 260.
        assert!((steal_share(ca, cb) - 20.0 / 260.0).abs() < 1e-12);
        assert_eq!(
            parse_stat_cpu("cpu0 1 2 3\n"),
            None,
            "aggregate line required"
        );
        assert_eq!(
            parse_stat_cpu("cpu  1 2 3\n"),
            None,
            "steal column required"
        );
    }

    #[test]
    fn own_thread_is_visible_by_tid() {
        let ids = task_ids();
        assert!(!ids.is_empty());
        let s = ids.iter().find_map(|&t| sample_task(t));
        assert!(s.is_some(), "some live thread samples");
        assert!(peak_rss_kib() > 0);
        assert!(cpu_times().total > 0);
    }
}
