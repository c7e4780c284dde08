//! The repository benchmark's measuring program. `run.py` builds it and
//! runs it as
//!
//! ```text
//! perfbench --workload <tcp2-paced|tcp2-rounds|star64-inproc> --seed N
//!           --seconds S --trace <0|1> [--trace-out FILE]
//! ```
//!
//! With `--trace 0` it measures the workload untraced and prints the
//! end-to-end metrics. With `--trace 1` it runs the workload twice with the
//! same seed, half the seconds each — untraced, then traced — and prints
//! the per-layer metrics of
//! the traced pass, plus the untraced pass's tails and the tracing
//! overhead between the two. The last line of standard output is the JSON
//! result; the process exits non-zero when any correctness check failed.

mod clock;
mod procfs;
mod star;
mod tcp;
mod trace;
mod util;
mod warm;

use std::process::ExitCode;
use trace::Tracer;
use util::{ratio, Metrics};

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub struct PassOut {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub gen_cpu_us_per_op: f64,
    pub ack_p99_us: f64,
    pub vis_p99_us: f64,
}

/// Every per-layer metric, in output order. A metric that does not apply
/// to a workload (a server thread on the in-process star) reads 0 there,
/// except the [`STAR_ONLY`] ones, which only the star prints.
const PER_LAYER: &[(&str, &str)] = &[
    ("server.core.cpu_us_per_op", "us"),
    ("server.core.wakeups_per_op", "count"),
    ("server.core.runq_wait_us_per_op", "us"),
    ("server.core.handoff_us_per_op", "us"),
    ("server.worker.cpu_us_per_op", "us"),
    ("server.worker.wakeups_per_op", "count"),
    ("server.worker.runq_wait_us_per_op", "us"),
    ("server.frames_in_per_op", "count"),
    ("server.frames_out_per_op", "count"),
    ("server.msgs_per_frame_out", "count"),
    ("server.outbox_high_water", "count"),
    ("conn.write_us_per_msg", "us"),
    ("conn.read_us_per_event", "us"),
    ("poll.wait_share", "ratio"),
    ("msg.encode_us_per_msg", "us"),
    ("msg.decode_us_per_msg", "us"),
    ("client.generate_us_per_op", "us"),
    ("client.execute_us_per_exec", "us"),
    ("client.checks_per_exec", "count"),
    ("client.transforms_per_exec", "count"),
    ("client.hb_len_end", "count"),
    ("notifier.integrate_us_per_op", "us"),
    ("notifier.fanout_us_per_op", "us"),
    ("notifier.ack_us_per_ack", "us"),
    ("notifier.transforms_per_op", "count"),
    ("notifier.scan_per_op", "count"),
    ("notifier.hb_high_water", "count"),
    ("wal.append_us_per_op", "us"),
    ("wal.appends_per_op", "count"),
    ("wal.amplification", "ratio"),
    ("wal.live_bytes_end", "bytes"),
    ("wal.compactions", "count"),
    ("load.cpu_us_per_op", "us"),
    ("load.late_p50_us", "us"),
    ("load.late_p99_us", "us"),
    ("tail.ack_rtt_p99_us", "us"),
    ("tail.visible_p99_us", "us"),
    ("star.acks_per_op", "count"),
    ("star.execs_per_op", "count"),
    ("env.steal_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.gen_coverage", "ratio"),
    ("trace.replay_coverage", "ratio"),
    ("gate.failed_op_share", "ratio"),
];

/// Per-layer metrics only the star measures: the TCP workloads' integration
/// log carries no acks, and their shape has no fan-out to count. They are
/// left out of the TCP workloads' results, which `BENCHMARK.json` gates.
const STAR_ONLY: &[&str] = &[
    "notifier.ack_us_per_ack",
    "star.acks_per_op",
    "star.execs_per_op",
];

/// The generator's spans must cover at least this share of its wall, and
/// the replay's spans this share of the replay's wall.
const GEN_COVERAGE_MIN: f64 = 0.95;
const REPLAY_COVERAGE_MIN: f64 = 0.90;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Paced,
    Rounds,
    Star,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "tcp2-paced" => Workload::Paced,
                    "tcp2-rounds" => Workload::Rounds,
                    "star64-inproc" => Workload::Star,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn run_pass(a: &Args, seconds: u64, tr: &mut Tracer) -> PassOut {
    match a.workload {
        Workload::Paced => tcp::run(tcp::Mode::Paced, a.seed, seconds, tr),
        Workload::Rounds => tcp::run(tcp::Mode::Rounds, a.seed, seconds, tr),
        Workload::Star => star::run(a.seed, seconds, tr),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The TCP workloads block on every hand-off between threads; keep the
    // vCPUs from halting so hypervisor wake-up latency stays out of them.
    let warm = if args.workload == Workload::Star {
        None
    } else {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        match warm::KeepWarm::start(cpus) {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("perfbench: cannot start idle-class keep-warm threads: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let cpu0 = procfs::cpu_times();
    // A traced run splits its seconds between the two passes.
    let untraced_secs = if args.trace {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    };
    let mut untraced = run_pass(&args, untraced_secs, &mut Tracer::new(false));
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let mut errors = std::mem::take(&mut untraced.errors);

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.extend(&untraced.e2e);
        metrics.set("peak_rss_mb", procfs::peak_rss_kib() as f64 / 1024.0, "MiB");
    } else {
        let mut tr = Tracer::new(true);
        let traced = run_pass(&args, (args.seconds - untraced_secs).max(1), &mut tr);
        attempted += traced.attempted;
        failed += traced.failed;
        errors.extend(traced.errors);
        let mut layer = traced.layer;
        layer.set("tail.ack_rtt_p99_us", untraced.ack_p99_us, "us");
        layer.set("tail.visible_p99_us", untraced.vis_p99_us, "us");
        layer.set(
            "env.steal_share",
            procfs::steal_share(cpu0, procfs::cpu_times()),
            "ratio",
        );
        layer.set(
            "trace.overhead_pct",
            100.0 * (ratio(traced.gen_cpu_us_per_op, untraced.gen_cpu_us_per_op) - 1.0),
            "%",
        );
        layer.set(
            "gate.failed_op_share",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        let gen_cov = layer.get("trace.gen_coverage").unwrap_or(0.0);
        if gen_cov < GEN_COVERAGE_MIN {
            errors.push(format!(
                "generator spans cover {gen_cov:.4} of its wall, under {GEN_COVERAGE_MIN}"
            ));
        }
        if args.workload != Workload::Star {
            let replay_cov = layer.get("trace.replay_coverage").unwrap_or(0.0);
            if replay_cov < REPLAY_COVERAGE_MIN {
                errors.push(format!(
                    "replay spans cover {replay_cov:.4} of its wall, under {REPLAY_COVERAGE_MIN}"
                ));
            }
        }
        for &(name, unit) in PER_LAYER {
            if args.workload == Workload::Star || !STAR_ONLY.contains(&name) {
                metrics.set(name, layer.get(name).unwrap_or(0.0), unit);
            }
        }
        debug_assert!(layer
            .names()
            .all(|n| PER_LAYER.iter().any(|&(p, _)| p == n)));
        if let Some(path) = &args.trace_out {
            if let Err(e) = trace::write_tsv(tr.spans(), path, 200_000) {
                eprintln!("perfbench: writing {path}: {e}");
            }
        }
    }

    if let Some(w) = warm {
        w.stop();
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
