#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload tcp2-paced --seed 1 --seconds 10 --trace 0

Run from the repository root. The measuring program (``perfbench/src``) is
built from source with ``cargo build --release --offline`` into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run once. Its last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, is printed again as this script's last line.

Each run also leaves a record in ``perfbench/runs/``: the result plus the
core count, build profile, source revision and seed it was measured with.
The traced run's spans go to ``perfbench/runs/trace-<workload>.tsv``.

Exits non-zero, without a result line, when the build or the program fails
to run, and non-zero after the result line when a correctness check failed.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tcp2-paced", "tcp2-rounds", "star64-inproc")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if rc != 0:
        fail(f"build failed ({rc})")
    return os.path.join(target_dir(), "release", "perfbench")


def git_rev():
    """The commit checked out at ROOT, or None outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """sha256 over the sources the measured program is built from."""
    h = hashlib.sha256()
    files = []
    for top in ("crates", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in filenames]
    files += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    files += [os.path.join(HERE, f) for f in ("Cargo.toml", "Cargo.lock", "run.py")]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--trace-out", os.path.join(runs, f"trace-{a.workload}.tsv")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring program ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail(f"no result line from the measuring program (exit {proc.returncode})")

    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "profile": "release",
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "started_utc": datetime.datetime.fromtimestamp(started, datetime.timezone.utc).isoformat(),
        "wall_s": round(time.time() - started, 3),
        "exit_code": proc.returncode,
        "result": result,
    }
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    with open(os.path.join(runs, name), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
