#!/usr/bin/env python3
"""End-to-end benchmark of the Send & Forget libraries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The script builds perfbench/sfbench.cpp
against src/ (CMake, RelWithDebInfo, into $CARGO_TARGET_DIR/perfbench or
.bench_build/perfbench). After one untimed tiny warm-up run it runs the
workload again and again, each time in a fresh process with the same seed,
until S seconds have passed.

--trace 0 prints the end-to-end metrics, medians over the runs:
    setup_s        everything before the first round
    wall_s         set-up + round loop + finalisation
    actions_per_s  actions / round-loop time
    peak_rss_mb    ru_maxrss of the process
--trace 1 alternates untraced and traced runs and prints the per-layer split
(medians over the traced runs; layers that do not exist on the workload
read 0), the tracing overhead against the untraced runs, and the share of
failed checks.

Every run is checked: message conservation, a clean watchdog, the workload's
own checks, and that the cluster fingerprint and the observers' verdict
repeat across all runs of one invocation, traced or not.

The last line of stdout is one JSON object:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
where attempted counts workload runs and failed counts runs with any failed
check. The line before it is the run stamp: hardware, compiler, build, and
the median share of CPU time the hypervisor stole during the runs, since on
a shared host timings move with it. The full record, with every run's raw
output, is written to
<build dir>/results/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The sharded workloads run one worker thread per shard (4), the CLI
# default; simulate_churn_50k runs on 1 thread.
WORKLOADS = ["chaos_ops_50k", "bare_flat_1m", "simulate_churn_50k"]

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("actions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("sim.sharded.initiate_s", "s"),
    ("sim.sharded.drain_s", "s"),
    ("sim.sharded.barrier_wait_s", "s"),
    ("sim.sharded.observe_s", "s"),
    ("sim.sharded.initiate_imbalance", "ratio"),
    ("sim.sharded.ns_per_action", "ns"),
    ("sim.fate.sent", "count"),
    ("sim.fate.lost", "count"),
    ("sim.fate.faulted", "count"),
    ("sim.fate.to_dead", "count"),
    ("sim.fate.delivered_ratio", "ratio"),
    ("obs.probe_s", "s"),
    ("obs.series_s", "s"),
    ("obs.watchdog_s", "s"),
    ("obs.oracle_s", "s"),
    ("obs.recovery_s", "s"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "B"),
    ("obs.recorder_events", "count"),
    ("obs.recorder_dump_s", "s"),
    ("obs.observe_share", "ratio"),
    ("core.self_loop_ratio", "ratio"),
    ("core.duplication_ratio", "ratio"),
    ("core.deletion_ratio", "ratio"),
    ("core.bytes_per_node", "B"),
    ("sim.round.run_s", "s"),
    ("sim.round.ns_per_action", "ns"),
    ("sim.round.churn_s", "s"),
    ("sim.round.joins", "count"),
    ("sim.round.leaves", "count"),
    ("analysis.prediction_s", "s"),
    ("graph.overlay_build_s", "s"),
    ("sampling.health_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_s", "s"),
    ("check_fail_ratio", "ratio"),
]

# Measuring stops this many seconds after the build at the latest, so an
# invocation ends well within three minutes.
HARD_LIMIT_S = 150.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds sfbench; returns the binary's path."""
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "sfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=log,
                                      cwd=root).returncode
            except OSError as e:
                fail(f"cannot run {step[0]}: {e}")
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                print(tail, file=sys.stderr)
                fail(f"build failed ({' '.join(step[:2])}); see {log_path}")
    return build_dir / "sfbench"


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal
    ticks = [int(x) for x in fields[1:9]]
    return (ticks[7] if len(ticks) == 8 else 0), sum(ticks)


def steal_pct(before, after):
    """Share of CPU time a hypervisor took from this machine in between."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def run_once(binary, workload, seed, out_dir, traced, tiny, timeout):
    """One fresh sfbench process; returns its result dict or None.

    The result also carries host_steal_pct, the share of CPU time the
    hypervisor took while the process ran: timings on a shared host are
    only comparable at similar steal.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ticks_before = cpu_ticks()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--out-dir", str(out_dir)]
    if traced:
        cmd.append("--traced")
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} run timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {workload} run exited {proc.returncode}: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"perfbench: unreadable output from {workload}",
              file=sys.stderr)
        return None
    result["host_steal_pct"] = steal_pct(ticks_before, cpu_ticks())
    return result


class Checks:
    """Counts checks run and failed; a run fails if any of its checks do."""

    def __init__(self):
        self.run = 0
        self.failed = 0
        self.failed_runs = set()
        self.failures = []

    def add(self, run_index, name, ok):
        self.run += 1
        if not ok:
            self.failed += 1
            self.failed_runs.add(run_index)
            self.failures.append(f"run {run_index}: {name}")


def check_runs(runs, checks):
    """Per-run checks plus repeatability against the first untraced run."""
    reference = next((r for r in runs if r and not r["traced"]), None)
    for i, r in enumerate(runs):
        checks.add(i, "process completed", r is not None)
        if r is None:
            continue
        for name, ok in r["checks"].items():
            checks.add(i, name, ok)
        if reference is not None and r is not reference:
            kind = "traced" if r["traced"] else "repeat"
            checks.add(i, f"{kind} fingerprint",
                       r["fingerprint"] == reference["fingerprint"])
            checks.add(i, f"{kind} verdict",
                       r["verdict"] == reference["verdict"])
    if reference is None:
        checks.add(0, "an untraced run completed", False)


def median_of(runs, key):
    values = [r[key] for r in runs]
    return statistics.median(values) if values else 0.0


def source_digest(root):
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_stamp(root, runs):
    sample = runs[0] if runs else None
    steals = [r["host_steal_pct"] for r in runs
              if r["host_steal_pct"] is not None]

    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def cache_sizes():
        sizes = {}
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                level = (index / "level").read_text().strip()
                kind = (index / "type").read_text().strip()
                size = (index / "size").read_text().strip()
            except OSError:
                continue
            if kind != "Instruction":
                sizes[f"L{level}"] = size
        return sizes

    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True)
        describe = git.stdout.strip() if git.returncode == 0 else ""
    except OSError:
        describe = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "kernel": platform.release(),
        "compiler": sample.get("compiler", "unknown") if sample else "unknown",
        "build_type": sample.get("build_type", "unknown") if sample else
        "unknown",
        "cxx_flags": sample.get("cxx_flags", "unknown") if sample else
        "unknown",
        "git_describe": describe or "unknown (not a git checkout)",
        "source_digest": source_digest(root),
        "host_steal_pct_median": statistics.median(steals) if steals else
        None,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test)")
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not (root / needed).is_file():
            fail(f"{needed} not found; run from the root of a source tree")
    if args.seed < 0:
        fail("--seed must be >= 0")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    binary = build(root, build_dir)
    # The time limit starts after the build: only a first, cold build may
    # take long.
    started = time.monotonic()

    out_dir = build_dir / "runs" / f"{args.workload}-{os.getpid()}"
    # Untimed warm-up: pages in the binary and proves it runs.
    if run_once(binary, args.workload, args.seed, out_dir, False, True,
                60) is None:
        fail("warm-up run failed")

    # Untraced runs only, or untraced and traced runs alternating.
    minimum = 4 if args.trace else 3
    runs = []
    measure_start = time.monotonic()
    while True:
        now = time.monotonic()
        if len(runs) >= minimum and now - measure_start >= args.seconds:
            break
        if now - started >= HARD_LIMIT_S - 10:
            break
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_once(binary, args.workload, args.seed, out_dir,
                             traced, args.tiny,
                             HARD_LIMIT_S - (now - started)))
    shutil.rmtree(out_dir, ignore_errors=True)

    checks = Checks()
    check_runs(runs, checks)
    good = [r for r in runs if r is not None]
    plain = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]

    metrics = {}
    if args.trace == 0:
        for name, unit in END_TO_END:
            metrics[name] = {"value": median_of(plain, name), "unit": unit}
    else:
        if not traced_runs:
            checks.add(len(runs), "a traced run completed", False)
        for name, unit in PER_LAYER:
            values = [r["layers"].get(name, 0.0) for r in traced_runs]
            metrics[name] = {
                "value": statistics.median(values) if values else 0.0,
                "unit": unit}
        plain_wall = median_of(plain, "wall_s")
        traced_wall = median_of(traced_runs, "wall_s")
        metrics["trace.overhead_pct"]["value"] = (
            100.0 * (traced_wall - plain_wall) / plain_wall
            if plain_wall > 0 else 0.0)
        metrics["check_fail_ratio"]["value"] = (
            checks.failed / checks.run if checks.run else 1.0)

    stamp = run_stamp(root, good)
    result = {
        "correct": checks.failed == 0,
        "attempted": len(runs),
        "failed": len(checks.failed_runs),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "stamp": stamp,
        "checks_run": checks.run, "checks_failed": checks.failed,
        "failures": checks.failures, "result": result, "runs": runs,
    }
    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
