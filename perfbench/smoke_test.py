#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py

Run from the root of the source tree. For each workload it runs
perfbench/run.py --tiny untraced and traced, and asserts that the result
line has exactly the keys correct, attempted, failed and metrics, that every
metric BENCHMARK.json names is printed with its unit, and that every check
passed. It also asserts that
BENCHMARK.json and run.py agree on workloads and metrics, and that run.py
fails without printing a result in a tree that holds only the benchmark.
Exits 0 when all of that holds.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path.cwd()


def load_runner():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = load_runner()
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    names = [w["name"] for w in bench["workloads"]]
    expect(sorted(names) == sorted(runner.WORKLOADS),
           f"workloads differ: {names} vs {list(runner.WORKLOADS)}")
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expect(wanted[0] == dict(runner.END_TO_END),
           "end_to_end metrics differ between BENCHMARK.json and run.py")
    expect(wanted[1] == dict(runner.PER_LAYER),
           "per_layer metrics differ between BENCHMARK.json and run.py")

    for workload in names:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "5", "--seconds",
                        "0", "--trace", str(trace), "--tiny"])
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag}: keys {set(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{tag}: checks failed: {proc.stderr[-500:]}")
            expect(isinstance(result["attempted"], int)
                   and result["attempted"] >= 1, f"{tag}: attempted")
            metrics = result["metrics"]
            expect(set(metrics) == set(wanted[trace]),
                   f"{tag}: metric names {sorted(metrics)}")
            for name, unit in wanted[trace].items():
                got = metrics.get(name, {})
                expect(got.get("unit") == unit
                       and isinstance(got.get("value"), (int, float)),
                       f"{tag}: {name} printed as {got}")
            if trace == 1:
                expect(metrics["check_fail_ratio"]["value"] == 0,
                       f"{tag}: check_fail_ratio is not 0")
            else:
                expect(all(m["value"] > 0 for m in metrics.values()),
                       f"{tag}: an end-to-end metric reads 0")
            print(f"ok  {tag}")

    # A tree holding only the benchmark must fail fast without a result.
    bare = ROOT / ".bench_build" / "smoke-benchmark-only"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = run(["--workload", names[0], "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0, "benchmark-only tree: exit status 0")
    expect('"metrics"' not in proc.stdout,
           "benchmark-only tree: printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok  benchmark-only tree fails")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
