"""Benchmark of the terwilliger package, measured from outside the package.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src`.
The workload runs in its own fresh process (worker.py), so peak memory and
idle BLAS threads never carry over between workloads.  The BLAS thread count
is deliberately left at its default: users get the default, and pinning it
would hide the CPU that oversubscribed threads waste.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; set-up time is the median over several fresh processes that
import the package.  Throughput and CPU time are adjusted to a nominal host
speed, sampled by a fixed reference kernel after every analysis (see
`worker.end_to_end`); their raw values are in the detail line.  With
`--trace 1` it holds the per-layer metrics, taken from a traced run that
wraps the package's public functions (spans.py), and the tracing overhead
against the untraced passes run just before and after it.  The line before
it records the environment, sample counts and any correctness problems.
Workloads and metrics are described in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PACKAGE = ROOT / "src" / "terwilliger"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def setup_seconds(env: dict) -> list[float]:
    """Seconds from spawning a fresh process until it has imported the CLI.

    The child stamps the moment its import finished; perf_counter is the
    system-wide monotonic clock on Linux, so the two stamps compare directly.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import time, terwilliger.cli; print(time.perf_counter())"],
            env=env, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(proc.stdout) - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (PACKAGE / "__init__.py").is_file():
        return fail(f"no package source at {PACKAGE}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    setup = [] if args.trace else setup_seconds(env)

    remaining = TIME_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {TIME_LIMIT_S} s")
    if proc.returncode != 0:
        return fail(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    detail = result["detail"]
    detail.update({"workload": args.workload, "seed": args.seed,
                   "setup_samples_s": setup, "git_commit": git_commit(),
                   "source_digest": source_digest()})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
