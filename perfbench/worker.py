"""One workload in one fresh process: run passes, check every pair, report.

Started by run.py with the package's `src` directory on PYTHONPATH; prints
one JSON object on its last stdout line.  A pass calls only the package's
public entry points (`analyze_pair`, `sweep`, `cli.main`) on a fixed list of
valid pairs.  The seed shuffles the pair order where the entry point takes
pairs one at a time, and is passed as the generator-order seed everywhere;
neither may change a dimension.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import terwilliger
from terwilliger import cli, pipeline

import spans

OUT_DIR = Path(__file__).resolve().parent / "out"
REF_A = np.random.default_rng(0).random((24, 24))
# typical CPU seconds of reference_kernel on a 2-CPU Xeon (2.1 GHz); the
# adjusted metrics are scaled to a host that runs it in exactly this time
REF_NOMINAL_S = 1.6e-3


def reference_kernel() -> tuple[float, float]:
    """CPU and wall seconds of a fixed kernel of Python and small numpy calls.

    It runs on the calling thread right after each analysis, so its CPU time
    samples how fast this host runs that kind of code at that moment; the
    thread's CPU clock leaves out any time the thread was not running.
    """
    wall, cpu = time.perf_counter(), time.thread_time()
    acc, table = 0, {}
    for i in range(4000):
        k = i % 61
        table[k] = table.get(k, 0) + i * i % 13
        acc ^= table[k]
    b = REF_A
    for _ in range(40):
        b = (b @ REF_A) % 7.0
    return time.thread_time() - cpu, time.perf_counter() - wall


def valid_pairs(n_min: int, n_max: int) -> list[tuple[int, int]]:
    """Every (n, s) with s^2 = 1 (mod n) and 1 < s < n, in (n, s) order."""
    return [(n, s) for n in range(n_min, n_max + 1)
            for s in range(2, n) if s * s % n == 1]


def formula(n: int, s: int) -> int:
    """dim T = (n^2 + 3 n tau + 4 tau^2) / 2 with tau = gcd(s - 1, n)."""
    tau = math.gcd(s - 1, n)
    return (n * n + 3 * n * tau + 4 * tau * tau) // 2


def check_analysis(a, n: int, s: int, expected) -> list[str]:
    """Problems with one Analysis; empty when it is correct."""
    want = expected(n, s)
    problems = []
    if (a.params.n, a.params.s) != (n, s):
        problems.append(f"analysis is for {a.params.n},{a.params.s}")
    if not a.passed:
        problems.append("failed checks: " + ", ".join(k for k, v in a.checks.items() if not v))
    if a.dim_t_tilde != want:
        problems.append(f"dim T~ {a.dim_t_tilde} != {want}")
    cert = a.certificate
    if cert is not None:
        if cert.dim_t != want:
            problems.append(f"closure dim T {cert.dim_t} != {want}")
        if cert.dim_t_tilde != want:
            problems.append(f"certificate dim T~ {cert.dim_t_tilde} != {want}")
        if cert.provenance != "exact":
            problems.append(f"provenance {cert.provenance!r}")
    return [f"{n},{s}: {p}" for p in problems]


def check_census_output(data: bytes, pairs, expected) -> tuple[set, list[str]]:
    """Failed pairs and problems in the JSON the CLI wrote for a census pass."""
    doc = json.loads(data)
    rows = {(r["n"], r["s"]): r for r in doc["rows"]}
    failed, problems = set(), []
    if [(r["n"], r["s"]) for r in doc["rows"]] != list(pairs):
        problems.append("census rows are not the expected pairs in order")
    for pair in pairs:
        row = rows.get(pair)
        want = expected(*pair)
        if (row is None or not all(row["checks"].values())
                or row["dims"]["t_tilde"] != want or row["dims"]["t"] not in (None, want)):
            failed.add(pair)
            problems.append(f"{pair[0]},{pair[1]}: census row wrong or missing")
    return failed, problems


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    pair_s: list[tuple[tuple[int, int], float]]
    attempted: int
    failed: set
    problems: list[str]
    output_digest: str | None = None
    ref_s: float = REF_NOMINAL_S  # median CPU seconds of the reference kernel
    work_wall_s: float = 0.0  # wall_s without the reference kernel's runs
    work_cpu_s: float = 0.0  # cpu_s without the reference kernel's runs

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the host ran during this pass."""
        return self.ref_s / REF_NOMINAL_S


class Recorder:
    """Wraps `pipeline.analyze_pair` to time each call, check its result and
    then run the reference kernel.

    The analysis is checked and dropped at once, so the benchmark keeps no
    more of it alive than the caller does.
    """

    def __init__(self, check):
        self.check = check
        self.calls: list[tuple[tuple[int, int], float, list[str]]] = []
        self.refs: list[tuple[float, float]] = []

    def wrap(self, fn):
        def timed(n, s, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(n, s, **kwargs)
            except Exception as exc:
                self.calls.append(((n, s), time.perf_counter() - start,
                                   [f"{n},{s}: {type(exc).__name__}: {exc}"]))
                raise
            else:
                self.calls.append(((n, s), time.perf_counter() - start,
                                   self.check(result, n, s)))
                return result
            finally:
                self.refs.append(reference_kernel())
        return timed


class Workload:
    """A fixed pass over valid pairs through one public entry point.

    No benchmark workload uses the "sweep" kind today; the self-test runs it
    with two threads to check that spans from the thread pool nest correctly.
    """

    def __init__(self, kind: str, pairs, *, kwargs=None, threads=1, nominal_s=1.0):
        self.kind = kind  # "pairs" (analyze_pair), "sweep" or "cli" (sweep --format json)
        self.pairs = list(pairs)
        self.kwargs = kwargs or {}
        self.threads = threads
        self.nominal_s = nominal_s

    def run_pass(self, seed: int, rng: random.Random, expected) -> PassResult:
        recorder = Recorder(lambda a, n, s: check_analysis(a, n, s, expected))
        original = pipeline.analyze_pair
        pipeline.analyze_pair = recorder.wrap(original)
        problems: list[str] = []
        failed: set = set()
        digest = None
        order = list(self.pairs)
        if self.kind == "pairs":
            rng.shuffle(order)
        lo, hi = self.pairs[0][0], self.pairs[-1][0]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            # a crash is a failed pair, never an aborted run
            if self.kind == "pairs":
                for n, s in order:
                    try:
                        pipeline.analyze_pair(n, s, generator_order_seed=seed, **self.kwargs)
                    except Exception:
                        continue  # the recorder keeps it as a failed pair
            elif self.kind == "sweep":
                try:
                    got = pipeline.sweep(lo, hi, threads=self.threads,
                                         generator_order_seed=seed)
                    if [(a.params.n, a.params.s) for a in got] != order:
                        problems.append("sweep rows are not the expected pairs in order")
                except Exception as exc:
                    problems.append(f"sweep: {type(exc).__name__}: {exc}")
            else:
                out = OUT_DIR / f"census-{os.getpid()}.json"
                try:
                    code = cli.main(["sweep", "--n-min", str(lo), "--n-max", str(hi),
                                     "--format", "json", "--generator-order", str(seed),
                                     "--output", str(out)])
                    data = out.read_bytes()
                    out.unlink()
                    digest = hashlib.sha256(data).hexdigest()
                    if code != 0:
                        problems.append(f"cli exit code {code}")
                    bad, found = check_census_output(data, order, expected)
                    failed |= bad
                    problems += found
                except Exception as exc:
                    problems.append(f"cli: {type(exc).__name__}: {exc}")
        finally:
            pipeline.analyze_pair = original
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        refs = recorder.refs or [reference_kernel()]

        for pair, _, found in recorder.calls:
            if found:
                failed.add(pair)
                problems += found
        failed |= set(order) - {pair for pair, _, _ in recorder.calls}
        if problems and not failed:
            failed = set(order)  # a pass-level fault taints every pair
        return PassResult(wall, cpu, [(pair, t) for pair, t, _ in recorder.calls],
                          len(order), failed, problems, digest,
                          ref_s=statistics.median(c for c, _ in refs),
                          work_wall_s=wall - sum(w for _, w in recorder.refs) / self.threads,
                          work_cpu_s=cpu - sum(c for c, _ in recorder.refs))

    def warm_up(self, seed: int, rng: random.Random, expected) -> PassResult:
        """An untimed pass over the pairs of the smallest n only, so that lazy
        imports and first-call costs fall outside the timed passes.  It is
        still checked."""
        first = [p for p in self.pairs if p[0] == self.pairs[0][0]]
        return Workload(self.kind, first, kwargs=self.kwargs,
                        threads=self.threads).run_pass(seed, rng, expected)


def workloads() -> dict[str, Workload]:
    # nominal pass seconds measured on a 2-CPU Xeon (2.1 GHz) with default BLAS threads
    return {
        "ladder": Workload("pairs", [(16, 7), (24, 11), (32, 15), (40, 19), (40, 21)],
                           kwargs={"desk_certificates": False}, nominal_s=10.5),
        "analyze_small": Workload("pairs", valid_pairs(3, 24), nominal_s=10.5),
        "census": Workload("cli", valid_pairs(41, 100), nominal_s=14.0),
    }


def run_passes(work: Workload, seconds: float, seed: int, rng, expected) -> list[PassResult]:
    """The fewest whole passes that cover `seconds` at the nominal pass time; at least one.

    The count depends only on `seconds`, so every run of a workload does the
    same work however fast the machine is at the moment.
    """
    count = max(1, math.ceil(seconds / work.nominal_s))
    return [work.run_pass(seed, rng, expected) for _ in range(count)]


def openblas_info() -> dict:
    """The loaded OpenBLAS library, its configuration and its thread count."""
    info = {"library": None, "config": None, "num_threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    if not libs:
        return info
    info["library"] = libs[0]
    lib = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            get_config.restype, get_config.argtypes = ctypes.c_char_p, []
            info["num_threads"] = get_threads()
            info["config"] = get_config().decode()
            return info
    return info


def end_to_end(results: list[PassResult]) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes, and the per-pair latencies.

    Throughput and CPU time leave out the reference kernel's runs and are
    adjusted, pass by pass, by how much slower than nominal the kernel ran
    during that pass: on a shared host whose speed drifts by 20-30% over
    seconds to minutes, the raw values spread more from run to run than a
    gated metric's bound allows.  The raw values go to the detail record.

    A pair's time is its median over the passes.  The p50 over pairs and,
    where at least ten samples lie beyond it, the p90 go to the detail record
    with their sample counts: on a host whose speed drifts, the small
    Python-bound pairs around the median spread more from run to run than the
    bound of a gated metric allows.
    """
    times: dict[tuple[int, int], list[float]] = {}
    for r in results:
        for pair, t in r.pair_s:
            times.setdefault(pair, []).append(t)
    per_pair = [statistics.median(v) for v in times.values()]

    def pairs_per_s(r: PassResult) -> float:
        return (r.attempted - len(r.failed)) / r.work_wall_s

    metrics = {
        "pairs_per_s_adj": statistics.median(pairs_per_s(r) * r.slowdown for r in results),
        "cpu_s_adj": statistics.median(r.work_cpu_s / r.slowdown for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(results), "pairs": len(per_pair),
              "pairs_per_s": statistics.median(pairs_per_s(r) for r in results),
              "cpu_s": statistics.median(r.work_cpu_s for r in results),
              "pass_slowdown": [r.slowdown for r in results],
              "pair_s_p50": statistics.median(per_pair),
              "pair_samples": sum(len(v) for v in times.values()),
              "pass_wall_s": [r.wall_s for r in results],
              "pass_cpu_s": [r.cpu_s for r in results]}
    if len(per_pair) >= 100:
        detail["pair_s_p90"] = statistics.quantiles(per_pair, n=10)[-1]
    return metrics, detail


def run(name: str, seed: int, seconds: float, trace: bool, *, work: Workload | None = None,
        expected=formula, tracer: spans.Tracer | None = None) -> dict:
    """Measure one workload; `work`, `expected` and `tracer` default to the
    named workload, the closed formula and a fresh tracer."""
    work = work or workloads()[name]
    rng = random.Random(seed)
    OUT_DIR.mkdir(exist_ok=True)
    warm = work.warm_up(seed, rng, expected)
    if not trace:
        results = run_passes(work, seconds, seed, rng, expected)
        metrics, detail = end_to_end(results)
    else:
        # untraced, traced, untraced: the overhead ratio compares the traced
        # passes with the mean of the untraced ones on either side
        tracer = tracer or spans.Tracer()
        before = work.run_pass(seed, rng, expected)
        with tracer.installed():
            traced = run_passes(work, seconds - 2 * work.nominal_s, seed, rng, expected)
        after = work.run_pass(seed, rng, expected)
        results = [before, *traced, after]
        traced_wall = sum(r.wall_s for r in traced)
        metrics = spans.layer_metrics(tracer, traced_wall, len(traced))
        metrics["trace.overhead_ratio"] = (
            traced_wall / len(traced)) / ((before.wall_s + after.wall_s) / 2)
        tracer.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")
        detail = {"passes": len(results), "traced_passes": len(traced),
                  "pass_wall_s": [r.wall_s for r in results]}
    digests = {r.output_digest for r in results if r.output_digest is not None}
    checked = [warm, *results]
    problems = [p for r in checked for p in r.problems]
    attempted = sum(r.attempted for r in checked)
    failed = sum(len(r.failed) for r in checked)
    if len(digests) > 1:
        problems.append("census output bytes differ between passes")
        failed = attempted
    if not trace:
        metrics["pass_ratio"] = (attempted - failed) / attempted
    detail.update({
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "openblas": openblas_info(),
        "problems": problems[:20],
    })
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    source = Path(terwilliger.__file__).resolve().parent
    if source != Path(__file__).resolve().parent.parent / "src" / "terwilliger":
        print(f"terwilliger imported from {source}, not from this checkout", file=sys.stderr)
        return 1
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
