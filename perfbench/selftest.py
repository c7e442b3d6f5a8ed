"""Self-test of the benchmark at tiny size (n <= 8); exits 0 when every check holds.

    python3 perfbench/selftest.py

Shows that the correctness check counts a wrong expected dimension as a
failed pair on every kind of workload, and that the traced run emits a span
for every layer and every per-layer metric that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import worker  # noqa: E402

TINY = {
    "pairs": worker.Workload("pairs", worker.valid_pairs(3, 8)),
    "sweep": worker.Workload("sweep", worker.valid_pairs(5, 8), threads=2),
    "cli": worker.Workload("cli", worker.valid_pairs(5, 8)),
}


def wrong(n: int, s: int) -> int:
    return worker.formula(n, s) + 1


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for kind, work in TINY.items():
        # one timed pass after a warm-up pass over the pairs of the smallest n
        pairs = len(work.pairs) + sum(p[0] == work.pairs[0][0] for p in work.pairs)
        right = worker.run(f"selftest-{kind}", 1, 0, False, work=work)
        check(right["failed"] == 0 and right["attempted"] == pairs,
              f"{kind}: every pair passes against the formula")
        bad = worker.run(f"selftest-{kind}", 1, 0, False, work=work, expected=wrong)
        check(bad["failed"] == bad["attempted"] == pairs,
              f"{kind}: a wrong expected dimension fails every pair")

    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    traced: dict[str, spans.Tracer] = {}
    for kind, work in TINY.items():
        tracer = spans.Tracer()
        out = worker.run(f"selftest-{kind}", 1, 0, True, work=work, tracer=tracer)
        m = out["metrics"]
        check(set(m) == declared, f"{kind}: traced run reports exactly the declared metrics")
        layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        check(math.isclose(layer_sum - m["trace.concurrent_s"] + m["trace.unattributed_s"],
                           m["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9),
              f"{kind}: layer self times + unattributed - concurrent = traced wall")
        traced[kind] = tracer

    all_spans = [s for tracer in traced.values() for s in tracer.spans]
    layers = {s.name.split(".", 1)[0] for s in all_spans}
    check(layers == set(spans.LAYERS), f"spans cover every layer (missing {set(spans.LAYERS) - layers})")
    names = {s.name for s in all_spans}
    wanted = {n for group in spans.SELF_METRICS.values() for n in group}
    check(wanted <= names, f"spans cover every timed function (missing {wanted - names})")

    by_id = {s.sid: s for s in traced["sweep"].spans}
    threaded = [s for s in by_id.values() if s.name == "pipeline.analyze_pair"
                and s.parent in by_id and by_id[s.parent].name == "pipeline.sweep"
                and s.thread != by_id[s.parent].thread]
    check(bool(threaded), "pool-thread analyses nest under the sweep span")
    check(all(s.pair is not None for s in all_spans
              if s.name.startswith(("modular.", "scheme.", "characters."))),
          "spans inside an analysis carry its pair id")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
