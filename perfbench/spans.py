"""In-memory span tracer that wraps the package's public functions from outside.

A span records name, start, end, parent span, pair id and thread.  The span
stack and the current pair live in thread-local storage, so analyses run by
the `pipeline.sweep` thread pool nest correctly: a span that starts on a
thread with an empty stack takes the open sweep span as its parent.

A span's self time is its duration minus the part of it that its child spans
cover.  Each layer (package module) gets the sum of the self times of its
spans, so on one thread the layer self times add up to the time covered by
top-level spans.  Under the thread pool, worker spans overlap each other; the
excess thread-seconds are reported as `trace.concurrent_s`, which closes

    trace.wall_s = sum(layer self_s) - trace.concurrent_s + trace.unattributed_s

where `trace.unattributed_s` is the pass time no span covers (benchmark code).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("groups", "scheme", "algebra", "modular", "characters",
          "wedderburn", "pipeline", "cli")


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    pair: str | None
    thread: int


def _reduce_block_work(basis, block) -> Counter:
    """Operation count and bytes of `coeffs @ rows`, computed from shapes."""
    m, r, length = len(block), basis.rank, basis.length
    if not r:
        return Counter()
    return Counter({"modular.reduce_flop": 2 * m * r * length,
                    # float64 operands and result of the product
                    "modular.reduce_bytes": 8 * (m * r + r * length + m * length)})


def _counts(name: str, args, kwargs, result, seconds: float) -> Counter | None:
    """Counters recorded at the boundary of the wrapped call `name`."""
    if name == "modular.PrimeBasis.reduce_block":
        return _reduce_block_work(args[0], args[1])
    if name == "modular.PrimeBasis.insert":
        return Counter({"modular.rows_offered": 1, "modular.rows_accepted": int(result)})
    if name == "modular.PrimeBasis.insert_block":
        return Counter({"modular.rows_offered": len(args[1]),
                        "modular.rows_accepted": result,
                        "modular.insert_block_calls": 1})
    if name == "modular.RationalBasis.insert":
        return Counter({"modular.rational_inserts": 1})
    if name == "groups.orbital_count":
        return Counter({"groups.orbital_count_calls": 1})
    if name == "algebra.algebra_closure":
        return Counter({"algebra.closure_rounds": result.closure_rounds})
    if name == "pipeline.sweep":
        return Counter({"pipeline.sweep_capacity_s": seconds * kwargs.get("threads", 1)})
    if name == "cli.render_sweep":
        return Counter({"cli.output_bytes": len(result.encode("utf-8"))})
    return None


def _targets():
    """(owner, attribute) pairs whose calls the tracer wraps.

    Each owner is the namespace the caller looks the name up in: `pipeline`
    imported `build_group` and `conjugacy_classes` by name, and `algebra`
    imported `orbital_count` by name.
    """
    from terwilliger import algebra, characters, cli, pipeline, scheme, wedderburn
    from terwilliger.modular import PrimeBasis, RationalBasis

    return [
        (pipeline, "analyze_pair"), (pipeline, "sweep"),
        (pipeline, "build_group"), (pipeline, "conjugacy_classes"),
        (algebra, "algebra_closure"), (algebra, "dim_t_tilde"),
        (algebra, "dual_idempotents"), (algebra, "commutant_oracle"),
        (algebra, "orbital_count"),
        (scheme, "build_scheme"), (scheme, "intersection_numbers"),
        (scheme, "dim_t0"), (scheme, "case_counts"),
        (scheme, "closed_form_dimension"), (scheme, "expected_case_counts"),
        (scheme, "verify_product_identity"),
        (characters, "char_table"), (characters, "orthogonality_check"),
        (characters, "multiplicities_rowsum"), (characters, "multiplicities_closedform"),
        (characters, "conjugation_character_check"),
        (wedderburn, "decomposition"), (wedderburn, "central_idempotents"),
        (PrimeBasis, "insert"), (PrimeBasis, "insert_block"),
        (PrimeBasis, "reduce_block"), (RationalBasis, "insert"),
        (cli, "main"), (cli, "render_sweep"),
    ]


def _span_name(fn) -> str:
    """`<layer>.<qualname>`, the layer being the module that defines fn."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Collects spans and counters while installed; nothing is written until
    `write_jsonl` is called at the end of the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanout: int | None = None

    def _wrap(self, fn):
        name = _span_name(fn)
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._fanout
            sid = next(self._ids)
            outer_pair = getattr(local, "pair", None)
            if name == "pipeline.analyze_pair":
                local.pair = f"{args[0]},{args[1]}"
            stack.append(sid)
            if name == "pipeline.sweep":
                self._fanout = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "pipeline.sweep":
                    self._fanout = parent
                span = Span(sid, name, start, end, parent, getattr(local, "pair", None),
                            threading.get_ident())
                local.pair = outer_pair
                with self._lock:
                    self.spans.append(span)
            counts = _counts(name, args, kwargs, result, end - start)
            if counts:
                with self._lock:
                    self.counters.update(counts)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in _targets()]
        try:
            for owner, attr, fn in saved:
                setattr(owner, attr, self._wrap(fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds summed per span name."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = _union((max(c.start, span.start), min(c.end, span.end))
                         for c in children[span.sid])
        totals[span.name] += span.end - span.start - covered
    return totals


# per-layer metric -> the span names whose self time it sums
SELF_METRICS = {
    "modular.reduce_block_s": ("modular.PrimeBasis.reduce_block",),
    "modular.insert_block_self_s": ("modular.PrimeBasis.insert_block",),
    "modular.rational_insert_s": ("modular.RationalBasis.insert",),
    "algebra.closure_self_s": ("algebra.algebra_closure",),
    "algebra.commutant_oracle_s": ("algebra.commutant_oracle",),
    "algebra.dual_idempotents_s": ("algebra.dual_idempotents",),
    "groups.build_group_s": ("groups.build_group",),
    "groups.conjugacy_classes_s": ("groups.conjugacy_classes",),
    "groups.orbital_count_s": ("groups.orbital_count",),
    "scheme.build_scheme_s": ("scheme.build_scheme",),
    "scheme.intersection_numbers_s": ("scheme.intersection_numbers",),
    "scheme.product_identity_s": ("scheme.verify_product_identity",),
    "characters.char_table_s": ("characters.char_table",),
    "characters.orthogonality_s": ("characters.orthogonality_check",),
    "characters.multiplicities_s": ("characters.multiplicities_rowsum",
                                    "characters.multiplicities_closedform"),
    "wedderburn.decomposition_s": ("wedderburn.decomposition",),
    "wedderburn.central_idempotents_s": ("wedderburn.central_idempotents",),
    "pipeline.analyze_pair_self_s": ("pipeline.analyze_pair",),
    "cli.render_s": ("cli.render_sweep",),
}

COUNT_METRICS = ("modular.rows_offered", "modular.rows_accepted",
                 "modular.insert_block_calls", "modular.rational_inserts",
                 "algebra.closure_rounds", "groups.orbital_count_calls",
                 "cli.output_bytes")


def layer_metrics(tracer: Tracer, wall_s: float, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per pass.

    `wall_s` is the summed wall time of the traced passes.
    """
    spans, counts = tracer.spans, tracer.counters
    per_name = self_times(spans)
    out: dict[str, float] = {}
    for metric, names in SELF_METRICS.items():
        out[metric] = sum(per_name.get(n, 0.0) for n in names) / passes
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in per_name.items()
                                     if n.split(".", 1)[0] == layer) / passes
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0) / passes
    offered = counts.get("modular.rows_offered", 0)
    out["modular.accept_ratio"] = counts.get("modular.rows_accepted", 0) / offered if offered else 0.0
    out["modular.reduce_gflop_computed"] = counts.get("modular.reduce_flop", 0) / 1e9 / passes
    out["modular.reduce_gb_computed"] = counts.get("modular.reduce_bytes", 0) / 1e9 / passes

    sweeps = {s.sid for s in spans if s.name == "pipeline.sweep"}
    busy = sum(s.end - s.start for s in spans
               if s.name == "pipeline.analyze_pair" and s.parent in sweeps)
    capacity = counts.get("pipeline.sweep_capacity_s", 0.0)
    out["pipeline.sweep_busy_ratio"] = busy / capacity if capacity else 0.0

    roots = [(s.start, s.end) for s in spans if s.parent is None]
    covered = _union(roots)
    out["trace.wall_s"] = wall_s / passes
    out["trace.unattributed_s"] = (wall_s - covered) / passes
    out["trace.concurrent_s"] = (sum(per_name.values()) - covered) / passes
    out["trace.spans"] = len(spans) / passes
    return out
