"""Wedderburn blocks of the algebra, central idempotents, and the dihedral audit.

The algebra is semisimple and splits into full matrix blocks M_d, one for
each irreducible character appearing in the conjugation character, with d its
multiplicity.  Block lists are compared as multisets.  For the dihedral
specialization (s = n-1) the literature states closed-form block lists; the
audit here evaluates those formulas literally (negative copy counts clamped
to zero and flagged) against the blocks derived from the general closed
forms, and records agreement or the exact delta.  A disagreement is a
finding about the stated formulas, not a failure of the computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .characters import CharTable, Multiplicities, multiplicities_closedform
from .groups import ConsistencyError, GroupTable, conjugacy_classes, validate_params
from .scheme import closed_form_dimension

IDEMPOTENT_ORDER_LIMIT = 24
IDEMPOTENT_TOL = 1e-8
TRACE_TOL = 1e-6


@dataclass(frozen=True)
class WedderburnReport:
    """Simple-block dimensions (zero multiplicities dropped), largest first."""

    blocks: tuple[int, ...]
    sum_of_squares: int
    matches_dimension: bool | None

    def as_multiset(self) -> Counter:
        return Counter(self.blocks)


def decomposition(mults: Multiplicities,
                  expected_dimension: int | None = None,
                  strict: bool = True) -> WedderburnReport:
    """Block list from the multiplicities; optionally checked against a dimension."""
    blocks = tuple(sorted((d for d in mults.row_values() if d > 0), reverse=True))
    total = sum(d * d for d in blocks)
    matches = None if expected_dimension is None else total == expected_dimension
    if strict and matches is False:
        raise ConsistencyError(
            f"sum of squared blocks {total} differs from certified dimension "
            f"{expected_dimension}")
    return WedderburnReport(blocks=blocks, sum_of_squares=total,
                            matches_dimension=matches)


@dataclass(frozen=True)
class IdempotentReport:
    """Numerical certificate for the primitive central idempotents."""

    traces: tuple[int, ...]
    idempotency_error: float
    orthogonality_error: float
    sum_error: float
    ok: bool


def central_idempotents(group: GroupTable, table: CharTable,
                        mults: Multiplicities) -> IdempotentReport:
    """Build e_i = (deg_i/|G|) sum_g conj(chi_i(g)) X(g) and verify the laws.

    X(g) is the permutation matrix of conjugation by g.  Verified within
    1e-8: e_i^2 = e_i, e_i e_j = 0 for i != j, sum_i e_i = I; and each
    trace(e_i) must round to d_i * deg_i within 1e-6.  Desk-scale only.
    """
    order = group.order
    if order > IDEMPOTENT_ORDER_LIMIT:
        raise ValueError(
            f"central idempotents are desk-scale only (order {order} > {IDEMPOTENT_ORDER_LIMIT})")
    classes = conjugacy_classes(group)
    class_of = np.asarray(classes.class_of)
    perms = group.conjugation()

    idems = []
    rows = np.arange(order)
    for i in range(table.num_rows):
        coeffs = np.conj(table.values[i, class_of])
        e = np.zeros((order, order), dtype=np.complex128)
        for g in range(order):
            e[rows, perms[g]] += coeffs[g]
        idems.append(e * (table.degrees[i] / (2.0 * table.params.n)))

    idem_err = max(float(np.max(np.abs(e @ e - e))) for e in idems)
    orth_err = 0.0
    for i in range(len(idems)):
        for j in range(i + 1, len(idems)):
            orth_err = max(orth_err, float(np.max(np.abs(idems[i] @ idems[j]))))
    sum_err = float(np.max(np.abs(sum(idems) - np.eye(order))))

    traces = []
    expected = mults.row_values()
    for i, e in enumerate(idems):
        tr = complex(np.trace(e))
        target = expected[i] * table.degrees[i]
        if abs(tr - target) > TRACE_TOL:
            raise ConsistencyError(
                f"trace of idempotent {table.row_labels[i]} is {tr:.6f}, "
                f"expected {target}")
        traces.append(target)

    ok = max(idem_err, orth_err, sum_err) <= IDEMPOTENT_TOL
    if not ok:
        raise ConsistencyError(
            f"idempotent identities exceed tolerance: {idem_err:.2e}, "
            f"{orth_err:.2e}, {sum_err:.2e}")
    return IdempotentReport(traces=tuple(traces), idempotency_error=idem_err,
                            orthogonality_error=orth_err, sum_error=sum_err, ok=ok)


@dataclass(frozen=True)
class CorollaryAudit:
    """Literal dihedral block formulas versus the general closed forms."""

    n: int
    tau: int
    printed_blocks: tuple[int, ...]
    derived_blocks: tuple[int, ...]
    agree: bool
    clamped: bool
    discrepancy_note: str


def _printed_dihedral_blocks(n: int) -> tuple[list[int], bool]:
    """The stated dihedral block list, evaluated exactly as written.

    Negative copy counts (possible at n = 4) are clamped to zero and flagged.
    """
    quarter = (n - 1) // 4
    if n % 2 == 1:
        b = (n - 1) // 2 + 2
        return [b, b - 2] + [1] * quarter, False
    a = (n - 1) // 2 + 4
    if n % 4 == 2:
        return [a, a - 4] + [2] * quarter, False
    copies = quarter - 1
    return [a, a - 4, 1, 1] + [2] * max(0, copies), copies < 0


def corollary_audit(n: int) -> CorollaryAudit:
    """Compare the stated s = n-1 block formulas against the derived blocks."""
    params = validate_params(n, n - 1)
    derived_mults = multiplicities_closedform(params)
    derived = decomposition(derived_mults, closed_form_dimension(params))
    printed_list, clamped = _printed_dihedral_blocks(n)
    printed = tuple(sorted(printed_list, reverse=True))

    printed_ms, derived_ms = Counter(printed), Counter(derived.blocks)
    agree = printed_ms == derived_ms
    notes = []
    if clamped:
        notes.append("copy count clamped from negative to 0")
    if not agree:
        missing = derived_ms - printed_ms
        extra = printed_ms - derived_ms
        if missing:
            notes.append("printed lacks " + ", ".join(
                f"{c} x M{d}" for d, c in sorted(missing.items())))
        if extra:
            notes.append("printed has extra " + ", ".join(
                f"{c} x M{d}" for d, c in sorted(extra.items())))
        notes.append(
            f"printed dim {sum(d * d for d in printed)} vs derived {derived.sum_of_squares}")
    return CorollaryAudit(
        n=n, tau=params.tau,
        printed_blocks=printed,
        derived_blocks=derived.blocks,
        agree=agree,
        clamped=clamped,
        discrepancy_note="; ".join(notes),
    )
