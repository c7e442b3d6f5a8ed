"""Character table of C_n x| C_2 and the multiplicities in the conjugation character.

Rows come in three families, built from the primitive n-th root of unity w:

* lin{k}+ / lin{k}- for 0 <= k <= tau-1: the linear characters sending a to
  w^(nk/tau) and b to +1 / -1;
* two{k} for the two-dimensional representations a -> diag(w^k, w^(ks)),
  b -> antidiag(1, 1), where 1 <= k <= n-1, k not divisible by n/tau, and k
  is identified with k*s mod n (the canonical representative is the minimum
  of the pair).

Entries are kept both symbolically (an integer coefficient and exponents of
w, exact) and numerically (complex128).  The multiplicity of each character
in the conjugation character equals its row sum over class representatives;
the same numbers also come from closed forms, and both routes are exposed so
they can be compared entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import ConjugacyData, ConsistencyError, GroupParams

INTEGRALITY_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-9

# a table cell: coefficient times a sum of powers of w, e.g. (-1, (3,)) = -w^3
SymbolicEntry = tuple[int, tuple[int, ...]]


class IntegralityError(ConsistencyError):
    """A quantity that must be an integer came out fractional."""


@dataclass(frozen=True)
class CharTable:
    """Character values against the class representatives in canonical order."""

    params: GroupParams
    row_labels: tuple[str, ...]
    row_families: tuple[tuple[str, int], ...]   # ("lin+"|"lin-"|"two", k)
    column_labels: tuple[str, ...]
    degrees: tuple[int, ...]
    symbolic: tuple[tuple[SymbolicEntry, ...], ...]
    values: np.ndarray                           # complex128, rows x columns

    @property
    def num_rows(self) -> int:
        return len(self.row_labels)


def two_dim_reps(params: GroupParams) -> list[int]:
    """Canonical k for the two-dimensional representations, sorted ascending."""
    n, s, tau = params.n, params.s, params.tau
    step = n // tau
    canonical = sorted({min(k, (k * s) % n) for k in range(1, n) if k % step != 0})
    if len(canonical) != (n - tau) // 2:
        raise ConsistencyError(
            f"expected {(n - tau) // 2} two-dimensional classes, got {len(canonical)}")
    return canonical


def _column_exponents(classes: ConjugacyData, n: int) -> list[tuple[str, int]]:
    """Per column: the kind and the relevant exponent of a in its representative."""
    cols = []
    for kind, rep in zip(classes.kinds, classes.reps):
        cols.append((kind, rep if kind in ("X", "Y") else rep - n))
    return cols


def char_table(params: GroupParams, classes: ConjugacyData) -> CharTable:
    """Build the full character table in the canonical class order."""
    n, s, tau = params.n, params.s, params.tau
    step = n // tau
    cols = _column_exponents(classes, n)
    powers = (np.exp(2j * np.pi / n) ** np.arange(n)).tolist()

    labels: list[str] = []
    families: list[tuple[str, int]] = []
    degrees: list[int] = []
    symbolic: list[tuple[SymbolicEntry, ...]] = []

    for sign, fam in ((1, "lin+"), (-1, "lin-")):
        for k in range(tau):
            row: list[SymbolicEntry] = []
            for kind, exp in cols:
                e = (step * k * exp) % n
                row.append((sign if kind == "Z" else 1, (e,)))
            labels.append(f"lin{k}{'+' if sign == 1 else '-'}")
            families.append((fam, k))
            degrees.append(1)
            symbolic.append(tuple(row))
    for k in two_dim_reps(params):
        row = []
        for kind, exp in cols:
            if kind == "Z":
                row.append((1, ()))
            else:
                row.append((1, ((k * exp) % n, (k * exp * s) % n)))
        labels.append(f"two{k}")
        families.append(("two", k))
        degrees.append(2)
        symbolic.append(tuple(row))

    if len(labels) != classes.num_classes:
        raise ConsistencyError("character count differs from class count")
    if sum(d * d for d in degrees) != 2 * n:
        raise ConsistencyError("degree squares do not sum to the group order")

    values = np.array([[coef * sum(powers[e] for e in exps) for coef, exps in row]
                       for row in symbolic], dtype=np.complex128)

    return CharTable(
        params=params,
        row_labels=tuple(labels),
        row_families=tuple(families),
        column_labels=classes.labels,
        degrees=tuple(degrees),
        symbolic=tuple(symbolic),
        values=values,
    )


@dataclass(frozen=True)
class OrthogonalityReport:
    max_deviation: float
    ok: bool


def orthogonality_check(table: CharTable, classes: ConjugacyData,
                        tol: float = ORTHOGONALITY_TOL) -> OrthogonalityReport:
    """First orthogonality: the weighted Gram matrix of the rows must be I."""
    sizes = np.asarray(classes.sizes(), dtype=np.float64)
    gram = (table.values * sizes) @ table.values.conj().T / (2 * table.params.n)
    deviation = float(np.max(np.abs(gram - np.eye(table.num_rows))))
    if deviation > tol:
        raise ConsistencyError(
            f"character table fails first orthogonality: deviation {deviation:.3e}")
    return OrthogonalityReport(max_deviation=deviation, ok=True)


@dataclass(frozen=True)
class Multiplicities:
    """Coefficients of each irreducible in the conjugation character."""

    params: GroupParams
    d1: tuple[int, ...]            # lin{k}+ for k = 0..tau-1
    d2: tuple[int, ...]            # lin{k}- for k = 0..tau-1
    d2dim: dict[int, int]          # canonical two-dimensional k -> multiplicity
    half_case_ks: tuple[int, ...] = field(default=())

    def row_values(self) -> list[int]:
        """Values aligned with the character table row order."""
        return list(self.d1) + list(self.d2) + [self.d2dim[k] for k in sorted(self.d2dim)]

    def sum_of_squares(self) -> int:
        return sum(v * v for v in self.row_values())

    def same_values(self, other: "Multiplicities") -> bool:
        return (self.d1 == other.d1 and self.d2 == other.d2
                and self.d2dim == other.d2dim)


def _round_integral(value: complex, what: str) -> int:
    if abs(value.imag) > INTEGRALITY_TOL:
        raise IntegralityError(f"{what} has imaginary part {value.imag:.3e}")
    nearest = round(value.real)
    if abs(value.real - nearest) > INTEGRALITY_TOL:
        raise IntegralityError(f"{what} = {value.real!r} is not an integer")
    return int(nearest)


def multiplicities_rowsum(table: CharTable) -> Multiplicities:
    """Multiplicities as conjugated row sums over the class representatives."""
    sums = table.values.conj().sum(axis=1)
    tau = table.params.tau
    ints = [_round_integral(complex(v), f"row sum of {lab}")
            for v, lab in zip(sums, table.row_labels)]
    d1 = tuple(ints[:tau])
    d2 = tuple(ints[tau:2 * tau])
    two = {k: ints[2 * tau + i]
           for i, (_, k) in enumerate(table.row_families[2 * tau:])}
    return Multiplicities(params=table.params, d1=d1, d2=d2, d2dim=two)


def multiplicities_closedform(params: GroupParams) -> Multiplicities:
    """Multiplicities from the closed forms, by the congruence class of k.

    The middle case contributes tau/2; it can be shown to fire only when tau
    is even, but rather than assuming that, an odd tau there raises
    IntegralityError and the ks that fired are recorded for the sweep census.
    """
    n, tau = params.n, params.tau
    d1: list[int] = []
    d2: list[int] = []
    half_fired: list[int] = []
    for k in range(tau):
        if k % tau == 0:
            d1.append((n + 3 * tau) // 2)
            d2.append((n - tau) // 2)
            if (n + 3 * tau) % 2 or (n - tau) % 2:
                raise IntegralityError(f"first-case multiplicity fractional at k={k}")
        elif (n * k) % (tau * tau) == 0:
            if tau % 2:
                raise IntegralityError(
                    f"half-tau case fired with odd tau={tau} at k={k} (n={n})")
            d1.append(tau // 2)
            d2.append(tau // 2)
            half_fired.append(k)
        else:
            d1.append(0)
            d2.append(0)
    two = {k: (tau if k % tau == 0 else 0) for k in two_dim_reps(params)}
    return Multiplicities(params=params, d1=tuple(d1), d2=tuple(d2), d2dim=two,
                          half_case_ks=tuple(half_fired))


def conjugation_character_check(table: CharTable, mults: Multiplicities,
                                classes: ConjugacyData,
                                tol: float = INTEGRALITY_TOL) -> float:
    """Verify sum_i d_i chi_i(g) = |C_G(g)| on every class; returns the residual."""
    d = np.asarray(mults.row_values(), dtype=np.float64)
    combined = d @ table.values
    expected = np.asarray(classes.centralizer_orders, dtype=np.float64)
    residual = float(np.max(np.abs(combined - expected)))
    if residual > tol:
        raise ConsistencyError(
            f"conjugation character mismatch: residual {residual:.3e}")
    return residual


def format_symbolic(entry: SymbolicEntry) -> str:
    """Human-readable form of a cell, e.g. '-w^3', 'w^1+w^5', '2*w^4', '0'."""
    coef, exps = entry
    if not exps:
        return "0"
    if all(e == 0 for e in exps):
        return str(coef * len(exps))
    if len(set(exps)) == 1:
        coef, exps = coef * len(exps), exps[:1]
    parts = [f"w^{e}" if e else "1" for e in exps]
    body = "+".join(parts)
    if coef == 1:
        return body
    if coef == -1:
        return f"-({body})" if len(parts) > 1 else f"-{parts[0]}"
    return f"{coef}*{body}" if len(parts) == 1 else f"{coef}*({body})"
