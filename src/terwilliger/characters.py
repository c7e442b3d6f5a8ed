"""Character table of C_n x| C_2 and the multiplicities in the conjugation character.

Rows come in three families, built from the primitive n-th root of unity w:

* lin{k}+ / lin{k}- for 0 <= k <= tau-1: the linear characters sending a to
  w^(nk/tau) and b to +1 / -1;
* two{k} for the two-dimensional representations a -> diag(w^k, w^(ks)),
  b -> antidiag(1, 1), where 1 <= k <= n-1, k not divisible by n/tau, and k
  is identified with k*s mod n (the canonical representative is the minimum
  of the pair).

The table keeps the exponents of w as integer arrays and the values as
complex128, gathered from the powers of w in one step.  The symbolic rows
(an integer coefficient and exponents of w per cell, exact) are built from
the exponent arrays on demand, for the renderers.  The multiplicity of each
character in the conjugation character equals its row sum over class
representatives; the same numbers also come from closed forms, and both
routes are exposed so they can be compared entry for entry.
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
    """Character values against the class representatives in canonical order.

    The exponents of w are kept as arrays, one column per class: lin[k] for
    both lin{k}+ and lin{k}-, and two1[i], two2[i] for the two terms of the
    i-th two-dimensional row.  On the Z columns lin{k}- carries a minus sign
    and the two-dimensional rows vanish.
    """

    params: GroupParams
    row_labels: tuple[str, ...]
    row_families: tuple[tuple[str, int], ...]   # ("lin+"|"lin-"|"two", k)
    column_labels: tuple[str, ...]
    degrees: tuple[int, ...]
    lin: np.ndarray                              # (tau, columns)
    two1: np.ndarray                             # ((n - tau)/2, columns)
    two2: np.ndarray
    z_columns: np.ndarray                        # bool, columns
    values: np.ndarray                           # complex128, rows x columns

    @property
    def num_rows(self) -> int:
        return len(self.row_labels)

    @property
    def symbolic(self) -> tuple[tuple[SymbolicEntry, ...], ...]:
        """Every cell as (coefficient, exponents of w), built on each access."""
        z = self.z_columns.tolist()
        lin = self.lin.tolist()
        rows = [tuple((1, (e,)) for e in row) for row in lin]
        rows += [tuple((-1 if zc else 1, (e,)) for e, zc in zip(row, z)) for row in lin]
        rows += [tuple((1, ()) if zc else (1, (e1, e2)) for e1, e2, zc in zip(r1, r2, z))
                 for r1, r2 in zip(self.two1.tolist(), self.two2.tolist())]
        return tuple(rows)


def two_dim_reps(params: GroupParams) -> list[int]:
    """Canonical k for the two-dimensional representations, sorted ascending."""
    n, s, tau = params.n, params.s, params.tau
    step = n // tau
    canonical = sorted({min(k, (k * s) % n) for k in range(1, n) if k % step != 0})
    if len(canonical) != (n - tau) // 2:
        raise ConsistencyError(
            f"expected {(n - tau) // 2} two-dimensional classes, got {len(canonical)}")
    return canonical


def char_table(params: GroupParams, classes: ConjugacyData) -> CharTable:
    """Build the full character table in the canonical class order."""
    n, s, tau = params.n, params.s, params.tau
    step = n // tau
    ks = two_dim_reps(params)
    z = np.array(classes.kinds) == "Z"
    # the relevant exponent of a in each representative b^eps a^i is i
    exp = np.array(classes.reps) - np.where(z, n, 0)
    lin = (step * np.arange(tau)[:, None] * exp) % n
    two1 = (np.array(ks, dtype=np.int64)[:, None] * exp) % n
    two2 = (two1 * s) % n

    labels = ([f"lin{k}+" for k in range(tau)] + [f"lin{k}-" for k in range(tau)]
              + [f"two{k}" for k in ks])
    families = ([("lin+", k) for k in range(tau)] + [("lin-", k) for k in range(tau)]
                + [("two", k) for k in ks])
    degrees = [1] * (2 * tau) + [2] * len(ks)
    if len(labels) != classes.num_classes:
        raise ConsistencyError("character count differs from class count")
    if sum(d * d for d in degrees) != 2 * n:
        raise ConsistencyError("degree squares do not sum to the group order")

    # the arithmetic of the cell sums coef * sum(w^e): the sum starts at 0 and
    # the sign multiplies rather than negates, so that even the signed zeros,
    # which the JSON output prints, agree bit for bit
    powers = np.exp(2j * np.pi / n) ** np.arange(n)
    one, first, second = np.split(powers[np.concatenate([lin, two1, two2])],
                                  [tau, tau + len(ks)])
    one = 0 + one
    values = np.concatenate([one, np.where(z, -1, 1) * one,
                             np.where(z, 0, 0 + first + second)])

    return CharTable(
        params=params,
        row_labels=tuple(labels),
        row_families=tuple(families),
        column_labels=classes.labels,
        degrees=tuple(degrees),
        lin=lin, two1=two1, two2=two2, z_columns=z,
        values=values,
    )


def orthogonality_check(table: CharTable, classes: ConjugacyData) -> float:
    """First orthogonality: the weighted Gram matrix of the rows must be I;
    returns the largest deviation."""
    sizes = np.asarray(classes.sizes(), dtype=np.float64)
    # with values x + iy and the sizes weighting the left factor, the Gram
    # matrix is (x x^T + y y^T) + i (y x^T - x y^T): one float64 einsum per
    # part, as numpy's complex128 einsum loop is not vectorised.  einsum runs
    # on one thread: a multithreaded BLAS call leaves its threads spinning on
    # another core for a while after it returns
    x, y = table.values.real, table.values.imag
    parts = np.hstack([x, y])
    weights = np.tile(sizes, 2) / (2 * table.params.n)
    real = np.einsum("ik,jk->ij", parts * weights, parts)
    imag = np.einsum("ik,jk->ij", np.hstack([y, -x]) * weights, parts)
    deviation = float(np.max(np.hypot(real - np.eye(table.num_rows), imag)))
    if deviation > ORTHOGONALITY_TOL:
        raise ConsistencyError(
            f"character table fails first orthogonality: deviation {deviation:.3e}")
    return deviation


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
                                classes: ConjugacyData) -> float:
    """Verify sum_i d_i chi_i(g) = |C_G(g)| on every class; returns the residual."""
    d = np.asarray(mults.row_values(), dtype=np.float64)
    combined = np.einsum("i,ij->j", d, table.values)  # not BLAS: see orthogonality_check
    expected = np.asarray(classes.centralizer_orders, dtype=np.float64)
    residual = float(np.max(np.abs(combined - expected)))
    if residual > INTEGRALITY_TOL:
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
