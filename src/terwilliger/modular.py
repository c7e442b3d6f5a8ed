"""Exact rank machinery over prime fields, plus a rational fallback.

Vectors have a fixed length (the closure passes matrices in orbital
coordinates).  The workhorse is PrimeBasis, a fully reduced echelon basis
over F_p: every stored row has a 1 at its pivot column and every other
stored row has a 0 there, so reducing a block is a single matrix product

    block - block[:, pivot_cols] @ rows.

Residues are stored in float64 so the product runs through BLAS; exactness
holds as long as rank * (p-1)^2 stays below 2^53, which the constructor
enforces (CapacityError).  The default moduli are the two largest primes
below 2^20, leaving room for ranks up to ~8000.  Modular rank only
lower-bounds the rational rank, so callers must close the gap themselves
(see the algebra closure, which pins the rank exactly whenever it reaches
the centralizer bound).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .groups import ConsistencyError

# the two largest primes below 2^20
DEFAULT_PRIMES: tuple[int, int] = (1048573, 1048571)

_FLOAT_EXACT = 2 ** 53


class CapacityError(ConsistencyError):
    """The rank would leave the exact float64 window: a method limit, not bad input."""


class PrimeBasis:
    """Fully reduced echelon basis of vectors over F_p."""

    def __init__(self, modulus: int, length: int, capacity: int | None = None):
        if capacity is None:
            capacity = length
        if capacity * (modulus - 1) ** 2 >= _FLOAT_EXACT:
            raise CapacityError(
                f"modulus {modulus} with capacity {capacity} would overflow the "
                f"exact float64 window; use a smaller prime")
        self.p = modulus
        self.length = length
        self.capacity = capacity
        self.rank = 0
        self._rows = np.zeros((capacity, length), dtype=np.float64)
        self._pivot_cols = np.zeros(capacity, dtype=np.int64)

    @property
    def rows(self) -> np.ndarray:
        """The stored rows as exact residues (read-only view)."""
        return self._rows[:self.rank]

    def _mod(self, block: np.ndarray) -> np.ndarray:
        return (block.astype(np.int64) % self.p).astype(np.float64)

    def reduce_block(self, block: np.ndarray) -> np.ndarray:
        """Reduce every row of a float64 residue block against the basis."""
        block = self._mod(block)
        if self.rank == 0:
            return block
        coeffs = block[:, self._pivot_cols[:self.rank]]
        block = block - coeffs @ self._rows[:self.rank]
        return self._mod(block)

    def reduce(self, vec) -> np.ndarray:
        """The residual of one vector: zero exactly when it lies in the span."""
        arr = np.asarray(vec, dtype=np.int64) % self.p
        if arr.shape != (self.length,):
            raise ValueError(f"expected a vector of length {self.length}")
        out = self.reduce_block(arr.astype(np.float64)[None, :])[0]
        return out.astype(np.int64)

    def _append(self, row: np.ndarray) -> None:
        pivot = int(np.flatnonzero(row)[0])
        inv = pow(int(row[pivot]), -1, self.p)
        row = self._mod(row * float(inv))
        if self.rank:
            # keep older rows fully reduced against the new pivot
            col = self._rows[:self.rank, pivot].copy()
            touched = np.flatnonzero(col)
            if len(touched):
                self._rows[touched] = self._mod(
                    self._rows[touched] - np.outer(col[touched], row))
        if self.rank >= self.capacity:
            raise RuntimeError("echelon basis exceeded its declared capacity")
        self._rows[self.rank] = row
        self._pivot_cols[self.rank] = pivot
        self.rank += 1

    def insert(self, vec) -> bool:
        """Insert one vector; True iff it was independent and the rank grew."""
        residual = self.reduce(vec)
        if not residual.any():
            return False
        self._append(residual.astype(np.float64))
        return True

    def insert_block(self, block: np.ndarray, stop_at_rank: int | None = None) -> int:
        """Insert the rows of a residue block in order; returns how many entered.

        Rows later in the block are re-reduced against pivots created earlier
        in the same call, so the result is identical to one insert() per row.
        Those updates subtract residue multiples without renormalizing, and a
        row is only brought back to residues when its own turn comes; each
        update adds at most p^2 in magnitude, so blocks up to 2048 rows stay
        inside the exact window.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.shape[0] > 2048:
            raise ValueError("insert_block is limited to 2048 rows per call")
        block = self.reduce_block(block)
        added = 0
        stale = np.zeros(block.shape[0], dtype=bool)
        for idx in range(block.shape[0]):
            row = block[idx]
            if stale[idx]:
                row = self._mod(row)
            if not row.any():
                continue
            self._append(row)
            added += 1
            if idx + 1 < block.shape[0]:
                pivot = self._pivot_cols[self.rank - 1]
                col = self._mod(block[idx + 1:, pivot])
                touched = np.flatnonzero(col)
                if len(touched):
                    block[idx + 1 + touched] -= np.outer(
                        col[touched], self._rows[self.rank - 1])
                    stale[idx + 1 + touched] = True
            if stop_at_rank is not None and self.rank >= stop_at_rank:
                break
        return added


class RationalBasis:
    """Sparse fully reduced echelon basis over the rationals.

    Rows are {column: Fraction} dicts.  Slow but exact; used by the optional
    rational confirmation mode and the desk-scale commutant solve.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: list[dict[int, Fraction]] = []
        self.pivot_of: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _to_dict(vec) -> dict[int, Fraction]:
        if isinstance(vec, dict):
            return {c: Fraction(v) for c, v in vec.items() if v}
        return {i: Fraction(int(v)) for i, v in enumerate(vec) if v}

    def reduce(self, vec) -> dict[int, Fraction]:
        v = self._to_dict(vec)
        # stored rows carry no pivot column but their own, so one pass suffices
        for col in sorted(v):
            coeff = v.get(col)
            if not coeff or col not in self.pivot_of:
                continue
            row = self.rows[self.pivot_of[col]]
            for c, rv in row.items():
                nv = v.get(c, Fraction(0)) - coeff * rv
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
        return v

    def insert(self, vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = 1 / v[pivot]
        v = {c: val * inv for c, val in v.items()}
        for row in self.rows:
            coeff = row.get(pivot)
            if coeff:
                for c, rv in v.items():
                    nv = row.get(c, Fraction(0)) - coeff * rv
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        self.rows.append(v)
        self.pivot_of[pivot] = len(self.rows) - 1
        return True
