"""Exact rank machinery over prime fields, plus a rational fallback.

Vectors have a fixed length (the closure passes matrices in orbital
coordinates).  The workhorse is PrimeBasis, a fully reduced echelon basis
over F_p: every stored row has a 1 at its pivot column and every other
stored row has a 0 there, so reducing a block is a single matrix product

    block - block[:, pivot_cols] @ rows.

The closure's vectors are almost all zeros, so that product is restricted
to what it can change: the block rows with a nonzero coefficient, the
stored rows whose pivot one of them hits, and the columns where those
stored rows are nonzero.  Every term left out is zero, so the result equals
the dense product exactly.  insert_block works the same way: a row is
reduced only against the rows that entered earlier in the same call, on the
block's own nonzero columns, and the older rows are brought to zero at the
new pivots once per call; the rows a new pivot hits are found from an index
of the stored nonzeros that lie off their row's pivot.

Residues are stored in float64 so the products run through BLAS.  Every
multi-term product is formed as (a - C @ R) mod p by `_sub_product`, in
slabs of k inner terms with k * (p-1)^2 < 2^53, reduced mod p after each
slab (the delayed reduction of FFLAS-FFPACK), so every sum is an exact
float64 integer; `_mod` takes it back to [0, p) without leaving float64.
At the default moduli, the two largest primes below 2^20, one slab holds
8192 terms.  Modular rank only lower-bounds the rational rank, so callers
must close the gap themselves (see the algebra closure, which pins the
rank exactly whenever it reaches the centralizer bound).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# the two largest primes below 2^20
DEFAULT_PRIMES: tuple[int, int] = (1048573, 1048571)

FLOAT_EXACT = 2 ** 53


class PrimeBasis:
    """Fully reduced echelon basis of vectors over F_p."""

    def __init__(self, modulus: int, length: int):
        if (modulus - 1) ** 2 >= FLOAT_EXACT:
            raise ValueError(f"modulus {modulus} leaves no exact float64 product "
                             "((p-1)^2 must be below 2^53)")
        self.p = modulus
        self.length = length
        self.rank = 0
        # inner terms per exact slab of a product
        self._slab = (FLOAT_EXACT - 1) // (modulus - 1) ** 2
        self._rows = np.zeros((length, length), dtype=np.float64)
        self._pivot_cols = np.zeros(length, dtype=np.int64)
        self._pivot_row = np.full(length, -1, dtype=np.int64)  # -1: not a pivot
        # row and column of every stored nonzero off its row's pivot
        self._off_rows = np.zeros(0, dtype=np.int64)
        self._off_cols = np.zeros(0, dtype=np.int64)

    @property
    def rows(self) -> np.ndarray:
        """The stored rows as exact residues: a view of the store, not a copy."""
        return self._rows[:self.rank]

    def _mod(self, x: np.ndarray) -> np.ndarray:
        """Residues in [0, p) of float64 integers below 2^53 in magnitude.

        For integer x and |x| < 2^53, x/p is either an integer, which the
        division returns exactly, or at least 1/p away from every integer,
        while rounding moves it by at most half an ulp of |x/p| < 2^53/p,
        which is below 1/p.  So the truncated quotient is exact, q*p is an
        integer no larger than |x|, and x - q*p lies in (-p, p) without
        rounding; one pass then lifts the negative remainders.
        """
        r = np.trunc(x / self.p)
        r *= self.p
        np.subtract(x, r, out=r)
        r += self.p * (r < 0)
        return r

    def _sub_product(self, a: np.ndarray, c: np.ndarray, r: np.ndarray) -> np.ndarray:
        """(a - c @ r) mod p for residues, c a row or a matrix: each inner
        term lies in [0, (p-1)^2], so with at most `_slab` terms per slab and
        a mod p after each, every sum below stays an exact float64 integer."""
        for lo in range(0, c.shape[-1], self._slab):
            a = self._mod(a - c[..., lo:lo + self._slab] @ r[lo:lo + self._slab])
        return a

    def reduce_block(self, block: np.ndarray) -> np.ndarray:
        """Reduce every row of an integer block against the basis; entries
        must be below 2^53 in magnitude, and the result is in residues.

        Only the block rows with a nonzero coefficient, the stored rows whose
        pivot one of them hits, and the columns where those stored rows are
        nonzero enter the product; every term left out is zero.
        """
        cols = np.flatnonzero(block.any(axis=0))
        out = np.zeros(block.shape)
        out[:, cols] = self._mod(block[:, cols])
        row_ids = self._pivot_row[cols]
        is_pivot = row_ids >= 0
        coeffs = out[:, cols[is_pivot]]
        hit = np.flatnonzero(coeffs.any(axis=1))
        if len(hit):
            used = np.flatnonzero(coeffs[hit].any(axis=0))
            rows = self._rows[row_ids[is_pivot][used]]
            support = np.flatnonzero(rows.any(axis=0))
            sub = np.ix_(hit, support)
            out[sub] = self._sub_product(out[sub], coeffs[np.ix_(hit, used)], rows[:, support])
        return out

    def reduce(self, vec) -> np.ndarray:
        """The residual of one vector: zero exactly when it lies in the span."""
        arr = np.asarray(vec, dtype=np.int64) % self.p
        if arr.shape != (self.length,):
            raise ValueError(f"expected a vector of length {self.length}")
        out = self.reduce_block(arr.astype(np.float64)[None, :])[0]
        return out.astype(np.int64)

    def _insert_reduced(self, block: np.ndarray, stop_at_rank: int | None) -> int:
        """Insert the rows of a block already reduced against the basis.

        The rows that enter are combinations of block rows, so the in-call
        elimination runs on the block's own nonzero columns: a row is
        reduced only against the rows that entered earlier in this call,
        which are zero at the old pivots and fully reduced among themselves.
        So each residual, and its pivot, is the one a fully reduced basis
        would give.  The stored rows are brought to zero at the new pivots
        once, at the end, which leaves the unique fully reduced basis with
        this pivot sequence.  A new row has no nonzero off cols, so the
        update changes only cols of the older rows it hits.
        """
        cols = np.flatnonzero(block.any(axis=0))
        todo = block[:, cols]
        todo = todo[todo.any(axis=1)]
        new = np.zeros_like(todo)
        pivots = np.zeros(len(todo), dtype=np.int64)  # indices into cols
        added = 0
        for row in todo:
            coeffs = row[pivots[:added]]
            hit = coeffs.nonzero()[0]
            if len(hit):
                row = self._sub_product(row, coeffs[hit], new[hit])
            nonzero = row.nonzero()[0]
            if not len(nonzero):
                continue
            pivot = nonzero[0]
            if row[pivot] != 1:
                row = self._mod(row * float(pow(int(row[pivot]), -1, self.p)))
            col = new[:added, pivot]
            hit = col.nonzero()[0]
            if len(hit):
                new[hit] = self._mod(new[hit] - np.outer(col[hit], row))
            pivots[added] = pivot
            new[added] = row
            added += 1
            if stop_at_rank is not None and self.rank + added >= stop_at_rank:
                break
        start, end = self.rank, self.rank + added
        self._rows[start:end][:, cols] = new[:added]
        self._pivot_cols[start:end] = cols[pivots[:added]]
        self._pivot_row[self._pivot_cols[start:end]] = np.arange(start, end)
        # older rows with an off-pivot nonzero at one of the new pivots
        hit = np.unique(self._off_rows[self._pivot_row[self._off_cols] >= start])
        older = self._rows[hit]
        coeffs = older[:, self._pivot_cols[start:end]]
        older[:, cols] = self._sub_product(older[:, cols], coeffs, new[:added])
        self._rows[hit] = older
        # re-index the off-pivot nonzeros of the rows just written
        keep = ~np.isin(self._off_rows, hit)
        r, c = np.nonzero(older)
        off = c != self._pivot_cols[hit[r]]
        nr, nc = np.nonzero(new[:added])
        new_off = nc != pivots[nr]
        self._off_rows = np.concatenate(
            [self._off_rows[keep], hit[r[off]], start + nr[new_off]])
        self._off_cols = np.concatenate(
            [self._off_cols[keep], c[off], cols[nc[new_off]]])
        self.rank = end
        return added

    def insert(self, vec) -> bool:
        """Insert one vector; True iff it was independent and the rank grew."""
        residual = self.reduce(vec).astype(np.float64)[None, :]
        return self._insert_reduced(residual, None) == 1

    def insert_block(self, block: np.ndarray, stop_at_rank: int | None = None) -> int:
        """Insert the rows of a residue block in order; returns how many entered.

        The result is identical to one insert() per row.  The block is
        reduced against the stored rows once; a row is then reduced only
        against the rows that entered earlier in the same call, and the
        stored rows are brought to zero at the new pivots in one restricted
        product at the end; `_sub_product` keeps every product exact.  A call
        takes at most 2048 rows, which bounds its working copy of the block;
        the closure offers a few hundred at a time.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.shape[0] > 2048:
            raise ValueError("insert_block is limited to 2048 rows per call")
        return self._insert_reduced(self.reduce_block(block), stop_at_rank)


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
