"""Exact rank machinery over prime fields and over the rationals.

A leaf that no module of the package imports, so `import terwilliger`
does not load it: the algebra closure counts its ranks from labels, and
the eliminating closure that hands PrimeBasis matrices in orbital
coordinates is the test suite's reference (tests/elimination.py).

Vectors have a fixed length.  PrimeBasis is a fully reduced echelon
basis over F_p: every stored row has a 1 at its pivot column and every
other stored row has a 0 there, so the residual of a vector v is

    v - sum over the pivots c of v[c] * row_c.

Only the pivots and the entries off them are stored: a pivot column per
row, and the row, column and value of every nonzero off its row's pivot,
kept sorted by row, so that one row's entries are one run found by
searchsorted.  The memory is linear in length plus those entries, never
length², and a basis of full rank, the identity, stores no entry;
`dense_rows` builds a dense copy of some rows on request.

A block of vectors is handed over as its nonzero entries: three aligned
arrays of block row, column and value, sorted by row and, within a row,
by strictly increasing column.  The reference closure's 0/1 offers are
built in that form; a dense block is converted at the boundary with one
np.nonzero.  The residual of v is zero at every pivot, and at a non-pivot
column j it is v[j] minus the sum of v[c] * row_c[j] over the pivots c
whose row is nonzero at j.  So it depends on v only at the columns

    C = (non-pivot columns) + (pivots of rows with an off-pivot entry),

and a block may leave out every entry outside C, such as one at the pivot
of a unit row: that row only cancels v at its own pivot.  `quotient_cols`
returns C.  C only shrinks while rows enter: a new pivot was a non-pivot
column, and a row with an entry at a remaining non-pivot column is either
old, with its pivot already in C, or new, with its pivot among the old
non-pivot columns.  A caller may therefore keep one C while it inserts.  A
C that is too small gives wrong residuals without any error, and a closure
fed wrong residuals can still reach its bound, which would be a false
exact certificate; keep every nonzero when in doubt.

reduce_block follows the formula entry by entry.  An entry at a pivot c is
a coefficient: the stored row cancels it there and is zero at every other
pivot, so the entry is dropped and -v[c] times each off-pivot entry of that
row is added instead, gathered from the store.  Each such product is taken
mod p before the sums, so every term lies in [0, p), and the terms are
summed by (row, column) in int64, exactly for fewer than 2^63 / p terms per
entry (about 9.7e10 at the largest modulus allowed), then reduced mod p,
and the zero sums are dropped.  No dense rows x length block is formed.

insert_block reduces the block against the store that way, then eliminates
its rows among themselves on their nonzeros, in one pass in block order: a
row is reduced only against the rows that entered earlier in the same
call.  Each row is a {column: residue} dict of Python ints, each value
taken mod p as it is formed, built only when the pass reaches it.  The new
rows then go into the store, and the older rows they hit are brought to
zero at the new pivots by the same gather: an older row is nonzero at a
pivot only at the new pivots, so one pass of its stored entries through
the reduction of reduce_block gives the updated row.

So no float enters the arithmetic: a product of two int64 residues is
below (p-1)^2 and is taken mod p before any sum, and the loop's Python
ints are exact at any size.  Nothing is formed dense but the copies
that `dense_rows` returns.  Modular rank only lower-bounds the rational
rank, so callers must close the gap themselves, for example by reaching a
known upper bound, as the closure's centralizer bound does.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def check_modulus(p: int) -> None:
    """Reject a modulus p with (p-1)^2 >= 2^53, that is p >= 94906267.

    Below it, a product of two residues is exact in int64, as in the
    reduction, and also in float64, as in the test suite's reference
    closure, whose later-round products are float64 sums of a class's worth
    of residues.  It guards the modulus of every PrimeBasis; the moduli the
    certificates record, `terwilliger.DEFAULT_PRIMES`, lie far below it.
    """
    if (p - 1) ** 2 >= 2 ** 53:
        raise ValueError(f"modulus {p} is too large for exact products "
                         "((p-1)^2 must be below 2^53)")


class PrimeBasis:
    """Fully reduced echelon basis of vectors over F_p.

    Each stored row is its pivot column, where it holds an implicit 1, plus
    its nonzero entries off that pivot, kept as three aligned arrays of row,
    column and value, sorted by row.  No zero value is stored, and nothing
    of size length² is ever allocated: a basis that reaches full rank is
    the identity and stores no entry at all.
    """

    def __init__(self, modulus: int, length: int):
        check_modulus(modulus)
        self.p = modulus
        self.length = length
        self.rank = 0
        self._pivot_cols = np.zeros(length, dtype=np.int64)
        self._pivot_row = np.full(length, -1, dtype=np.int64)  # -1: not a pivot
        # row, column and value of every stored nonzero off its row's
        # pivot, sorted by row
        self._off_rows = np.zeros(0, dtype=np.int64)
        self._off_cols = np.zeros(0, dtype=np.int64)
        self._off_vals = np.zeros(0, dtype=np.int64)

    def dense_rows(self, start: int, stop: int) -> np.ndarray:
        """Stored rows start..stop-1 as a dense copy on every column."""
        lo, hi = np.searchsorted(self._off_rows, [start, stop])
        out = np.zeros((stop - start, self.length))
        out[self._off_rows[lo:hi] - start, self._off_cols[lo:hi]] = self._off_vals[lo:hi]
        out[np.arange(stop - start), self._pivot_cols[start:stop]] = 1
        return out

    def _runs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the entries of each of the stored `rows` start in the store,
        and how many there are: the store is sorted by row, so a row's
        entries are one run, found by searchsorted."""
        lo = np.searchsorted(self._off_rows, rows)
        return lo, np.searchsorted(self._off_rows, rows, side="right") - lo

    @staticmethod
    def _expand(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
        """The indices of the runs lo[k] .. lo[k] + n[k] - 1, run after run."""
        return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())

    def quotient_cols(self) -> np.ndarray:
        """C: the non-pivot columns and the pivots of the rows with an
        off-pivot entry, sorted; the residual of a vector depends on it only
        at these columns (see the module docstring)."""
        return np.union1d(np.flatnonzero(self._pivot_row < 0),
                          self._pivot_cols[np.unique(self._off_rows)])

    def _entries(self, rows, cols, vals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A block's entries checked and returned as int64 arrays, with the
        values reduced to residues and the zeros dropped."""
        rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals)
        if not (rows.ndim == 1 and rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must be aligned 1-D arrays")
        for name, x in (("rows", rows), ("cols", cols)):
            if x.size and x.dtype.kind not in "iu":
                raise ValueError(f"{name} must be an integer array, not {x.dtype}")
        rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
        if len(rows):
            if rows[0] < 0 or cols.min() < 0 or cols.max() >= self.length:
                raise ValueError(f"rows must be nonnegative and cols in [0, {self.length})")
            key = rows * self.length + cols
            if np.any(key[1:] <= key[:-1]):
                raise ValueError("entries must be sorted by row, with strictly "
                                 "increasing columns within a row")
        vals = vals.astype(np.int64)
        vals %= self.p
        nonzero = vals != 0
        if not nonzero.all():
            rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
        return rows, cols, vals

    def _sum_entries(self, rows: np.ndarray, cols: np.ndarray,
                     vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The residues in [0, p) summed by (row, column) and reduced mod p,
        sorted by row and column, with the zero sums dropped."""
        if not len(rows):
            return rows, cols, vals
        key = rows * self.length + cols
        order = np.argsort(key)
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        sums = np.add.reduceat(vals[order], first) % self.p
        nonzero = sums != 0
        rows, cols = np.divmod(key[first[nonzero]], self.length)
        return rows, cols, sums[nonzero]

    def reduce_block(self, rows, cols, vals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduce every row of a block against the basis; returns the
        residual as entries in the same form, with residues in [1, p).

        The block is its nonzero entries: `rows`, `cols` and `vals` are
        aligned integer arrays, sorted by row and, within a row, by strictly
        increasing column in [0, length); the values must fit in int64.  The
        block may leave out only entries that cannot change the residual
        (see the module docstring).
        """
        return self._reduce(*self._entries(rows, cols, vals))

    def _reduce(self, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """reduce_block on entries already checked: int64 arrays sorted by
        row, with distinct columns within a row and residues in [1, p)."""
        stored = self._pivot_row[cols]
        at_pivot = stored >= 0
        if not at_pivot.any():
            return rows, cols, vals
        hit = np.flatnonzero(at_pivot)
        first, n = self._runs(stored[hit])
        terms = self._expand(first, n)
        rest = ~at_pivot
        return self._sum_entries(
            np.concatenate([rows[rest], np.repeat(rows[hit], n)]),
            np.concatenate([cols[rest], self._off_cols[terms]]),
            np.concatenate([vals[rest], np.repeat(self.p - vals[hit], n)  # -v[c] mod p
                            * self._off_vals[terms] % self.p]))

    def _insert_reduced(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> int:
        """Insert the rows of a block already reduced against the basis,
        given as entries, until the rank is full.

        The rows that enter are combinations of block rows, so the in-call
        elimination (`_eliminate`) runs on the block's own nonzeros: a row
        is reduced only against the rows that entered earlier in this call,
        which are zero at the old pivots and fully reduced among themselves.
        So each residual, and its pivot, is the one a fully reduced basis
        would give.  The stored rows are brought to zero at the new pivots
        once, at the end, which leaves the unique fully reduced basis with
        this pivot sequence.  The new rows are zero off their own columns,
        none of which is an old pivot, so the update changes only those
        columns of the older rows it hits, and never their pivots.
        """
        room = self.length - self.rank  # rows past a full rank reduce to zero
        new_rows, new_cols, new_vals, pivot_cols = self._eliminate(rows, cols, vals, room)
        if not len(pivot_cols):
            return 0
        start, end = self.rank, self.rank + len(pivot_cols)
        self._pivot_cols[start:end] = pivot_cols
        self._pivot_row[pivot_cols] = np.arange(start, end)
        # the older rows with an off-pivot entry at one of the new pivots
        older = self._off_rows, self._off_cols, self._off_vals
        hit = np.unique(older[0][self._pivot_row[older[1]] >= start])
        taken = self._expand(*self._runs(hit))
        keep = np.ones(len(older[0]), dtype=bool)
        keep[taken] = False
        # the new rows are stored first; the older rows are nonzero at a
        # pivot only at the new pivots, so the new rows are all that the
        # hit rows' entries gather from, and one pass brings them to zero
        off = new_cols != pivot_cols[new_rows]
        new = start + new_rows[off], new_cols[off], new_vals[off]
        self._off_rows, self._off_cols, self._off_vals = new
        updated = self._reduce(*(x[taken] for x in older))
        # one merge, which keeps the store sorted by row: each updated row
        # goes where its old entries were, and the new rows after every
        # older one
        rows, cols, vals = (np.concatenate(x) for x in zip(updated, new))
        kept = [x[keep] for x in older]
        at = np.searchsorted(kept[0], rows, side="right") + np.arange(len(rows))
        slot = np.ones(len(kept[0]) + len(rows), dtype=bool)
        slot[at] = False
        merged = []
        for stored, entries in zip(kept, (rows, cols, vals)):
            out = np.empty(len(slot), dtype=np.int64)
            out[slot], out[at] = stored, entries
            merged.append(out)
        self._off_rows, self._off_cols, self._off_vals = merged
        self.rank = end
        return end - start

    def _eliminate(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   room: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The in-call elimination of a reduced block, given as entries
        sorted by row and column: at most `room` fully reduced rows in the
        order they entered, as entries (k for the k-th row to enter, column,
        value) sorted by k, and their pivot columns.

        One pass takes the block's rows in order and stops once `room` rows
        have entered: a row past the cut never changes a row before it.
        Each row is a {column: residue} dict of Python ints, built when the
        pass reaches it, with each value reduced mod p as it is formed, so
        the pass is exact at any p with no float window.  A row's
        coefficients at the entered pivots are read as it is reduced: an
        entered row is zero at every other entered pivot, so subtracting it
        changes none of them.  `holders` maps a column to the entered rows
        that may be nonzero there off their pivot, a superset of the rows a
        new pivot there must clear.  So the rows that enter are the ones
        that one call per row would enter."""
        p = self.p
        starts = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first entry
        bounds = [*starts.tolist(), len(rows)]
        cols, vals = cols.tolist(), vals.tolist()

        def subtract(target: dict[int, int], coeff: int, source: dict[int, int]) -> None:
            for j, v in source.items():
                x = (target.get(j, 0) - coeff * v) % p
                if x:
                    target[j] = x
                else:
                    del target[j]

        new: list[dict[int, int]] = []
        pivots: list[int] = []
        pivot_of: dict[int, int] = {}
        holders: dict[int, set[int]] = {}
        for lo, hi in zip(bounds, bounds[1:]):
            if len(new) >= room:
                break
            row = dict(zip(cols[lo:hi], vals[lo:hi]))  # {column: residue}
            for col in [col for col in row if col in pivot_of]:
                subtract(row, row[col], new[pivot_of[col]])
            if not row:
                continue
            pivot = min(row)
            if row[pivot] != 1:
                inv = pow(row[pivot], -1, p)
                row = {j: v * inv % p for j, v in row.items()}
            off = [j for j in row if j != pivot]
            for k in holders.pop(pivot, ()):
                coeff = new[k].get(pivot)
                if coeff:  # none if that entry of row k has cancelled since
                    subtract(new[k], coeff, row)
                    for j in off:
                        holders.setdefault(j, set()).add(k)
            for j in off:
                holders.setdefault(j, set()).add(len(new))
            pivot_of[pivot] = len(new)
            pivots.append(pivot)
            new.append(row)
        at = np.array([k for k, row in enumerate(new) for _ in row], dtype=np.int64)
        out_cols = np.array([j for row in new for j in row], dtype=np.int64)
        out_vals = np.array([v for row in new for v in row.values()], dtype=np.int64)
        return at, out_cols, out_vals, np.array(pivots, dtype=np.int64)

    def insert(self, vec) -> bool:
        """Insert one vector; True iff it was independent and the rank grew."""
        vec = np.asarray(vec, dtype=np.int64)
        if vec.shape != (self.length,):
            raise ValueError(f"expected a vector of length {self.length}")
        cols = np.flatnonzero(vec)
        return self.insert_block(np.zeros(len(cols), dtype=np.int64), cols, vec[cols]) == 1

    def insert_block(self, rows, cols, vals) -> int:
        """Insert the rows of a block in order; returns how many entered.

        The block is its nonzero entries, as in reduce_block, and the caller
        promises that no entry it leaves out can change a row's residual.
        Every nonzero, or those on the quotient columns C of
        `quotient_cols`, give the same result; a C too small gives a wrong
        one, with no error.  The result is identical to one call per row;
        once the rank is full, no later row is eliminated.  The block is
        reduced against the stored rows once; a row is then reduced only
        against the rows that entered earlier in the same call, and the
        stored rows are brought to zero at the new pivots once, at the end,
        by the gather of reduce_block.  So how a caller splits its rows
        into calls changes nothing but the time and the memory of a call.
        """
        return self._insert_reduced(*self.reduce_block(rows, cols, vals))


class RationalBasis:
    """Sparse fully reduced echelon basis over the rationals.

    Rows are {column: value} dicts with no zero value.  An integral value is
    a Python int and any other an exact Fraction; a Fraction arises only
    when a pivot's inverse is not integral, so a basis whose pivots are all
    +-1 runs on integers alone.  Slow but exact; no product path forms
    one.  The test suite reruns the closure over the rationals in it
    (`rational_closure` in tests/elimination.py).
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: list[dict[int, int | Fraction]] = []
        self.pivot_of: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _exact(value) -> int | Fraction:
        """The value as an exact number: a Python int when it is integral."""
        if not isinstance(value, (int, np.integer)):
            value = Fraction(value)
            if value.denominator != 1:
                return value
        return int(value)

    @staticmethod
    def _subtract(v: dict, coeff, row: dict) -> None:
        """v -= coeff * row in place, dropping zeros; integral values are
        stored as int."""
        for c, rv in row.items():
            nv = v.get(c, 0) - coeff * rv
            if not nv:
                v.pop(c, None)
            else:
                v[c] = int(nv) if nv.denominator == 1 else nv

    def reduce(self, vec) -> dict[int, int | Fraction]:
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {c: self._exact(x) for c, x in items if x}
        # stored rows carry no pivot column but their own, so one pass suffices
        for col in sorted(v):
            coeff = v.get(col)
            if coeff and col in self.pivot_of:
                self._subtract(v, coeff, self.rows[self.pivot_of[col]])
        return v

    def insert(self, vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        lead = v[pivot]
        if lead != 1:
            # the only other integral inverse is that of -1
            inv = -1 if lead == -1 else 1 / Fraction(lead)
            v = {c: self._exact(val * inv) for c, val in v.items()}
        for row in self.rows:
            coeff = row.get(pivot)
            if coeff:
                self._subtract(row, coeff, v)
        self.rows.append(v)
        self.pivot_of[pivot] = len(self.rows) - 1
        return True
