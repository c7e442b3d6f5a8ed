"""Exact rank machinery over prime fields, plus a rational fallback.

Vectors have a fixed length (the closure passes matrices in orbital
coordinates).  The workhorse is PrimeBasis, a fully reduced echelon basis
over F_p: every stored row has a 1 at its pivot column and every other
stored row has a 0 there, so reducing a block is a single matrix product

    block - block[:, pivot_cols] @ rows.

Only the pivots and the entries off them are stored: a pivot column per
row, and the row, column and value of every nonzero off its row's pivot.
The memory is linear in length plus those entries, never length², and a
basis of full rank, the identity, stores no entry.  The product above
needs only the off-pivot part, since a row's pivot just cancels the block
at that column, and its operand is densified from the store on the few
rows and columns it involves; `rows` is a dense copy built on request.

A block is given only on its own columns: `block[:, k]` is the value at
column `cols[k]`, and every other column counts as zero.  The residual of a
vector v is zero at every pivot, and at a non-pivot column j it is v[j]
minus the sum of v[c] * row_c[j] over the pivots c whose row is nonzero at
j.  So it depends on v only at the columns

    C = (non-pivot columns) + (pivots of rows with an off-pivot entry),

and `cols` may leave out every column where v is zero or that lies outside
C, such as the pivot of a unit row: that row only cancels v at its own
pivot.  `quotient_cols` returns C.  C only shrinks while rows enter: a new
pivot was a non-pivot column, and a row with an entry at a remaining
non-pivot column is either old, with its pivot already in C, or new, with
its pivot among the old non-pivot columns.  A caller may therefore keep one
C while it inserts.  A C that is too small gives wrong residuals without any
error, and a closure fed wrong residuals can still reach its bound, which
would be a false exact certificate; pass every column when in doubt.

Within those columns the products are restricted further to what they can
change: the block rows with a nonzero coefficient, the stored rows whose
pivot one of them hits, and the columns where those stored rows are
nonzero off their pivots, read from the store.  Every term left out is
zero, so the result equals the dense product exactly.

insert_block reduces the block against the store that way, then eliminates
its rows among themselves on the block's own nonzero columns: a row is
reduced only against the rows that entered earlier in the same call, and
the older rows are brought to zero at the new pivots once per call, on
those columns only; the rows a new pivot hits, and their entries at those
columns, are found in the store.  The in-call elimination has two loops
that return the same rows, chosen by the block's width, its number of
nonzero columns.  A block narrower than SPARSE_WIDTH runs the sparse loop,
on {column: residue} rows of Python ints, each value taken mod p as it is
formed; the closure's reduced blocks have a few nonzeros per row, and
Python arithmetic on a handful of entries beats about 20 numpy calls per
row.  A block at least that wide runs the dense loop on float64 rows:
such blocks fill in as rows enter, and a whole-row numpy step then wins.  Both loops
reduce each row against the same earlier rows, take the same first nonzero
as its pivot, scale by the same inverse and clear the same column, so they
enter the same rows in the same order: the unique fully reduced basis with
that pivot sequence.  The store and every product outside the in-call loop
are shared.

Residues are stored in float64 so the products run through BLAS.  Every
multi-term product is formed as (a - C @ R) mod p by `_sub_product`, in
slabs of k inner terms with k * (p-1)^2 < 2^53, reduced mod p after each
slab (the delayed reduction of FFLAS-FFPACK), so every sum is an exact
float64 integer; `_mod` takes it back to [0, p) by an exact int64 remainder.
At the default moduli, the two largest primes below 2^20, one slab holds
8192 terms.  The sparse loop needs no such window: a Python int is exact
at any size, and its residues, below p < 2^53, convert to float64 exactly
when its rows are stored.  Modular rank only lower-bounds the rational
rank, so callers must close the gap themselves (see the algebra closure,
which pins the rank exactly whenever it reaches the centralizer bound).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# the two largest primes below 2^20
DEFAULT_PRIMES: tuple[int, int] = (1048573, 1048571)

FLOAT_EXACT = 2 ** 53

# blocks with fewer nonzero columns than this run the sparse in-call loop;
# near the measured break-even, since wider blocks fill in as rows enter
SPARSE_WIDTH = 320


class PrimeBasis:
    """Fully reduced echelon basis of vectors over F_p.

    Each stored row is its pivot column, where it holds an implicit 1, plus
    its nonzero entries off that pivot, kept as three aligned arrays of row,
    column and value.  No zero value is stored, and nothing of size length²
    is ever allocated: a basis that reaches full rank is the identity and
    stores no entry at all.
    """

    def __init__(self, modulus: int, length: int):
        if (modulus - 1) ** 2 >= FLOAT_EXACT:
            raise ValueError(f"modulus {modulus} leaves no exact float64 product "
                             "((p-1)^2 must be below 2^53)")
        self.p = modulus
        self.length = length
        self.rank = 0
        # inner terms per exact slab of a product
        self._slab = (FLOAT_EXACT - 1) // (modulus - 1) ** 2
        self._pivot_cols = np.zeros(length, dtype=np.int64)
        self._pivot_row = np.full(length, -1, dtype=np.int64)  # -1: not a pivot
        # row, column and value of every stored nonzero off its row's pivot
        self._off_rows = np.zeros(0, dtype=np.int64)
        self._off_cols = np.zeros(0, dtype=np.int64)
        self._off_vals = np.zeros(0, dtype=np.float64)

    @property
    def rows(self) -> np.ndarray:
        """The stored rows as exact residues, densified into a new
        rank x length array: a copy, not a view of the store."""
        return self.dense_rows(0, self.rank)

    def dense_rows(self, start: int, stop: int) -> np.ndarray:
        """Stored rows start..stop-1 as a dense copy on every column."""
        at = (self._off_rows >= start) & (self._off_rows < stop)
        out = np.zeros((stop - start, self.length))
        out[self._off_rows[at] - start, self._off_cols[at]] = self._off_vals[at]
        out[np.arange(stop - start), self._pivot_cols[start:stop]] = 1
        return out

    def _off_pivot(self, rows: np.ndarray, cols: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The sorted stored `rows` on the sorted columns `cols`, off their
        pivots: the entries selected by the mask `at`, which must all lie in
        those rows and columns."""
        out = np.zeros((len(rows), len(cols)))
        out[np.searchsorted(rows, self._off_rows[at]),
            np.searchsorted(cols, self._off_cols[at])] = self._off_vals[at]
        return out

    def _mod(self, x: np.ndarray) -> np.ndarray:
        """Residues in [0, p) of float64 integers below 2^53 in magnitude.

        Every such float64 converts to int64 exactly, the int64 remainder by
        p is exact and lies in [0, p), and a value below p < 2^53 converts
        back to float64 exactly.  So the result is the integer residue at
        every size and sign, with no rounding anywhere.
        """
        r = x.astype(np.int64)
        r %= self.p
        return r.astype(np.float64)

    def _sub_product(self, a: np.ndarray, c: np.ndarray, r: np.ndarray) -> np.ndarray:
        """(a - c @ r) mod p for residues, c a row or a matrix: each inner
        term lies in [0, (p-1)^2], so with at most `_slab` terms per slab and
        a mod p after each, every sum below stays an exact float64 integer."""
        for lo in range(0, c.shape[-1], self._slab):
            a = self._mod(a - c[..., lo:lo + self._slab] @ r[lo:lo + self._slab])
        return a

    def quotient_cols(self) -> np.ndarray:
        """C: the non-pivot columns and the pivots of the rows with an
        off-pivot entry, sorted; the residual of a vector depends on it only
        at these columns (see the module docstring)."""
        return np.union1d(np.flatnonzero(self._pivot_row < 0),
                          self._pivot_cols[np.unique(self._off_rows)])

    def reduce_block(self, block: np.ndarray, cols) -> tuple[np.ndarray, np.ndarray]:
        """Reduce every row of an integer block against the basis; returns the
        residual in residues and the sorted columns it is given on.

        `block[:, k]` is the value at column `cols[k]`; `cols` is a strictly
        increasing integer array and may leave out only columns that cannot
        change the residual (see the module docstring).  Entries must be
        below 2^53 in magnitude.  The residual is given on `cols` plus the
        support of the stored rows that the block hits, and is zero at every
        other column.
        """
        cols = np.asarray(cols)
        if cols.size and cols.dtype.kind not in "iu":
            raise ValueError(f"cols must be an integer array, not {cols.dtype}")
        cols = cols.astype(np.int64)
        if block.ndim != 2 or block.shape[1:] != cols.shape:
            raise ValueError(f"expected a block with one column per col ({len(cols)})")
        if len(cols) and (cols[0] < 0 or cols[-1] >= self.length
                          or np.any(cols[1:] <= cols[:-1])):
            raise ValueError(f"cols must be strictly increasing in [0, {self.length})")
        out = self._mod(block)
        at_pivot = np.flatnonzero(self._pivot_row[cols] >= 0)
        hit = np.flatnonzero(out[:, at_pivot].any(axis=1))
        if not len(hit):
            return out, cols
        # the hit pivots, ordered by their stored row
        used = at_pivot[out[np.ix_(hit, at_pivot)].any(axis=0)]
        stored = self._pivot_row[cols[used]]
        order = np.argsort(stored)
        stored, used = stored[order], used[order]
        coeffs = out[np.ix_(hit, used)]
        is_stored = np.zeros(self.rank, dtype=bool)
        is_stored[stored] = True
        at = is_stored[self._off_rows]
        support = np.unique(self._off_cols[at])
        out_cols = np.union1d(cols, support)
        if len(out_cols) > len(cols):
            wide = np.zeros((len(out), len(out_cols)))
            wide[:, np.searchsorted(out_cols, cols)] = out
            out = wide
        # a stored row cancels the block at its own pivot and is zero at
        # every other pivot, so only its off-pivot entries need a product
        out[np.ix_(hit, np.searchsorted(out_cols, cols[used]))] = 0
        if len(support):
            sub = np.ix_(hit, np.searchsorted(out_cols, support))
            out[sub] = self._sub_product(out[sub], coeffs,
                                         self._off_pivot(stored, support, at))
        return out, out_cols

    def _insert_reduced(self, block: np.ndarray, cols: np.ndarray) -> int:
        """Insert the rows of a block already reduced against the basis and
        given on the sorted global columns `cols`, until the rank is full.

        The rows that enter are combinations of block rows, so the in-call
        elimination runs on the block's own nonzero columns: a row is
        reduced only against the rows that entered earlier in this call,
        which are zero at the old pivots and fully reduced among themselves.
        So each residual, and its pivot, is the one a fully reduced basis
        would give.  Fewer than SPARSE_WIDTH such columns go to the sparse
        loop, SPARSE_WIDTH or more to the dense one; both return the same
        rows.  The stored rows are brought to zero at the new pivots once, at
        the end, which leaves the unique fully reduced basis with this pivot
        sequence.  A new row is zero off those nonzero columns, none of which
        is an old pivot, so the update changes only those columns of the
        older rows it hits, and never their pivots.
        """
        nonzero_cols = block.any(axis=0)
        cols = cols[nonzero_cols]
        todo = block[:, nonzero_cols]
        todo = todo[todo.any(axis=1)]
        room = self.length - self.rank  # rows past a full rank reduce to zero
        eliminate = self._eliminate_sparse if len(cols) < SPARSE_WIDTH else self._eliminate_dense
        new, pivots = eliminate(todo, room)
        start, end = self.rank, self.rank + len(new)
        self._pivot_cols[start:end] = cols[pivots]
        self._pivot_row[self._pivot_cols[start:end]] = np.arange(start, end)
        # older rows with an off-pivot nonzero at one of the new pivots; they
        # change only at cols, so their entries there are taken out and
        # stored again once updated
        hit = np.unique(self._off_rows[self._pivot_row[self._off_cols] >= start])
        in_hit = np.zeros(start, dtype=bool)
        in_hit[hit] = True
        in_cols = np.zeros(self.length, dtype=bool)
        in_cols[cols] = True
        at = in_hit[self._off_rows] & in_cols[self._off_cols]
        older = self._off_pivot(hit, cols, at)
        older = self._sub_product(older, older[:, pivots], new)
        keep = ~at  # every other entry is unchanged
        r, c = np.nonzero(older)
        nr, nc = np.nonzero(new)
        new_off = nc != pivots[nr]
        nr, nc = nr[new_off], nc[new_off]
        self._off_rows = np.concatenate([self._off_rows[keep], hit[r], start + nr])
        self._off_cols = np.concatenate([self._off_cols[keep], cols[c], cols[nc]])
        self._off_vals = np.concatenate([self._off_vals[keep], older[r, c], new[nr, nc]])
        self.rank = end
        return len(new)

    def _eliminate_dense(self, todo: np.ndarray, room: int) -> tuple[np.ndarray, np.ndarray]:
        """The in-call elimination on float64 rows: at most `room` fully
        reduced rows, in the order they entered, and their pivots as indices
        into the block's columns; every multi-term product goes through
        `_sub_product`."""
        new = np.zeros_like(todo)
        pivots = np.zeros(len(todo), dtype=np.int64)
        added = 0
        for row in todo:
            if added:
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
                new[hit] = self._mod(new[hit] - col[hit, None] * row)
            pivots[added] = pivot
            new[added] = row
            added += 1
            if added == room:
                break
        return new[:added], pivots[:added]

    def _eliminate_sparse(self, todo: np.ndarray, room: int) -> tuple[np.ndarray, np.ndarray]:
        """The same elimination on {column: residue} rows of Python ints,
        each value reduced mod p as it is formed, so it is exact at any p
        with no float window.  A row's coefficients at the entered pivots
        are read as it is reduced: an entered row is zero at every other
        entered pivot, so subtracting it changes none of them.  `holders`
        maps a column to the entered rows that may be nonzero there off
        their pivot, a superset of the rows a new pivot there must clear."""
        p = self.p

        def subtract(target: dict[int, int], coeff: int, source: dict[int, int]) -> None:
            for j, v in source.items():
                x = (target.get(j, 0) - coeff * v) % p
                if x:
                    target[j] = x
                else:
                    del target[j]

        rows: list[dict[int, int]] = [{} for _ in range(len(todo))]
        r, c = np.nonzero(todo)
        for i, j, v in zip(r.tolist(), c.tolist(), todo[r, c].astype(np.int64).tolist()):
            rows[i][j] = v
        new: list[dict[int, int]] = []
        pivots: list[int] = []
        pivot_of: dict[int, int] = {}
        holders: dict[int, set[int]] = {}
        for row in rows:
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
            if len(new) == room:
                break
        out = np.zeros((len(new), todo.shape[1]))
        at = [i for i, row in enumerate(new) for _ in row]
        out[at, [j for row in new for j in row]] = [v for row in new for v in row.values()]
        return out, np.array(pivots, dtype=np.int64)

    def insert(self, vec) -> bool:
        """Insert one vector; True iff it was independent and the rank grew."""
        row = np.asarray(vec, dtype=np.int64)[None, :] % self.p
        return self.insert_block(row, np.arange(self.length)) == 1

    def insert_block(self, block: np.ndarray, cols) -> int:
        """Insert the rows of a residue block in order; returns how many entered.

        `block[:, k]` is the value at column `cols[k]`, as in reduce_block:
        `cols` is strictly increasing, and the caller promises that no
        other column can change a row's residual.  Every column, the
        quotient columns C of `quotient_cols`, or the block's own support
        all qualify and give the same result; a C too small gives a wrong
        one, with no error.  The result is identical to one call per row;
        once the rank is full the call stops reading rows.  The block
        is reduced against the stored rows once; a row is then reduced only
        against the rows that entered earlier in the same call, and the
        stored rows are brought to zero at the new pivots in one restricted
        product at the end; `_sub_product` keeps every product exact.  The
        in-call loop is the sparse one, on Python ints reduced mod p, when
        the reduced block has fewer than SPARSE_WIDTH nonzero columns, and
        the dense float64 one otherwise; both store the same rows (see the
        module docstring).  A call takes at most 2048 rows, which bounds its
        working copy of the block.  The closure offers 64 seeds per call,
        then whole sources of 2(t+1) rows each, ceil(256 / (2(t+1))) sources
        per call: each round-1 call at (400,201) offers 1000 rows.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.shape[0] > 2048:
            raise ValueError("insert_block is limited to 2048 rows per call")
        return self._insert_reduced(*self.reduce_block(block, cols))


class RationalBasis:
    """Sparse fully reduced echelon basis over the rationals.

    Rows are {column: value} dicts with no zero value.  An integral value is
    a Python int and any other an exact Fraction; a Fraction arises only
    when a pivot's inverse is not integral, so a basis whose pivots are all
    +-1, as in the commutant solve, runs on integers alone.  Slow but
    exact; used by the optional rational confirmation mode and the
    desk-scale commutant solve.
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
