"""The eliminating closure over a prime field: the reference that the
closure's counted rank history is checked against.

`terwilliger.algebra` counts the rank history of the closure from three
labels of each orbit (`_GeneratorProducts.rank_history`) and forms no
basis.  This module runs the same spin-up by elimination in a
`terwilliger.modular.PrimeBasis`, in the rounds the algebra docstring
describes: the generators as seeds, then their masked products, then the
cells E*_k A_i E*_j where they reach the bound, else the left products of
the rows the round before added.  It reads the package's labels, so it
lives here rather than in `helpers`, whose oracles share no package code.
It also runs where the count does not decide round 2 (S4, S5, S6), which
pins those closures' histories and final bases.

Its elements are formed in the coordinates of `pair_orbits`: the orbit id
of every one of the |G|^2 pairs, which left products read.  The package
reads only the representatives (`terwilliger.groups.orbit_reps`), so that
enumeration lives here with the one closure that needs it.

`rational_closure` is a second reference: the closure rerun over the
rationals on dense |G| x |G| generators, two-sided, in a given seed order.
It lives here because the count reaches the orbital bound for every
D(n,s), so a rerun can only agree, and it is slow beyond small groups.

Run the tests with `tests` on the path (pytest's conftest puts it there);
a script can do the same with `PYTHONPATH=src:tests`.
"""

from __future__ import annotations

import numpy as np

from terwilliger.algebra import _check_budget, _GeneratorProducts
from terwilliger.groups import ConsistencyError, GroupTable, _least_conjugates
from terwilliger.modular import PrimeBasis, RationalBasis
from terwilliger.scheme import SchemeData

BATCH_ENTRIES = 2 ** 16  # dense values of later-round products per insert_block call


def pair_orbits(group: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of G on G x G under simultaneous conjugation, enumerated explicitly.

    Pair (x, y) has key x*order + y.  The least first entry of the orbit of
    (x, y) is r, the least element of x's class, and some g_x takes x to r.
    The orbit's pairs with first entry r are those that the centralizer C(r)
    moves (r, g_x y g_x^-1) to (see orbit_reps: they are one C(r)-orbit on
    G), so its least key is r*order + row_r[z] with z = g_x y g_x^-1, and
    every least key is gathered at once from the rows of _least_conjugates.
    Each orbit has exactly one pair that equals its own least key.  Returns
    (ids, reps): reps are those keys in increasing order, the same as
    orbit_reps, and ids[x, y] indexes the orbit of (x, y) in reps.
    """
    _, slot, rows = _least_conjugates(group)
    conj = group.conjugation()
    least_x = conj.min(axis=0)
    order = group.order
    back = np.argmax(conj == least_x, axis=0)  # conjugation by back[x] takes x to least_x[x]
    least = rows[slot[least_x][:, None], conj[back]]
    least += least_x[:, None] * order
    isrep = least.ravel() == np.arange(order * order)
    return (np.cumsum(isrep) - 1)[least], np.flatnonzero(isrep)


class GeneratorProducts(_GeneratorProducts):
    """The package's labels plus left multiplication by every A_i and E*_i,
    in orbital coordinates: (A_i M)[u, v] = sum over c in Cl_i of
    M[c u, v], for all classes in one gather plus one segment sum.  `ids`
    and `reps` are those of pair_orbits."""

    def __init__(self, scheme: SchemeData, ids: np.ndarray, reps: np.ndarray):
        self.ids = ids
        super().__init__(scheme, reps)
        classes = scheme.classes
        self.elems = np.concatenate([np.asarray(c, dtype=np.int64) for c in classes.classes])
        self.offsets = np.cumsum([0] + [len(c) for c in classes.classes])[:-1]
        self.mult = scheme.group.mult
        self.identity_class = scheme.identity_class
        self.u, self.v = np.divmod(reps, scheme.order)

    def _check_invariants(self, scheme: SchemeData, class_of: np.ndarray) -> None:
        """The package's guard, then the reference's own, on the ids it forms
        elements in: M[x, y] is m[ids[x, y]], so the labels at the
        representatives must be those of every pair of their orbit.  The
        relations of all pairs are its own dense Q[x, y] = class of y x^-1."""
        super()._check_invariants(scheme, class_of)
        q = _dense_q(scheme.group, class_of)
        if not (np.array_equal(self.relation[self.ids], q)
                and np.all(self.class_u[self.ids] == class_of[:, None])
                and np.all(self.class_v[self.ids] == class_of)):
            raise ConsistencyError("a generator is not constant on the pair orbits")

    def seeds(self, order: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 0/1 row of every generator g, A_g for g <= t, else E*_(g-t-1),
        in the permutation `order` of them, as entries (row, column, value 1)
        sorted by row and column: a column lies in the A_g of its relation
        and, if that is the identity relation, in the E*_j of its class_u."""
        row_of = np.argsort(order)
        diagonal = np.flatnonzero(self.relation == self.identity_class)
        rows = np.concatenate([row_of[self.relation], row_of[self.t1 + self.class_u[diagonal]]])
        cols = np.concatenate([np.arange(len(self.relation)), diagonal])
        return _by_row(rows, cols)

    def masked_generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows E*_j A_i, then A_i E*_j, for every relation i and every j
        from t down to 0, as entries (row, column, value 1) sorted by row
        and column.  A_i A_j lies in the span of the A's (the scheme
        product identity) and E*_i E*_j in the span of the E*'s, so these
        are the generator products that can grow the span of the generators.
        A column of relation i lies in exactly two of these rows, E*_j A_i
        with j its class_u and A_i E*_j with j its class_v, so both row
        indices are computed from its labels.

        The order is descending so that rows do not fill in.  The seed A_i
        has its pivot at a pair (e, v), so the row E*_k A_i of the
        identity's class k has the dense residual -sum over k' != k of
        E*_k' A_i; offered early, it enters dense and every later row must
        clear it again.  The identity's class comes early in the canonical
        order (index tau - 1 for D(n,s)), so here that row comes late and
        reduces to zero, or nearly, against the disjoint rows already in."""
        t1 = self.t1
        last = self.relation * 2 * t1 + t1 - 1  # the row E*_0 A_i
        rows = np.concatenate([last - self.class_u, last + t1 - self.class_v])
        cols = np.arange(len(self.relation))
        return _by_row(rows, np.concatenate([cols, cols]))

    def cells(self):
        """The cells E*_k A_i E*_j: one 0/1 row per nonempty (class_u,
        relation, class_v).  Returns their number and one block of their
        entries (row, column, value 1), sorted by row and column, in the
        order of that key: one stable argsort of the key groups them, each
        with its columns in order."""
        t1 = self.t1
        key = (self.class_u * t1 + self.relation) * t1 + self.class_v
        order = np.argsort(key, kind="stable")
        cell = np.cumsum(np.diff(key[order], prepend=key[order[0]]) != 0)
        return int(cell[-1]) + 1, (cell, order, np.ones(len(order), dtype=np.int64))

    def all_products(self, cols: np.ndarray):
        """The map m -> stack of the 2*(t+1) left products [A_i M | E_i M],
        read at `cols` only: each product entry needs only its own column's
        gather.  The gather index for `cols` is taken here, once, so one map
        serves a whole closure round.  It is built per column and transposed,
        so that the segment sums over each class run on contiguous memory.
        The products are float64 sums of a class's worth of residues, exact
        for every modulus that `check_modulus` accepts."""
        index = self.ids[self.mult[self.elems, self.u[cols, None]], self.v[cols, None]].T
        masks = self.class_u[cols] == np.arange(self.t1)[:, None]
        masks = masks.astype(np.float64)  # once, not per m

        def products(m: np.ndarray) -> np.ndarray:
            left = np.add.reduceat(m[index], self.offsets, axis=0)
            return np.concatenate([left, masks * m[cols]])
        return products


def _dense_q(group: GroupTable, class_of: np.ndarray) -> np.ndarray:
    """The reference's own Q[x, y] = class of y x^-1, read off the table."""
    return class_of[group.mult[:, group.inv]].T


def _by_row(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0/1 entries sorted by row, the columns of each row kept in order."""
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], np.ones(len(rows), dtype=np.int64)


def modular_closure(basis: PrimeBasis, products: GeneratorProducts,
                    order: list[int], bound: int) -> tuple[int, list[int]]:
    """Saturate the algebra of the generators, seeded in `order`, in a fresh
    basis over F_p; returns the rounds and the rank history (after the
    seeds, then after each round).

    Round 1 inserts the masked products E*_j A_i and A_i E*_j as one 0/1
    block.  Round 2 inserts the cells E*_k A_i E*_j as one 0/1 block when
    they are at least as many as the bound: they are then independent
    words of length 3 that span T0 = T~, so the round ends at the bound
    with the rank the left products would reach.  Otherwise the cells are
    left out, since they would change the rows whose products the round
    takes, and round 2, like every later round, inserts the left products
    of the rows the round before added.  Those sources are read once, as
    dense rows, when the round starts, so a round offers no longer word.
    Their products are formed on the quotient columns C of the basis taken
    then (C only shrinks as rows enter; see the modular docstring), in
    calls of whole sources of about BATCH_ENTRIES dense values each;
    insert_block gives the same basis however the rows are split.  The
    loop ends at the bound or after a round that adds nothing, within the
    package's ROUND_BUDGET.
    """
    count, cells = products.cells()
    basis.insert_block(*products.seeds(order))
    history, rounds = [basis.rank], 0
    while basis.rank < bound:
        rounds += 1
        _check_budget(rounds)
        if rounds == 1:
            basis.insert_block(*products.masked_generators())
        elif rounds == 2 and count >= bound:
            basis.insert_block(*cells)
        else:
            cols = basis.quotient_cols()
            multiply = products.all_products(cols)
            sources = basis.dense_rows(history[-2], history[-1])
            step = max(1, BATCH_ENTRIES // max(2 * products.t1 * len(cols), 1))
            for lo in range(0, len(sources), step):
                block = np.concatenate([multiply(m) for m in sources[lo:lo + step]])
                rows, at = np.nonzero(block)
                basis.insert_block(rows, cols[at], block[rows, at])
                if basis.rank >= bound:
                    break
        history.append(basis.rank)
        if history[-1] == history[-2]:
            break
    return rounds, history


def rational_closure(scheme: SchemeData, order: list[int]) -> int:
    """The rank over Q of the algebra of the generators, seeded in `order`:
    A_i = (Q == i) for i <= t, then E*_i = diag(class_of == i), as dense
    |G| x |G| matrices.  Every round multiplies the rows the round before
    added by every generator on both sides, the independent check of the
    left-only spin-up; the loop ends after a round that adds nothing, within
    the package's ROUND_BUDGET.  Exact, and slow beyond small groups."""
    class_of = np.asarray(scheme.classes.class_of, dtype=np.int64)
    q = _dense_q(scheme.group, class_of)
    t1 = scheme.num_relations
    gens = [(q == i).astype(np.int64) for i in range(t1)]
    gens += [np.diag((class_of == i).astype(np.int64)) for i in range(t1)]
    gens = [gens[g] for g in order]
    basis = RationalBasis(scheme.order ** 2)
    # object arrays keep the products in exact Python ints
    frontier = [g.astype(object) for g in gens if basis.insert(g.reshape(-1).tolist())]
    rounds = 0
    while frontier:
        rounds += 1
        _check_budget(rounds)
        frontier = [prod for m in frontier for g in gens for prod in (g @ m, m @ g)
                    if basis.insert(prod.reshape(-1).tolist())]
    return basis.rank
