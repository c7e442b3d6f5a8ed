"""Terwilliger algebra at the identity: dual idempotents, closure, certificates.

The algebra is generated by the relation matrices A_i together with the dual
idempotents E*_i (diagonal class indicators, since the base point is the
identity).  Its dimension is pinned by a sandwich: the span of the products
E*_i A_j E*_k gives a lower bound (counted in the scheme module), and the
centralizer algebra of the conjugation action on pairs gives an upper bound
equal to the orbital count.  The closure computed here is a rank over two
prime fields; a modular rank can only undershoot the rational one, so when
it reaches the orbital bound the dimension is certified exactly, and
otherwise it is reported with modular provenance (with an optional rational
rerun for small groups).  The centralizer algebra is spanned by the 0/1
orbital matrices, which have disjoint supports, so the closure keeps every
element in orbital coordinates: its values at one representative pair per
orbit, a faithful coordinate system for the whole algebra over any field.

The saturation is a spin-up (Parker's MeatAxe) in rounds.  The generators
are inserted first; round 1 offers their masked products E*_j A_i and
A_i E*_j; every later round multiplies the rows the round before added by
the generators on the left only.  The seeds span I = sum of the E*_i, and a
span that holds I and is closed under left multiplication by each generator
holds every word in them, so it is the algebra.  The loop ends at the
orbital bound or after a round that adds nothing, within ROUND_BUDGET
rounds.  The rounds and the rank histories equal those of a two-sided
saturation: after round r both span exactly the words of length <= r+1.
Wherever T0 = T~, as for every D(n,s), which is triply transitive, round 2
offers only the cells E*_k A_i E*_j, words of length 3 read from the same
labels with disjoint supports; they alone end the round at the bound, and
no left product is formed.  Round 1 offers its rows by descending class,
an order in which they do not fill in.

Through round 1, and through a round 2 that the cells end, the rank
history does not depend on the field, and it is counted from the labels
(`_GeneratorProducts.rank_history`) without forming a basis.  The seeds
have rank 2t + 1 for any group: A_identity is the sum of the E*_j, and the
other A_i and the E*_j have disjoint nonempty supports.  Round 1's rows of
different relations share no column, and within relation i every column
lies in exactly one row E*_j A_i and one row A_i E*_j, so those rows are
the vertex-edge incidence matrix of a bipartite graph whose vertices are
the nonempty rows and whose edges are the columns.  Such a matrix is
totally unimodular (Heller-Tompkins), so its rank over Q and over every
F_p is the number of vertices less the number of components; the seeds lie
in its span (A_i = sum of the E*_j A_i, and E*_j = E*_j A_identity).  The
cells are nonempty 0/1 rows with disjoint supports, each a union of
orbits, so when they are at least as many as the bound they are the orbits
themselves, and round 2 ends at the bound over every field.  For every
D(n,s) this decides the whole closure, and the two prime histories agree
by this argument rather than by two computations.  Where round 2 needs
left products (S4, say), the closure eliminates over each prime: each gets
a fresh basis that is dropped once its history is taken, so only one basis
is alive at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .groups import ConsistencyError, GroupTable, _components, orbital_count
from .modular import DEFAULT_PRIMES, PrimeBasis, RationalBasis
from .scheme import SchemeData

COMMUTANT_ORDER_LIMIT = 16
BATCH_ENTRIES = 2 ** 16  # dense values of later-round products per insert_block call
ROUND_BUDGET = 32  # a closure that needs more rounds is reported as a defect

PROVENANCE_EXACT = "exact"
PROVENANCE_RATIONAL = "exact-rational"
PROVENANCE_MODULAR = "modular, two-prime agreement"


@dataclass(frozen=True)
class DualIdempotents:
    """Diagonal 0/1 idempotents; row i indicates membership in class i."""

    diagonals: np.ndarray  # (num classes, group order)


def dual_idempotents(scheme: SchemeData) -> DualIdempotents:
    """E*_i = diag(indicator of Cl_i); verifies the orthogonal idempotent laws."""
    classes = scheme.classes
    sizes = np.array(classes.sizes())
    members = np.fromiter(itertools.chain.from_iterable(classes.classes),
                          dtype=np.int64, count=int(sizes.sum()))
    diag = np.zeros((classes.num_classes, scheme.order), dtype=np.int64)
    diag[np.repeat(np.arange(classes.num_classes), sizes), members] = 1
    if not np.all(diag.sum(axis=0) == 1):
        raise ConsistencyError("dual idempotents do not sum to the identity")
    if not np.array_equal(diag.sum(axis=1), sizes):
        raise ConsistencyError("dual idempotent trace differs from class size")
    return DualIdempotents(diagonals=diag)


@dataclass(frozen=True)
class DimensionCertificate:
    """Dimension of the algebra with its provenance and its upper bound dim T~."""

    dim_t: int
    dim_t_tilde: int
    provenance: str
    closure_rounds: int
    basis_size_history: tuple[tuple[int, ...], tuple[int, ...]]
    primes: tuple[int, int]


class _GeneratorProducts:
    """Left multiplication by every A_i and E*_i, in orbital coordinates.

    Every element of T lies in T~, so it is constant on the orbits of G on
    pairs and is stored as its values at the representative pairs: M[x, y]
    is m[ids[x, y]].  Every generator and every mask is a predicate on three
    labels of a representative (u, v): its relation, the class of v u^-1,
    and class_u and class_v, the classes of u and v.  A_i is relation == i;
    E*_j is E*_j A_identity, the pairs with relation == identity_class and
    class_u == j; E*_j M keeps the pairs with class_u == j, and M E*_j those
    with class_v == j.  All three labels are checked to be orbit invariants,
    and every 0/1 row is read off them as its nonzero entries.  Then
    (A_i M)[u, v] = sum over c in Cl_i of M[c u, v], for all classes in one
    gather plus one segment sum.
    """

    def __init__(self, scheme: SchemeData, ids: np.ndarray, reps: np.ndarray):
        group, classes = scheme.group, scheme.classes
        self.elems = np.concatenate([np.asarray(c, dtype=np.int64) for c in classes.classes])
        self.offsets = np.cumsum([0] + [len(c) for c in classes.classes])[:-1]
        self.mult, self.ids = group.mult, ids
        self.identity_class = scheme.identity_class
        self.u, self.v = np.divmod(reps, group.order)
        class_of = np.asarray(classes.class_of, dtype=np.int64)
        self.relation = scheme.class_matrix[self.u, self.v]
        self.class_u, self.class_v = class_of[self.u], class_of[self.v]
        # the labels determine the generators only if they are orbit invariants
        if not (np.array_equal(self.relation[ids], scheme.class_matrix)
                and np.all(self.class_u[ids] == class_of[:, None])
                and np.all(self.class_v[ids] == class_of)):
            raise ConsistencyError("a generator is not constant on the pair orbits")

    def seeds(self, order: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 0/1 row of every generator g, A_g for g <= t, else E*_(g-t-1),
        in the permutation `order` of them, as entries (row, column, value 1)
        sorted by row and column: a column lies in the A_g of its relation
        and, if that is the identity relation, in the E*_j of its class_u."""
        t1 = len(self.offsets)
        row_of = np.argsort(order)
        diagonal = np.flatnonzero(self.relation == self.identity_class)
        rows = np.concatenate([row_of[self.relation], row_of[t1 + self.class_u[diagonal]]])
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
        t1 = len(self.offsets)
        last = self.relation * 2 * t1 + t1 - 1  # the row E*_0 A_i
        rows = np.concatenate([last - self.class_u, last + t1 - self.class_v])
        cols = np.arange(len(self.relation))
        return _by_row(rows, np.concatenate([cols, cols]))

    def cells(self):
        """The cells E*_k A_i E*_j: one 0/1 row per nonempty (class_u,
        relation, class_v), the pairs with class(u) = k, relation i and
        class(v) = j.  Returns their number and one block of their entries
        (row, column, value 1), sorted by row and column, in the order of
        that key.  Every column lies in exactly one cell, so the cells are
        independent, span T0, and one stable argsort of the key groups
        them, each with its columns in order."""
        t1 = len(self.offsets)
        key = (self.class_u * t1 + self.relation) * t1 + self.class_v
        order = np.argsort(key, kind="stable")
        cell = np.cumsum(np.diff(key[order], prepend=key[order[0]]) != 0)
        return int(cell[-1]) + 1, (cell, order, np.ones(len(order), dtype=np.int64))

    def rank_history(self, bound: int) -> list[int] | None:
        """The rank after the seeds and after each round of the closure,
        over Q and over every F_p, counted from the labels; None when round
        2 is reached and the cells fall short of the bound, since its left
        products are then not decided by the labels (see the module
        docstring).  The rounds end as `_modular_closure`'s do: at the
        bound, or after a round that adds nothing."""
        t1 = len(self.offsets)
        history = [2 * t1 - 1]
        if history[0] < bound:
            history.append(_round_one_rank(self.relation, self.class_u, self.class_v, t1))
        if history[0] < history[-1] < bound:
            if self.cells()[0] < bound:
                return None
            history.append(bound)
        return history

    def all_products(self, cols: np.ndarray):
        """The map m -> stack of the 2*(t+1) left products [A_i M | E_i M],
        read at `cols` only: each product entry needs only its own column's
        gather.  The gather index for `cols` is taken here, once, so one map
        serves a whole closure round.  It is built per column and transposed,
        so that the segment sums over each class run on contiguous memory."""
        index = self.ids[self.mult[self.elems, self.u[cols, None]], self.v[cols, None]].T
        masks = self.class_u[cols] == np.arange(len(self.offsets))[:, None]
        masks = masks.astype(np.float64)  # once, not per m

        def products(m: np.ndarray) -> np.ndarray:
            left = np.add.reduceat(m[index], self.offsets, axis=0)
            return np.concatenate([left, masks * m[cols]])
        return products


def _round_one_rank(relation: np.ndarray, class_u: np.ndarray, class_v: np.ndarray,
                    t1: int) -> int:
    """The rank of the rows E*_j A_i and A_i E*_j, given the labels of each
    column: the number of nonempty rows less the number of components of
    the graph whose vertices are those rows and whose edges are the
    columns, each joining the two rows it lies in.  Row E*_j A_i is vertex
    i * t1 + j and row A_i E*_j is (t1 + i) * t1 + j, so the used vertices
    are marked by one bincount and renumbered densely."""
    left = relation * t1 + class_u
    right = (t1 + relation) * t1 + class_v
    vertex = np.cumsum(np.bincount(np.concatenate([left, right])) > 0) - 1
    return int(vertex[-1]) + 1 - _components(vertex[left], vertex[right])


def _by_row(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0/1 entries sorted by row, the columns of each row kept in order."""
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], np.ones(len(rows), dtype=np.int64)


def _modular_closure(basis: PrimeBasis, products: _GeneratorProducts,
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
    loop ends at the bound or after a round that adds nothing.
    `algebra_closure` runs it only where `_GeneratorProducts.rank_history`
    does not count the history.
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
            step = max(1, BATCH_ENTRIES // max(2 * len(products.offsets) * len(cols), 1))
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


def _check_budget(rounds: int) -> None:
    if rounds > ROUND_BUDGET:
        raise ConsistencyError(f"closure did not stabilize within {ROUND_BUDGET} rounds")


def _rational_closure(scheme: SchemeData, idem: DualIdempotents,
                      seed_order: list[int]) -> int:
    """The same saturation over the rationals, on dense generators; exact but
    only for small groups."""
    order = scheme.order
    basis = RationalBasis(order * order)
    t1 = scheme.num_relations
    gens = [scheme.adjacency(i) for i in range(t1)]
    gens += [np.diag(idem.diagonals[i]) for i in range(t1)]
    gens = [gens[i] for i in seed_order]
    frontier: list[np.ndarray] = []
    for seed in gens:
        if basis.insert(seed.reshape(-1).tolist()):
            frontier.append(seed.astype(object))
    rounds = 0
    while frontier:
        rounds += 1
        _check_budget(rounds)
        new: list[np.ndarray] = []
        for m in frontier:
            for g in gens:
                # two-sided on purpose: the independent reference for the spin-up
                for prod in (g @ m, m @ g):
                    if basis.insert(prod.reshape(-1).tolist()):
                        new.append(prod)
        frontier = new
    return basis.rank


def dim_t_tilde(group: GroupTable, reps: np.ndarray | None = None) -> int:
    """Dimension of the centralizer algebra: the orbital count (dual-route),
    checked against the representatives `reps` of an enumeration already
    made, if given."""
    return orbital_count(group, reps)


def algebra_closure(scheme: SchemeData, idem: DualIdempotents, *,
                    dim_t0_value: int,
                    orbits: tuple[np.ndarray, np.ndarray],
                    primes: tuple[int, int] = DEFAULT_PRIMES,
                    seed_order: list[int] | None = None,
                    exact_rational: bool = False) -> DimensionCertificate:
    """Generator-closure dimension of the algebra, with provenance.

    The rank history is counted from the closure's labels wherever they
    decide it (`_GeneratorProducts.rank_history`), as they do for every
    D(n,s).  That count does not depend on the field: the seeds and the
    cells are disjoint 0/1 rows, and round 1's rows are the incidence
    matrices of bipartite graphs, which are totally unimodular.  So it is
    the history over each prime, and no basis is formed.  Otherwise one
    independent saturation runs per prime (`_modular_closure`), and the two
    ranks must agree.  Early exit happens at the centralizer bound, which
    also upgrades the modular rank to an exact certificate.

    `orbits` is the `(ids, reps)` of `pair_orbits(scheme.group)`, which the
    caller enumerates once for its own orbital check as well.  Their number
    is checked against the Burnside count before it serves as the bound.
    """
    if primes[0] == primes[1]:
        raise ValueError("the two moduli must be distinct primes")
    canonical = list(range(2 * scheme.num_relations))
    seed_order = canonical if seed_order is None else list(seed_order)
    if sorted(seed_order) != canonical:
        raise ValueError("seed_order must be a permutation of the generators")
    group = scheme.group
    ids, reps = orbits
    bound = dim_t_tilde(group, reps)
    products = _GeneratorProducts(scheme, ids, reps)

    history = products.rank_history(bound)
    if history is None:
        histories = [_modular_closure(PrimeBasis(p, len(products.u)), products,
                                      seed_order, bound)[1] for p in primes]
    else:
        _check_budget(len(history) - 1)
        histories = [history, history]
    ranks = [history[-1] for history in histories]
    if ranks[0] != ranks[1]:
        raise ConsistencyError(
            f"prime-field ranks disagree: {ranks[0]} mod {primes[0]} vs "
            f"{ranks[1]} mod {primes[1]}")
    dim_t = ranks[0]

    rational_rank = None
    if exact_rational:
        rational_rank = _rational_closure(scheme, idem, seed_order)
        if rational_rank < dim_t:
            raise ConsistencyError(
                f"rational rank {rational_rank} below modular rank {dim_t}")
        dim_t = rational_rank

    if dim_t == bound:
        provenance = PROVENANCE_EXACT
    elif rational_rank is not None:
        provenance = PROVENANCE_RATIONAL
    else:
        provenance = PROVENANCE_MODULAR

    if not (dim_t0_value <= dim_t <= bound):
        raise ConsistencyError(
            f"dimension sandwich violated: {dim_t0_value} <= {dim_t} <= {bound} fails")

    return DimensionCertificate(
        dim_t=dim_t,
        dim_t_tilde=bound,
        provenance=provenance,
        closure_rounds=max(len(history) for history in histories) - 1,
        basis_size_history=(tuple(histories[0]), tuple(histories[1])),
        primes=tuple(primes),
    )


def commutant_oracle(group: GroupTable) -> int:
    """Dimension of the commutant of the conjugation action on pairs.

    The commutant is the solution space of X(g) A = A X(g) over all g,
    where X(g) is the permutation matrix of x -> g x g^-1.  Entrywise the
    system says A[g.p] = A[p] for every g and every pair p = (u, v), with
    g.p = (g u g^-1, g v g^-1): one equation e_(g.p) - e_p = 0 per (g, p),
    every image read off one gather over the keys u * order + v.  Those
    equations are the rows of the incidence matrix of the directed graph
    with an edge p -> g.p for each (g, p), which is totally unimodular
    (Heller-Tompkins), so over the rationals its rank is the number of keys
    less the number of components, as `_round_one_rank` counts round 1's
    rank; the identity's row gives every key a loop, so every key is a
    vertex.  The dimension, keys less that rank, is the component count.
    It is the rank of the equations over every g, not a count of pair
    orbits, so it does not read them.  The solution space is spanned by
    the orbital matrices, so the result must equal the orbital count;
    callers compare the two.
    """
    order = group.order
    if order > COMMUTANT_ORDER_LIMIT:
        raise ValueError(
            f"commutant oracle is desk-scale only (order {order} > {COMMUTANT_ORDER_LIMIT})")
    conj = group.conjugation()
    u, v = np.divmod(np.arange(order * order), order)
    images = conj[:, u] * order + conj[:, v]  # images[g, p]: the key of g.p
    return _components(np.tile(np.arange(order * order), order), images.ravel())
