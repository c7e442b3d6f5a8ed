"""Terwilliger algebra at the identity: dual idempotents, closure, certificates.

The algebra is generated by the relation matrices A_i together with the dual
idempotents E*_i (diagonal class indicators, since the base point is the
identity).  Its dimension is pinned by a sandwich: the span of the products
E*_i A_j E*_k gives a lower bound (counted in the scheme module), and the
centralizer algebra of the conjugation action on pairs gives an upper bound
equal to the orbital count.  The closure's rank is counted here from
labels, and the count holds over Q and over every prime field, so when it
reaches the orbital bound the dimension is certified exactly.  It reaches
the bound on every input it decides, and raises on every other (see
algebra_closure).  The closure has this one path: it forms no basis and
no dense generator, and the dual idempotents are read as labels, so
`dual_idempotents` is a checked public function that the closure does
not call.  The centralizer algebra is spanned by the 0/1
orbital matrices, which have disjoint supports, so the closure keeps every
element in orbital coordinates: its values at one representative pair per
orbit, a faithful coordinate system for the whole algebra over any field.
The representatives are those of orbit_reps; no orbit id of the |G|^2
pairs is formed.

The saturation is a spin-up (Parker's MeatAxe) in rounds.  The generators
are the seeds; round 1 offers their masked products E*_j A_i and
A_i E*_j; every later round multiplies the rows the round before added by
the generators on the left only.  The seeds span I = sum of the E*_i, and a
span that holds I and is closed under left multiplication by each generator
holds every word in them, so it is the algebra.  The rounds end at the
orbital bound or after a round that adds nothing; the count here decides
at most two of them.  The rounds and the rank histories equal those of a
two-sided saturation: after round r both span exactly the words of
length <= r+1.
Wherever T0 = T~, as for every D(n,s), which is triply transitive, round 2
offers only the cells E*_k A_i E*_j, words of length 3 read from the same
labels with disjoint supports; they alone end the round at the bound, and
no left product is formed.

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
left products (S4, say), the labels do not decide it, and the closure
raises ConsistencyError naming the cells and the bound.  The test suite
keeps the eliminating closure over a prime field (tests/elimination.py) as
the reference this count is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .groups import ConjugacyData, ConsistencyError, GroupTable, _components, orbital_count

COMMUTANT_ORDER_LIMIT = 16
# the two largest primes below 2^20: the moduli every certificate records
DEFAULT_PRIMES: tuple[int, int] = (1048573, 1048571)

PROVENANCE_EXACT = "exact"


@dataclass(frozen=True)
class DualIdempotents:
    """Diagonal 0/1 idempotents; row i indicates membership in class i."""

    diagonals: np.ndarray  # (num classes, group order)


def dual_idempotents(classes: ConjugacyData) -> DualIdempotents:
    """E*_i = diag(indicator of Cl_i); verifies the orthogonal idempotent laws.

    A public function for callers that want the diagonals themselves; the
    closure reads E*_i as the class labels and does not call it."""
    sizes = np.array(classes.sizes())
    members = np.fromiter(itertools.chain.from_iterable(classes.classes),
                          dtype=np.int64, count=int(sizes.sum()))
    diag = np.zeros((classes.num_classes, len(classes.class_of)), dtype=np.int64)
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
    """The labels of the closure's generators, in orbital coordinates.

    Every element of T lies in T~, so it is constant on the orbits of G on
    pairs and is stored as its values at the representative pairs `reps`,
    one per orbit (orbit_reps).  Every generator and every mask is a
    predicate on three labels of a representative (u, v): its relation,
    the class of v u^-1 read off the Cayley table, and class_u and class_v,
    the classes of u and v.  A_i is relation == i; E*_j is E*_j A_identity,
    the pairs with relation == identity_class and class_u == j; E*_j M
    keeps the pairs with class_u == j, and M E*_j those with class_v == j.
    All three labels are orbit invariants once class_of is
    (`_check_invariants`), and the closure's rank history is counted from
    them.
    """

    def __init__(self, group: GroupTable, classes: ConjugacyData, reps: np.ndarray):
        u, v = np.divmod(reps, group.order)
        class_of = np.asarray(classes.class_of, dtype=np.int64)
        self.t1 = classes.num_classes
        self.relation = class_of[group.mult[v, group.inv[u]]]
        self.class_u, self.class_v = class_of[u], class_of[v]
        self._check_invariants(group, class_of)

    def _check_invariants(self, group: GroupTable, class_of: np.ndarray) -> None:
        """Raise ConsistencyError unless the three labels are constant on
        every orbit of pairs.  class_of must be unchanged by conjugation by
        every g in the group's generating_set, x -> g x g^-1; in a group,
        conjugation by a product is the composite of the conjugations, so
        class_of is then unchanged by every element, and so are class_u and
        class_v.  The relation needs no check of its own: it is
        class_of[v u^-1], read off the Cayley table by its definition, and
        conjugation by g takes v u^-1 to g (v u^-1) g^-1, of the same class.
        That is |G| entries per generator."""
        g = np.asarray(group.generating_set, dtype=np.int64)
        conjugated = group.mult[group.mult[g], group.inv[g][:, None]]
        if not np.all(class_of[conjugated] == class_of):
            raise ConsistencyError("a generator is not constant on the pair orbits")

    def cell_count(self) -> int:
        """The number of cells E*_k A_i E*_j: the nonempty (class_u,
        relation, class_v).  Every column lies in exactly one cell, so the
        cells are independent and span T0."""
        t1 = self.t1
        key = np.sort((self.class_u * t1 + self.relation) * t1 + self.class_v)
        return int(np.count_nonzero(np.diff(key))) + 1

    def rank_history(self, bound: int) -> list[int]:
        """The rank after the seeds and after each round of the closure,
        over Q and over every F_p, counted from the labels (see the module
        docstring).  The rounds end at the bound, or after a round that adds
        nothing.  Raises ConsistencyError when round 2 is reached and the
        cells fall short of the bound, since its left products are then not
        decided by the labels."""
        t1 = self.t1
        history = [2 * t1 - 1]
        if history[0] < bound:
            history.append(_round_one_rank(self.relation, self.class_u, self.class_v, t1))
        if history[0] < history[-1] < bound:
            cells = self.cell_count()
            if cells < bound:
                raise ConsistencyError(
                    f"{cells} cells fall short of the bound {bound}, so the labels "
                    "do not decide round 2 of the closure")
            history.append(bound)
        return history


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


def dim_t_tilde(group: GroupTable, reps: np.ndarray) -> int:
    """Dimension of the centralizer algebra: the orbital count (dual-route),
    checked against the representatives `reps` of orbit_reps."""
    return orbital_count(group, reps)


def algebra_closure(group: GroupTable, classes: ConjugacyData, *, dim_t0_value: int,
                    reps: np.ndarray) -> DimensionCertificate:
    """Generator-closure dimension of the algebra, with provenance.

    The rank history is counted from the closure's labels
    (`_GeneratorProducts.rank_history`), which decide it for every D(n,s).
    That count does not depend on the field: the seeds and the cells are
    disjoint 0/1 rows, and round 1's rows are the incidence matrices of
    bipartite graphs, which are totally unimodular.  So it is the history
    over each of the two fixed primes of DEFAULT_PRIMES, which the
    certificate records, and no basis is formed.  Where the labels do not
    decide round 2 (S4, say), it raises ConsistencyError.

    The history has at most three entries, so the closure runs at most two
    rounds, and every certificate it returns is at the centralizer bound,
    hence exact.  With t >= 1, each E*_j A_i with i not the identity
    relation covers a nonempty, proper part of the support of A_i, on
    which every seed is constant, so round 1 always adds rank.  The rank
    never exceeds len(reps), the number of columns, which is the bound
    once checked against Burnside.  So round 1 ends at the bound, or round
    2 does, or the cells fall short and it raises.  The trivial group
    (t = 0) is at the bound after the seeds.  A history that still ends
    below the bound is a defect, and raises with the sandwich.

    `reps` are the orbit representatives of `orbit_reps(group)`, which
    the caller enumerates once for its own orbital check as well.  Their
    number is checked against the Burnside count before it serves as the
    bound.
    """
    bound = dim_t_tilde(group, reps)
    history = _GeneratorProducts(group, classes, reps).rank_history(bound)
    dim_t = history[-1]
    if not (dim_t0_value <= dim_t == bound):
        raise ConsistencyError(
            f"dimension sandwich violated: {dim_t0_value} <= {dim_t} == {bound} fails")

    return DimensionCertificate(
        dim_t=dim_t,
        dim_t_tilde=bound,
        provenance=PROVENANCE_EXACT,
        closure_rounds=len(history) - 1,
        basis_size_history=(tuple(history), tuple(history)),
        primes=DEFAULT_PRIMES,
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
