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

The saturation is a spin-up (Parker's MeatAxe): frontier rows are multiplied
by the generators on the left only.  The seeds span I = sum of the E*_i, and
a span that holds I and is closed under left multiplication by each generator
holds every word in them, so it is the algebra.  The rounds and the rank
histories equal those of a two-sided saturation: after round r (the seed
round being round 1) both span exactly the words of length <= r+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import ConsistencyError, GroupTable, orbital_count, pair_orbits
from .modular import DEFAULT_PRIMES, PrimeBasis, RationalBasis
from .scheme import SchemeData, closed_form_dimension

COMMUTANT_ORDER_LIMIT = 16
BATCH_ROWS = 256  # products collected before each insert_block call

PROVENANCE_EXACT = "exact"
PROVENANCE_RATIONAL = "exact-rational"
PROVENANCE_MODULAR = "modular, two-prime agreement"


@dataclass(frozen=True)
class DualIdempotents:
    """Diagonal 0/1 idempotents; row i indicates membership in class i."""

    diagonals: np.ndarray  # (num classes, group order)

    @property
    def num_classes(self) -> int:
        return self.diagonals.shape[0]


def dual_idempotents(scheme: SchemeData) -> DualIdempotents:
    """E*_i = diag(indicator of Cl_i); verifies the orthogonal idempotent laws."""
    classes = scheme.classes
    diag = np.zeros((classes.num_classes, scheme.order), dtype=np.int64)
    for i, members in enumerate(classes.classes):
        diag[i, list(members)] = 1
    if not np.array_equal(diag.sum(axis=0), np.ones(scheme.order, dtype=np.int64)):
        raise ConsistencyError("dual idempotents do not sum to the identity")
    for i in range(classes.num_classes):
        if int(diag[i].sum()) != len(classes.classes[i]):
            raise ConsistencyError("dual idempotent trace differs from class size")
    return DualIdempotents(diagonals=diag)


@dataclass(frozen=True)
class DimensionCertificate:
    """Dimension of the algebra with its provenance and the two bounds."""

    n: int | None
    s: int | None
    tau: int | None
    dim_t0: int
    dim_t: int
    dim_t_tilde: int
    formula_value: int | None
    triply_transitive: bool
    provenance: str
    closure_rounds: int
    basis_size_history: tuple[tuple[int, ...], tuple[int, ...]]
    primes: tuple[int, int]
    rational_rank: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "tau": self.tau,
            "dim_T0": self.dim_t0,
            "dim_T": self.dim_t,
            "dim_T_tilde": self.dim_t_tilde,
            "formula": self.formula_value,
            "triply_transitive": self.triply_transitive,
            "provenance": self.provenance,
            "rounds": self.closure_rounds,
        }


class _GeneratorProducts:
    """Left multiplication by every A_i and E*_i, in orbital coordinates.

    Every element of T lies in T~, so it is constant on the orbits of G on
    pairs and is stored as its values at the representative pairs: M[x, y]
    is m[ids[x, y]].  Then (A_i M)[u, v] = sum over c in Cl_i of M[c u, v],
    for all classes in one gather plus one segment sum.
    """

    def __init__(self, scheme: SchemeData, ids: np.ndarray, reps: np.ndarray):
        group, classes = scheme.group, scheme.classes
        elems = np.concatenate([np.asarray(c, dtype=np.int64) for c in classes.classes])
        self.offsets = np.cumsum([0] + [len(c) for c in classes.classes])[:-1]
        self.ids = ids
        self.u, self.v = np.divmod(reps, group.order)
        self.left_index = ids[group.mult[elems][:, self.u], self.v]
        class_of = np.asarray(classes.class_of, dtype=np.int64)
        labels = np.arange(classes.num_classes)[:, None]
        # E*_i M keeps the pairs with u in Cl_i, M E*_i those with v in Cl_i
        self.masks = np.concatenate([class_of[self.u] == labels,
                                     class_of[self.v] == labels]).astype(np.float64)

    def coordinates(self, matrix: np.ndarray) -> np.ndarray:
        """The values of a matrix at the representatives; it must be constant
        on every orbit, or the coordinates would not determine it."""
        coords = matrix[self.u, self.v]
        if not np.array_equal(coords[self.ids], matrix):
            raise ConsistencyError("a generator is not constant on the pair orbits")
        return coords

    def all_products(self, m: np.ndarray) -> np.ndarray:
        """Stack of the 2*(t+1) left products [A_i M | E_i M]."""
        left = np.add.reduceat(m[self.left_index], self.offsets, axis=0)
        return np.concatenate([left, self.masks[:len(self.offsets)] * m])


def _seed_matrices(scheme: SchemeData, idem: DualIdempotents,
                   seed_order: list[int] | None) -> list[np.ndarray]:
    t1 = scheme.num_relations
    seeds = [scheme.adjacency(i) for i in range(t1)]
    seeds += [np.diag(idem.diagonals[i]) for i in range(t1)]
    if seed_order is not None:
        if sorted(seed_order) != list(range(len(seeds))):
            raise ValueError("seed_order must be a permutation of the generators")
        seeds = [seeds[i] for i in seed_order]
    return seeds


def _modular_closure(scheme: SchemeData, idem: DualIdempotents,
                     products: _GeneratorProducts, prime: int, bound: int,
                     seed_order: list[int] | None, round_budget: int
                     ) -> tuple[PrimeBasis, int, list[int]]:
    """Saturate the generated algebra over F_p; returns (basis, rounds, history)."""
    basis = PrimeBasis(prime, len(products.u), capacity=bound)
    seeds = [products.coordinates(m) for m in _seed_matrices(scheme, idem, seed_order)]
    basis.insert_block(np.array(seeds) % prime, stop_at_rank=bound)
    history = [basis.rank]
    rounds = 0
    next_frontier: list[int] = []
    pending: list[np.ndarray] = []

    def flush() -> None:
        if pending:
            before = basis.rank
            basis.insert_block(np.concatenate(pending), stop_at_rank=bound)
            next_frontier.extend(range(before, basis.rank))
            pending.clear()

    def push(block: np.ndarray) -> bool:
        pending.append(block)
        if sum(map(len, pending)) < BATCH_ROWS:
            return False
        flush()
        return basis.rank >= bound

    # Seed round: products of the generators themselves.  A_i A_j lies in the
    # span of the A's (the scheme product identity) and E_i E_j in the span of
    # the E's, so only the diagonal-masked products E_j A_i and A_i E_j can
    # grow the span here.
    if basis.rank < bound:
        rounds = 1
        for i in range(scheme.num_relations):
            a = products.coordinates(scheme.adjacency(i))
            if push(products.masks * a):
                break
        flush()
        history.append(basis.rank)

    frontier = next_frontier
    while frontier and basis.rank < bound:
        rounds += 1
        if rounds > round_budget:
            raise ConsistencyError(
                f"closure did not stabilize within {round_budget} rounds")
        next_frontier = []
        for row_idx in frontier:
            if push(products.all_products(basis.rows[row_idx])):
                break
        flush()
        history.append(basis.rank)
        frontier = next_frontier

    return basis, rounds, history


def _rational_closure(scheme: SchemeData, idem: DualIdempotents,
                      seed_order: list[int] | None, round_budget: int) -> int:
    """The same saturation over the rationals; exact but only for small groups."""
    order = scheme.order
    basis = RationalBasis(order * order)
    seeds = _seed_matrices(scheme, idem, seed_order)
    frontier: list[np.ndarray] = []
    for seed in seeds:
        if basis.insert(seed.reshape(-1).tolist()):
            frontier.append(seed.astype(object))
    gens = seeds
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > round_budget:
            raise ConsistencyError("rational closure did not stabilize in budget")
        new: list[np.ndarray] = []
        for m in frontier:
            for g in gens:
                # two-sided on purpose: the independent reference for the spin-up
                for prod in (g @ m, m @ g):
                    if basis.insert(prod.reshape(-1).tolist()):
                        new.append(prod)
        frontier = new
    return basis.rank


def dim_t_tilde(group: GroupTable) -> int:
    """Dimension of the centralizer algebra: the orbital count (dual-route)."""
    return orbital_count(group)


def algebra_closure(scheme: SchemeData, idem: DualIdempotents, *,
                    dim_t0_value: int,
                    primes: tuple[int, int] = DEFAULT_PRIMES,
                    seed_order: list[int] | None = None,
                    exact_rational: bool = False,
                    round_budget: int = 32) -> DimensionCertificate:
    """Generator-closure dimension of the algebra, with provenance.

    Runs one independent saturation per prime; the two ranks must agree.
    Early exit happens at the centralizer bound, which also upgrades the
    modular rank to an exact certificate.
    """
    if primes[0] == primes[1]:
        raise ValueError("the two moduli must be distinct primes")
    group = scheme.group
    bound = dim_t_tilde(group)
    products = _GeneratorProducts(scheme, *pair_orbits(group))

    ranks: list[int] = []
    rounds: list[int] = []
    histories: list[list[int]] = []
    for p in primes:
        basis, nrounds, history = _modular_closure(
            scheme, idem, products, p, bound, seed_order, round_budget)
        ranks.append(basis.rank)
        rounds.append(nrounds)
        histories.append(history)
    if ranks[0] != ranks[1]:
        raise ConsistencyError(
            f"prime-field ranks disagree: {ranks[0]} mod {primes[0]} vs "
            f"{ranks[1]} mod {primes[1]}")
    dim_t = ranks[0]

    rational_rank = None
    if exact_rational:
        rational_rank = _rational_closure(scheme, idem, seed_order, round_budget)
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

    params = group.params
    return DimensionCertificate(
        n=params.n if params else None,
        s=params.s if params else None,
        tau=params.tau if params else None,
        dim_t0=dim_t0_value,
        dim_t=dim_t,
        dim_t_tilde=bound,
        formula_value=closed_form_dimension(params) if params else None,
        triply_transitive=dim_t0_value == bound,
        provenance=provenance,
        closure_rounds=max(rounds),
        basis_size_history=(tuple(histories[0]), tuple(histories[1])),
        primes=tuple(primes),
        rational_rank=rational_rank,
    )


def triple_transitivity(cert: DimensionCertificate) -> bool:
    """True when the triple-count lower bound meets the orbital upper bound."""
    return cert.dim_t0 == cert.dim_t_tilde


def commutant_oracle(group: GroupTable) -> int:
    """Dimension of the commutant of the conjugation action on pairs.

    Sets up the linear system X(g) A = A X(g) over all g, where X(g) is the
    permutation matrix of x -> g x g^-1, and solves it exactly over the
    rationals.  The solution space is spanned by the orbital matrices, so the
    result must equal the orbital count; callers compare the two.
    """
    order = group.order
    if order > COMMUTANT_ORDER_LIMIT:
        raise ValueError(
            f"commutant oracle is desk-scale only (order {order} > {COMMUTANT_ORDER_LIMIT})")
    basis = RationalBasis(order * order)
    for perm in group.conjugation():
        for u in range(order):
            for v in range(order):
                uu, vv = int(perm[u]), int(perm[v])
                if (uu, vv) == (u, v):
                    continue
                basis.insert({uu * order + vv: 1, u * order + v: -1})
    return order * order - basis.rank
