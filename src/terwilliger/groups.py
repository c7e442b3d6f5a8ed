"""Construction of the semidirect products C_n x| C_2 and their conjugacy data.

The group with parameters (n, s) is generated by a rotation a of order n and
an involution b with b*a*b = a^s, where s^2 = 1 (mod n) and s != 1 (mod n).
Elements are kept in the normal form b^eps * a^i and encoded as the integer
eps*n + i, so products cost O(1) through the explicit multiplication law

    (b^eps a^i) (b^delta a^j) = b^(eps xor delta) a^(i*s^delta + j mod n).

Conjugacy classes come in three families: tau singletons inside <a> (tau =
gcd(s-1, n)), (n-tau)/2 pairs {a^m, a^(m*s)}, and tau cosets of reflections,
labelled X, Y and Z respectively.  The classes are computed twice at every n:
once from the closed forms and once from the Cayley table as the fibres of the
least-conjugate map, and the two routes must agree element for element.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed; a defect, not bad input."""


@dataclass(frozen=True)
class GroupParams:
    """Validated parameters (n, s) together with tau = gcd(s-1, n)."""

    n: int
    s: int
    tau: int

    @property
    def order(self) -> int:
        return 2 * self.n

    def element_name(self, x: int) -> str:
        """b^eps a^i for the element encoded as eps*n + i."""
        eps, i = divmod(x, self.n)
        a_part = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
        if eps == 0:
            return a_part or "e"
        return "b" if not a_part else f"b {a_part}"


def validate_params(n: int, s: int) -> GroupParams:
    """Check that (n, s) defines a twisted dihedral group and compute tau.

    Requires n >= 3, 1 <= s < n, s^2 = 1 (mod n) and s != 1 (mod n).
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 1 <= s < n:
        raise ValueError(f"s must satisfy 1 <= s < n, got s={s}")
    if s == 1:
        raise ValueError("s = 1 gives a direct product, not a twisted one")
    if (s * s) % n != 1:
        raise ValueError(f"s^2 = {s * s % n} (mod {n}), expected 1")
    tau = gcd(s - 1, n)
    # s^2 = 1 (mod n) forces gcd(s, n) = 1, and n - tau is even because the
    # non-fixed points of m -> m*s pair up; both are cheap to assert.
    assert gcd(s, n) == 1
    assert (n - tau) % 2 == 0
    return GroupParams(n=n, s=s, tau=tau)


def valid_twists(n: int) -> list[int]:
    """All s in [2, n-1] with s^2 = 1 (mod n), i.e. the valid twists for n."""
    return [s for s in range(2, n) if (s * s) % n == 1]


class GroupTable:
    """A finite group given by its Cayley table on elements 0..order-1.

    For twisted dihedral groups, element eps*n + i encodes b^eps * a^i and the
    identity is 0.  Generic groups (any Cayley table with identity 0) are
    supported so the brute-force pipeline can be pointed at other inputs.
    """

    def __init__(self, mult: np.ndarray, params: GroupParams | None = None,
                 name: str = "group"):
        mult = np.asarray(mult, dtype=np.int64)
        order = mult.shape[0]
        if mult.shape != (order, order):
            raise ValueError("Cayley table must be square")
        self.mult = mult
        self.order = order
        self.params = params
        self.name = name
        self.identity = 0
        ar = np.arange(order)
        if np.any(mult[0] != ar) or np.any(mult[:, 0] != ar):
            raise ValueError("element 0 must be the identity")
        # every row and column must be a permutation: with every entry in
        # range, each (row, entry) and each (column, entry) key occurs
        # exactly once.  There are order² keys of each kind, so by
        # pigeonhole they fill all order² cells only if each is hit once
        def fills(keys: np.ndarray) -> bool:
            seen = np.zeros(order * order, dtype=bool)
            seen[keys.ravel()] = True
            return bool(seen.all())

        offsets = ar * order
        if not (0 <= mult.min() and mult.max() < order
                and fills(mult + offsets[:, None]) and fills(mult + offsets)):
            raise ValueError("Cayley table rows/columns are not permutations")
        # a row that is a permutation holds exactly one 0, in the inverse's column
        self.inv = np.argmax(mult == 0, axis=1)

    def conjugation(self) -> np.ndarray:
        """(order, order) array whose row g is the permutation x -> g*x*g^-1.

        Built afresh on each call rather than cached: it is one gather, and a
        cache would keep order^2 integers alive on every retained table.
        """
        return self.mult[self.mult, self.inv[:, None]]

    @property
    def generating_set(self) -> tuple[int, ...]:
        """Elements that generate the group: a and b, encoded 1 and n, for
        D(n,s), and every element but the identity for a generic table."""
        if self.params is not None:
            return (1, self.params.n)
        return tuple(range(1, self.order))

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes in canonical order with labels, reps and centralizers.

    For twisted dihedral groups the order is X_1..X_tau, Y_1..Y_((n-tau)/2),
    Z_1..Z_tau.  The X block is ordered by the exponent n*i/tau, which places
    the identity class last in the block (X_tau, index tau-1); that position
    is recorded in identity_class and surfaced in reports.
    """

    classes: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    kinds: tuple[str, ...]              # 'X', 'Y', 'Z', or 'C' for generic groups
    reps: tuple[int, ...]
    centralizer_orders: tuple[int, ...]
    identity_class: int
    class_of: tuple[int, ...]           # element id -> class index

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def _least_conjugate(group: GroupTable) -> np.ndarray:
    """The least conjugate g x g^-1 over every g, for every element x.  Two
    elements are conjugate exactly when their least conjugates agree, so the
    fibres of this map are the conjugacy classes."""
    return group.conjugation().min(axis=0)


def _closed_form_classes(params: GroupParams) -> tuple[tuple, ...]:
    """Classes of D(n,s) from the closed forms, in canonical X/Y/Z order, as
    (classes, labels, kinds, reps, centralizer orders).  Each class is listed
    with its representative first."""
    n, s, tau = params.n, params.s, params.tau
    step = n // tau
    # X_i = {a^(n i / tau)}: the rotations fixed by m -> m*s
    xs = [(step * i % n,) for i in range(1, tau + 1)]
    # Y_i = {a^m, a^(m s)} for m not a multiple of n/tau, taken once from its
    # lesser member m, so the pairs come in increasing order of m
    ys = [(m, m * s % n) for m in range(1, n) if m % step and m < m * s % n]
    # Z_i = b a^i <a^tau>, represented by b a^i
    zs = [tuple(n + (i + t * tau) % n for t in range(n // tau)) for i in range(1, tau + 1)]
    families = (("X", xs, 2 * n), ("Y", ys, n), ("Z", zs, 2 * tau))
    return tuple(zip(*[(c, f"{kind}{i}", kind, c[0], cent)
                       for kind, family, cent in families
                       for i, c in enumerate(family, start=1)]))


def _conjugacy_data(order: int, classes, labels, kinds, reps, cents) -> ConjugacyData:
    """ConjugacyData for classes already in their final order: each class is
    sorted, and the element -> class map and the identity's class are read
    from them."""
    classes = tuple(tuple(sorted(c)) for c in classes)
    class_of = [-1] * order
    for ci, members in enumerate(classes):
        for x in members:
            class_of[x] = ci
    return ConjugacyData(classes, tuple(labels), tuple(kinds), tuple(reps), tuple(cents),
                         identity_class=class_of[0], class_of=tuple(class_of))


def conjugacy_classes(group: GroupTable) -> ConjugacyData:
    """Conjugacy classes of a twisted dihedral group in canonical order.

    At every n, the closed-form classes must partition G, or class_of is no
    class map: a repeated element keeps only its last class, and a missing
    one keeps -1, which indexes the last class.  The least conjugate of each
    x must then be the least member of x's class: equal maps have equal
    fibres, here the conjugacy classes and the closed-form classes.  The
    centralizer orders must match too.  A mismatch raises ConsistencyError.
    """
    if group.params is None:
        return generic_conjugacy_classes(group)
    data = _conjugacy_data(group.order, *_closed_form_classes(group.params))
    if sum(data.sizes()) != group.order or not all(data.classes) or min(data.class_of) < 0:
        raise ConsistencyError(f"the closed-form classes do not partition {group.name}")
    least = np.array([members[0] for members in data.classes])
    if not np.array_equal(least[np.array(data.class_of)], _least_conjugate(group)):
        raise ConsistencyError(f"least conjugates and closed-form classes of {group.name} differ")
    if not np.array_equal(centralizer_counts(group)[list(data.reps)], data.centralizer_orders):
        raise ConsistencyError(f"centralizer orders in {group.name} do not match the closed form")
    return data


def generic_conjugacy_classes(group: GroupTable) -> ConjugacyData:
    """Classes of any Cayley table, the fibres of the least-conjugate map, by
    size and then least member; so the identity's class, {0}, comes first."""
    least = _least_conjugate(group)
    by_least = np.argsort(least, kind="stable")
    # each run of equal least conjugates is one class, its members increasing
    partition = np.split(by_least, np.flatnonzero(np.diff(least[by_least])) + 1)
    partition.sort(key=len)             # stable: ties stay in order of least member
    reps = [int(c[0]) for c in partition]
    return _conjugacy_data(group.order, [c.tolist() for c in partition],
                           [f"C{i}" for i in range(len(partition))], ["C"] * len(partition),
                           reps, centralizer_counts(group)[reps].tolist())


def centralizer_counts(group: GroupTable) -> np.ndarray:
    """|C_G(g)| for every g at once, straight from the Cayley table."""
    return np.count_nonzero(group.mult == group.mult.T, axis=0)


def orbital_count(group: GroupTable, reps: np.ndarray) -> int:
    """Number of orbits of G acting on G x G by simultaneous conjugation.

    Computed two ways, which must agree: the Burnside average of |C_G(g)|^2,
    and an explicit enumeration of the orbits by their least pairs, the
    representatives `reps` of orbit_reps, which the caller enumerates once.
    """
    counts = centralizer_counts(group)
    total = int(np.sum(counts.astype(object) ** 2))
    if total % group.order != 0:
        raise ConsistencyError("Burnside sum is not divisible by the group order")
    burnside = total // group.order

    explicit = len(reps)
    if explicit != burnside:
        raise ConsistencyError(
            f"orbital count mismatch for {group.name}: "
            f"Burnside {burnside} vs enumeration {explicit}")
    return burnside


def _least_conjugates(group: GroupTable):
    """The class minima and the rows of least conjugates under their
    centralizers.

    Returns (mins, slot, rows): mins are the class minima in increasing
    order, and row rows[slot[r]] maps z to the least of c z c^-1 over c in
    C(r), for every class minimum r.  Such a row depends on C(r) alone, and
    class minima share centralizers: every central r has C(r) = G, whose
    row is the class minima themselves.  So one row is formed per distinct
    centralizer, keyed by its packed membership mask.

    The 2 tau + (n - tau)/2 class minima of D(n,s) have exactly
    min(tau, n/tau) + 2 distinct centralizers.  A reflection b a^j
    conjugates a^m to b a^m b = a^(ms), and a^j conjugates b a^r to
    b a^(r + j(s-1)), which is b a^r exactly when n divides j(s-1), that is
    when n/tau divides j.  So the centralizers are: G for the tau central
    rotations (n/tau divides m, so ms = m mod n); <a> for the other
    rotations, at least one class as tau < n; and for each reflection
    minimum b a^r (0 <= r < tau) the rotations <a^(n/tau)> together with
    the coset b a^r <a^(n/tau)>, since <a> has index 2 and b a^r lies in
    its own centralizer.  That last set depends only on r mod n/tau, which
    takes min(tau, n/tau) values as r runs over tau consecutive integers,
    and the three kinds differ: only G has order 2n, and only <a> holds no
    reflection.
    """
    conj = group.conjugation()
    order = group.order
    mins = np.flatnonzero(conj.min(axis=0) == np.arange(order))
    slots: dict[bytes, int] = {}      # packed centralizer mask -> its row
    slot = np.zeros(order, dtype=np.intp)
    slot[mins] = [slots.setdefault(mask.tobytes(), len(slots))
                  for mask in np.packbits(conj[:, mins] == mins, axis=0).T]
    rows = np.stack([conj[np.unpackbits(np.frombuffer(mask, np.uint8), count=order)
                          .view(bool)].min(axis=0) for mask in slots])
    return mins, slot, rows


def orbit_reps(group: GroupTable) -> np.ndarray:
    """Least keys of the orbits of G on G x G under simultaneous conjugation.

    Pair (x, y) has key x*order + y.  The least first entry of an orbit is a
    class minimum r, and the orbit's pairs with first entry r are (r, z) for
    z in one orbit of the centralizer C(r) acting on G by conjugation: g
    keeps the first entry r only if g lies in C(r).  So the orbits with
    first entry r correspond one to one to the C(r)-orbits on G, and the
    least key of each is r*order + z for the least z of its C(r)-orbit,
    the z with row_r[z] == z.  Reading those off one row per class minimum
    costs O(#minima |G|); no label of the |G|^2 pairs is formed.  Returns
    the least keys in increasing order: one representative per orbit, the
    only enumeration of the orbits that the package makes.
    """
    mins, slot, rows = _least_conjugates(group)
    first, z = np.nonzero(rows[slot[mins]] == np.arange(group.order))
    return mins[first] * group.order + z


def _components(a: np.ndarray, b: np.ndarray) -> int:
    """The number of components of the graph with edges (a[e], b[e]) on the
    vertices 0 .. max, each of which is on some edge, by min-label hooking
    and pointer jumping (Shiloach-Vishkin).  Every vertex starts as its own
    label, and the labels form stars: each points at a root, a vertex that
    is its own label.  Each step hooks the root of either end of every edge
    onto the other end's label when that is less, then jumps every label to
    its label's label until they form stars again.  A label only falls and
    stays inside its component, so once a step changes nothing, the labels
    agree along every edge and each component carries its least vertex,
    its one root."""
    label = np.arange(int(max(a.max(), b.max())) + 1)
    while True:
        least = label.copy()
        np.minimum.at(least, label[a], label[b])
        np.minimum.at(least, label[b], label[a])
        while not np.array_equal(least[least], least):
            least = least[least]
        if np.array_equal(least, label):
            return int(np.count_nonzero(label == np.arange(len(label))))
        label = least


def build_group(params: GroupParams) -> GroupTable:
    """Cayley table of D(n,s) in the b^eps a^i encoding."""
    n, s = params.n, params.s
    # window[k, j] = (k + j) % n.  The a-exponent of (b^eps a^i)(b^delta a^j)
    # is i + j for delta = 0, row i of the window, and i*s + j for
    # delta = 1, row i*s % n; eps xor delta only picks the quadrant, and
    # adds n where it is 1
    window = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n) % n, n)
    plain, twisted = window[:n], window[np.arange(n) * s % n]
    mult = np.empty((2 * n, 2 * n), dtype=np.int64)
    mult[:n, :n] = plain
    mult[n:, n:] = twisted
    np.add(twisted, n, out=mult[:n, n:])
    np.add(plain, n, out=mult[n:, :n])
    return GroupTable(mult, params=params, name=f"D({n},{s})")
