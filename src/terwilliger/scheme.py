"""Group association scheme: relations, intersection numbers, triple counts.

The scheme of a group puts (x, y) in relation i exactly when y*x^-1 lies in
the i-th conjugacy class.  It is no object of its own: every stage takes
the group and its classes, and build_scheme checks their axioms.  The
class matrix Q[x, y] = class index of y*x^-1 (class_matrix) is formed by
the product identity's check, the one reader of Q whole, and dies with
it.  The intersection numbers are held as their nonzero triples (i, j, k,
p_ijk) in (i, j, k) order, counted by one sort of the (i, j, k) key of
every (z, Cl_k) pair.  The product identity A_i A_j = sum_k p[i,j,k] A_k,
which makes them intersection numbers, is checked for every (i, j) at
once by one sort of the rows of Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import ConjugacyData, ConsistencyError, GroupParams, GroupTable, _components

# the nine (kind of U, kind of V) cases for triples (U, V, W) with W in U*V,
# in the canonical order used by reports
CASE_ORDER: tuple[tuple[str, str], ...] = (
    ("X", "X"), ("X", "Y"), ("Y", "X"), ("X", "Z"), ("Z", "X"),
    ("Y", "Y"), ("Y", "Z"), ("Z", "Y"), ("Z", "Z"),
)


def class_matrix(group: GroupTable, classes: ConjugacyData) -> np.ndarray:
    """Q[x, y] = class of y*x^-1, the relation of (x, y): built afresh on
    each call, as GroupTable.conjugation is, so that nothing keeps it.
    Relations are the classes in their canonical order, so the identity
    relation is classes.identity_class, not necessarily 0."""
    cls = np.asarray(classes.class_of, dtype=np.int64)
    return cls[group.mult[:, group.inv]].T  # [x, y] -> class of y * x^-1


def _first_members(classes: ConjugacyData) -> np.ndarray:
    """The first member of every class; an empty class raises
    ConsistencyError, as no partition holds one."""
    empty = [label for label, c in zip(classes.labels, classes.classes) if not c]
    if empty:
        raise ConsistencyError(f"class {empty[0]} is empty")
    return np.array([c[0] for c in classes.classes])


def build_scheme(group: GroupTable, classes: ConjugacyData) -> None:
    """Verify the defining axioms of the scheme of (group, classes) exactly.

    Checks: the identity class gives the identity matrix, relations partition
    the pairs with constant row sums equal to the class sizes, the
    transpose of every relation is again a relation (the one of the inverse
    class) on row 0, and no class is empty.  Any failure raises
    ConsistencyError.  No check forms the class matrix Q.

    The first two are read off class_of in O(|G|).  Row x of Q is class_of
    read along column inv[x] of the Cayley table, which GroupTable's Latin
    check makes a permutation of G.  So every row meets each class as often
    as class_of does, and Q[x, x] = class_of[x x^-1] = class_of[0]: Q's
    identity relation is the identity matrix exactly when class_of puts 0,
    and no other element, in the identity class.

    The transpose closure, Q[y, x] = inverse_class[Q[x, y]] for every pair,
    rests on a group law that the Latin check does not test, and here it is
    checked on row 0 only, in O(|G|): Q[0, y] = class_of[y] and Q[y, 0] =
    class_of[inv[y]], so `cls[inv] == inverse_class[cls]` below is exactly
    Q[y, 0] = inverse_class[Q[0, y]] for every y.  verify_product_identity
    carries it to every pair: it proves that Q is unchanged by the right
    translation x -> x g of each generator g, and that these translations
    are transitive.  So for any x some permutation h in the group they
    generate has h(x) = 0 and leaves Q unchanged, and Q[y, x] =
    Q[h(y), 0] = inverse_class[Q[0, h(y)]] = inverse_class[Q[x, y]].
    So the scheme's axioms are certified by this function together with a
    True from verify_product_identity, which the pipeline and the `tensor`
    command run next.
    """
    cls = np.asarray(classes.class_of, dtype=np.int64)
    sizes = np.asarray(classes.sizes())
    counts = np.bincount(cls, minlength=len(sizes))
    ident = classes.identity_class
    if cls[0] != ident or counts[ident] != 1:
        raise ConsistencyError("identity relation is not the identity matrix")
    if not np.array_equal(counts, sizes):
        raise ConsistencyError("row 0 does not meet every class the right number of times")

    # inverse_class[i] is the class of the inverse of Cl_i's first member.
    # Once inv takes every member of each Cl_i into that class, it maps Cl_i
    # onto it: inv is a bijection of G, so each class holds the disjoint
    # images of the classes sent to it, and both sides sum to |G|; so each
    # class is exactly that union, and as no class is empty, the image of
    # exactly one class
    inverse_class = cls[group.inv[_first_members(classes)]]
    bad = cls[cls[group.inv] != inverse_class[cls]]
    if len(bad):
        raise ConsistencyError(f"inverse of class {classes.labels[bad.min()]} is not a class")


@dataclass(frozen=True)
class IntersectionTensor:
    """The nonzero intersection numbers p[i, j, k] of the scheme, as triples.

    Four aligned int32 arrays i, j, k, p, sorted by (i, j, k) with no repeat,
    hold p[i[r], j[r], k[r]] = p[r] >= 1; every other p[i, j, k] is 0.  Each
    p[i, j, k] <= |Cl_i| <= |G|, far below 2^31.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    p: np.ndarray
    num_classes: int

    def nonzero_triples(self) -> list[tuple[int, int, int, int]]:
        """(i, j, k, p_ijk) rows for the nonzero entries, for export."""
        return list(zip(self.i.tolist(), self.j.tolist(), self.k.tolist(), self.p.tolist()))


def intersection_numbers(group: GroupTable, classes: ConjugacyData) -> IntersectionTensor:
    """Count p[i, j, k] = |{z in Cl_i : y z^-1 in Cl_j}| for a fixed y in Cl_k.

    With y the first member of each class k, every z gives the key
    (class(z) t1 + class(y z^-1)) t1 + k, and one np.unique of the keys gives
    the nonzero triples in (i, j, k) order with their counts.  An empty class
    raises ConsistencyError.  That the counts do not depend on the choice of
    y is not checked here: verify_product_identity compares these triples
    with the same count taken at every y of every class, so a base point
    that counts otherwise fails it.
    """
    cls = np.asarray(classes.class_of, dtype=np.int64)
    t1 = classes.num_classes
    first = _first_members(classes)
    # keys[k, z] = (class of z, class of y_k z^-1, k) in base t1, with y_k = first[k]
    keys = (cls * t1 + cls[group.mult[first[:, None], group.inv]]) * t1 + np.arange(t1)[:, None]
    keys, counts = np.unique(keys, return_counts=True)
    i, j, k = np.unravel_index(keys, (t1, t1, t1))
    return IntersectionTensor(*(a.astype(np.int32) for a in (i, j, k, counts)), num_classes=t1)


def dim_t0(tensor: IntersectionTensor) -> int:
    """Dimension of the span of the E*_i A_j E*_k products: nonzero triples."""
    return len(tensor.p)


def case_counts(tensor: IntersectionTensor, classes: ConjugacyData) -> dict[tuple[str, str], int]:
    """Nonzero-triple counts for each (kind of Cl_i, kind of Cl_j) case of CASE_ORDER."""
    code = np.array(["XYZC".index(u) for u in classes.kinds])  # 'C': generic groups
    nz = np.bincount(code[tensor.i] * 4 + code[tensor.j], minlength=16)
    return {(u, v): int(nz["XYZC".index(u) * 4 + "XYZC".index(v)]) for u, v in CASE_ORDER}


def expected_case_counts(params: GroupParams) -> dict[tuple[str, str], int]:
    """Closed-form count of contributing triples for each of the nine cases."""
    tau = params.tau
    half = (params.n - tau) // 2
    return {
        ("X", "X"): tau * tau,
        ("X", "Y"): tau * half,
        ("Y", "X"): tau * half,
        ("X", "Z"): tau * tau,
        ("Z", "X"): tau * tau,
        ("Y", "Y"): 2 * half * half,
        ("Y", "Z"): tau * half,
        ("Z", "Y"): tau * half,
        ("Z", "Z"): tau * (tau + half),
    }


def closed_form_dimension(params: GroupParams) -> int:
    """(n^2 + 3*n*tau + 4*tau^2) / 2, always an integer since n and tau share parity."""
    n, tau = params.n, params.tau
    value = n * n + 3 * n * tau + 4 * tau * tau
    assert value % 2 == 0
    return value // 2


def verify_product_identity(group: GroupTable, classes: ConjugacyData,
                            tensor: IntersectionTensor) -> bool:
    """Check A_i A_j == sum_k p[i,j,k] A_k for every (i, j) as exact matrix
    identities.

    Both sides are counted in integers from the class matrix Q, formed here
    once, and the triples: (A_i A_j)[x, y] is the number of z with
    Q[x, z] = i and Q[z, y] = j, and the right side is p[i, j, Q[x, y]].

    Only row x = 0 is compared, and two checks on Q stand in for the other
    rows.  First, Q is unchanged by the right translation x -> x g of each
    g in the group's generating_set: Q[x g, y g] = Q[x, y].  Each such
    translation is a permutation (a column of the Cayley table), so
    substituting z -> z g shows that both sides of the identity take the
    same value at (x g, y g) as at (x, y), and so do they under every
    translation in the group H that these generate.  Second, H is
    transitive: the graph with an edge (x, x g) for every x and generator g
    is connected (_components).  Then some h in H moves 0 to any x, and row
    x of each side is row 0 moved by h.  Neither check assumes a group
    axiom of the Cayley table that Q is read off; a group's passes both.
    So True certifies every identity on all of G x G, and False means that
    one of them fails, or that Q is changed by some generator's translation
    or that these translations are not transitive.  The same two checks
    carry any property of row 0 to every row; build_scheme relies on them
    for its transpose closure, which it checks on row 0 alone.

    Row 0 of every product is read off one sort.  At column y, the codes
    Q[0, z] (t+1) + Q[z, y] over all z, sorted, hold each i (t+1) + j as
    often as (A_i A_j)[0, y]; the right side holds it p[i, j, k] times, with
    k = Q[0, y].  So every identity holds at (0, y) exactly when that sorted
    row equals the codes of the triples of k, each repeated p times, in
    order; both have |G| entries once sum_ij p[i, j, k] = |G| for every k.
    The stable sort by k keeps each k's triples in the ascending (i, j)
    order that IntersectionTensor's (i, j, k) order gives them; triples held
    in another order can turn True into False, never False into True.
    For a group, Q[0, y] is the class of y and Q[z, y] that of y z^-1, so
    column y recounts intersection_numbers' triples of its class with y as
    the base point: every member of every class is tried.
    """
    t1 = tensor.num_classes
    q = class_matrix(group, classes)
    # column 0, the identity's, gives every element a loop, so the graph
    # has all |G| vertices even for a group with no generator
    moves = group.mult[:, [0, *group.generating_set]]
    # Q[r][:, r] == Q, compared 256 rows at a time: a row gather and a
    # column take per block, with no |G|^2 index or copy
    if not all(np.array_equal(np.take(q[r[lo:lo + 256]], r, axis=1), q[lo:lo + 256])
               for r in moves.T[1:] for lo in range(0, group.order, 256)):
        return False
    if _components(np.repeat(np.arange(group.order), moves.shape[1]), moves.ravel()) != 1:
        return False
    # float sums of counts p >= 0 are rounded only above 2^53, far above |G|
    if not np.array_equal(np.bincount(tensor.k, weights=tensor.p, minlength=t1),
                          np.full(t1, group.order)):
        return False
    # the least integer type that holds every k, or every code below
    # (t+1)^2, sorts fastest; the stable sort puts the triples in (k, i, j)
    # order, as they are in (i, j, k) order
    code = np.min_scalar_type(-t1 * t1)
    by_k = np.argsort(tensor.k.astype(np.min_scalar_type(-t1)), kind="stable")
    ij = (tensor.i.astype(code) * t1 + tensor.j).astype(code, copy=False)
    codes = np.repeat(ij[by_k], tensor.p[by_k]).reshape(t1, group.order)
    rows = q.T.astype(code, order="C")
    rows += (q[0] * t1).astype(code)
    rows.sort(axis=1)
    return np.array_equal(rows, codes[q[0]])
