"""Group association scheme: relation matrices, intersection numbers, triple counts.

The scheme of a group puts (x, y) in relation i exactly when y*x^-1 lies in
the i-th conjugacy class.  The whole scheme is held as one integer matrix Q
with Q[x, y] = class index of y*x^-1; the 0/1 adjacency matrix of a relation
and its sparse rows are views derived from Q on demand.  The intersection
numbers are held as their nonzero triples (i, j, k, p_ijk) in (i, j, k)
order, counted by one sort of the (i, j, k) key of every (z, Cl_k) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import ConjugacyData, ConsistencyError, GroupParams, GroupTable

# the nine (kind of U, kind of V) cases for triples (U, V, W) with W in U*V,
# in the canonical order used by reports
CASE_ORDER: tuple[tuple[str, str], ...] = (
    ("X", "X"), ("X", "Y"), ("Y", "X"), ("X", "Z"), ("Z", "X"),
    ("Y", "Y"), ("Y", "Z"), ("Z", "Y"), ("Z", "Z"),
)


class SchemeData:
    """Adjacency structure of a group association scheme.

    Relations are indexed by conjugacy classes in their canonical order; the
    identity relation sits at classes.identity_class, not necessarily at 0.
    """

    def __init__(self, group: GroupTable, class_matrix: np.ndarray, classes: ConjugacyData):
        self.group = group
        self.order = group.order
        self.class_matrix = class_matrix
        self.classes = classes
        self.identity_class = classes.identity_class

    @property
    def num_relations(self) -> int:
        return self.classes.num_classes

    def adjacency(self, i: int) -> np.ndarray:
        """Dense 0/1 matrix of relation i."""
        return (self.class_matrix == i).astype(np.int64)


def build_scheme(group: GroupTable, classes: ConjugacyData) -> SchemeData:
    """Build the scheme and verify the defining axioms exactly.

    Checks: the identity class gives the identity matrix, relations partition
    the pairs with constant row sums equal to the class sizes, and the
    transpose of every relation is again a relation (the one of the inverse
    class).  Any failure raises ConsistencyError.
    """
    cls = np.asarray(classes.class_of, dtype=np.int64)
    quotient = group.mult[:, group.inv]          # quotient[y, x] = y * x^-1
    class_matrix = cls[quotient].T               # [x, y] -> class of y * x^-1

    ident = classes.identity_class
    diag = np.diagonal(class_matrix)
    if np.any(diag != ident) or np.count_nonzero(class_matrix == ident) != group.order:
        raise ConsistencyError("identity relation is not the identity matrix")

    sizes = np.asarray(classes.sizes())
    t1 = len(sizes)
    rows = np.arange(group.order)[:, None] * t1 + class_matrix
    row_counts = np.bincount(rows.ravel(), minlength=group.order * t1).reshape(-1, t1)
    bad_rows = np.flatnonzero(np.any(row_counts != sizes, axis=1))
    if len(bad_rows):
        raise ConsistencyError(
            f"row {bad_rows[0]} does not meet every class the right number of times")

    class_index = {frozenset(c): j for j, c in enumerate(classes.classes)}
    inverse_class = np.empty(t1, dtype=np.int64)
    for i, members in enumerate(classes.classes):
        j = class_index.get(frozenset(group.inv[list(members)].tolist()))
        if j is None:
            raise ConsistencyError(f"inverse of class {classes.labels[i]} is not a class")
        inverse_class[i] = j
    if not np.array_equal(class_matrix.T, inverse_class[class_matrix]):
        raise ConsistencyError("transpose closure fails")

    return SchemeData(group, class_matrix, classes)


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
    the nonzero triples in (i, j, k) order with their counts.  The count is
    redone with the second member of each class that has one (independence
    of the choice of y); any difference raises ConsistencyError naming the
    least class k at which the two counts differ.
    """
    cls = np.asarray(classes.class_of, dtype=np.int64)
    t1 = classes.num_classes
    first = np.array([c[0] for c in classes.classes])
    second = np.array([c[1] if len(c) > 1 else c[0] for c in classes.classes])
    counted = []
    for points in (first, second):
        # keys[k, z] = (class of z, class of y_k z^-1, k) in base t1, with y_k = points[k]
        keys = (cls * t1 + cls[group.mult[points[:, None], group.inv]]) * t1 + np.arange(t1)[:, None]
        counted.append(np.unique(keys, return_counts=True))
    (keys, counts), (keys2, counts2) = counted
    if not (np.array_equal(keys, keys2) and np.array_equal(counts, counts2)):
        # the (key, count) pairs found at one base point only, as one integer each
        span = group.order + 1
        moved = np.setxor1d(keys * span + counts, keys2 * span + counts2)
        raise ConsistencyError("intersection numbers depend on the base point "
                               f"in class {classes.labels[np.min(moved // span % t1)]}")
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


def _slot_table(a: np.ndarray) -> np.ndarray:
    """Row x lists the z with a[x, z], ascending, padded with len(a): the
    index of an all-zero row appended below the matrix the table indexes."""
    xs, zs = np.divmod(np.flatnonzero(a), a.shape[1])
    slot = np.arange(len(xs)) - np.searchsorted(xs, xs)
    table = np.full((len(a), slot.max(initial=-1) + 1), len(a))
    table[xs, slot] = zs
    return table


def _all_products_match(q: np.ndarray, tensor: IntersectionTensor) -> bool:
    """Whether A_i A_j == sum_k p[i,j,k] A_k for every (i, j), counted one
    relation i at a time (see verify_product_identity)."""
    t1, order = tensor.num_classes, len(q)
    xy = np.arange(order * order).reshape(order, order)  # x |G| + y
    bounds = np.searchsorted(tensor.i, np.arange(t1 + 1))  # the triples of each i
    for i in range(t1):
        xs, zs = np.nonzero(q == i)
        products = np.bincount((q[zs] * order * order + xy[xs]).ravel(),
                               minlength=t1 * order * order)
        lo, hi = bounds[i], bounds[i + 1]
        p_i = np.zeros((t1, t1), dtype=np.int64)
        p_i[tensor.j[lo:hi], tensor.k[lo:hi]] = tensor.p[lo:hi]
        if not np.array_equal(products.reshape(t1, order, order), p_i[:, q]):
            return False
    return True


def verify_product_identity(scheme: SchemeData, tensor: IntersectionTensor,
                            pairs: list[tuple[int, int]] | None = None) -> bool:
    """Check A_i A_j == sum_k p[i,j,k] A_k as exact matrix identities.

    With pairs=None every (i, j) is checked; callers pass a deterministic
    sample for larger groups.  The relations partition the pairs, so the
    right side is p[i, j, :] read at each entry's class.  The left side is
    counted in integers from the class matrix Q alone: (A_i A_j)[x, y] is
    the number of z with Q[x, z] = i and Q[z, y] = j.  Each entry is a
    count of at most |G|, with no floating point and no assumption on Q.

    Two counts serve the two kinds of call.  The full check counts every
    product of relation i at once: one bincount of the keys
    Q[z, y] |G|^2 + x |G| + y over the z with Q[x, z] = i gives
    (A_i A_j)[x, y] at key j |G|^2 + x |G| + y, compared with p[i][:, Q]
    from the triples of i.  It holds |G|^2 max(t + 1, |Cl_i|) integers at
    a time, where one count over all |G|^3 triples would hold
    (t + 1)^2 |G|^2.  A sample names a few (i, j) of many relations, and
    for it only those products are formed: row x of A_i A_j is the sum of
    the rows z of A_j over the z of class i in row x, added one slot of a
    _slot_table at a time.  Since (A_i A_j)^T = A_j^T A_i^T, that walk can
    take the z of class j in Q^T instead; the class with fewer entries is
    walked.  Over the sampled pairs of the 162 groups with 41 <= n <= 100,
    counting each sampled relation's products at once took 2.4 s on a
    2-CPU host, and this walk 0.21 s.
    """
    t1 = tensor.num_classes
    q = np.ascontiguousarray(scheme.class_matrix)
    if pairs is None:
        return _all_products_match(q, tensor)
    ij = tensor.i.astype(np.int64) * t1 + tensor.j  # sorted, as the triples are
    sides = (q, np.ascontiguousarray(q.T))
    entries = np.bincount(q.ravel(), minlength=t1)
    zero_row = np.zeros((1, len(q)), dtype=bool)
    tables: dict[tuple[int, int], np.ndarray] = {}
    for i, j in pairs:
        side = int(entries[i] > entries[j])
        walked, summed = (j, i) if side else (i, j)
        if (side, walked) not in tables:
            tables[side, walked] = _slot_table(sides[side] == walked)
        rows = np.concatenate([sides[side] == summed, zero_row])
        lhs = np.zeros(q.shape, dtype=np.int32)
        for z in tables[side, walked].T:
            lhs += rows[z]
        lo, hi = np.searchsorted(ij, [i * t1 + j, i * t1 + j + 1])
        p_ij = np.zeros(t1, dtype=np.int32)
        p_ij[tensor.k[lo:hi]] = tensor.p[lo:hi]
        if not np.array_equal(lhs.T if side else lhs, p_ij[q]):
            return False
    return True
