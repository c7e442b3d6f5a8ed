"""Group association scheme: relation matrices, intersection numbers, triple counts.

The scheme of a group puts (x, y) in relation i exactly when y*x^-1 lies in
the i-th conjugacy class.  The whole scheme is held as one integer matrix Q
with Q[x, y] = class index of y*x^-1; the 0/1 adjacency matrix of a relation
and its sparse rows are views derived from Q on demand.
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
TENSOR_CHUNK_BINS = 1 << 16  # bins per intersection_numbers bincount
COUNT_CHUNK_ENTRIES = 1 << 22  # tensor entries per case_counts nonzero count


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
    """All intersection numbers p[i, j, k] of the scheme.

    Held as int32: p[i, j, k] <= |Cl_i| <= |G|, far below 2^31.
    intersection_numbers gives p as a view of an array indexed [k, i, j], so
    that the counts at each base point are written as one contiguous slab.
    """

    p: np.ndarray
    num_classes: int

    def nonzero_triples(self) -> list[tuple[int, int, int, int]]:
        """(i, j, k, p_ijk) rows for the nonzero entries, for export."""
        out = []
        for i, j, k in zip(*np.nonzero(self.p)):
            out.append((int(i), int(j), int(k), int(self.p[i, j, k])))
        return out


def intersection_numbers(group: GroupTable, classes: ConjugacyData) -> IntersectionTensor:
    """Count p[i, j, k] = |{z in Cl_i : y z^-1 in Cl_j}| for a fixed y in Cl_k.

    Well-definedness (independence of the choice of y) is re-verified with a
    second base point whenever the class has one; a dependence would mean the
    scheme axioms fail and raises ConsistencyError.  The counts for a chunk
    of classes, at both base points of each, come from one bincount of at
    most TENSOR_CHUNK_BINS bins (a single class may exceed it).
    """
    cls = np.asarray(classes.class_of, dtype=np.int64)
    t1 = classes.num_classes
    by_k = np.empty((t1, t1, t1), dtype=np.int32)
    first = np.array([c[0] for c in classes.classes])
    second = np.array([c[1] if len(c) > 1 else c[0] for c in classes.classes])
    chunk = max(1, TENSOR_CHUNK_BINS // (2 * t1 * t1))
    for lo in range(0, t1, chunk):
        points = np.concatenate([first[lo:lo + chunk], second[lo:lo + chunk]])
        # slabs[b, k, i, j] = |{z in Cl_i : y z^-1 in Cl_j}| for y = points[b, k]
        quot_class = cls[group.mult[points[:, None], group.inv]]
        keys = (np.arange(len(points))[:, None] * t1 + cls) * t1 + quot_class
        slabs = np.bincount(keys.ravel(), minlength=len(points) * t1 * t1)
        slabs = slabs.reshape(2, -1, t1, t1)
        moved = np.flatnonzero(np.any(slabs[0] != slabs[1], axis=(1, 2)))
        if len(moved):
            raise ConsistencyError("intersection numbers depend on the base point "
                                   f"in class {classes.labels[lo + moved[0]]}")
        by_k[lo:lo + chunk] = slabs[0]
    return IntersectionTensor(p=by_k.transpose(1, 2, 0), num_classes=t1)


def dim_t0(tensor: IntersectionTensor) -> int:
    """Dimension of the span of the E*_i A_j E*_k products: nonzero triples."""
    return int(np.count_nonzero(tensor.p))


def case_counts(tensor: IntersectionTensor, classes: ConjugacyData) -> dict[tuple[str, str], int]:
    """Nonzero-triple counts for each (kind of Cl_i, kind of Cl_j) case of CASE_ORDER."""
    kinds = np.asarray(classes.kinds)
    # a few i-slices at a time: a bool temporary of the whole tensor would be
    # (t+1)^3 bytes, 125 MB at t + 1 = 500
    t1 = len(tensor.p)
    chunk = max(1, COUNT_CHUNK_ENTRIES // (t1 * t1))
    nz = np.concatenate([np.count_nonzero(tensor.p[lo:lo + chunk], axis=2)
                         for lo in range(0, t1, chunk)])
    return {(u, v): int(nz[np.ix_(kinds == u, kinds == v)].sum()) for u, v in CASE_ORDER}


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


def verify_product_identity(scheme: SchemeData, tensor: IntersectionTensor,
                            pairs: list[tuple[int, int]] | None = None) -> bool:
    """Check A_i A_j == sum_k p[i,j,k] A_k as exact matrix identities.

    With pairs=None every (i, j) is checked; callers pass a deterministic
    sample for larger groups.  The relations partition the pairs, so the
    right side is p[i, j] read at each entry's class.  The left side is
    counted in integers from the class matrix Q alone: (A_i A_j)[x, y] is the
    number of z with Q[x, z] = i and Q[z, y] = j, so row x of the product is
    the sum of the rows z of A_j over the z of class i in row x, added one
    slot of a _slot_table at a time.  Since (A_i A_j)^T = A_j^T A_i^T, the
    same count can walk the z of class j in Q^T instead; the class with
    fewer entries is walked.  Each entry is a count of at most |G|, with no
    floating point and no assumption on Q.
    """
    t1 = tensor.num_classes
    if pairs is None:
        pairs = [(i, j) for i in range(t1) for j in range(t1)]
    q = np.ascontiguousarray(scheme.class_matrix)
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
        if not np.array_equal(lhs.T if side else lhs, tensor.p[i, j][q]):
            return False
    return True
