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
    scheme axioms fail and raises ConsistencyError.
    """
    cls = np.asarray(classes.class_of, dtype=np.int64)
    t1 = classes.num_classes
    p = np.empty((t1, t1, t1), dtype=np.int32)

    def column(y: int) -> np.ndarray:
        # slab[i, j] = |{z in Cl_i : y z^-1 in Cl_j}|, one count per z
        quot_class = cls[group.mult[y, group.inv]]
        return np.bincount(cls * t1 + quot_class, minlength=t1 * t1).reshape(t1, t1)

    for k in range(t1):
        members = classes.classes[k]
        slab = column(members[0])
        if len(members) > 1 and not np.array_equal(slab, column(members[1])):
            raise ConsistencyError(
                f"intersection numbers depend on the base point in class {classes.labels[k]}")
        p[:, :, k] = slab
    return IntersectionTensor(p=p, num_classes=t1)


def dim_t0(tensor: IntersectionTensor) -> int:
    """Dimension of the span of the E*_i A_j E*_k products: nonzero triples."""
    return int(np.count_nonzero(tensor.p))


def case_counts(tensor: IntersectionTensor, classes: ConjugacyData) -> dict[tuple[str, str], int]:
    """Nonzero-triple counts for each (kind of Cl_i, kind of Cl_j) case of CASE_ORDER."""
    kinds = np.asarray(classes.kinds)
    nz = np.count_nonzero(tensor.p, axis=2)
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


def verify_product_identity(scheme: SchemeData, tensor: IntersectionTensor,
                            pairs: list[tuple[int, int]] | None = None) -> bool:
    """Check A_i A_j == sum_k p[i,j,k] A_k as exact matrix identities.

    With pairs=None every (i, j) is checked; callers pass a deterministic
    sample for larger groups.  The relations partition the pairs, so the
    right side is p[i, j] read at each entry's class.  The left side is a
    float64 product of 0/1 matrices, exact since each entry is at most |G|.
    """
    t1 = tensor.num_classes
    if pairs is None:
        pairs = [(i, j) for i in range(t1) for j in range(t1)]
    adjacency = {i: (scheme.class_matrix == i).astype(np.float64)
                 for i in {i for pair in pairs for i in pair}}
    for i, j in pairs:
        lhs = adjacency[i] @ adjacency[j]
        if not np.array_equal(lhs, tensor.p[i, j][scheme.class_matrix]):
            return False
    return True
