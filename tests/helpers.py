"""Independent brute-force oracles used to pin expected values in the tests.

Everything here recomputes quantities straight from a Cayley table with the
dumbest possible method, deliberately sharing no code with the package
internals beyond the table itself.  The last two functions convert between
dense blocks and the (rows, cols, vals) entries that PrimeBasis takes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import numpy as np


def oracle_inverse(mult: np.ndarray, g: int) -> int:
    for h in range(mult.shape[0]):
        if mult[g, h] == 0:
            return h
    raise AssertionError("no inverse")


def oracle_mult(n: int, s: int) -> list[list[int]]:
    """Cayley table of D(n,s) straight from the normal-form law
    (b^eps a^i)(b^delta a^j) = b^(eps xor delta) a^(i s^delta + j mod n),
    element eps*n + i standing for b^eps a^i."""
    table = []
    for x in range(2 * n):
        eps, i = divmod(x, n)
        row = []
        for y in range(2 * n):
            delta, j = divmod(y, n)
            row.append((eps ^ delta) * n + (i * s ** delta + j) % n)
        table.append(row)
    return table


def oracle_conjugacy_partition(mult: np.ndarray) -> set[frozenset[int]]:
    order = mult.shape[0]
    classes = set()
    for x in range(order):
        orbit = set()
        for g in range(order):
            gi = oracle_inverse(mult, g)
            orbit.add(int(mult[mult[g, x], gi]))
        classes.add(frozenset(orbit))
    return classes


def oracle_column_partition(mult: np.ndarray) -> set[frozenset[int]]:
    """The conjugacy classes as the columns of the conjugation table
    conj[g, x] = g x g^-1, formed with one gather: column x is the class of x.
    oracle_conjugacy_partition loops in Python over |G|^3 products, too slow
    for every pair up to n = 100."""
    inverse = np.argmax(mult == 0, axis=1)
    conj = mult[mult, inverse[:, None]]
    return set(map(frozenset, conj.T.tolist()))


def oracle_centralizer(mult: np.ndarray, g: int) -> int:
    return sum(1 for h in range(mult.shape[0]) if mult[g, h] == mult[h, g])


def oracle_burnside_pairs(mult: np.ndarray) -> int:
    order = mult.shape[0]
    total = sum(oracle_centralizer(mult, g) ** 2 for g in range(order))
    assert total % order == 0
    return total // order


def oracle_pair_orbits(mult: np.ndarray) -> set[frozenset[tuple[int, int]]]:
    """Orbits of simultaneous conjugation on pairs, each as an explicit set."""
    order = mult.shape[0]
    inverses = [oracle_inverse(mult, g) for g in range(order)]
    orbits = set()
    for x in range(order):
        for y in range(order):
            orbits.add(frozenset((int(mult[mult[g, x], inverses[g]]),
                                  int(mult[mult[g, y], inverses[g]]))
                                 for g in range(order)))
    return orbits


def oracle_least_keys(mult: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """The orbits of simultaneous conjugation on pairs, numbered by least key.

    Pair (x, y) has key x*order + y.  The least key of its orbit is the
    minimum over every g of the key of (g x g^-1, g y g^-1).  Returns
    (ids, reps): reps are the least keys in increasing order, and ids[x][y]
    is the position of the least key of (x, y) in reps.
    """
    table = mult.tolist()
    order = len(table)
    conj = []
    for g in range(order):
        g_inv = table[g].index(0)
        conj.append([table[table[g][x]][g_inv] for x in range(order)])
    least = [[min(c[x] * order + c[y] for c in conj) for y in range(order)]
             for x in range(order)]
    reps = sorted(least[x][y] for x in range(order) for y in range(order)
                  if least[x][y] == x * order + y)
    position = {key: i for i, key in enumerate(reps)}
    return [[position[key] for key in row] for row in least], reps


def oracle_t0_count(mult: np.ndarray, classes: list[tuple[int, ...]]) -> int:
    """|{(i,j,k) : Cl_k meets Cl_i * Cl_j}| by exhaustive products."""
    class_of = {}
    for ci, members in enumerate(classes):
        for x in members:
            class_of[x] = ci
    count = 0
    for ci, cj in itertools.product(range(len(classes)), repeat=2):
        hit = {class_of[int(mult[x, y])]
               for x in classes[ci] for y in classes[cj]}
        count += len(hit)
    return count


def oracle_intersection_tensor(mult: np.ndarray,
                               classes: list[tuple[int, ...]]) -> list[list[list[int]]]:
    """p[i][j][k] = |{z in Cl_i : y z^-1 in Cl_j}| for y the first member of
    Cl_k, counted one z at a time."""
    class_of = {}
    for ci, members in enumerate(classes):
        for x in members:
            class_of[x] = ci
    t1 = len(classes)
    p = [[[0] * t1 for _ in range(t1)] for _ in range(t1)]
    for k in range(t1):
        y = classes[k][0]
        for i in range(t1):
            for z in classes[i]:
                j = class_of[int(mult[y, oracle_inverse(mult, z)])]
                p[i][j][k] += 1
    return p


def oracle_tensor_per_class(mult: np.ndarray,
                            classes: list[tuple[int, ...]]) -> np.ndarray:
    """The same p[i, j, k] as oracle_intersection_tensor, counted one class k
    at a time with numpy, for groups too large for the one-z-at-a-time loop;
    inverses are read off the table, whose identity is 0."""
    class_of = np.empty(mult.shape[0], dtype=np.int64)
    for ci, members in enumerate(classes):
        class_of[list(members)] = ci
    inverse = np.argmax(mult == 0, axis=1)
    t1 = len(classes)
    p = np.zeros((t1, t1, t1), dtype=np.int64)
    for k, members in enumerate(classes):
        np.add.at(p[:, :, k], (class_of, class_of[mult[members[0], inverse]]), 1)
    return p


def oracle_product_identity(q: np.ndarray, p, i: int, j: int) -> bool:
    """A_i A_j == sum_k p[i][j][k] A_k for the dense 0/1 matrices A_k = (q == k),
    multiplied out in full."""
    a = [(q == k).astype(np.int64) for k in range(len(p))]
    return np.array_equal(a[i] @ a[j], sum(int(p[i][j][k]) * a[k] for k in range(len(p))))


def oracle_echelon(vectors, p: int) -> tuple[list[list[int]], list[int]]:
    """Fully reduced echelon basis over F_p built one vector at a time, in
    Python integers: each residual's first nonzero column becomes its pivot,
    and every earlier row is cleared there.  Returns (rows, pivot columns)."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = [int(x) % p for x in vec]
        for row, c in zip(rows, pivots):
            if v[c]:
                f = v[c]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        if not any(v):
            continue
        c = next(i for i, a in enumerate(v) if a)
        inv = pow(v[c], -1, p)
        v = [a * inv % p for a in v]
        for k, row in enumerate(rows):
            if row[c]:
                f = row[c]
                rows[k] = [(a - f * b) % p for a, b in zip(row, v)]
        rows.append(v)
        pivots.append(c)
    return rows, pivots


def oracle_rational_echelon(vectors) -> tuple[list[list[Fraction]], list[int]]:
    """Fully reduced echelon basis over the rationals built one vector at a
    time in Fractions, as oracle_echelon does over F_p: each residual's
    first nonzero column becomes its pivot, the row is scaled to 1 there,
    and every earlier row is cleared there.  Returns (rows, pivot columns)."""
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = oracle_rational_residual(vec, rows, pivots)
        if not any(v):
            continue
        c = next(i for i, a in enumerate(v) if a)
        v = [a / v[c] for a in v]
        for k, row in enumerate(rows):
            if row[c]:
                f = row[c]
                rows[k] = [a - f * b for a, b in zip(row, v)]
        rows.append(v)
        pivots.append(c)
    return rows, pivots


def oracle_rational_residual(vec, rows, pivots) -> list[Fraction]:
    """vec minus its component along fully reduced rows, in Fractions."""
    v = [Fraction(int(x)) for x in vec]
    for row, c in zip(rows, pivots):
        if v[c]:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def symmetric_table(k: int) -> np.ndarray:
    """Cayley table of the symmetric group on k points: element i is the
    i-th permutation in lexicographic order, so the identity is 0, and
    entry [i][j] is the index of the composition x -> perms[i][perms[j][x]]."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms])


def cyclic_table(m: int) -> np.ndarray:
    return np.array([[(i + j) % m for j in range(m)] for i in range(m)])


def c2_c4_table() -> np.ndarray:
    """Cayley table of C2 x C4: element 4 a + b is (a, b), added coordinatewise."""
    pairs = [(a, b) for a in range(2) for b in range(4)]
    return np.array([[4 * ((a + c) % 2) + (b + d) % 4 for c, d in pairs] for a, b in pairs])


def q8_table() -> np.ndarray:
    """Cayley table of the quaternion group: element 4 e + u is (-1)^e times
    the unit u of (1, i, j, k), multiplied by i j = k, j k = i, k i = j and
    i^2 = j^2 = k^2 = -1."""
    def unit_product(u: int, w: int) -> tuple[int, int]:
        if u == 0 or w == 0:
            return 0, u + w
        if u == w:
            return 1, 0
        return (0 if (u, w) in ((1, 2), (2, 3), (3, 1)) else 1), 6 - u - w
    table = np.zeros((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            sign, unit = unit_product(x % 4, y % 4)
            table[x, y] = 4 * ((x // 4 + y // 4 + sign) % 2) + unit
    return table


def one_dim_character(n: int, s: int, tau: int, k: int, sign: int, element: int) -> complex:
    """Character of the degree-1 representation a -> w^(nk/tau), b -> sign."""
    eps, i = divmod(element, n)
    return (sign ** eps) * np.exp(2j * np.pi * (n // tau) * k * i / n)


def two_dim_character(n: int, s: int, k: int, element: int) -> complex:
    """Trace of the degree-2 representation at b^eps a^i, built from matrices."""
    a = np.diag([np.exp(2j * np.pi * k / n), np.exp(2j * np.pi * k * s / n)])
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eps, i = divmod(element, n)
    rep = np.linalg.matrix_power(a, i)
    if eps:
        rep = b @ rep
    return complex(np.trace(rep))


def oracle_char_cells(n: int, s: int, kinds, reps) -> tuple[list[list], np.ndarray]:
    """The character table of D(n, s) one cell at a time, for the columns
    given by their kinds ('X', 'Y', 'Z') and representatives b^eps a^i.

    Rows are lin{k}+, lin{k}- for 0 <= k < tau, then the two-dimensional
    rows by ascending canonical k.  A cell is (coef, exponents of w), and
    its value is coef * sum(powers[e] for e in exponents)."""
    tau = gcd(s - 1, n)
    step = n // tau
    powers = (np.exp(2j * np.pi / n) ** np.arange(n)).tolist()
    exps = [rep - n if kind == "Z" else rep for kind, rep in zip(kinds, reps)]
    rows = []
    for sign in (1, -1):
        for k in range(tau):
            rows.append([(sign if kind == "Z" else 1, ((step * k * e) % n,))
                         for kind, e in zip(kinds, exps)])
    for k in sorted({min(k, (k * s) % n) for k in range(1, n) if k % step}):
        rows.append([(1, ()) if kind == "Z" else (1, ((k * e) % n, (k * e * s) % n))
                     for kind, e in zip(kinds, exps)])
    values = np.array([[coef * sum(powers[e] for e in es) for coef, es in row]
                       for row in rows], dtype=np.complex128)
    return rows, values


def entries(block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A dense block as the (rows, cols, vals) entries that PrimeBasis takes:
    its nonzeros, sorted by row and column."""
    block = np.asarray(block)
    rows, cols = np.nonzero(block)
    return rows, cols, block[rows, cols]


def densify(rows, cols, vals, shape) -> np.ndarray:
    """Entries as a dense int64 array of the given shape; a repeated
    (row, column) would overwrite, so each must come once."""
    assert len(set(zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()))) == len(rows)
    out = np.zeros(shape, dtype=np.int64)
    out[rows, cols] = vals
    return out
