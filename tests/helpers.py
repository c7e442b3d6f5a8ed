"""Independent brute-force oracles used to pin expected values in the tests.

Everything here recomputes quantities straight from a Cayley table with the
dumbest possible method, deliberately sharing no code with the package
internals beyond the table itself.
"""

from __future__ import annotations

import itertools

import numpy as np


def oracle_inverse(mult: np.ndarray, g: int) -> int:
    for h in range(mult.shape[0]):
        if mult[g, h] == 0:
            return h
    raise AssertionError("no inverse")


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


def s4_table() -> np.ndarray:
    """Cayley table of the symmetric group on 4 points, identity first."""
    perms = sorted(itertools.permutations(range(4)))
    perms.insert(0, perms.pop(perms.index(tuple(range(4)))))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[i]] for i in range(4))] for q in perms]
                     for p in perms])


def cyclic_table(m: int) -> np.ndarray:
    return np.array([[(i + j) % m for j in range(m)] for i in range(m)])


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
