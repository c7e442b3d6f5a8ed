import random

import numpy as np
import pytest

from terwilliger import (DEFAULT_PRIMES, PrimeBasis, RationalBasis, build_group,
                         build_scheme, conjugacy_classes, validate_params)

from helpers import oracle_echelon

PRIMES = (97, *DEFAULT_PRIMES)


def _vectors(rng, kind: str, count: int, length: int, p: int) -> np.ndarray:
    """Sparse 0/1 rows like the closure's, or dense residues; every fourth
    row is a combination of earlier ones, so some rows are dependent."""
    if kind == "sparse":
        rows = (rng.random((count, length)) < 0.1).astype(np.int64)
    else:
        rows = rng.integers(0, p, size=(count, length))
    for i in range(3, count, 4):
        rows[i] = (2 * rows[i - 1] + 3 * rows[i - 3]) % p
    return rows


def _state(basis: PrimeBasis) -> tuple:
    return basis.rank, basis.rows.tolist(), basis._pivot_cols[:basis.rank].tolist()


class TestPrimeBasis:
    def test_reduce_against_empty_basis(self):
        basis = PrimeBasis(97, 5)
        v = [3, 1, 4, 1, 5]
        assert np.array_equal(basis.reduce(v), np.array(v))

    def test_membership_after_insert(self):
        basis = PrimeBasis(97, 4)
        assert basis.insert([2, 4, 6, 8])
        assert not basis.reduce([1, 2, 3, 4]).any()  # scalar multiple

    def test_double_insert(self):
        basis = PrimeBasis(101, 3)
        assert basis.insert([1, 2, 3])
        assert not basis.insert([1, 2, 3])
        assert basis.rank == 1

    def test_unit_vectors_fill_space(self):
        basis = PrimeBasis(97, 16)
        for i in range(16):
            vec = np.zeros(16, dtype=int)
            vec[i] = 1
            assert basis.insert(vec)
        assert basis.rank == 16
        assert not basis.insert(np.arange(16))

    def test_reduce_is_linear_on_span_complement(self):
        basis = PrimeBasis(97, 6)
        basis.insert([1, 0, 0, 2, 0, 0])
        basis.insert([0, 1, 0, 0, 3, 0])
        in_span = np.array([2, 3, 0, 4, 9, 0])
        w = np.array([0, 0, 5, 0, 0, 7])   # supported away from the pivots
        assert not basis.reduce(in_span).any()
        assert np.array_equal(basis.reduce(in_span + w), w % 97)

    def test_bose_mesner_rank(self):
        # the adjacency matrices of D(3,2) are disjointly supported 0/1 matrices
        g = build_group(validate_params(3, 2))
        sd = build_scheme(g, conjugacy_classes(g))
        basis = PrimeBasis(DEFAULT_PRIMES[0], 36)
        for i in range(3):
            assert basis.insert(sd.adjacency(i).reshape(-1))
        assert basis.rank == 3

    def test_rank_invariant_under_insertion_order(self):
        rng = np.random.default_rng(7)
        vectors = [rng.integers(0, 50, size=12) for _ in range(20)]
        ranks = set()
        for seed in range(6):
            order = list(range(20))
            random.Random(seed).shuffle(order)
            basis = PrimeBasis(1009, 12)
            for idx in order:
                basis.insert(vectors[idx])
            ranks.add(basis.rank)
        assert len(ranks) == 1

    def test_two_primes_agree_on_small_integer_matrices(self):
        rng = np.random.default_rng(11)
        vectors = [rng.integers(0, 6, size=18) for _ in range(25)]
        ranks = []
        for p in DEFAULT_PRIMES:
            basis = PrimeBasis(p, 18)
            for v in vectors:
                basis.insert(v)
            ranks.append(basis.rank)
        rational = RationalBasis(18)
        for v in vectors:
            rational.insert(v.tolist())
        assert ranks[0] == ranks[1] == rational.rank

    def test_full_reduction_invariant(self):
        rng = np.random.default_rng(3)
        basis = PrimeBasis(97, 10)
        for _ in range(8):
            basis.insert(rng.integers(0, 97, size=10))
        rows = basis.rows
        for r in range(basis.rank):
            pivot = int(basis._pivot_cols[r])
            assert rows[r, pivot] == 1
            for other in range(basis.rank):
                if other != r:
                    assert rows[other, pivot] == 0

    def test_insert_block_matches_sequential_inserts(self):
        rng = np.random.default_rng(5)
        block = rng.integers(0, 97, size=(12, 9)).astype(float)
        one = PrimeBasis(97, 9)
        one.insert_block(block.copy())
        two = PrimeBasis(97, 9)
        for row in block:
            two.insert(row.astype(int))
        assert one.rank == two.rank
        assert np.array_equal(one.rows, two.rows)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_sequential_inserts_match_python_oracle(self, p, kind):
        rng = np.random.default_rng(p % 1000 + len(kind))
        vectors = _vectors(rng, kind, 24, 30, p)
        basis = PrimeBasis(p, 30)
        for vec in vectors:
            basis.insert(vec)
        rows, pivots = oracle_echelon(vectors, p)
        assert basis.rows.astype(np.int64).tolist() == rows
        assert basis._pivot_cols[:basis.rank].tolist() == pivots

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("stop", [None, 14])
    def test_consecutive_blocks_on_nonempty_basis_match_sequential_inserts(
            self, p, kind, stop):
        # rows stored before a call are only updated at its end
        rng = np.random.default_rng(p % 1000 + len(kind))
        start = _vectors(rng, kind, 6, 30, p)
        blocks = [_vectors(rng, kind, m, 30, p) for m in (9, 1, 8, 5)]
        one, two = PrimeBasis(p, 30), PrimeBasis(p, 30)
        for vec in start:
            one.insert(vec)
            two.insert(vec)
        assert one.rank > 0
        for block in blocks:
            before = two.rank
            for vec in block:
                if two.insert(vec) and stop is not None and two.rank >= stop:
                    break
            added = one.insert_block(block.astype(np.float64), stop_at_rank=stop)
            assert added == two.rank - before
            assert _state(one) == _state(two)

    @pytest.mark.parametrize("p", [2, *PRIMES, 2 ** 26 - 5])
    def test_mod_matches_integer_remainder(self, p):
        top = (2 ** 53 - 1) // p
        rng = np.random.default_rng(p)
        k = np.unique(np.concatenate([np.arange(1000), top - np.arange(1000),
                                      rng.integers(0, top, 5000)]))
        x = np.concatenate([k * p - 1, k * p, k * p + 1])
        x = x[np.abs(x) < 2 ** 53]
        x = np.concatenate([x, -x, [0]])
        basis = PrimeBasis(p, 1)
        assert np.array_equal(basis._mod(x.astype(np.float64)), (x % p).astype(np.float64))

    def test_reduce_block_leaves_rows_off_the_pivots_unchanged(self):
        basis = PrimeBasis(97, 8)
        basis.insert([1, 0, 5, 0, 0, 0, 0, 0])
        basis.insert([0, 0, 0, 1, 0, 7, 0, 0])
        block = np.array([[0, 3, 9, 0, 4, 96, 0, 1],
                          [0, 0, 0, 0, 0, 0, 96, 0]], dtype=np.float64)
        assert np.array_equal(basis.reduce_block(block), block)

    @pytest.mark.parametrize("p", PRIMES)
    def test_reduce_block_with_hit_and_unhit_rows_matches_dense_product(self, p):
        rng = np.random.default_rng(13)
        basis = PrimeBasis(p, 40)
        for vec in _vectors(rng, "sparse", 25, 40, p):
            basis.insert(vec)
        pivots = basis._pivot_cols[:basis.rank]
        block = _vectors(rng, "sparse", 30, 40, p) * rng.integers(1, 5 * p, size=(30, 1))
        block[::2, pivots] = 0  # these rows touch no pivot
        hit = (block % p)[:, pivots].any(axis=1)
        assert hit.any() and not hit.all()
        dense = (block % p - (block % p)[:, pivots] @ basis.rows.astype(np.int64)) % p
        assert np.array_equal(basis.reduce_block(block.astype(np.float64)), dense)

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_large_prime_products_split_into_exact_slabs(self, kind):
        # (p-1)^2 is just below 2^53, so every product runs one term per slab;
        # an unsplit sum of two such terms would already be inexact
        p = 94906249
        rng = np.random.default_rng(17)
        start = _vectors(rng, kind, 10, 30, p)
        block = _vectors(rng, kind, 16, 30, p)
        basis = PrimeBasis(p, 30)
        assert basis._slab == 1
        basis.insert_block(start.astype(np.float64))
        basis.insert_block(block.astype(np.float64))
        rows, pivots = oracle_echelon(np.concatenate([start, block]), p)
        assert basis.rows.astype(np.int64).tolist() == rows
        assert basis._pivot_cols[:basis.rank].tolist() == pivots
        probe = _vectors(rng, kind, 12, 30, p).astype(object)
        stored = np.array(rows, dtype=object)
        expected = (probe - probe[:, pivots] @ stored) % p
        assert basis.reduce_block(probe.astype(np.float64)).astype(np.int64).tolist() == \
            expected.tolist()

    def test_modulus_outside_every_slab_rejected(self):
        with pytest.raises(ValueError):
            PrimeBasis(94906267, 4)

    def test_modulus_mismatch_length(self):
        basis = PrimeBasis(97, 4)
        with pytest.raises(ValueError):
            basis.reduce([1, 2, 3])

    @pytest.mark.parametrize("length,width", [(5, 3), (3, 6)])
    def test_insert_block_width_mismatch(self, length, width):
        basis = PrimeBasis(97, length)
        with pytest.raises(ValueError):
            basis.insert_block(np.arange(1, width + 1, dtype=np.float64)[None, :])
        assert basis.rank == 0


class TestRationalBasis:
    def test_insert_and_membership(self):
        basis = RationalBasis(4)
        assert basis.insert([1, 2, 0, 0])
        assert basis.insert([0, 0, 1, 1])
        assert not basis.insert([2, 4, 3, 3])
        assert basis.rank == 2

    def test_sparse_dict_input(self):
        basis = RationalBasis(100)
        assert basis.insert({3: 1, 50: -1})
        assert basis.insert({3: 1, 51: -1})
        assert not basis.insert({50: 1, 51: -1})

    def test_reduce_zero(self):
        basis = RationalBasis(3)
        basis.insert([1, 1, 0])
        assert basis.reduce([2, 2, 0]) == {}
