import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from terwilliger import (DEFAULT_PRIMES, build_group, build_scheme, conjugacy_classes,
                         validate_params)
from terwilliger.modular import PrimeBasis, RationalBasis, check_modulus
from terwilliger.scheme import class_matrix

from helpers import (densify, entries, oracle_echelon, oracle_rational_echelon,
                     oracle_rational_residual)

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


def _lone_and_loop_rows(rng, kinds: str, p: int, ones: bool) -> np.ndarray:
    """One row per letter of `kinds`, on columns in random order.  An "l"
    row is lone: one to three columns that no other row touches.  An "o"
    row has one to three columns of its own plus one column that every "o"
    row shares, so it is never lone.  A "d" row is a combination of the last
    two "o" rows, so it is dependent, and it is never lone either.  The
    values are 1, as in the closure's 0/1 rows, or residues from 2 up, so
    that every lone row's leading entry needs its inverse.

    The other letters are rows of one entry, each at a column of the rows
    before it that are not lone, so never lone themselves.  Where it goes
    is read off the echelon basis of those rows, which is what the in-call
    elimination of the block holds when the row is reached: an "h" row at
    a column that is no pivot but where an entered row is nonzero (it
    enters, and that row drops the column), an "e" row at the pivot of an
    entered row of one entry (it reduces to zero), and a "p" row at the
    pivot of an entered row of more (its residual is that row's other
    entries).  An "h" or "p" row needs an entered row of two entries or
    more: right after the first "o" row there always is one, and an "h"
    row leaves a row of one entry for an "e" row."""
    length = 4 * len(kinds) + 1
    perm = rng.permutation(length)
    shared, free = perm[0], iter(perm[1:].tolist())
    rows = np.zeros((len(kinds), length), dtype=np.int64)
    for i, kind in enumerate(kinds):
        if kind == "d":
            a, b = [k for k in range(i) if kinds[k] == "o"][-2:]
            rows[i] = (2 * rows[a] + 3 * rows[b]) % p
            continue
        if kind in "hep":
            entered, pivots = oracle_echelon(rows[[k for k in range(i) if kinds[k] != "l"]], p)
            weight = [np.count_nonzero(row) for row in entered]
            cols = {"h": sorted({j for row in entered for j in np.flatnonzero(row)} - set(pivots)),
                    "e": [c for c, w in zip(pivots, weight) if w == 1],
                    "p": [c for c, w in zip(pivots, weight) if w > 1]}[kind]
            assert cols, f"no column for a {kind!r} row"
            own = [cols[rng.integers(len(cols))]]
        else:
            own = [next(free) for _ in range(rng.integers(1, 4))] + [shared] * (kind == "o")
        rows[i, own] = 1 if ones else rng.integers(2, p, len(own))
    nonzero = rows != 0
    lone = ~(nonzero & (nonzero.sum(axis=0) > 1)).any(axis=1)
    assert lone.tolist() == [kind == "l" for kind in kinds]
    return rows


def _check_room_cuts(block: np.ndarray, p: int) -> set[int]:
    """Check that the in-call elimination with each `room` up to the rank
    returns the first `room` rows that enter, as the oracle gives them;
    returns the block rows at which some cut falls, each the last row to
    enter below one cut."""
    basis = PrimeBasis(p, block.shape[1])
    cut_after = set()
    for room in range(len(oracle_echelon(block, p)[0]) + 1):
        new_rows, new_cols, new_vals, pivots = basis._eliminate(*entries(block), room)
        prefix = next(k for k in range(len(block) + 1)
                      if len(oracle_echelon(block[:k], p)[0]) == room)
        rows, want = oracle_echelon(block[:prefix], p)
        assert np.all(np.diff(new_rows) >= 0)
        full = densify(new_rows, new_cols, new_vals, (len(pivots), block.shape[1]))
        assert full.tolist() == rows and pivots.tolist() == want
        cut_after.add(prefix - 1)
    return cut_after


def _residual(basis: PrimeBasis, vec) -> np.ndarray:
    """The residual of one vector, on every column."""
    return _reduced(basis, np.asarray(vec)[None, :])[0]


def _reduced(basis: PrimeBasis, block) -> np.ndarray:
    """The residual of a dense block, handed over as its entries and
    densified back; the entries come out sorted, with nonzero residues."""
    rows, cols, vals = basis.reduce_block(*entries(block))
    key = rows * basis.length + cols
    assert np.all(np.diff(key) > 0) and np.all((vals > 0) & (vals < basis.p))
    return densify(rows, cols, vals, np.shape(block))


def _state(basis: PrimeBasis) -> tuple:
    return (basis.rank, basis.dense_rows(0, basis.rank).tolist(),
            basis._pivot_cols[:basis.rank].tolist())


class TestPrimeBasis:
    def test_reduce_against_empty_basis(self):
        basis = PrimeBasis(97, 5)
        v = [3, 1, 4, 1, 5]
        assert np.array_equal(_residual(basis, v), np.array(v))

    def test_membership_after_insert(self):
        basis = PrimeBasis(97, 4)
        assert basis.insert([2, 4, 6, 8])
        assert not _residual(basis, [1, 2, 3, 4]).any()  # scalar multiple
        assert basis.insert_block(*entries([[3, 6, 9, 12]])) == 0

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
        assert not _residual(basis, in_span).any()
        assert np.array_equal(_residual(basis, in_span + w), w % 97)

    def test_bose_mesner_rank(self):
        # the adjacency matrices of D(3,2) are disjointly supported 0/1 matrices
        g = build_group(validate_params(3, 2))
        c = conjugacy_classes(g)
        build_scheme(g, c)
        basis = PrimeBasis(DEFAULT_PRIMES[0], 36)
        q = class_matrix(g, c)
        for i in range(3):
            assert basis.insert((q == i).astype(np.int64).reshape(-1))
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
        rows = basis.dense_rows(0, basis.rank)
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
        one.insert_block(*entries(block))
        two = PrimeBasis(97, 9)
        for row in block:
            two.insert(row.astype(int))
        assert one.rank == two.rank
        assert np.array_equal(one.dense_rows(0, one.rank), two.dense_rows(0, two.rank))

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_sequential_inserts_match_python_oracle(self, p, kind):
        rng = np.random.default_rng(p % 1000 + len(kind))
        vectors = _vectors(rng, kind, 24, 30, p)
        basis = PrimeBasis(p, 30)
        for vec in vectors:
            basis.insert(vec)
        rows, pivots = oracle_echelon(vectors, p)
        assert basis.dense_rows(0, basis.rank).astype(np.int64).tolist() == rows
        assert basis._pivot_cols[:basis.rank].tolist() == pivots

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_consecutive_blocks_on_nonempty_basis_match_sequential_inserts(self, p, kind):
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
                two.insert(vec)
            added = one.insert_block(*entries(block))
            assert added == two.rank - before
            assert _state(one) == _state(two)
            _check_store(one)

    @pytest.mark.parametrize("p", [2, *PRIMES, 2 ** 26 - 5])
    def test_mod_matches_integer_remainder(self, p):
        # values near multiples of p up to 2^53, both signs: each block value
        # is taken to its residue, and the product with the stored p - 1 at
        # column 1 is reduced mod p before it is summed
        top = (2 ** 53 - 1) // p
        rng = np.random.default_rng(p)
        k = np.unique(np.concatenate([np.arange(1000), top - np.arange(1000),
                                      rng.integers(0, top, 5000)]))
        x = np.concatenate([k * p - 1, k * p, k * p + 1])
        x = x[np.abs(x) < 2 ** 53]
        x = np.concatenate([x, -x, [0]])
        y = rng.permutation(x)
        basis = PrimeBasis(p, 2)
        basis.insert([1, p - 1])
        block = np.stack([x, y], axis=1)
        rows, cols, vals = basis.reduce_block(*entries(block))
        want = [(int(b) - int(a) * (p - 1)) % p for a, b in zip(x, y)]
        assert rows.tolist() == [i for i, w in enumerate(want) if w]
        assert cols.tolist() == [1] * len(rows)
        assert vals.tolist() == [w for w in want if w]

    def test_reduce_block_leaves_rows_off_the_pivots_unchanged(self):
        basis = PrimeBasis(97, 8)
        basis.insert([1, 0, 5, 0, 0, 0, 0, 0])
        basis.insert([0, 0, 0, 1, 0, 7, 0, 0])
        block = np.array([[0, 3, 9, 0, 4, 96, 0, 1],
                          [0, 0, 0, 0, 0, 0, 96, 0]])
        got = basis.reduce_block(*entries(block))
        assert all(np.array_equal(x, y) for x, y in zip(got, entries(block)))

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
        stored = basis.dense_rows(0, basis.rank).astype(np.int64)
        dense = (block % p - (block % p)[:, pivots] @ stored) % p
        assert np.array_equal(_reduced(basis, block), dense)

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_older_rows_update_exactly_at_the_largest_prime(self, kind):
        # (p-1)^2 is just below 2^53: every product of two residues is taken
        # mod p before the int64 sums, in the block's reduction and in the
        # update of the older rows the new pivots hit
        p = 94906249
        rng = np.random.default_rng(17)
        start = _vectors(rng, kind, 10, 30, p)
        block = _vectors(rng, kind, 16, 30, p)
        basis = PrimeBasis(p, 30)
        basis.insert_block(*entries(start))
        basis.insert_block(*entries(block))
        rows, pivots = oracle_echelon(np.concatenate([start, block]), p)
        assert basis.dense_rows(0, basis.rank).astype(np.int64).tolist() == rows
        assert basis._pivot_cols[:basis.rank].tolist() == pivots
        probe = _vectors(rng, kind, 12, 30, p).astype(object)
        stored = np.array(rows, dtype=object)
        expected = (probe - probe[:, pivots] @ stored) % p
        assert _reduced(basis, probe.astype(np.int64)).tolist() == expected.tolist()

    @pytest.mark.parametrize("p", [*PRIMES, 94906249])
    def test_one_coefficient_per_row_is_a_gather(self, p):
        # stored rows [I | r] on pivots 0..6; a block row [c | a] reduces to
        # a - c @ r on columns 7..15.  Rows with one coefficient gather one
        # stored row each; a zero row and rows with two or more coefficients
        # sum their gathered terms, and every case matches row by row
        rng = np.random.default_rng(p)
        basis = PrimeBasis(p, 16)
        a = rng.integers(0, p, size=(12, 9))
        r = rng.integers(0, p, size=(7, 9))
        single = np.zeros((12, 7), dtype=np.int64)
        single[np.arange(12), rng.integers(0, 7, 12)] = rng.integers(1, p, 12)
        single[0] = 0
        single[0, 3] = p - 1  # the largest term, (p-1)^2
        r[3, 0] = p - 1
        zero_row, two_terms = single.copy(), single.copy()
        zero_row[5] = 0
        two_terms[5, (np.flatnonzero(single[5])[0] + 1) % 7] = p - 1
        both = two_terms.copy()
        both[8] = 0
        both[9] = rng.integers(1, p, 7)  # every pivot at once
        assert basis.insert_block(*entries(np.concatenate(
            [np.eye(7, dtype=np.int64), r], axis=1))) == 7
        for c in (single, zero_row, two_terms, both):
            block = np.concatenate([c, a], axis=1)
            got = _reduced(basis, block)
            loop = np.array([_residual(basis, row) for row in block])
            oracle = (a.astype(object) - c.astype(object) @ r.astype(object)) % p
            assert np.array_equal(got, loop)
            assert not got[:, :7].any()
            assert got[:, 7:].tolist() == oracle.tolist()

    def test_one_older_row_hit_by_many_new_pivots(self):
        # row 0 is nonzero at all 40 pivots of the second block, so its
        # update sums 40 gathered terms at each of the columns 41..80; where
        # row 0 holds 1 and a new row p - 1, the term is (p-1)^2 before its
        # reduction mod p
        p, k = 94906249, 40
        rng = np.random.default_rng(31)
        first = np.zeros((1, 2 * k + 1), dtype=np.int64)
        first[0, 0] = 1
        first[0, 1:] = rng.integers(1, p, 2 * k)
        first[0, 1:k + 1:3] = 1
        second = np.zeros((k, 2 * k + 1), dtype=np.int64)
        second[:, 1:k + 1] = np.eye(k, dtype=np.int64)
        second[:, k + 1:] = rng.integers(1, p, size=(k, k))
        second[::4, k + 1::2] = p - 1
        basis = PrimeBasis(p, 2 * k + 1)
        basis.insert_block(*entries(first))
        assert basis.insert_block(*entries(second)) == k
        _check_store(basis)
        rows, pivots = oracle_echelon(np.concatenate([first, second]), p)
        assert basis.dense_rows(0, basis.rank).astype(np.int64).tolist() == rows
        assert basis._pivot_cols[:basis.rank].tolist() == pivots
        assert first[0, 1:k + 1].all() and not any(rows[0][1:k + 1])

    def test_modulus_too_large_rejected(self):
        with pytest.raises(ValueError):
            PrimeBasis(94906267, 4)

    def test_modulus_mismatch_length(self):
        basis = PrimeBasis(97, 4)
        with pytest.raises(ValueError):
            basis.insert([1, 2, 3])
        assert basis.rank == 0

    @pytest.mark.parametrize("rows,cols,vals", [([0, 0, 0], [0, 1, 2], [1, 2]),
                                                 ([0, 0], [0, 1, 2], [1, 2, 3]),
                                                 ([[0, 0]], [[0, 1]], [[1, 2]])],
                             ids=["short_vals", "short_rows", "two_dimensional"])
    def test_insert_block_misaligned_entries(self, rows, cols, vals):
        basis = PrimeBasis(97, 5)
        with pytest.raises(ValueError):
            basis.insert_block(np.array(rows), np.array(cols), np.array(vals))
        assert basis.rank == 0

    @pytest.mark.parametrize("p", PRIMES)
    def test_blocks_on_quotient_cols_match_full_width(self, p):
        # unit rows have their pivot outside C; the blocks are nonzero there,
        # as a later closure round's products are, and one C serves every block
        rng = np.random.default_rng(p % 1000 + 7)
        start = np.concatenate([_vectors(rng, "sparse", 12, 40, p),
                                np.eye(40, dtype=np.int64)[[3, 17, 26, 38]]])
        full, compact = PrimeBasis(p, 40), PrimeBasis(p, 40)
        for vec in start:
            full.insert(vec)
            compact.insert(vec)
        inserted = start
        cols = compact.quotient_cols()
        unit_pivots = np.setdiff1d(np.arange(40), cols)
        assert len(compact._off_rows) and len(unit_pivots)
        for m in (9, 1, 8, 5, 6):
            block = _vectors(rng, "sparse", m, 40, p) * rng.integers(1, 5 * p, size=(m, 1))
            block[:, unit_pivots] = rng.integers(1, p, size=(m, len(unit_pivots)))
            # the compact block leaves out every entry off C
            r, c = np.nonzero(block[:, cols])
            on_c = r, cols[c], block[r, cols[c]]
            want = _reduced(full, block)
            assert np.array_equal(densify(*compact.reduce_block(*on_c), want.shape), want)
            assert full.insert_block(*entries(block)) == compact.insert_block(*on_c)
            assert _state(compact) == _state(full)
            assert _off_index(compact) == _off_index(full) == _nonzeros_off_pivot(full)
            _check_store(compact)
            _check_store(full)
            inserted = np.concatenate([inserted, block])
            # an independent check of the rows that `rows` densifies
            rows, pivots = oracle_echelon(inserted, p)
            assert full.dense_rows(0, full.rank).astype(np.int64).tolist() == rows
            assert full._pivot_cols[:full.rank].tolist() == pivots
        assert np.isin(compact.quotient_cols(), cols).all()

    @pytest.mark.parametrize("p", PRIMES)
    def test_block_reaching_full_rank_partway_matches_sequential_inserts(self, p):
        # the rank reaches length in the middle of the call; the rows after
        # that point are nonzero against the stored rows but must not enter
        rng = np.random.default_rng(p % 1000 + 3)
        start = _vectors(rng, "dense", 24, 30, p)
        block = _vectors(rng, "dense", 24, 30, p)
        one, two = PrimeBasis(p, 30), PrimeBasis(p, 30)
        one.insert_block(*entries(start))
        for vec in start:
            two.insert(vec)
        assert _state(one) == _state(two) and one.rank < 20
        full_at = None
        for i, vec in enumerate(block):
            two.insert(vec)
            if full_at is None and two.rank == 30:
                full_at = i
        assert full_at is not None and full_at < len(block) - 2
        before = one.rank
        assert one.insert_block(*entries(block)) == 30 - before
        assert _state(one) == _state(two)
        _check_store(one)
        assert one.insert_block(*entries(block)) == 0

    @pytest.mark.parametrize("p", [*PRIMES, 94906249])
    @pytest.mark.parametrize("ones", [True, False], ids=["unit_leads", "non_unit_leads"])
    @pytest.mark.parametrize("kinds", ["lllll", "ooodoo", "lololdlo", "oodolll", "llloood",
                                       "lolhelod", "oplold"],
                             ids=["every_row_lone", "no_row_lone", "interleaved",
                                  "lone_after_loop", "lone_before_loop",
                                  "one_entry_at_fresh_and_unit_pivot",
                                  "one_entry_at_longer_pivot"])
    def test_lone_rows_match_python_oracle(self, p, ones, kinds):
        # lone rows, rows sharing columns and rows of one entry at a fresh
        # column or at an entered pivot all come out in block order, as the
        # oracle enters them; on a nonempty basis the block is reduced
        # first, and the stored rows must then be cleared
        rng = np.random.default_rng(p % 1000 + len(kinds))
        block = _lone_and_loop_rows(rng, kinds, p, ones)
        length = block.shape[1]
        empty = PrimeBasis(p, length)
        dependent = kinds.count("d") + kinds.count("e")
        assert empty.insert_block(*entries(block)) == len(kinds) - dependent
        rows, pivots = oracle_echelon(block, p)
        assert empty.dense_rows(0, empty.rank).astype(np.int64).tolist() == rows
        assert empty._pivot_cols[:empty.rank].tolist() == pivots
        start = _vectors(rng, "sparse", 6, length, p)
        basis = PrimeBasis(p, length)
        basis.insert_block(*entries(start))
        basis.insert_block(*entries(block))
        rows, pivots = oracle_echelon(np.concatenate([start, block]), p)
        assert basis.dense_rows(0, basis.rank).astype(np.int64).tolist() == rows
        assert basis._pivot_cols[:basis.rank].tolist() == pivots
        _check_store(basis)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("kinds", ["lolodlool", "lllll", "llloood", "oodolll"],
                             ids=["interleaved", "every_row_lone", "lone_before_loop",
                                  "lone_after_loop"])
    def test_room_cut_falls_between_lone_and_loop_rows(self, p, kinds):
        # the in-call elimination returns the first `room` rows that enter;
        # the cuts fall after a lone row and before a row sharing columns
        # and the other way round, among lone rows only, and at one boundary
        # either way
        rng = np.random.default_rng(p % 1000 + 11)
        _check_room_cuts(_lone_and_loop_rows(rng, kinds, p, ones=False), p)

    @pytest.mark.parametrize("p", [*PRIMES, 94906249])
    @pytest.mark.parametrize("ones", [True, False], ids=["unit_leads", "non_unit_leads"])
    def test_room_cut_falls_on_a_one_entry_row(self, p, ones):
        # the "h" row enters with one entry, and some cut falls right after
        # it
        rng = np.random.default_rng(p % 1000 + 13)
        kinds = "olhelo"
        block = _lone_and_loop_rows(rng, kinds, p, ones)
        assert _check_room_cuts(block, p) >= {i for i, kind in enumerate(kinds) if kind == "h"}

    @pytest.mark.parametrize("fill", [False, True], ids=["dependent_rows", "full_in_second_slice"])
    def test_block_over_2048_rows_matches_sequential_inserts(self, fill):
        # the first 2048 rows span 20 of the 24 columns; with `fill`, the
        # rows after them reach full rank early, and no later row enters
        p, length = DEFAULT_PRIMES[0], 24
        rng = np.random.default_rng(fill)
        block = _vectors(rng, "sparse", 2100 + 2048 * fill, length, p)
        block[:2048 if fill else None, 20:] = 0
        block[2048:2060] = 0  # rows with no entries
        if fill:
            block[2060:2060 + length] = np.eye(length, dtype=np.int64)[::-1]
        two = PrimeBasis(p, length)
        for vec in block[:2100]:
            two.insert(vec)
        rows, pivots = oracle_echelon(block[:2100], p)
        one = PrimeBasis(p, length)
        added = one.insert_block(*entries(block))
        assert one.rank == added == (length if fill else 20)
        assert _state(one) == _state(two)
        assert one.dense_rows(0, one.rank).astype(np.int64).tolist() == rows
        assert one._pivot_cols[:one.rank].tolist() == pivots

    @pytest.mark.parametrize("p", PRIMES)
    def test_store_stays_sorted_after_updates_to_older_rows(self, p):
        # the first rows hold entries at 8..27; the next block puts pivots
        # at 8..11 and is nonzero up to 23, so every older row changes at
        # 8..23 and keeps its entries at 24..27: the changed entries go back
        # in the middle of the store, before the new rows' entries
        rng = np.random.default_rng(p % 1000 + 23)
        length = 28
        first = np.zeros((8, length), dtype=np.int64)
        first[:, :8] = np.eye(8, dtype=np.int64)
        first[:, 8:] = rng.integers(1, p, size=(8, 20))
        second = np.zeros((4, length), dtype=np.int64)
        second[:, 8:12] = np.eye(4, dtype=np.int64)
        second[:, 12:24] = rng.integers(1, p, size=(4, 12))
        third = _vectors(rng, "dense", 6, length, p)
        basis = PrimeBasis(p, length)
        inserted = np.zeros((0, length), dtype=np.int64)
        for block in (first, second, third):
            older = basis.dense_rows(0, min(basis.rank, 8))
            basis.insert_block(*entries(block))
            if block is second:  # every older row changed, at 8..23 only
                changed = older != basis.dense_rows(0, 8)
                assert changed[:, 8:24].any(axis=1).all() and not changed[:, 24:].any()
            inserted = np.concatenate([inserted, block])
            _check_store(basis)
            rows, pivots = oracle_echelon(inserted, p)
            assert basis.dense_rows(0, basis.rank).astype(np.int64).tolist() == rows
            assert basis._pivot_cols[:basis.rank].tolist() == pivots
            probe = _vectors(rng, "dense", 5, length, p).astype(object)
            stored = np.array(rows, dtype=object)
            assert _reduced(basis, probe.astype(np.int64)).tolist() == \
                ((probe - probe[:, pivots] @ stored) % p).tolist()

    def test_one_entry_sums_over_1024_terms_at_the_largest_prime(self):
        # 1100 stored rows e_i + (p-1) e_K, and a vector with 1 at each of
        # their pivots: its residual at K sums 1100 terms -1 * (p-1), each
        # (p-1)^2 near 2^53 as a residue, which overflow int64 unless each
        # is reduced mod p first
        p, k = 94906249, 1100
        basis = PrimeBasis(p, k + 1)
        pairs = np.stack([np.arange(k), np.full(k, k)], axis=1).ravel()
        assert basis.insert_block(np.repeat(np.arange(k), 2), pairs, np.tile([1, p - 1], k)) == k
        assert k * (p - 1) ** 2 >= 2 ** 63
        got = basis.reduce_block(np.zeros(k, dtype=np.int64), np.arange(k),
                                 np.ones(k, dtype=np.int64))
        assert [x.tolist() for x in got] == [[0], [k], [k]]  # -k * (p-1) = k mod p

    def test_footprint_does_not_grow_with_length_squared(self):
        # a dense length x length float64 store would take 3.2 GB here
        length = 20000
        block = entries(np.random.default_rng(1).integers(0, 97, size=(3, length)))
        tracemalloc.start()
        try:
            basis = PrimeBasis(DEFAULT_PRIMES[0], length)
            assert basis.insert_block(*block) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("cols", [[0, 2, 1], [0, 0, 1], [-1, 0, 1], [0, 1, 6], [0, 1],
                                      [0.0, 1.5, 2.9]])
    def test_bad_cols_rejected(self, cols):
        # one row's columns: out of order, repeated, out of range, one too
        # few for the values, or not integers
        basis = PrimeBasis(97, 6)
        rows, vals = np.zeros(3, dtype=np.int64), np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError):
            basis.insert_block(rows, np.array(cols), vals)
        with pytest.raises(ValueError):
            basis.reduce_block(rows, np.array(cols), vals)
        assert basis.rank == 0

    @pytest.mark.parametrize("rows", [[1, 0], [0.0, 1.0], [-1, 0]],
                             ids=["out_of_order", "not_integers", "negative"])
    def test_bad_rows_rejected(self, rows):
        basis = PrimeBasis(97, 6)
        cols, vals = np.array([2, 3]), np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError):
            basis.insert_block(np.array(rows), cols, vals)
        with pytest.raises(ValueError):
            basis.reduce_block(np.array(rows), cols, vals)
        assert basis.rank == 0


def _off_index(basis: PrimeBasis) -> list:
    return sorted(zip(basis._off_rows.tolist(), basis._off_cols.tolist()))


def _check_store(basis: PrimeBasis) -> None:
    """The off-pivot values are aligned with their rows and columns, every
    one is a nonzero residue, and the store is sorted by row."""
    assert len(basis._off_vals) == len(basis._off_rows) == len(basis._off_cols)
    assert ((basis._off_vals > 0) & (basis._off_vals < basis.p)).all()
    assert np.all(np.diff(basis._off_rows) >= 0)


def _nonzeros_off_pivot(basis: PrimeBasis) -> list:
    rows, cols = np.nonzero(basis.dense_rows(0, basis.rank))
    off = cols != basis._pivot_cols[rows]
    return sorted(zip(rows[off].tolist(), cols[off].tolist()))


class TestCheckModulus:
    """A modulus is accepted only while (p-1)^2 < 2^53, so that every product
    of two residues is exact in int64 and in float64."""

    @pytest.mark.parametrize("p", [94906249, 94906247])
    def test_largest_primes_accepted(self, p):
        check_modulus(p)
        assert PrimeBasis(p, 3).p == p

    @pytest.mark.parametrize("p", [94906267, 998244353, 1000000007, 9223372036854775783])
    def test_outside_float64_window_rejected(self, p):
        assert (p - 1) ** 2 >= 2 ** 53
        with pytest.raises(ValueError, match=f"^modulus {p} is too large"):
            check_modulus(p)


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

    def test_unit_pivots_keep_integer_entries(self):
        # rows e_a - e_b, as a directed graph's incidence rows: +-1 entries
        # whose pivots stay +-1
        basis = RationalBasis(6)
        for a, b in [(1, 0), (3, 1), (4, 3), (0, 4), (5, 2), (2, 5), (1, 4)]:
            basis.insert({a: 1, b: -1})
        values = [x for row in basis.rows for x in row.values()]
        assert basis.rank == 4 and all(type(x) is int for x in values)
        assert basis.reduce({0: 2, 4: -2}) == {}
        assert basis.reduce({0: 2, 5: -2}) == {4: 2, 5: -2}

    def test_integral_difference_of_fractions_is_stored_as_int(self):
        basis = RationalBasis(3)
        basis.insert([2, 1, 3])  # stored as 1, 1/2, 3/2
        basis.insert([0, 2, 2])  # clears 1/2 and leaves 3/2 - 1/2 = 1
        assert basis.rows == [{0: 1, 2: 1}, {1: 1, 2: 1}]
        assert all(type(x) is int for row in basis.rows for x in row.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fraction_oracle_with_non_unit_pivots(self, seed):
        # entries in [-3, 3] give pivots other than +-1, so some stored
        # values are proper fractions; every fourth row is dependent
        rng = np.random.default_rng(seed)
        vectors = rng.integers(-3, 4, size=(10, 14))
        vectors[::3, :2] = 0  # rows that start later
        for i in range(3, 10, 4):
            vectors[i] = 2 * vectors[i - 1] - 3 * vectors[i - 3]
        basis = RationalBasis(14)
        for vec in vectors:
            basis.insert(vec.tolist())
        rows, pivots = oracle_rational_echelon(vectors)
        assert basis.rank == len(rows)
        assert list(basis.pivot_of) == pivots
        assert [[row.get(c, 0) for c in range(14)] for row in basis.rows] == rows
        values = [x for row in basis.rows for x in row.values()]
        assert any(isinstance(x, Fraction) for x in values)
        assert all(x != 0 and (isinstance(x, int) or x.denominator != 1) for x in values)
        for probe in rng.integers(-5, 6, size=(6, 14)):
            want = oracle_rational_residual(probe, rows, pivots)
            assert basis.reduce(probe.tolist()) == {c: x for c, x in enumerate(want) if x}
