import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import (cyclic_table, densify, entries, oracle_burnside_pairs, oracle_echelon,
                     s4_table)
from terwilliger import (GroupTable, build_group, build_scheme,
                         commutant_oracle, conjugacy_classes, dim_t0,
                         dim_t_tilde, dual_idempotents, generic_conjugacy_classes,
                         intersection_numbers, valid_twists, validate_params)
from terwilliger import algebra
from terwilliger.algebra import _GeneratorProducts, _modular_closure, algebra_closure
from terwilliger.groups import ConsistencyError, pair_orbits
from terwilliger.modular import DEFAULT_PRIMES, PrimeBasis


def closure_inputs(n, s):
    group = build_group(validate_params(n, s))
    classes = conjugacy_classes(group)
    sd = build_scheme(group, classes)
    tensor = intersection_numbers(group, classes)
    return sd, dual_idempotents(sd), dim_t0(tensor)


def run_modular_closure(n, s, bound_above_t_tilde=0, prime=DEFAULT_PRIMES[0]):
    """One prime's closure in canonical seed order; returns the basis, the
    generator products, the rounds and the history."""
    sd, _, _ = closure_inputs(n, s)
    products = _GeneratorProducts(sd, *pair_orbits(sd.group))
    bound = dim_t_tilde(sd.group) + bound_above_t_tilde
    basis = PrimeBasis(prime, len(products.u))
    canonical = list(range(2 * sd.num_relations))
    rounds, history = _modular_closure(basis, products, canonical, bound)
    return basis, products, rounds, tuple(history)


class TestDualIdempotents:
    def test_class_indicator_diagonals(self):
        sd, idem, _ = closure_inputs(3, 2)
        assert np.array_equal(idem.diagonals[1], np.array([0, 1, 1, 0, 0, 0]))

    def test_sum_is_identity_and_orthogonal(self):
        sd, idem, _ = closure_inputs(8, 3)
        diag = idem.diagonals
        assert np.array_equal(diag.sum(axis=0), np.ones(16, dtype=int))
        for i in range(diag.shape[0]):
            for j in range(diag.shape[0]):
                prod = diag[i] * diag[j]
                assert np.array_equal(prod, diag[i] if i == j else np.zeros(16, dtype=int))

    def test_sandwich_support(self):
        # E_i A_j E_k is supported inside Cl_i x Cl_k
        sd, idem, _ = closure_inputs(4, 3)
        classes = sd.classes
        for i in range(classes.num_classes):
            for j in range(classes.num_classes):
                for k in range(classes.num_classes):
                    m = (np.diag(idem.diagonals[i]) @ sd.adjacency(j)
                         @ np.diag(idem.diagonals[k]))
                    rows, cols = np.nonzero(m)
                    assert set(rows).issubset(set(classes.classes[i]))
                    assert set(cols).issubset(set(classes.classes[k]))


class TestAlgebraClosure:
    @pytest.mark.parametrize("n,s,expected", [(3, 2, 11), (4, 3, 28), (8, 5, 112)])
    def test_frozen_dimensions(self, n, s, expected):
        sd, idem, t0 = closure_inputs(n, s)
        cert = algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group))
        assert cert.dim_t == expected
        assert cert.provenance == "exact"
        assert t0 == cert.dim_t_tilde == expected

    def test_history_is_monotone_and_bounded(self):
        sd, idem, t0 = closure_inputs(8, 3)
        cert = algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group))
        for history in cert.basis_size_history:
            assert list(history) == sorted(history)
            assert history[-1] <= cert.dim_t_tilde
        assert t0 <= cert.dim_t <= cert.dim_t_tilde

    def test_seed_permutation_invariance(self):
        import random
        sd, idem, t0 = closure_inputs(8, 5)
        base = algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group))
        for seed in (1, 2, 3):
            order = list(range(2 * sd.num_relations))
            random.Random(seed).shuffle(order)
            cert = algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group),
                                   seed_order=order)
            assert cert.dim_t == base.dim_t
            assert cert.dim_t_tilde == base.dim_t_tilde

    def test_custom_primes(self):
        sd, idem, t0 = closure_inputs(6, 5)
        cert = algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group),
                               primes=(9973, 7919))
        assert cert.dim_t == 44
        assert cert.primes == (9973, 7919)

    def test_equal_primes_rejected(self):
        sd, idem, t0 = closure_inputs(3, 2)
        with pytest.raises(ValueError):
            algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group),
                            primes=(97, 97))

    def test_rational_mode_matches_on_every_small_pair(self):
        for n in range(3, 11):
            for s in valid_twists(n):
                sd, idem, t0 = closure_inputs(n, s)
                # with exact_rational, dim_t is the rational closure's rank
                orbits = pair_orbits(sd.group)
                rational = algebra_closure(sd, idem, dim_t0_value=t0, orbits=orbits,
                                           exact_rational=True)
                modular = algebra_closure(sd, idem, dim_t0_value=t0, orbits=orbits)
                assert rational.dim_t == modular.dim_t, (n, s)
                assert rational.provenance == modular.provenance == "exact", (n, s)

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (8, 3)])
    def test_final_basis_closed_under_transpose(self, n, s):
        # in orbital coordinates M[x, y] = m[ids[x, y]], so M^T reads m[ids[v, u]]
        basis, products, _, _ = run_modular_closure(n, s)
        transposed = products.ids[products.v, products.u]
        stored = basis.dense_rows(0, basis.rank)
        rows, _, _ = basis.reduce_block(*entries(stored[:, transposed].astype(np.int64)))
        assert not len(rows)

    def test_generators_must_be_constant_on_orbit_cells(self):
        # each case merges two orbits that only one label tells apart: two
        # off-diagonal orbits of different relations (the A side), and the
        # diagonal orbits of two classes, both in the identity relation (E*)
        sd, idem, t0 = closure_inputs(8, 3)
        ids, reps = pair_orbits(sd.group)
        u, v = np.divmod(reps, sd.order)
        relation = sd.class_matrix[u, v]
        off, diagonal = np.flatnonzero(u != v), np.flatnonzero(u == v)
        for a, b in [(off[0], off[relation[off] != relation[off[0]]][0]), diagonal[:2]]:
            corrupted = np.where(ids == b, a, ids)
            with pytest.raises(ConsistencyError, match="not constant"):
                algebra_closure(sd, idem, dim_t0_value=t0, orbits=(corrupted, reps))

    def test_short_enumeration_checked_against_burnside(self):
        # the number of orbits handed in is checked against the Burnside
        # count; an enumeration one orbit short fails
        sd, idem, t0 = closure_inputs(8, 3)
        ids, reps = pair_orbits(sd.group)
        assert algebra_closure(sd, idem, dim_t0_value=t0,
                               orbits=(ids, reps)).dim_t_tilde == 64
        with pytest.raises(ConsistencyError, match="Burnside 64 vs enumeration 63"):
            algebra_closure(sd, idem, dim_t0_value=t0, orbits=(ids, reps[:-1]))

    @pytest.mark.parametrize("n,s,rounds,history", [
        (8, 3, 3, (13, 63, 64, 64)),
        (16, 7, 3, (21, 179, 184, 184)),
    ])
    def test_saturation_short_of_the_bound(self, n, s, rounds, history):
        # an unreachable bound: the loop ends after a round that adds nothing
        _, _, got_rounds, got_history = run_modular_closure(n, s, bound_above_t_tilde=1)
        assert (got_rounds, got_history) == (rounds, history)

    def test_cells_alone_end_round_two_at_the_bound(self, monkeypatch):
        # T0 = T~ for every D(n,s), so the cells reach the bound and no left
        # product is formed; above the bound they fall short and are left out
        calls = []
        all_products = _GeneratorProducts.all_products
        monkeypatch.setattr(_GeneratorProducts, "all_products",
                            lambda self, cols: calls.append(len(cols)) or all_products(self, cols))
        assert run_modular_closure(16, 7)[2:] == (2, (21, 179, 184)) and not calls
        assert run_modular_closure(16, 7, bound_above_t_tilde=1)[2:] == (3, (21, 179, 184, 184))
        assert len(calls) == 2

    def test_round_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(algebra, "ROUND_BUDGET", 1)
        with pytest.raises(ConsistencyError, match="did not stabilize"):
            run_modular_closure(8, 3, bound_above_t_tilde=1)

    @pytest.mark.parametrize("n,s,rounds,history", [
        (8, 3, 2, (13, 63, 64)),
        (8, 5, 1, (19, 112)),
        (16, 7, 2, (21, 179, 184)),
        (24, 11, 2, (29, 351, 368)),
        (72, 19, 2, (125, 5103, 5184)),
    ])
    def test_rounds_and_histories_pinned(self, n, s, rounds, history):
        # the JSON output carries the rounds and histories, so they are pinned
        sd, idem, t0 = closure_inputs(n, s)
        cert = algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group))
        assert cert.closure_rounds == rounds
        assert cert.basis_size_history == (history, history)

    FINAL_BASIS_SHA256 = {
        (16, 7): "e3260f8da9f0306b430307601ef1759d4c567f180345aa059502564fe7a878f6",
        (40, 19): "ad8ac023f3c6e5485898a3a6ff04942a3da3404e80ede5bc526fa3113c9011af",
    }

    @pytest.mark.parametrize("n,s", sorted(FINAL_BASIS_SHA256))
    @pytest.mark.parametrize("prime", DEFAULT_PRIMES)
    def test_final_basis_pinned(self, n, s, prime):
        # the stored rows and the pivot order: a wrong set of quotient columns
        # can keep every rank and history and still change which rows enter
        basis, _, _, _ = run_modular_closure(n, s, prime=prime)
        pivots = basis._pivot_cols[:basis.rank]
        stored = basis.dense_rows(0, basis.rank)
        digest = hashlib.sha256(stored.tobytes() + pivots.tobytes()).hexdigest()
        assert digest == self.FINAL_BASIS_SHA256[n, s]

    def test_round_one_basis_pinned(self, monkeypatch):
        # ROUND_BUDGET = 1 stops the closure of (40,19) as round 2 begins.
        # The span after round 1 fixes the pivots and the fully reduced rows,
        # whatever order its rows were offered in, so their digest in pivot
        # order is pinned
        sd, _, _ = closure_inputs(40, 19)
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        monkeypatch.setattr(algebra, "ROUND_BUDGET", 1)
        basis = PrimeBasis(DEFAULT_PRIMES[0], len(products.u))
        with pytest.raises(ConsistencyError, match="did not stabilize"):
            _modular_closure(basis, products, list(range(2 * sd.num_relations)),
                             dim_t_tilde(sd.group))
        assert basis.rank == 895 and len(basis._off_vals) == 267
        pivots = basis._pivot_cols[:basis.rank]
        order = np.argsort(pivots)
        stored = basis.dense_rows(0, basis.rank)
        digest = hashlib.sha256(stored[order].tobytes() + pivots[order].tobytes())
        assert digest.hexdigest() == (
            "e50a2c135f1b5d07dc5de2d3e2be05c30e778e8e6f7a7bfb78a52fe26186b1da")

    @pytest.mark.parametrize("batch", [1, 2 ** 40], ids=["one_unit_per_call", "one_call"])
    @pytest.mark.parametrize("case", ["D(40,19)", "S4"])
    def test_call_size_changes_nothing(self, case, batch, monkeypatch):
        # insert_block gives the same basis however a block is split, so the
        # final basis, the rounds and the history do not depend on how many
        # entries each call takes; S4 runs the dense later-round products
        if case == "S4":
            sd, _ = generic_inputs(s4_table(), "S4")
        else:
            sd, _, _ = closure_inputs(40, 19)
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        canonical = list(range(2 * sd.num_relations))

        def closure():
            basis = PrimeBasis(DEFAULT_PRIMES[0], len(products.u))
            rounds, history = _modular_closure(basis, products, canonical,
                                               dim_t_tilde(sd.group))
            pivots = basis._pivot_cols[:basis.rank]
            stored = basis.dense_rows(0, basis.rank)
            digest = hashlib.sha256(stored.tobytes() + pivots.tobytes()).hexdigest()
            return digest, rounds, history

        default = closure()
        if case == "D(40,19)":
            assert default[0] == self.FINAL_BASIS_SHA256[40, 19]
        monkeypatch.setattr(algebra, "BATCH_ENTRIES", batch)
        assert closure() == default

    def test_bad_seed_order_rejected(self):
        sd, idem, t0 = closure_inputs(3, 2)
        with pytest.raises(ValueError):
            algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group),
                            seed_order=[0, 1, 2])

    def test_generic_group_s4(self):
        # S4 is not triply transitive: the triple count undershoots by one
        group = GroupTable(s4_table(), name="S4")
        classes = generic_conjugacy_classes(group)
        sd = build_scheme(group, classes)
        t0 = dim_t0(intersection_numbers(group, classes))
        cert = algebra_closure(sd, dual_idempotents(sd), dim_t0_value=t0,
                               orbits=pair_orbits(group))
        assert t0 == 42
        assert cert.dim_t == cert.dim_t_tilde == 43
        assert cert.provenance == "exact"
        # the cells fall short of the bound, so round 2 runs the left products
        assert cert.closure_rounds == 2
        assert cert.basis_size_history == ((9, 36, 43), (9, 36, 43))


class TestCountedHistory:
    """The closure's rank history counted from the labels, against the
    elimination it replaces and against an independent echelon oracle."""

    @staticmethod
    def eliminated(sd, seed_order):
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        bound = len(products.u)
        histories = [_modular_closure(PrimeBasis(p, bound), products, seed_order, bound)[1]
                     for p in DEFAULT_PRIMES]
        return products.rank_history(bound), histories

    @pytest.mark.parametrize("n", range(3, 41))
    def test_matches_elimination_on_every_small_pair(self, n):
        # the count reads no seed order; the elimination runs in canonical
        # order and in one shuffled order, at both default primes
        import random
        for s in valid_twists(n):
            sd, _, _ = closure_inputs(n, s)
            canonical = list(range(2 * sd.num_relations))
            shuffled = random.Random(n * 1000 + s).sample(canonical, len(canonical))
            for order in (canonical, shuffled):
                counted, histories = self.eliminated(sd, order)
                assert histories == [counted, counted], (n, s, order)

    @pytest.mark.parametrize("name,table,history", [
        ("C4", cyclic_table(4), [7, 16]),
        ("C7", cyclic_table(7), [13, 49]),
        ("C12", cyclic_table(12), [23, 144]),
    ])
    def test_matches_elimination_on_cyclic_groups(self, name, table, history):
        sd, _ = generic_inputs(table, name)
        counted, histories = self.eliminated(sd, list(range(2 * sd.num_relations)))
        assert counted == history and histories == [history, history]

    def test_s4_round_one_counted_then_left_to_elimination(self):
        # round 1 of S4 is counted like any other; its cells fall short of
        # the bound, so round 2 is not decided by the labels
        sd, _ = generic_inputs(s4_table(), "S4")
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        t1 = sd.num_relations
        assert algebra._round_one_rank(products.relation, products.class_u,
                                       products.class_v, t1) == 36
        assert products.rank_history(dim_t_tilde(sd.group)) is None

    def test_above_the_bound_the_count_does_not_decide(self):
        # cells as many as dim T~ fall short of dim T~ + 1
        sd, _, _ = closure_inputs(16, 7)
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        assert products.rank_history(184) == [21, 179, 184]
        assert products.rank_history(185) is None

    # relation 0: a matching of two edges; relation 1: u0-v1-u1-v2-u0 plus
    # the lone edge u2-v0; relation 2: two parallel edges u2-v2; relation 3
    # has no column, and class 3 labels no column at all
    LABELS = {"relation": [0, 0, 1, 1, 1, 1, 1, 2, 2],
              "class_u":  [0, 1, 0, 1, 1, 0, 2, 2, 2],
              "class_v":  [0, 1, 1, 1, 2, 2, 0, 2, 2]}

    @pytest.mark.parametrize("p", [2, 97])
    @pytest.mark.parametrize("labels", ["hand", "random-5", "random-6", "random-7"])
    def test_round_one_rank_matches_oracle(self, labels, p):
        # the rows E*_j A_i and A_i E*_j as dense 0/1 vectors, ranked over
        # F_p one vector at a time; the incidence matrices of bipartite
        # graphs have the same rank over every field
        if labels == "hand":
            t1 = 4
            relation, class_u, class_v = (np.array(self.LABELS[k]) for k in
                                          ("relation", "class_u", "class_v"))
        else:
            t1 = int(labels.split("-")[1])
            rng = np.random.default_rng(t1)
            relation, class_u, class_v = rng.integers(0, t1, size=(3, 4 * t1))
        rows = [(relation == i) & (label == j)
                for i in range(t1) for label in (class_u, class_v) for j in range(t1)]
        rank = len(oracle_echelon(rows, p)[0])
        assert algebra._round_one_rank(relation, class_u, class_v, t1) == rank
        if labels == "hand":
            assert rank == (4 - 2) + (6 - 2) + (2 - 1)

    @pytest.mark.parametrize("n,s,history", [(40, 21, (99, 2800)), (100, 51, (249, 17500))])
    def test_round_one_alone_pinned(self, n, s, history):
        # tau = n/2: round 1 alone reaches the bound
        sd, idem, t0 = closure_inputs(n, s)
        cert = algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group))
        assert cert.closure_rounds == 1
        assert cert.basis_size_history == (history, history)
        assert cert.dim_t == cert.dim_t_tilde == history[-1]

    @pytest.mark.parametrize("case,built", [("D(16,7)", 0), ("S4", 2)])
    def test_prime_bases_built_only_where_the_count_does_not_decide(self, case, built,
                                                                   monkeypatch):
        if case == "S4":
            sd, idem = generic_inputs(s4_table(), "S4")
            t0 = dim_t0(intersection_numbers(sd.group, sd.classes))
        else:
            sd, idem, t0 = closure_inputs(16, 7)
        moduli = []

        def counted(p, length):
            moduli.append(p)
            return PrimeBasis(p, length)
        monkeypatch.setattr(algebra, "PrimeBasis", counted)
        cert = algebra_closure(sd, idem, dim_t0_value=t0, orbits=pair_orbits(sd.group))
        assert cert.provenance == "exact"
        assert moduli == list(DEFAULT_PRIMES)[:built]


def generic_inputs(table, name):
    group = GroupTable(table, name=name)
    sd = build_scheme(group, generic_conjugacy_classes(group))
    return sd, dual_idempotents(sd)


class TestGeneratorProducts:
    CASES = {"D(8,3)": lambda: closure_inputs(8, 3)[:2],
             "D(12,5)": lambda: closure_inputs(12, 5)[:2],
             "S4": lambda: generic_inputs(s4_table(), "S4")}

    @pytest.mark.parametrize("modulus", [None, 97])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_all_products_match_dense_left_products(self, case, modulus):
        # rows i and t+1+i of all_products(m) are A_i M and E*_i M read at the
        # representatives; elements with E* factors tell the sides apart
        sd, idem = self.CASES[case]()
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        t1 = sd.num_relations
        adj = [sd.adjacency(i).astype(np.int64) for i in range(t1)]
        dual = [np.diag(idem.diagonals[i]).astype(np.int64) for i in range(t1)]
        elements = adj + dual + [e @ a for e in dual for a in adj]
        elements += [adj[1] @ dual[-1] @ adj[-1], 3 * dual[1] @ adj[1] - 2 * adj[0]]
        for element in elements:
            if modulus is not None:
                element = (5 * element) % modulus
            m = element[products.u, products.v].astype(np.float64)
            got = products.all_products(np.arange(len(products.u)))(m)
            assert got.shape == (2 * t1, len(products.u))
            want = np.array([(g @ element)[products.u, products.v] for g in adj + dual])
            if modulus is not None:
                got, want = got % modulus, want % modulus
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_seeds_match_dense_generators(self, case):
        # generators i and t+1+i are A_i and E*_i read at the representatives;
        # seeds(gens) gives the rows of the generators asked for, in that order
        sd, idem = self.CASES[case]()
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        u, v = products.u, products.v
        t1 = sd.num_relations
        want = [sd.adjacency(i)[u, v] for i in range(t1)]
        want += [np.diag(idem.diagonals[i])[u, v] for i in range(t1)]
        want = np.array(want)
        subset = [int(g) for g in np.random.default_rng(t1).permutation(2 * t1)[:t1 + 1]]
        for gens in (subset, list(range(2 * t1))):
            rows, cols, vals = products.seeds(gens)
            assert np.all(np.diff(rows * len(u) + cols) > 0) and np.all(vals == 1)
            assert np.array_equal(densify(rows, cols, vals, (len(gens), len(u))), want[gens])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_masked_generators_match_dense_masked_products(self, case):
        # for each i in part, the rows E*_j A_i and then A_i E*_j, j from t
        # down to 0, read at the representatives, empty rows included in the
        # numbering; each part is numbered from its own first relation
        sd, idem = self.CASES[case]()
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        u, v = products.u, products.v
        t1 = sd.num_relations
        dual = [np.diag(idem.diagonals[j]) for j in range(t1)][::-1]
        for part in (range(t1), range(1, 3), range(t1 - 1, t1)):
            want = [(m @ sd.adjacency(i) if left else sd.adjacency(i) @ m)[u, v]
                    for i in part for left in (True, False) for m in dual]
            rows, cols, vals = products.masked_generators(part)
            assert np.all(np.diff(rows * len(u) + cols) > 0) and np.all(vals == 1)
            assert np.array_equal(densify(rows, cols, vals, (len(want), len(u))),
                                  np.array(want))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cells_match_dense_triple_products(self, case, monkeypatch):
        # every nonempty E*_k A_i E*_j read at the representatives, exactly
        # once and in (k, i, j) order; a small BATCH_ENTRIES makes several
        # blocks, each of whole cells
        sd, idem = self.CASES[case]()
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        u, v = products.u, products.v
        t1 = sd.num_relations
        want = [(np.diag(idem.diagonals[k]) @ sd.adjacency(i) @ np.diag(idem.diagonals[j]))[u, v]
                for k in range(t1) for i in range(t1) for j in range(t1)]
        want = [row for row in want if row.any()]
        monkeypatch.setattr(algebra, "BATCH_ENTRIES", 5)
        count, blocks = products.cells()
        got = []
        seen = []
        for rows, cols, vals in blocks:
            assert rows[0] == 0 and 0 < rows[-1] + 1 <= 5 and np.all(vals == 1)
            assert np.all(np.diff(rows * len(u) + cols) > 0)
            seen.extend(cols)
            got.extend(densify(rows, cols, vals, (rows[-1] + 1, len(u))))
        # each column lies in exactly one cell
        assert sorted(seen) == list(range(len(u)))
        assert count == len(got) == len(want) > 5
        assert np.array_equal(np.array(got), np.array(want))
        if case == "S4":
            assert max(row.sum() for row in got) == 2  # a cell of two orbits

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_all_products_on_cols_match_full_width(self, case):
        sd, _ = self.CASES[case]()
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        length = len(products.u)
        rng = np.random.default_rng(length)
        m = rng.integers(0, 97, size=length).astype(np.float64)
        full = products.all_products(np.arange(length))(m)
        for size in (1, length // 3, length):
            cols = np.sort(rng.choice(length, size=size, replace=False))
            assert np.array_equal(products.all_products(cols)(m), full[:, cols])

    @pytest.mark.parametrize("rep,old,new", [(7, (1, 0), (1, 6)), (1, (0, 1), (6, 1))])
    def test_class_labels_must_be_orbit_invariants(self, rep, old, new):
        # a D(8,3) representative moved to a pair of another orbit with the
        # same relation, off the diagonal: (1, 6) changes only the class of
        # v, and (6, 1) only the class of u.  Unchecked, the first one makes
        # the closure end short of the bound, with no error
        sd, _, _ = closure_inputs(8, 3)
        ids, reps = pair_orbits(sd.group)
        cls = np.asarray(sd.classes.class_of)
        assert divmod(int(reps[rep]), sd.order) == old
        assert sd.class_matrix[old] == sd.class_matrix[new] and new[0] != new[1]
        assert (cls[list(old)] != cls[list(new)]).sum() == 1
        moved = reps.copy()
        moved[rep] = new[0] * sd.order + new[1]
        with pytest.raises(ConsistencyError, match="not constant"):
            _GeneratorProducts(sd, ids, moved)

    @pytest.mark.parametrize("n,s", [(64, 33), (100, 51)])
    def test_retains_labels_not_generator_stacks(self, n, s):
        # a few arrays of length dim T~ fit; one 2(t+1) x dim T~ stack does not
        group = build_group(validate_params(n, s))
        sd = build_scheme(group, conjugacy_classes(group))
        orbits = pair_orbits(group)
        tracemalloc.start()
        try:
            products = _GeneratorProducts(sd, *orbits)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(products.u) == dim_t_tilde(group)
        assert retained < 64 * len(products.u)


class TestDimTTilde:
    @pytest.mark.parametrize("n,s,expected", [(3, 2, 11), (8, 3, 64), (6, 5, 44)])
    def test_frozen(self, n, s, expected):
        assert dim_t_tilde(build_group(validate_params(n, s))) == expected

    @pytest.mark.parametrize("n", range(3, 21))
    def test_formula(self, n):
        from terwilliger import closed_form_dimension
        for s in valid_twists(n):
            params = validate_params(n, s)
            assert dim_t_tilde(build_group(params)) == closed_form_dimension(params)


class TestCommutantOracle:
    @pytest.mark.parametrize("n,s,expected", [(3, 2, 11), (4, 3, 28), (8, 3, 64)])
    def test_twisted_dihedral(self, n, s, expected):
        g = build_group(validate_params(n, s))
        assert commutant_oracle(g) == expected

    def test_trivial_action_gives_full_matrix_algebra(self):
        g = GroupTable(cyclic_table(4), name="C4")
        assert commutant_oracle(g) == 16

    def test_matches_burnside_for_all_small_groups(self):
        for n, s in [(5, 4), (6, 5), (7, 6), (8, 5), (8, 7)]:
            g = build_group(validate_params(n, s))
            assert commutant_oracle(g) == oracle_burnside_pairs(g.mult)

    def test_size_guard(self):
        g = build_group(validate_params(12, 5))
        with pytest.raises(ValueError):
            commutant_oracle(g)
