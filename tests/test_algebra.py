import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import cyclic_table, oracle_burnside_pairs, s4_table
from terwilliger import (GroupTable, build_group, build_scheme,
                         commutant_oracle, conjugacy_classes, dim_t0,
                         dim_t_tilde, dual_idempotents, generic_conjugacy_classes,
                         intersection_numbers, valid_twists, validate_params)
from terwilliger import algebra, modular
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
        cert = algebra_closure(sd, idem, dim_t0_value=t0)
        assert cert.dim_t == expected
        assert cert.provenance == "exact"
        assert t0 == cert.dim_t_tilde == expected

    def test_history_is_monotone_and_bounded(self):
        sd, idem, t0 = closure_inputs(8, 3)
        cert = algebra_closure(sd, idem, dim_t0_value=t0)
        for history in cert.basis_size_history:
            assert list(history) == sorted(history)
            assert history[-1] <= cert.dim_t_tilde
        assert t0 <= cert.dim_t <= cert.dim_t_tilde

    def test_seed_permutation_invariance(self):
        import random
        sd, idem, t0 = closure_inputs(8, 5)
        base = algebra_closure(sd, idem, dim_t0_value=t0)
        for seed in (1, 2, 3):
            order = list(range(2 * sd.num_relations))
            random.Random(seed).shuffle(order)
            cert = algebra_closure(sd, idem, dim_t0_value=t0, seed_order=order)
            assert cert.dim_t == base.dim_t
            assert cert.dim_t_tilde == base.dim_t_tilde

    def test_custom_primes(self):
        sd, idem, t0 = closure_inputs(6, 5)
        cert = algebra_closure(sd, idem, dim_t0_value=t0, primes=(9973, 7919))
        assert cert.dim_t == 44
        assert cert.primes == (9973, 7919)

    def test_equal_primes_rejected(self):
        sd, idem, t0 = closure_inputs(3, 2)
        with pytest.raises(ValueError):
            algebra_closure(sd, idem, dim_t0_value=t0, primes=(97, 97))

    def test_rational_mode_matches_on_every_small_pair(self):
        for n in range(3, 11):
            for s in valid_twists(n):
                sd, idem, t0 = closure_inputs(n, s)
                # with exact_rational, dim_t is the rational closure's rank
                rational = algebra_closure(sd, idem, dim_t0_value=t0, exact_rational=True)
                modular = algebra_closure(sd, idem, dim_t0_value=t0)
                assert rational.dim_t == modular.dim_t, (n, s)
                assert rational.provenance == modular.provenance == "exact", (n, s)

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (8, 3)])
    def test_final_basis_closed_under_transpose(self, n, s):
        # in orbital coordinates M[x, y] = m[ids[x, y]], so M^T reads m[ids[v, u]]
        basis, products, _, _ = run_modular_closure(n, s)
        transposed = products.ids[products.v, products.u]
        out, _ = basis.reduce_block(basis.rows[:, transposed], np.arange(len(transposed)))
        assert not out.any()

    def test_generators_must_be_constant_on_orbit_cells(self, monkeypatch):
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
            monkeypatch.setattr(algebra, "pair_orbits", lambda group: (corrupted, reps))
            with pytest.raises(ConsistencyError, match="not constant"):
                algebra_closure(sd, idem, dim_t0_value=t0)

    @pytest.mark.parametrize("n,s,rounds,history", [
        (8, 3, 3, (13, 63, 64, 64)),
        (16, 7, 3, (21, 179, 184, 184)),
    ])
    def test_saturation_short_of_the_bound(self, n, s, rounds, history):
        # an unreachable bound: the loop ends after a round that adds nothing
        _, _, got_rounds, got_history = run_modular_closure(n, s, bound_above_t_tilde=1)
        assert (got_rounds, got_history) == (rounds, history)

    def test_round_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(algebra, "ROUND_BUDGET", 1)
        with pytest.raises(ConsistencyError, match="did not stabilize"):
            run_modular_closure(8, 3, bound_above_t_tilde=1)

    @pytest.mark.parametrize("n,s,rounds,history", [
        (8, 3, 2, (13, 63, 64)),
        (8, 5, 1, (19, 112)),
        (16, 7, 2, (21, 179, 184)),
        (24, 11, 2, (29, 351, 368)),
    ])
    def test_rounds_and_histories_pinned(self, n, s, rounds, history):
        # the JSON output carries the rounds and histories, so they are pinned
        sd, idem, t0 = closure_inputs(n, s)
        cert = algebra_closure(sd, idem, dim_t0_value=t0)
        assert cert.closure_rounds == rounds
        assert cert.basis_size_history == (history, history)

    FINAL_BASIS_SHA256 = {
        (16, 7): "e0b5f7a0755ecc81655c61366e8d8d69d46c5505eee144739bc83a1e01f9575f",
        (40, 19): "b30f1dff87615c0604898a445647592c249c521b43c251af796666cc804a0681",
    }

    @pytest.mark.parametrize("n,s", sorted(FINAL_BASIS_SHA256))
    @pytest.mark.parametrize("prime", DEFAULT_PRIMES)
    def test_final_basis_pinned(self, n, s, prime):
        # the stored rows and the pivot order: a wrong set of quotient columns
        # can keep every rank and history and still change which rows enter
        basis, _, _, _ = run_modular_closure(n, s, prime=prime)
        pivots = basis._pivot_cols[:basis.rank]
        digest = hashlib.sha256(basis.rows.tobytes() + pivots.tobytes()).hexdigest()
        assert digest == self.FINAL_BASIS_SHA256[n, s]

    def test_both_in_call_loops_store_the_same_round_one_basis(self, monkeypatch):
        # round 1 of (40,19) is the narrow blocks the sparse loop takes by
        # width; ROUND_BUDGET = 1 stops the closure as round 2 begins
        sd, _, _ = closure_inputs(40, 19)
        products = _GeneratorProducts(sd, *pair_orbits(sd.group))
        monkeypatch.setattr(algebra, "ROUND_BUDGET", 1)
        stores = []
        for width in (2 ** 62, 0):  # every block sparse, then every block dense
            monkeypatch.setattr(modular, "SPARSE_WIDTH", width)
            basis = PrimeBasis(DEFAULT_PRIMES[0], len(products.u))
            with pytest.raises(ConsistencyError, match="did not stabilize"):
                _modular_closure(basis, products, list(range(2 * sd.num_relations)),
                                 dim_t_tilde(sd.group))
            assert basis.rank == 895 and len(basis._off_vals) == 267
            stores.append([a.tobytes() for a in (basis._pivot_cols, basis._pivot_row,
                                                  basis._off_rows, basis._off_cols,
                                                  basis._off_vals)])
        assert stores[0] == stores[1]

    def test_bad_seed_order_rejected(self):
        sd, idem, t0 = closure_inputs(3, 2)
        with pytest.raises(ValueError):
            algebra_closure(sd, idem, dim_t0_value=t0, seed_order=[0, 1, 2])

    def test_generic_group_s4(self):
        # S4 is not triply transitive: the triple count undershoots by one
        group = GroupTable(s4_table(), name="S4")
        classes = generic_conjugacy_classes(group)
        sd = build_scheme(group, classes)
        t0 = dim_t0(intersection_numbers(group, classes))
        cert = algebra_closure(sd, dual_idempotents(sd), dim_t0_value=t0)
        assert t0 == 42
        assert cert.dim_t == cert.dim_t_tilde == 43
        assert cert.provenance == "exact"


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
            seeds = products.seeds(gens)
            assert seeds.shape == (len(gens), len(u))
            assert np.array_equal(seeds, want[gens])

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
