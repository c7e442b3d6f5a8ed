import numpy as np
import pytest

from helpers import cyclic_table, oracle_burnside_pairs, s4_table
from terwilliger import (GroupTable, build_group, build_scheme,
                         commutant_oracle, conjugacy_classes, dim_t0,
                         dim_t_tilde, dual_idempotents, generic_conjugacy_classes,
                         intersection_numbers, valid_twists, validate_params)
from terwilliger import algebra
from terwilliger.algebra import (_GeneratorProducts, _generators, _modular_closure,
                                 algebra_closure)
from terwilliger.groups import ConsistencyError, pair_orbits
from terwilliger.modular import DEFAULT_PRIMES, PrimeBasis


def closure_inputs(n, s):
    group = build_group(validate_params(n, s))
    classes = conjugacy_classes(group)
    sd = build_scheme(group, classes)
    tensor = intersection_numbers(group, classes)
    return sd, dual_idempotents(sd), dim_t0(tensor)


def run_modular_closure(n, s, bound_above_t_tilde=0):
    """One prime's closure in canonical seed order; returns the basis, the
    generator products, the rounds and the history."""
    sd, idem, _ = closure_inputs(n, s)
    products = _GeneratorProducts(sd, *pair_orbits(sd.group))
    coords = np.array([products.coordinates(g) for g in _generators(sd, idem, None)[0]])
    bound = dim_t_tilde(sd.group) + bound_above_t_tilde
    basis = PrimeBasis(DEFAULT_PRIMES[0], len(products.u), capacity=bound)
    rounds, history = _modular_closure(basis, products, coords,
                                       coords[:sd.num_relations], bound)
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
        assert cert.triply_transitive

    def test_history_is_monotone_and_bounded(self):
        sd, idem, t0 = closure_inputs(8, 3)
        cert = algebra_closure(sd, idem, dim_t0_value=t0)
        for history in cert.basis_size_history:
            assert list(history) == sorted(history)
            assert history[-1] <= cert.dim_t_tilde
        assert cert.dim_t0 <= cert.dim_t <= cert.dim_t_tilde

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
                cert = algebra_closure(sd, idem, dim_t0_value=t0, exact_rational=True)
                assert cert.rational_rank == cert.dim_t, (n, s)

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (8, 3)])
    def test_final_basis_closed_under_transpose(self, n, s):
        # in orbital coordinates M[x, y] = m[ids[x, y]], so M^T reads m[ids[v, u]]
        basis, products, _, _ = run_modular_closure(n, s)
        transposed = products.ids[products.v, products.u]
        for r in range(basis.rank):
            m = basis.rows[r].astype(np.int64)
            assert not basis.reduce(m[transposed]).any()

    def test_generators_must_be_constant_on_orbit_cells(self, monkeypatch):
        # merge an orbit inside relation 1 into an orbit outside it
        sd, idem, t0 = closure_inputs(8, 3)
        ids, reps = pair_orbits(sd.group)
        u, v = np.divmod(reps, sd.order)
        relation = sd.adjacency(1)[u, v]
        a, b = np.flatnonzero(relation == 0)[0], np.flatnonzero(relation == 1)[0]
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
        assert not cert.triply_transitive


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
            m = products.coordinates(element).astype(np.float64)
            got = products.all_products(m)
            assert got.shape == (2 * t1, len(products.u))
            want = np.array([(g @ element)[products.u, products.v] for g in adj + dual])
            if modulus is not None:
                got, want = got % modulus, want % modulus
            assert np.array_equal(got, want)


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
