import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import (c2_c4_table, cyclic_table, densify, entries, oracle_burnside_pairs,
                     oracle_echelon, oracle_inverse, oracle_rational_echelon, q8_table,
                     symmetric_table)
import elimination
from elimination import GeneratorProducts, modular_closure, pair_orbits, rational_closure
from terwilliger import (DEFAULT_PRIMES, GroupTable, build_group, build_scheme,
                         closed_form_dimension, commutant_oracle, conjugacy_classes,
                         dim_t0, dim_t_tilde, dual_idempotents, generic_conjugacy_classes,
                         intersection_numbers, valid_twists, validate_params)
from terwilliger import algebra
from terwilliger.algebra import _GeneratorProducts, algebra_closure
from terwilliger.groups import ConsistencyError, orbit_reps
from terwilliger.scheme import class_matrix
from terwilliger.modular import PrimeBasis


def closure_inputs(n, s):
    group = build_group(validate_params(n, s))
    classes = conjugacy_classes(group)
    build_scheme(group, classes)
    tensor = intersection_numbers(group, classes)
    return group, classes, dim_t0(tensor)


def relations(group, classes):
    """The dense 0/1 matrix A_i = (Q == i) of every relation i."""
    q = class_matrix(group, classes)
    return [(q == i).astype(np.int64) for i in range(classes.num_classes)]


def duals(classes):
    """The dense diagonal 0/1 matrix E*_i of every class i, from class_of."""
    class_of = np.asarray(classes.class_of)
    return [np.diag((class_of == i).astype(np.int64)) for i in range(classes.num_classes)]


def run_modular_closure(n, s, bound_above_t_tilde=0, prime=DEFAULT_PRIMES[0]):
    """One prime's eliminating closure (the reference) in canonical seed
    order; returns the basis, the generator products, the rounds and the
    history."""
    group, classes, _ = closure_inputs(n, s)
    products = GeneratorProducts(group, classes, *pair_orbits(group))
    bound = dim_t_tilde(group, orbit_reps(group)) + bound_above_t_tilde
    basis = PrimeBasis(prime, len(products.u))
    canonical = list(range(2 * classes.num_classes))
    rounds, history = modular_closure(basis, products, canonical, bound)
    return basis, products, rounds, tuple(history)


def basis_digest(basis):
    """sha256 of the stored rows, dense, and then the pivots in row order."""
    pivots = basis._pivot_cols[:basis.rank]
    stored = basis.dense_rows(0, basis.rank)
    return hashlib.sha256(stored.tobytes() + pivots.tobytes()).hexdigest()


class TestDualIdempotents:
    def test_class_indicator_diagonals(self):
        idem = dual_idempotents(closure_inputs(3, 2)[1])
        assert np.array_equal(idem.diagonals[1], np.array([0, 1, 1, 0, 0, 0]))

    def test_sum_is_identity_and_orthogonal(self):
        diag = dual_idempotents(closure_inputs(8, 3)[1]).diagonals
        assert np.array_equal(diag.sum(axis=0), np.ones(16, dtype=int))
        for i in range(diag.shape[0]):
            for j in range(diag.shape[0]):
                prod = diag[i] * diag[j]
                assert np.array_equal(prod, diag[i] if i == j else np.zeros(16, dtype=int))

    @pytest.mark.parametrize("classes,message", [
        # element 2 sits in two classes, so its diagonal entries sum to 2
        (((0,), (1, 2), (2, 3, 4, 5)), "do not sum to the identity"),
        # a class that lists 1 twice covers one element but has size 2
        (((0,), (1, 1, 2), (3, 4, 5)), "trace differs from class size"),
    ])
    def test_broken_partition_raises(self, classes, message):
        _, parts, _ = closure_inputs(3, 2)
        with pytest.raises(ConsistencyError, match=message):
            dual_idempotents(dataclasses.replace(parts, classes=classes))

    def test_sandwich_support(self):
        # E_i A_j E_k is supported inside Cl_i x Cl_k
        group, classes, _ = closure_inputs(4, 3)
        idem = dual_idempotents(classes)
        adj = relations(group, classes)
        for i in range(classes.num_classes):
            for j in range(classes.num_classes):
                for k in range(classes.num_classes):
                    m = np.diag(idem.diagonals[i]) @ adj[j] @ np.diag(idem.diagonals[k])
                    rows, cols = np.nonzero(m)
                    assert set(rows).issubset(set(classes.classes[i]))
                    assert set(cols).issubset(set(classes.classes[k]))


FROZEN_DIMENSIONS = {(3, 2): 11, (4, 3): 28, (8, 5): 112}


class TestAlgebraClosure:
    @pytest.mark.parametrize("n,s,expected", [
        (n, s, FROZEN_DIMENSIONS.get((n, s)))
        for n in range(3, 101) for s in valid_twists(n)])
    def test_frozen_dimensions(self, n, s, expected):
        # every D(n,s) with n <= 100 ends at the bound within two rounds, so
        # its certificate is exact; three dimensions are frozen, the rest
        # are the closed form
        group, classes, t0 = closure_inputs(n, s)
        cert = algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))
        if expected is None:
            expected = closed_form_dimension(validate_params(n, s))
        assert cert.dim_t == expected
        assert cert.provenance == "exact"
        assert t0 == cert.dim_t_tilde == expected
        assert 1 <= cert.closure_rounds <= 2

    def test_history_is_monotone_and_bounded(self):
        group, classes, t0 = closure_inputs(8, 3)
        cert = algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))
        for history in cert.basis_size_history:
            assert list(history) == sorted(history)
            assert history[-1] <= cert.dim_t_tilde
        assert t0 <= cert.dim_t <= cert.dim_t_tilde

    def test_seed_permutation_invariance(self):
        # the count reads no seed order; the rational reference, seeded in
        # three shuffled orders, reaches the rank the count certifies
        import random
        group, classes, t0 = closure_inputs(8, 5)
        cert = algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))
        for seed in (1, 2, 3):
            order = list(range(2 * classes.num_classes))
            random.Random(seed).shuffle(order)
            assert rational_closure(group, classes, order) == cert.dim_t == cert.dim_t_tilde

    def test_primes_keyword_rejected(self):
        # the two moduli are fixed; the certificate records DEFAULT_PRIMES
        group, classes, t0 = closure_inputs(6, 5)
        reps = orbit_reps(group)
        with pytest.raises(TypeError, match="primes"):
            algebra_closure(group, classes, dim_t0_value=t0, reps=reps, primes=(9973, 7919))
        cert = algebra_closure(group, classes, dim_t0_value=t0, reps=reps)
        assert cert.dim_t == 44
        assert cert.primes == DEFAULT_PRIMES

    @pytest.mark.parametrize("prime", [94906249, 94906247])
    def test_reference_at_the_largest_moduli(self, prime):
        # the two largest primes with (p-1)^2 below 2^53: the eliminating
        # reference reaches dim T~ = 64 at D(8,3) in the history the count gives
        basis, products, rounds, history = run_modular_closure(8, 3, prime=prime)
        assert basis.rank == 64
        assert (rounds, history) == (2, (13, 63, 64))
        assert products.rank_history(64) == list(history)

    def test_sandwich_lower_bound_above_closure_raises(self):
        group, classes, _ = closure_inputs(8, 3)
        reps = orbit_reps(group)
        bound = dim_t_tilde(group, reps)
        with pytest.raises(ConsistencyError,
                           match="dimension sandwich violated: 65 <= 64 == 64 fails"):
            algebra_closure(group, classes, dim_t0_value=bound + 1, reps=reps)

    def test_history_below_the_bound_raises(self, monkeypatch):
        # round 1 always adds rank, so a round 1 that adds none is a defect:
        # the history would end at the seeds, 13, below dim T~ = 64, and the
        # closure raises rather than certify the seed rank
        group, classes, _ = closure_inputs(8, 3)
        monkeypatch.setattr(algebra, "_round_one_rank", lambda *labels: 13)
        with pytest.raises(ConsistencyError,
                           match="dimension sandwich violated: 13 <= 13 == 64 fails"):
            algebra_closure(group, classes, dim_t0_value=13, reps=orbit_reps(group))

    def test_rational_mode_matches_on_every_small_pair(self):
        # the rational reference's rank equals the counted dim_t, which is
        # certified exact at the bound
        for n in range(3, 11):
            for s in valid_twists(n):
                group, classes, t0 = closure_inputs(n, s)
                cert = algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))
                canonical = list(range(2 * classes.num_classes))
                assert rational_closure(group, classes, canonical) == cert.dim_t, (n, s)
                assert cert.provenance == "exact", (n, s)

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (8, 3)])
    def test_final_basis_closed_under_transpose(self, n, s):
        # in orbital coordinates M[x, y] = m[ids[x, y]], so M^T reads m[ids[v, u]]
        basis, products, _, _ = run_modular_closure(n, s)
        transposed = products.ids[products.v, products.u]
        stored = basis.dense_rows(0, basis.rank)
        rows, _, _ = basis.reduce_block(*entries(stored[:, transposed].astype(np.int64)))
        assert not len(rows)

    @pytest.mark.parametrize("case", ["D(8,3)", "S4"])
    def test_labels_must_be_conjugation_invariant(self, case):
        # the labels are read at the representatives only, so the guard
        # checks class_of under conjugation by each generator: element 1
        # (a, for D(8,3)) moved into another element's class makes the
        # class labels, and the relations read through them, differ within
        # an orbit
        if case == "S4":
            group, classes = generic_inputs(symmetric_table(4), "S4")
            t0 = dim_t0(intersection_numbers(group, classes))
            moved_to = 3
        else:
            group, classes, t0 = closure_inputs(8, 3)
            moved_to = 8
        class_of = list(classes.class_of)
        assert class_of[1] != class_of[moved_to]
        class_of[1] = class_of[moved_to]
        classes = dataclasses.replace(classes, class_of=tuple(class_of))
        with pytest.raises(ConsistencyError,
                           match="^a generator is not constant on the pair orbits$"):
            algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))

    @pytest.mark.parametrize("n,s", [(8, 3), (12, 5), (130, 51)])
    def test_relation_labels_are_q_on_every_orbit(self, n, s):
        # the label guard checks class_of only, because the relation read at
        # a representative is Q there, and Q is constant on every orbit of
        # pairs: spread back over the orbits, the labels are Q at every pair,
        # in both blocks of 256 rows at (130, 51)
        group, classes, _ = closure_inputs(n, s)
        ids, reps = pair_orbits(group)
        labels = _GeneratorProducts(group, classes, reps).relation
        assert np.array_equal(labels[ids], class_matrix(group, classes))

    def test_short_enumeration_checked_against_burnside(self):
        # the number of orbits handed in is checked against the Burnside
        # count; an enumeration one orbit short fails
        group, classes, t0 = closure_inputs(8, 3)
        reps = orbit_reps(group)
        assert algebra_closure(group, classes, dim_t0_value=t0, reps=reps).dim_t_tilde == 64
        with pytest.raises(ConsistencyError, match="Burnside 64 vs enumeration 63"):
            algebra_closure(group, classes, dim_t0_value=t0, reps=reps[:-1])

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
        all_products = GeneratorProducts.all_products
        monkeypatch.setattr(GeneratorProducts, "all_products",
                            lambda self, cols: calls.append(len(cols)) or all_products(self, cols))
        assert run_modular_closure(16, 7)[2:] == (2, (21, 179, 184)) and not calls
        assert run_modular_closure(16, 7, bound_above_t_tilde=1)[2:] == (3, (21, 179, 184, 184))
        assert len(calls) == 2

    def test_round_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(elimination, "ROUND_BUDGET", 1)
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
        group, classes, t0 = closure_inputs(n, s)
        cert = algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))
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
        digest = basis_digest(basis)
        assert digest == self.FINAL_BASIS_SHA256[n, s]

    @pytest.mark.parametrize("prime", DEFAULT_PRIMES)
    def test_s5_closure_pinned(self, prime):
        # S5 ends below dim T~ = 161 after a third round that adds nothing,
        # so its later rounds eliminate dense left products; a source read
        # as rows change during its round, not as the round found it, would
        # offer longer words and change the digest
        group, classes = generic_inputs(symmetric_table(5), "S5")
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        basis = PrimeBasis(prime, len(products.u))
        rounds, history = modular_closure(basis, products, list(range(2 * classes.num_classes)),
                                          dim_t_tilde(group, orbit_reps(group)))
        assert (rounds, tuple(history)) == (3, (13, 79, 155, 155))
        digest = basis_digest(basis)
        assert digest == "4965c7b37cc0ad72d960479faafec2beb7513568e1452181077bb6fe2e0b95e0"

    def test_round_one_basis_pinned(self, monkeypatch):
        # ROUND_BUDGET = 1 stops the closure of (40,19) as round 2 begins.
        # The span after round 1 fixes the pivots and the fully reduced rows,
        # whatever order its rows were offered in, so their digest in pivot
        # order is pinned
        group, classes, _ = closure_inputs(40, 19)
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        monkeypatch.setattr(elimination, "ROUND_BUDGET", 1)
        basis = PrimeBasis(DEFAULT_PRIMES[0], len(products.u))
        with pytest.raises(ConsistencyError, match="did not stabilize"):
            modular_closure(basis, products, list(range(2 * classes.num_classes)),
                            dim_t_tilde(group, orbit_reps(group)))
        assert basis.rank == 895 and len(basis._off_vals) == 267
        pivots = basis._pivot_cols[:basis.rank]
        order = np.argsort(pivots)
        stored = basis.dense_rows(0, basis.rank)
        digest = hashlib.sha256(stored[order].tobytes() + pivots[order].tobytes())
        assert digest.hexdigest() == (
            "e50a2c135f1b5d07dc5de2d3e2be05c30e778e8e6f7a7bfb78a52fe26186b1da")

    @pytest.mark.parametrize("batch", [1, 2 ** 40], ids=["one_unit_per_call", "one_call"])
    @pytest.mark.parametrize("case", ["S4", "S5"])
    def test_call_size_changes_nothing(self, case, batch, monkeypatch):
        # insert_block gives the same basis however a block is split, so the
        # final basis, the rounds and the history do not depend on how many
        # dense products each later-round call takes: one source per call,
        # or the whole round in one
        group, classes = generic_inputs(symmetric_table(int(case[1])), case)
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        canonical = list(range(2 * classes.num_classes))

        def closure():
            basis = PrimeBasis(DEFAULT_PRIMES[0], len(products.u))
            rounds, history = modular_closure(basis, products, canonical,
                                              dim_t_tilde(group, orbit_reps(group)))
            digest = basis_digest(basis)
            return digest, rounds, history

        default = closure()
        monkeypatch.setattr(elimination, "BATCH_ENTRIES", batch)
        assert closure() == default

    @pytest.mark.parametrize("removed", ["exact_rational", "seed_order", "idem"])
    def test_removed_parameters_rejected(self, removed):
        # the closure has one path, the count: no rational rerun, no seed
        # order, and no dual idempotents handed in
        group, classes, t0 = closure_inputs(3, 2)
        reps = orbit_reps(group)
        if removed == "idem":
            with pytest.raises(TypeError, match="positional argument"):
                algebra_closure(group, classes, dual_idempotents(classes), dim_t0_value=t0,
                                reps=reps)
        else:
            value = True if removed == "exact_rational" else [0, 1, 2, 3, 4, 5]
            with pytest.raises(TypeError, match=removed):
                algebra_closure(group, classes, dim_t0_value=t0, reps=reps, **{removed: value})

    def test_generic_group_s4(self):
        # S4 is not triply transitive: the triple count undershoots by one,
        # so its 42 cells fall short of dim T~ = 43 and the labels do not
        # decide round 2; the closure raises, and the eliminating reference,
        # whose round 2 runs the left products, reaches the bound
        group = GroupTable(symmetric_table(4), name="S4")
        classes = generic_conjugacy_classes(group)
        build_scheme(group, classes)
        t0 = dim_t0(intersection_numbers(group, classes))
        assert t0 == 42
        with pytest.raises(ConsistencyError, match="^42 cells fall short of the bound 43, "
                                                   "so the labels do not decide round 2"):
            algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        for p in DEFAULT_PRIMES:
            rounds, history = modular_closure(PrimeBasis(p, len(products.u)), products,
                                              list(range(2 * classes.num_classes)),
                                              dim_t_tilde(group, orbit_reps(group)))
            assert (rounds, tuple(history)) == (2, (9, 36, 43))


class TestCountedHistory:
    """The closure's rank history counted from the labels, against the
    eliminating reference (`elimination.modular_closure`) and against an
    independent echelon oracle."""

    @staticmethod
    def eliminated(group, classes, seed_order):
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        bound = len(products.u)
        histories = [modular_closure(PrimeBasis(p, bound), products, seed_order, bound)[1]
                     for p in DEFAULT_PRIMES]
        return products.rank_history(bound), histories

    @pytest.mark.parametrize("n", range(3, 41))
    def test_matches_elimination_on_every_small_pair(self, n):
        # the count reads no seed order; the elimination runs in canonical
        # order and in one shuffled order, at both default primes
        import random
        for s in valid_twists(n):
            group, classes, _ = closure_inputs(n, s)
            canonical = list(range(2 * classes.num_classes))
            shuffled = random.Random(n * 1000 + s).sample(canonical, len(canonical))
            for order in (canonical, shuffled):
                counted, histories = self.eliminated(group, classes, order)
                assert histories == [counted, counted], (n, s, order)

    @pytest.mark.parametrize("name,table,history", [
        ("C4", cyclic_table(4), [7, 16]),
        ("C7", cyclic_table(7), [13, 49]),
        ("C12", cyclic_table(12), [23, 144]),
        ("C1", cyclic_table(1), [1]),
        ("C2", cyclic_table(2), [3, 4]),
        ("C5", cyclic_table(5), [9, 25]),
        ("C6", cyclic_table(6), [11, 36]),
        ("C2xC4", c2_c4_table(), [15, 64]),
        ("Q8", q8_table(), [9, 28]),
        ("S3", symmetric_table(3), [5, 11]),
    ])
    def test_matches_elimination_on_cyclic_groups(self, name, table, history):
        # and on every helper group whose closure the labels decide: the
        # certificate is exact at the bound, within two rounds, and the
        # trivial group is at the bound after the seeds
        group, classes = generic_inputs(table, name)
        counted, histories = self.eliminated(group, classes, list(range(2 * classes.num_classes)))
        assert counted == history and histories == [history, history]
        t0 = dim_t0(intersection_numbers(group, classes))
        cert = algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))
        assert cert.provenance == "exact" and cert.dim_t == cert.dim_t_tilde == history[-1]
        assert cert.closure_rounds == len(history) - 1 <= 2
        assert cert.basis_size_history == (tuple(history), tuple(history))

    def test_s4_round_one_counted_then_left_to_elimination(self):
        # round 1 of S4 is counted like any other; its cells fall short of
        # the bound, so round 2 is not decided by the labels
        group, classes = generic_inputs(symmetric_table(4), "S4")
        products = _GeneratorProducts(group, classes, orbit_reps(group))
        t1 = classes.num_classes
        assert algebra._round_one_rank(products.relation, products.class_u,
                                       products.class_v, t1) == 36
        with pytest.raises(ConsistencyError, match="^42 cells fall short of the bound 43,"):
            products.rank_history(dim_t_tilde(group, orbit_reps(group)))

    def test_above_the_bound_the_count_does_not_decide(self):
        # cells as many as dim T~ fall short of dim T~ + 1
        group, classes, _ = closure_inputs(16, 7)
        products = _GeneratorProducts(group, classes, orbit_reps(group))
        assert products.rank_history(184) == [21, 179, 184]
        with pytest.raises(ConsistencyError, match="^184 cells fall short of the bound 185,"):
            products.rank_history(185)

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
        group, classes, t0 = closure_inputs(n, s)
        cert = algebra_closure(group, classes, dim_t0_value=t0, reps=orbit_reps(group))
        assert cert.closure_rounds == 1
        assert cert.basis_size_history == (history, history)
        assert cert.dim_t == cert.dim_t_tilde == history[-1]


def generic_inputs(table, name):
    group = GroupTable(table, name=name)
    classes = generic_conjugacy_classes(group)
    build_scheme(group, classes)
    return group, classes


class TestGeneratorProducts:
    CASES = {"D(8,3)": lambda: closure_inputs(8, 3)[:2],
             "D(12,5)": lambda: closure_inputs(12, 5)[:2],
             "S4": lambda: generic_inputs(symmetric_table(4), "S4")}

    @pytest.mark.parametrize("modulus", [None, 97])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_all_products_match_dense_left_products(self, case, modulus):
        # rows i and t+1+i of all_products(m) are A_i M and E*_i M read at the
        # representatives; elements with E* factors tell the sides apart
        group, classes = self.CASES[case]()
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        t1 = classes.num_classes
        adj = relations(group, classes)
        dual = duals(classes)
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
        # seeds(order) gives the rows of every generator, in that order
        group, classes = self.CASES[case]()
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        u, v = products.u, products.v
        t1 = classes.num_classes
        want = [a[u, v] for a in relations(group, classes)]
        want += [e[u, v] for e in duals(classes)]
        want = np.array(want)
        shuffled = [int(g) for g in np.random.default_rng(t1).permutation(2 * t1)]
        for order in (list(range(2 * t1)), shuffled):
            rows, cols, vals = products.seeds(order)
            assert np.all(np.diff(rows * len(u) + cols) > 0) and np.all(vals == 1)
            assert np.array_equal(densify(rows, cols, vals, (2 * t1, len(u))), want[order])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_masked_generators_match_dense_masked_products(self, case):
        # for each relation i, the rows E*_j A_i and then A_i E*_j, j from t
        # down to 0, read at the representatives, empty rows included in the
        # numbering
        group, classes = self.CASES[case]()
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        u, v = products.u, products.v
        t1 = classes.num_classes
        dual = duals(classes)[::-1]
        want = [(m @ a if left else a @ m)[u, v]
                for a in relations(group, classes) for left in (True, False) for m in dual]
        rows, cols, vals = products.masked_generators()
        assert np.all(np.diff(rows * len(u) + cols) > 0) and np.all(vals == 1)
        assert np.array_equal(densify(rows, cols, vals, (len(want), len(u))), np.array(want))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cells_match_dense_triple_products(self, case):
        # every nonempty E*_k A_i E*_j read at the representatives, exactly
        # once and in (k, i, j) order, as one block
        group, classes = self.CASES[case]()
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        u, v = products.u, products.v
        t1 = classes.num_classes
        adj = relations(group, classes)
        dual = duals(classes)
        want = [(dual[k] @ adj[i] @ dual[j])[u, v]
                for k in range(t1) for i in range(t1) for j in range(t1)]
        want = [row for row in want if row.any()]
        count, (rows, cols, vals) = products.cells()
        assert rows[0] == 0 and np.all(vals == 1)
        assert np.all(np.diff(rows * len(u) + cols) > 0)
        # each column lies in exactly one cell
        assert sorted(cols) == list(range(len(u)))
        got = densify(rows, cols, vals, (rows[-1] + 1, len(u)))
        assert count == products.cell_count() == len(got) == len(want)
        assert np.array_equal(got, np.array(want))
        if case == "S4":
            assert max(row.sum() for row in got) == 2  # a cell of two orbits

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_all_products_on_cols_match_full_width(self, case):
        group, classes = self.CASES[case]()
        products = GeneratorProducts(group, classes, *pair_orbits(group))
        length = len(products.u)
        rng = np.random.default_rng(length)
        m = rng.integers(0, 97, size=length).astype(np.float64)
        full = products.all_products(np.arange(length))(m)
        for size in (1, length // 3, length):
            cols = np.sort(rng.choice(length, size=size, replace=False))
            assert np.array_equal(products.all_products(cols)(m), full[:, cols])

    def test_reference_ids_must_be_orbit_cells(self):
        # the reference's own guard, on the ids it forms elements in: each
        # case merges two orbits that only one label tells apart, two
        # off-diagonal orbits of different relations (the A side), and the
        # diagonal orbits of two classes, both in the identity relation (E*)
        group, classes, _ = closure_inputs(8, 3)
        ids, reps = pair_orbits(group)
        u, v = np.divmod(reps, group.order)
        relation = class_matrix(group, classes)[u, v]
        off, diagonal = np.flatnonzero(u != v), np.flatnonzero(u == v)
        for a, b in [(off[0], off[relation[off] != relation[off[0]]][0]), diagonal[:2]]:
            corrupted = np.where(ids == b, a, ids)
            with pytest.raises(ConsistencyError, match="not constant"):
                GeneratorProducts(group, classes, corrupted, reps)

    @pytest.mark.parametrize("rep,old,new", [(7, (1, 0), (1, 6)), (1, (0, 1), (6, 1))])
    def test_class_labels_must_be_orbit_invariants(self, rep, old, new):
        # a D(8,3) representative moved to a pair of another orbit with the
        # same relation, off the diagonal: (1, 6) changes only the class of
        # v, and (6, 1) only the class of u.  The reference's ids still
        # place it in its old orbit, so its guard trips.  The package reads
        # no ids: the labels stay orbit invariants, but two representatives
        # now share a cell, so the count falls short of the bound and
        # refuses to decide round 2
        group, classes, t0 = closure_inputs(8, 3)
        ids, reps = pair_orbits(group)
        cls = np.asarray(classes.class_of)
        assert divmod(int(reps[rep]), group.order) == old
        q = class_matrix(group, classes)
        assert q[old] == q[new] and new[0] != new[1]
        assert (cls[list(old)] != cls[list(new)]).sum() == 1
        moved = reps.copy()
        moved[rep] = new[0] * group.order + new[1]
        with pytest.raises(ConsistencyError, match="not constant"):
            GeneratorProducts(group, classes, ids, moved)
        with pytest.raises(ConsistencyError, match="^63 cells fall short of the bound 64"):
            algebra_closure(group, classes, dim_t0_value=t0, reps=moved)

    @pytest.mark.parametrize("n,s", [(64, 33), (100, 51)])
    def test_retains_labels_not_generator_stacks(self, n, s):
        # a few arrays of length dim T~ fit; one 2(t+1) x dim T~ stack does not
        group = build_group(validate_params(n, s))
        classes = conjugacy_classes(group)
        build_scheme(group, classes)
        reps = orbit_reps(group)
        tracemalloc.start()
        try:
            products = _GeneratorProducts(group, classes, reps)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(products.relation) == dim_t_tilde(group, reps)
        assert retained < 64 * len(products.relation)


class TestDimTTilde:
    @pytest.mark.parametrize("n,s,expected", [(3, 2, 11), (8, 3, 64), (6, 5, 44)])
    def test_frozen(self, n, s, expected):
        group = build_group(validate_params(n, s))
        assert dim_t_tilde(group, orbit_reps(group)) == expected

    @pytest.mark.parametrize("n", range(3, 21))
    def test_formula(self, n):
        for s in valid_twists(n):
            params = validate_params(n, s)
            group = build_group(params)
            assert dim_t_tilde(group, orbit_reps(group)) == closed_form_dimension(params)


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

    @pytest.mark.parametrize("name,table,expected", [
        ("Q8", q8_table, 28), ("C2xC4", c2_c4_table, 64),
        ("D(8,3) table", lambda: build_group(validate_params(8, 3)).mult, 64)])
    def test_matches_burnside_for_generic_tables(self, name, table, expected):
        # tables with no params; Q8 and D(8,3) have a center of order 2 and
        # C2xC4 is abelian, so every pair has a nontrivial stabilizer and
        # many (g, p) give the same equation, or its negative, or none
        mult = table()
        assert oracle_burnside_pairs(mult) == expected
        assert commutant_oracle(GroupTable(mult, name=name)) == expected

    def test_size_guard(self):
        g = build_group(validate_params(12, 5))
        with pytest.raises(ValueError):
            commutant_oracle(g)


class TestCommutantDenseOracle:
    @pytest.mark.parametrize("name,table", [
        ("D(3,2)", lambda: build_group(validate_params(3, 2)).mult),
        ("D(4,3)", lambda: build_group(validate_params(4, 3)).mult),
        ("C4", lambda: cyclic_table(4)), ("Q8", q8_table)])
    def test_matches_rank_of_every_equation(self, name, table):
        # the solution space of A[g.p] = A[p] over every g and every pair p,
        # as size less the rank of the dense rows e_(g.p) - e_p in Fractions
        mult = table()
        order = len(mult)
        inverse = [oracle_inverse(mult, g) for g in range(order)]
        conj = [[int(mult[mult[g, x], inverse[g]]) for x in range(order)]
                for g in range(order)]
        rows = []
        for g in range(order):
            for u in range(order):
                for v in range(order):
                    row = [0] * order * order
                    row[conj[g][u] * order + conj[g][v]] += 1
                    row[u * order + v] -= 1
                    rows.append(row)
        _, pivots = oracle_rational_echelon(rows)
        assert commutant_oracle(GroupTable(mult, name=name)) == order * order - len(pivots)
