import numpy as np
import pytest

from helpers import oracle_t0_count
from terwilliger import (build_group, build_scheme, case_counts,
                         closed_form_dimension, conjugacy_classes, dim_t0,
                         expected_case_counts, intersection_numbers,
                         valid_twists, validate_params, verify_product_identity)
from terwilliger.scheme import CASE_ORDER


def pipeline(n, s):
    params = validate_params(n, s)
    group = build_group(params)
    classes = conjugacy_classes(group)
    return params, group, classes


class TestBuildScheme:
    def test_identity_relation(self):
        _, g, c = pipeline(3, 2)
        sd = build_scheme(g, c)
        assert np.array_equal(sd.adjacency(sd.identity_class), np.eye(6, dtype=int))

    def test_row_sums_are_class_sizes(self):
        _, g, c = pipeline(3, 2)
        sd = build_scheme(g, c)
        for i, size in enumerate(c.sizes()):
            assert np.all(sd.adjacency(i).sum(axis=1) == size)

    @pytest.mark.parametrize("n,s", [(3, 2), (8, 3), (12, 5)])
    def test_partition_of_ones(self, n, s):
        _, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        total = sum(sd.adjacency(i) for i in range(c.num_classes))
        assert np.array_equal(total, np.ones((g.order, g.order), dtype=int))

    def test_transpose_closure_d43(self):
        # every class of D(4,3) is inverse-closed, so each A_i is symmetric
        _, g, c = pipeline(4, 3)
        sd = build_scheme(g, c)
        for i in range(c.num_classes):
            inv_members = {int(g.inv[x]) for x in c.classes[i]}
            assert inv_members == set(c.classes[i])
            assert np.array_equal(sd.adjacency(i), sd.adjacency(i).T)


class TestIntersectionNumbers:
    def test_identity_column(self):
        # p[i, j, identity] = |Cl_i| when Cl_j is the inverse class of Cl_i
        for n, s in [(3, 2), (8, 3)]:
            _, g, c = pipeline(n, s)
            tensor = intersection_numbers(g, c)
            ident = c.identity_class
            inverse_of = {}
            for i, members in enumerate(c.classes):
                inv_set = frozenset(int(g.inv[x]) for x in members)
                inverse_of[i] = next(j for j, cl in enumerate(c.classes)
                                     if frozenset(cl) == inv_set)
            for i in range(c.num_classes):
                for j in range(c.num_classes):
                    expected = len(c.classes[i]) if j == inverse_of[i] else 0
                    assert tensor.p[i, j, ident] == expected

    def test_s3_rotation_triple(self):
        # z in {a, a^2} with a*z^-1 in {a, a^2} forces z = a^2
        _, g, c = pipeline(3, 2)
        tensor = intersection_numbers(g, c)
        assert tensor.p[1, 1, 1] == 1

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (6, 5), (8, 3), (8, 5), (12, 7)])
    def test_product_identity_full(self, n, s):
        _, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        assert verify_product_identity(sd, tensor)

    def test_nonzero_triples_export(self):
        _, g, c = pipeline(3, 2)
        tensor = intersection_numbers(g, c)
        rows = tensor.nonzero_triples()
        assert len(rows) == 11
        assert all(p > 0 for (_, _, _, p) in rows)

    @pytest.mark.parametrize("n,s", [(3, 2), (8, 5), (12, 11)])
    def test_class_product_mass(self, n, s):
        # sum_k p[i,j,k] |Cl_k| counts all products of Cl_i with Cl_j
        _, g, c = pipeline(n, s)
        tensor = intersection_numbers(g, c)
        sizes = np.asarray(c.sizes())
        for i in range(c.num_classes):
            for j in range(c.num_classes):
                assert int(tensor.p[i, j] @ sizes) == sizes[i] * sizes[j]


class TestDimT0:
    @pytest.mark.parametrize("n,s,expected", [(3, 2, 11), (8, 3, 64), (8, 5, 112)])
    def test_frozen_values(self, n, s, expected):
        _, g, c = pipeline(n, s)
        assert dim_t0(intersection_numbers(g, c)) == expected

    @pytest.mark.parametrize("n", range(3, 17))
    def test_matches_oracle_and_formula(self, n):
        for s in valid_twists(n):
            params, g, c = pipeline(n, s)
            t0 = dim_t0(intersection_numbers(g, c))
            assert t0 == oracle_t0_count(g.mult, list(c.classes))
            assert t0 == closed_form_dimension(params)

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (8, 3)])
    def test_base_point_independence_exhaustive(self, n, s):
        # recompute every p[:, :, k] from every member of Cl_k
        _, g, c = pipeline(n, s)
        tensor = intersection_numbers(g, c)
        cls = np.asarray(c.class_of)
        for k, members in enumerate(c.classes):
            for y in members:
                quot_class = cls[g.mult[y, g.inv]]
                for i, cl_i in enumerate(c.classes):
                    slab = np.bincount(quot_class[list(cl_i)], minlength=c.num_classes)
                    assert np.array_equal(slab, tensor.p[i, :, k]), (i, k, y)


class TestCaseCounts:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_nine_cases(self, n):
        for s in valid_twists(n):
            params, g, c = pipeline(n, s)
            counts = case_counts(intersection_numbers(g, c), c)
            assert counts == expected_case_counts(params)

    def test_case_total_is_dimension(self):
        params, g, c = pipeline(8, 5)
        counts = expected_case_counts(params)
        assert set(counts) == set(CASE_ORDER)
        assert sum(counts.values()) == closed_form_dimension(params)


class TestClosedFormDimension:
    @pytest.mark.parametrize("n,s,expected", [
        (3, 2, 11), (4, 3, 28), (5, 4, 22), (6, 5, 44),
        (8, 3, 64), (8, 5, 112), (8, 7, 64),
    ])
    def test_values(self, n, s, expected):
        assert closed_form_dimension(validate_params(n, s)) == expected
