import dataclasses

import numpy as np
import pytest

from helpers import oracle_char_cells, one_dim_character, two_dim_character
from terwilliger import (ConsistencyError, build_group, char_table, closed_form_dimension,
                         conjugacy_classes, conjugation_character_check,
                         multiplicities_closedform, multiplicities_rowsum,
                         orthogonality_check, two_dim_reps, valid_twists,
                         validate_params)
from terwilliger.characters import format_symbolic


def table_for(n, s):
    params = validate_params(n, s)
    classes = conjugacy_classes(build_group(params))
    return params, classes, char_table(params, classes)


class TestTwoDimReps:
    def test_8_3(self):
        assert two_dim_reps(validate_params(8, 3)) == [1, 2, 5]

    def test_6_5(self):
        assert two_dim_reps(validate_params(6, 5)) == [1, 2]

    @pytest.mark.parametrize("n", list(range(3, 60)) + [120, 168, 200])
    def test_count(self, n):
        for s in valid_twists(n):
            params = validate_params(n, s)
            ks = two_dim_reps(params)
            assert len(ks) == (n - params.tau) // 2
            # within the domain, k and k*s never coincide
            for k in ks:
                assert (k * s) % n != k


class TestCharTable:
    def test_s3_values(self):
        _, classes, table = table_for(3, 2)
        assert table.row_labels == ("lin0+", "lin0-", "two1")
        # trivial character row
        assert np.allclose(table.values[0], [1, 1, 1])
        # sign character: -1 on the reflection class
        assert np.allclose(table.values[1], [1, 1, -1])
        # standard character: w + w^2 = -1 on the rotation pair
        assert np.allclose(table.values[2], [2, -1, 0])

    def test_row_and_column_counts(self):
        for n, s in [(8, 3), (8, 5), (12, 7)]:
            _, classes, table = table_for(n, s)
            assert table.num_rows == classes.num_classes
            assert len(table.column_labels) == classes.num_classes

    def test_degrees(self):
        params, _, table = table_for(8, 5)
        tau = params.tau
        assert table.degrees[:2 * tau] == tuple([1] * 2 * tau)
        assert all(d == 2 for d in table.degrees[2 * tau:])
        assert sum(d * d for d in table.degrees) == 16

    def test_two_dim_rows_vanish_on_reflections(self):
        _, classes, table = table_for(12, 5)
        z_cols = [i for i, kind in enumerate(classes.kinds) if kind == "Z"]
        for r, (family, _) in enumerate(table.row_families):
            if family == "two":
                assert np.allclose(table.values[r][z_cols], 0)

    @pytest.mark.parametrize("n,s", [(3, 2), (6, 5), (8, 3), (8, 5), (9, 8), (12, 7)])
    def test_against_representation_matrices(self, n, s):
        # rebuild every character from explicit representation matrices
        params, classes, table = table_for(n, s)
        tau = params.tau
        for r, (family, k) in enumerate(table.row_families):
            for c, rep in enumerate(classes.reps):
                if family == "two":
                    expected = two_dim_character(n, s, k, rep)
                else:
                    sign = 1 if family == "lin+" else -1
                    expected = one_dim_character(n, s, tau, k, sign, rep)
                assert table.values[r, c] == pytest.approx(expected, abs=1e-9), \
                    (table.row_labels[r], classes.labels[c])

    def test_linear_characters_are_homomorphisms(self):
        params, classes, table = table_for(8, 3)
        group = build_group(params)
        class_of = classes.class_of
        for r in range(2 * params.tau):
            chi = table.values[r][np.asarray(class_of)]
            for x in [0, 1, 5, 8, 11]:
                for y in [0, 2, 7, 9, 15]:
                    assert chi[group.mult[x, y]] == pytest.approx(chi[x] * chi[y])


CELL_PAIRS = [(n, s) for n in range(3, 41) for s in valid_twists(n)] + [(100, 51)]


class TestCellOracle:
    """The array-built table equals the per-cell sums bit for bit, and its
    symbolic rows equal the per-cell tuples."""

    @pytest.mark.parametrize("n,s", CELL_PAIRS)
    def test_matches_per_cell_oracle(self, n, s):
        _, classes, table = table_for(n, s)
        cells, values = oracle_char_cells(n, s, classes.kinds, classes.reps)
        assert table.values.dtype == values.dtype
        assert table.values.tobytes() == values.tobytes()
        assert table.symbolic == tuple(tuple(row) for row in cells)


class TestOrthogonality:
    @pytest.mark.parametrize("n,s", [(3, 2), (8, 7), (12, 5), (24, 11), (40, 21)])
    def test_within_tolerance(self, n, s):
        _, classes, table = table_for(n, s)
        assert 0 <= orthogonality_check(table, classes) < 1e-9

    @pytest.mark.parametrize("n,s", [(12, 5), (40, 21)])
    def test_deviation_matches_complex_gram(self, n, s):
        # a phase on one value moves both parts of the Gram matrix; the
        # reported deviation is the one of the complex product
        _, classes, table = table_for(n, s)
        values = table.values.copy()
        values[-1, 1] *= np.exp(0.3j)
        sizes = np.array(classes.sizes())
        gram = (values * sizes) @ values.conj().T / (2 * n)
        want = np.max(np.abs(gram - np.eye(len(values))))
        with pytest.raises(ConsistencyError, match="first orthogonality") as info:
            orthogonality_check(dataclasses.replace(table, values=values), classes)
        assert f"deviation {want:.3e}" in str(info.value)


class TestMultiplicities:
    def test_s3_rowsums(self):
        _, _, table = table_for(3, 2)
        m = multiplicities_rowsum(table)
        assert m.d1 == (3,)
        assert m.d2 == (1,)
        assert m.d2dim == {1: 1}
        assert sum(v * v for v in m.row_values()) == 11

    def test_d87_values(self):
        params, _, table = table_for(8, 7)
        m = multiplicities_rowsum(table)
        assert m.d1 == (7, 1)
        assert m.d2 == (3, 1)
        assert m.d2dim == {1: 0, 2: 2, 3: 0}
        assert sum(v * v for v in m.row_values()) == 64

    def test_closedform_cases_at_8_7(self):
        m = multiplicities_closedform(validate_params(8, 7))
        assert m.d1 == (7, 1)          # (n+3tau)/2 then the tau/2 case
        assert m.d2 == (3, 1)
        assert m.half_case_ks == (1,)
        assert m.d2dim == {1: 0, 2: 2, 3: 0}

    def test_closedform_no_half_case_at_8_5(self):
        m = multiplicities_closedform(validate_params(8, 5))
        assert m.d1 == (10, 0, 2, 0)
        assert m.d2 == (2, 0, 2, 0)
        assert m.d2dim == {1: 0, 3: 0}

    @pytest.mark.parametrize("n", range(3, 61))
    def test_rowsum_equals_closedform(self, n):
        for s in valid_twists(n):
            params, _, table = table_for(n, s)
            rowsum = multiplicities_rowsum(table)
            closed = multiplicities_closedform(params)
            assert rowsum.same_values(closed), (n, s)
            assert sum(v * v for v in rowsum.row_values()) == closed_form_dimension(params)

    @pytest.mark.parametrize("n", range(3, 61))
    def test_half_case_only_with_even_tau(self, n):
        for s in valid_twists(n):
            params = validate_params(n, s)
            m = multiplicities_closedform(params)   # raises if tau odd and fired
            if params.tau % 2:
                assert m.half_case_ks == ()

    def test_pointwise_centralizer_identity(self):
        for n, s in [(3, 2), (8, 3), (12, 11), (20, 9)]:
            params, classes, table = table_for(n, s)
            m = multiplicities_rowsum(table)
            residual = conjugation_character_check(table, m, classes)
            assert residual < 1e-6

    def test_pointwise_centralizer_mismatch_raises(self):
        # one more copy of the trivial character adds 1 on every class
        params, classes, table = table_for(8, 3)
        m = multiplicities_rowsum(table)
        wrong = dataclasses.replace(m, d1=(m.d1[0] + 1,) + m.d1[1:])
        with pytest.raises(ConsistencyError, match="residual 1.000e"):
            conjugation_character_check(table, wrong, classes)


class TestFormatting:
    def test_format_symbolic(self):
        assert format_symbolic((1, (0,))) == "1"
        assert format_symbolic((1, (3,))) == "w^3"
        assert format_symbolic((-1, (5,))) == "-w^5"
        assert format_symbolic((1, (1, 5))) == "w^1+w^5"
        assert format_symbolic((1, (0, 0))) == "2"
        assert format_symbolic((1, (4, 4))) == "2*w^4"
        assert format_symbolic((1, ())) == "0"
        assert format_symbolic((-1, (2, 6))) == "-(w^2+w^6)"
