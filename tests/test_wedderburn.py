import dataclasses

import pytest

from terwilliger import (ConsistencyError, build_group, central_idempotents,
                         char_table, closed_form_dimension, conjugacy_classes,
                         corollary_audit, decomposition, multiplicities_closedform,
                         multiplicities_rowsum, valid_twists, validate_params)
from terwilliger.wedderburn import _printed_dihedral_blocks


def blocks_for(n, s):
    params = validate_params(n, s)
    classes = conjugacy_classes(build_group(params))
    table = char_table(params, classes)
    return params, classes, table, multiplicities_rowsum(table)


class TestDecomposition:
    @pytest.mark.parametrize("n,s,blocks,total", [
        (3, 2, (3, 1, 1), 11),
        (8, 7, (7, 3, 2, 1, 1), 64),
        (6, 5, (6, 2, 2), 44),
        (8, 5, (10, 2, 2, 2), 112),
    ])
    def test_frozen_blocks(self, n, s, blocks, total):
        params, _, _, mults = blocks_for(n, s)
        report = decomposition(mults, closed_form_dimension(params))
        assert report.blocks == blocks
        assert report.sum_of_squares == total
        assert report.matches_dimension

    def test_zero_multiplicities_dropped(self):
        params, _, _, mults = blocks_for(8, 5)
        assert 0 in mults.row_values()
        report = decomposition(mults)
        assert 0 not in report.blocks

    def test_strict_mismatch_raises(self):
        _, _, _, mults = blocks_for(3, 2)
        with pytest.raises(ConsistencyError):
            decomposition(mults, expected_dimension=10)

    def test_routes_agree_as_multisets(self):
        for n in range(3, 41):
            for s in valid_twists(n):
                params, _, table, rowsum = blocks_for(n, s)
                closed = multiplicities_closedform(params)
                a = decomposition(rowsum, closed_form_dimension(params))
                b = decomposition(closed, closed_form_dimension(params))
                assert a.blocks == b.blocks  # both sorted, largest first


class TestCentralIdempotents:
    def test_s3_traces(self):
        params, classes, table, mults = blocks_for(3, 2)
        report = central_idempotents(build_group(params), classes, table, mults)
        assert report.traces == (3, 1, 2)
        assert sum(report.traces) == 6
        assert report.ok

    def test_d43_absent_isotypic_component(self):
        # the two-dimensional character has multiplicity 0 at n=4, so trace 0
        params, classes, table, mults = blocks_for(4, 3)
        report = central_idempotents(build_group(params), classes, table, mults)
        two_index = table.row_families.index(("two", 1))
        assert report.traces[two_index] == 0

    @pytest.mark.parametrize("n,s", [(n, s) for n in range(3, 13)
                                     for s in valid_twists(n)])
    def test_all_desk_scale_pairs(self, n, s):
        params, classes, table, mults = blocks_for(n, s)
        report = central_idempotents(build_group(params), classes, table, mults)
        assert report.ok
        assert max(report.idempotency_error, report.orthogonality_error,
                   report.sum_error) <= 1e-8
        assert sum(report.traces) == 2 * n  # the idempotents resolve the identity

    def test_corrupted_character_row_breaks_the_laws(self):
        # +0.5 at one non-identity class and -0.5 at another leaves every
        # trace as it was: trace(e_i) = deg_i * sum over classes of
        # conj(chi_i), since |Cl| * |C_G| = |G|; the laws must catch it
        params, classes, table, mults = blocks_for(8, 3)
        values = table.values.copy()
        values[1, 1] += 0.5
        values[1, 2] -= 0.5
        corrupted = dataclasses.replace(table, values=values)
        with pytest.raises(ConsistencyError, match="idempotent identities exceed tolerance"):
            central_idempotents(build_group(params), classes, corrupted, mults)

    def test_size_guard(self):
        params, classes, table, mults = blocks_for(13, 12)
        with pytest.raises(ValueError):
            central_idempotents(build_group(params), classes, table, mults)


class TestPrintedFormulas:
    @pytest.mark.parametrize("n,expected,clamped", [
        (3, [3, 1], False),
        (5, [4, 2, 1], False),
        (7, [5, 3, 1], False),
        (4, [5, 1, 1, 1], True),      # copy count -1 clamped to zero
        (6, [6, 2, 2], False),
        (8, [7, 3, 1, 1], False),
        (12, [9, 5, 1, 1, 2], False),
    ])
    def test_literal_blocks(self, n, expected, clamped):
        blocks, was_clamped = _printed_dihedral_blocks(n)
        assert blocks == expected
        assert was_clamped == clamped


class TestCorollaryAudit:
    def test_n6_agrees(self):
        audit = corollary_audit(6)
        assert audit.agree
        assert audit.printed_blocks == audit.derived_blocks == (6, 2, 2)

    def test_n5_delta(self):
        audit = corollary_audit(5)
        assert not audit.agree
        assert audit.printed_blocks == (4, 2, 1)
        assert audit.derived_blocks == (4, 2, 1, 1)
        assert "M1" in audit.discrepancy_note
        assert "21" in audit.discrepancy_note and "22" in audit.discrepancy_note

    def test_n8_delta(self):
        audit = corollary_audit(8)
        assert not audit.agree
        assert audit.printed_blocks == (7, 3, 1, 1)
        assert audit.derived_blocks == (7, 3, 2, 1, 1)
        assert "M2" in audit.discrepancy_note

    def test_n4_agrees_after_clamp(self):
        audit = corollary_audit(4)
        assert audit.agree
        assert audit.clamped
        assert "clamped" in audit.discrepancy_note

    def test_derived_always_consistent(self):
        for n in range(3, 51):
            audit = corollary_audit(n)
            params = validate_params(n, n - 1)
            assert sum(d * d for d in audit.derived_blocks) == closed_form_dimension(params)

    def test_even_pattern(self):
        # n = 2 mod 4 always agrees; n = 0 mod 4 disagrees beyond the clamped n=4
        for n in range(6, 51, 4):
            assert corollary_audit(n).agree, n
        for n in range(8, 51, 4):
            assert not corollary_audit(n).agree, n

    def test_odd_pattern(self):
        # the printed M1 copy count undershoots (n-1)/2 for every odd n here
        for n in range(3, 51, 2):
            audit = corollary_audit(n)
            assert not audit.agree, n
            derived_ones = audit.derived_blocks.count(1)
            printed_ones = audit.printed_blocks.count(1)
            assert derived_ones - printed_ones == (n - 1) // 2 - (n - 1) // 4
