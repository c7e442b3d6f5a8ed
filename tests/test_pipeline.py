import dataclasses

import numpy as np

from terwilliger import (CharTable, GroupTable, IntersectionTensor, SchemeData,
                         enumerate_pairs)
from terwilliger.pipeline import analyze_pair, audit_corollaries, sweep


class TestAnalyzePair:
    def test_checks_cover_all_verdicts(self):
        a = analyze_pair(3, 2)
        expected = {
            "conjugacy_routes_agree", "scheme_axioms", "tensor_well_defined",
            "t0_matches_formula", "t0_cases_match", "product_identity",
            "orbital_routes_agree", "t_tilde_matches_formula", "triply_transitive",
            "closure_two_primes_agree", "closure_matches_formula",
            "closure_provenance_exact", "char_orthogonality", "degree_squares",
            "rowsums_integral", "closedform_integral", "rowsum_equals_closedform",
            "conjugation_character_pointwise", "blocks_match_dimension",
            "block_routes_agree", "commutant_matches_orbitals", "central_idempotents",
        }
        assert set(a.checks) == expected
        assert a.passed

    def test_desk_certificates_skipped_when_large(self):
        a = analyze_pair(13, 12)
        assert a.commutant_dim is None
        assert a.idempotents is None
        assert "commutant_matches_orbitals" not in a.checks

    def test_no_closure(self):
        a = analyze_pair(5, 4, closure=False)
        assert a.certificate is None
        assert "closure_matches_formula" not in a.checks
        assert a.passed

    def test_failure_surfaces_as_verdict(self, monkeypatch):
        from terwilliger import pipeline as pl
        monkeypatch.setattr(pl.scheme, "expected_case_counts",
                            lambda params: {})
        a = analyze_pair(3, 2, closure=False, desk_certificates=False)
        assert not a.checks["t0_cases_match"]
        assert not a.passed

    def test_closure_failure_is_a_failed_verdict(self, monkeypatch):
        # (8, 3) needs two rounds, so a budget of one leaves the closure unsettled
        from terwilliger import algebra
        monkeypatch.setattr(algebra, "ROUND_BUDGET", 1)
        a = analyze_pair(8, 3)
        assert a.checks["closure_two_primes_agree"] is False
        assert a.certificate is None and not a.passed
        assert any("did not stabilize" in note for note in a.notes)
        obj = a.to_json_dict()
        assert obj["closure"] is None and obj["notes"] == a.notes

    def test_report_holds_no_arrays(self):
        # the tables and arrays are rebuilt by the layers that make them;
        # an analysis keeps only what the reports print
        a = analyze_pair(40, 21)
        working = (GroupTable, SchemeData, IntersectionTensor, CharTable, np.ndarray)
        held = {f.name: type(getattr(a, f.name)).__name__
                for f in dataclasses.fields(a)
                if isinstance(getattr(a, f.name), working)}
        assert held == {}

    def test_json_shape(self):
        obj = analyze_pair(4, 3).to_json_dict()
        assert obj["dims"]["t0"] == obj["dims"]["formula"] == 28
        assert obj["blocks"]["rowsum"] == [5, 1, 1, 1]


class TestSweep:
    def test_enumeration(self):
        pairs = enumerate_pairs(3, 12)
        assert (8, 3) in pairs and (8, 5) in pairs and (8, 7) in pairs
        assert (6, 2) not in pairs
        assert pairs == sorted(pairs)

    def test_threaded_matches_serial(self):
        serial = sweep(3, 8)
        threaded = sweep(3, 8, threads=4)
        assert [a.dims_row() for a in serial] == [a.dims_row() for a in threaded]

    def test_closure_limit(self):
        rows = sweep(3, 6, closure_limit=4)
        by_n = {a.params.n: a for a in rows}
        assert by_n[4].certificate is not None
        assert by_n[6].certificate is None
        assert all(a.passed for a in rows)


class TestAuditRange:
    def test_rows_cover_range(self):
        audits = audit_corollaries(3, 12)
        assert [a.n for a in audits] == list(range(3, 13))
