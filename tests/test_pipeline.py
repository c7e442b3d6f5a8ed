import dataclasses
import sys
import time

import numpy as np
import pytest

from terwilliger import (CharTable, GroupTable, IntersectionTensor, SchemeData,
                         build_group, enumerate_pairs, validate_params)
from terwilliger import pipeline as pl
from terwilliger.groups import ConsistencyError, pair_orbits
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

    def test_closure_out_of_memory_is_a_failed_verdict(self, monkeypatch):
        from terwilliger import algebra

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 267. MiB")

        monkeypatch.setattr(algebra, "algebra_closure", no_memory)
        a = analyze_pair(8, 3)
        assert a.checks["closure_two_primes_agree"] is False
        assert a.certificate is None and not a.passed
        assert a.notes == ["closure_two_primes_agree: out of memory at (n, s) = (8, 3), "
                           "dim T~ = 64 (Unable to allocate 267. MiB)"]
        assert a.checks["char_orthogonality"] and a.checks["blocks_match_dimension"]

    @pytest.mark.parametrize("closure", [True, False])
    def test_one_pair_orbit_enumeration(self, monkeypatch, closure):
        # the orbital verdict and the closure share one enumeration; every
        # module that imported pair_orbits by name is counted
        calls = []

        def counted(group):
            calls.append(group.name)
            return pair_orbits(group)
        for module in [m for name, m in sys.modules.items()
                       if name.startswith("terwilliger") and hasattr(m, "pair_orbits")]:
            monkeypatch.setattr(module, "pair_orbits", counted)
        assert analyze_pair(8, 3, closure=closure).passed
        assert calls == ["D(8,3)"]

    def test_short_enumeration_fails_the_orbital_route(self, monkeypatch):
        # the enumeration handed to the orbital check is still checked
        # against the Burnside count
        ids, reps = pair_orbits(build_group(validate_params(8, 3)))
        monkeypatch.setattr(pl, "pair_orbits", lambda group: (ids, reps[:-1]))
        with pytest.raises(ConsistencyError, match="orbital_routes_agree: .*"
                                                   "Burnside 64 vs enumeration 63"):
            analyze_pair(8, 3)

    def test_report_holds_no_arrays(self):
        # the tables and arrays are rebuilt by the layers that make them;
        # an analysis keeps only what the reports print
        a = analyze_pair(40, 21)
        working = (GroupTable, SchemeData, IntersectionTensor, CharTable, np.ndarray)
        held = {f.name: type(getattr(a, f.name)).__name__
                for f in dataclasses.fields(a)
                if isinstance(getattr(a, f.name), working)}
        assert held == {}

    def test_no_closure_keeps_to_one_thread(self):
        # a multithreaded BLAS call leaves its threads spinning for a while
        # after it returns; without the closure, no call should start them.
        # The first sleep lets threads from earlier tests go idle, the last
        # one catches the spinning that the last pair's calls would cause.
        # (100, 51) has 125 classes, enough for d @ values to be split
        time.sleep(0.5)
        start = time.process_time() - time.thread_time()
        for n, s in [(100, 99), (99, 98), (98, 97), (100, 51)]:
            assert analyze_pair(n, s, closure=False).passed
        time.sleep(0.3)
        other_threads = time.process_time() - time.thread_time() - start
        assert other_threads < 0.05, other_threads

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
