import dataclasses
import sys
import time

import numpy as np
import pytest

from terwilliger import (CharTable, GroupTable, IntersectionTensor, build_group,
                         enumerate_pairs, validate_params)
from terwilliger import pipeline as pl
from terwilliger.groups import ConsistencyError, orbit_reps
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

    def test_primes_keyword_rejected(self):
        with pytest.raises(TypeError, match="primes"):
            analyze_pair(3, 2, primes=(9973, 7919))

    def test_exact_rational_keyword_rejected(self):
        # the closure has one path, the count; the rational rerun is gone
        with pytest.raises(TypeError, match="exact_rational"):
            analyze_pair(3, 2, exact_rational=True)

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
        # (8, 3) needs two rounds; with no cells counted, round 2 is not
        # decided by the labels, and the closure raises
        from terwilliger import algebra
        monkeypatch.setattr(algebra._GeneratorProducts, "cell_count", lambda self: 0)
        a = analyze_pair(8, 3)
        assert a.checks["closure_two_primes_agree"] is False
        assert a.certificate is None and not a.passed
        assert any("cells fall short" in note for note in a.notes)
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
        # the orbital verdict and the closure share one enumeration of the
        # representatives, with or without the closure; every module that
        # imported orbit_reps by name is counted
        calls = []

        def counted(group):
            calls.append("orbit_reps")
            return orbit_reps(group)
        for module in [m for name, m in sys.modules.items()
                       if name.startswith("terwilliger") and hasattr(m, "orbit_reps")]:
            monkeypatch.setattr(module, "orbit_reps", counted)
        assert analyze_pair(8, 3, closure=closure).passed
        assert calls == ["orbit_reps"]

    def test_one_class_computation(self, monkeypatch):
        # the central idempotents read the classes the analysis already holds
        from terwilliger import groups
        calls = []
        least = groups._least_conjugate
        monkeypatch.setattr(groups, "_least_conjugate",
                            lambda group: calls.append(group) or least(group))
        a = analyze_pair(12, 5)
        assert a.passed and a.idempotents is not None
        assert len(calls) == 1

    def test_class_matrix_formed_once(self, monkeypatch):
        # build_scheme checks the transpose closure on row 0 and forms no Q;
        # the product identity's check is the one reader of Q whole
        calls = []
        class_matrix = pl.scheme.class_matrix
        monkeypatch.setattr(pl.scheme, "class_matrix",
                            lambda *args: calls.append(args) or class_matrix(*args))
        assert analyze_pair(12, 5).passed
        assert len(calls) == 1

    def test_no_dual_idempotents_formed(self, monkeypatch):
        # the closure reads E*_i as class labels, so the pipeline forms no
        # |classes| x |G| diagonals
        from terwilliger import algebra

        def refuse(classes):
            raise AssertionError("dual_idempotents called")

        monkeypatch.setattr(algebra, "dual_idempotents", refuse)
        a = analyze_pair(8, 3)
        assert a.passed and a.certificate.provenance == "exact"

    @pytest.mark.parametrize("closure", [True, False])
    def test_short_enumeration_fails_the_orbital_route(self, monkeypatch, closure):
        # the representatives handed to the orbital check are still checked
        # against the Burnside count, with or without the closure
        reps = orbit_reps(build_group(validate_params(8, 3)))
        monkeypatch.setattr(pl, "orbit_reps", lambda group: reps[:-1])
        with pytest.raises(ConsistencyError, match="orbital_routes_agree: .*"
                                                   "Burnside 64 vs enumeration 63"):
            analyze_pair(8, 3, closure=closure)

    def test_report_holds_no_arrays(self):
        # the tables and arrays are rebuilt by the layers that make them;
        # an analysis keeps only what the reports print
        a = analyze_pair(40, 21)
        working = (GroupTable, IntersectionTensor, CharTable, np.ndarray)
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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sink_gets_the_returned_rows(self, threads):
        rows = []
        assert sweep(3, 12, threads=threads, sink=rows.append) is None
        listed = sweep(3, 12, threads=threads)
        assert [a.to_json_dict() for a in rows] == [a.to_json_dict() for a in listed]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_pair_is_only_its_row(self, failing_groups, monkeypatch, threads):
        with monkeypatch.context() as m:
            m.setattr(pl, "build_group", build_group)
            expected = [a.to_json_dict() for a in sweep(3, 12)]
        rows = sweep(3, 12, threads=threads)
        assert [(a.params.n, a.params.s) for a in rows] == enumerate_pairs(3, 12)
        failed = {(a.params.n, a.params.s): a for a in rows if not a.passed}
        assert set(failed) == set(failing_groups)
        assert failed[8, 3].to_json_dict() == {
            "n": 8, "s": 3, "tau": 2,
            "dims": {"t0": None, "t": None, "t_tilde": None, "formula": 64},
            "triply_transitive": None, "blocks": None,
            "checks": {"analysis_completed": False}, "closure": None,
            "notes": [failing_groups[8, 3]]}
        assert failed[9, 8].notes == ["ConsistencyError: no Cayley table"]
        assert failed[9, 8].dims_row() == (9, 8, 1, None, None, None, 56)
        assert ([a.to_json_dict() for a in rows if a.passed]
                == [r for r in expected if (r["n"], r["s"]) not in failing_groups])

    def test_other_exceptions_still_propagate(self, monkeypatch):
        def broken(params):
            raise KeyError("not a failed row")

        monkeypatch.setattr(pl, "build_group", broken)
        with pytest.raises(KeyError, match="not a failed row"):
            sweep(3, 5)

    def test_primes_keyword_rejected(self):
        with pytest.raises(TypeError, match="primes"):
            sweep(3, 4, primes=(9973, 7919))

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
