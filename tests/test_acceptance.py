"""Acceptance suite: one test per acceptance criterion, at the stated tolerances.

Criteria 1-4 and 7 consume a shared full sweep over every valid (n, s) with
3 <= n <= 40 (closure enabled, both default primes).  Criteria 5-6 run the
character routes for every valid pair up to n = 200.  Criterion 10 is split
into its three clauses (agreement set, recorded deltas, derived consistency)
so each clause reports its own line.

Each test prints one `[criterion N] PASS/FAIL` line; run with `pytest -v -s`
to see them as they complete.
"""

import hashlib

import pytest

from terwilliger import (DEFAULT_PRIMES, build_group, central_idempotents,
                         char_table, closed_form_dimension, commutant_oracle,
                         conjugacy_classes, enumerate_pairs,
                         multiplicities_closedform, multiplicities_rowsum,
                         orbital_count, valid_twists, validate_params)
from terwilliger.cli import SweepRows, render_sweep
from terwilliger.pipeline import audit_corollaries, sweep
from terwilliger.scheme import expected_case_counts


def _line(tag: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} {detail}".rstrip(), flush=True)


def _finish(tag: str, failures: list, detail: str = "") -> None:
    _line(tag, not failures, detail)
    assert not failures, f"criterion {tag}: {failures}"


def _rendered(analyses, fmt: str) -> str:
    """The CLI's sweep report of analyses, fed to its sink one by one."""
    rows = SweepRows(fmt)
    for a in analyses:
        rows(a)
    return render_sweep(rows)


@pytest.fixture(scope="session")
def sweep_a():
    """First full run of sweep 3..40: serial, canonical generator order."""
    analyses = sweep(3, 40, threads=1)
    return analyses, _rendered(analyses, "csv")


@pytest.fixture(scope="session")
def char_pairs_200():
    """Character-route data for every valid pair with n <= 200."""
    out = []
    for n, s in enumerate_pairs(3, 200):
        params = validate_params(n, s)
        classes = conjugacy_classes(build_group(params))
        table = char_table(params, classes)
        out.append((params, classes, table,
                    multiplicities_rowsum(table), multiplicities_closedform(params)))
    return out


def test_criterion_1_closure_dimension(sweep_a):
    """Generator-closure dimension equals (n^2+3n*tau+4tau^2)/2 for all n <= 40."""
    analyses, _ = sweep_a
    failures = [(a.params.n, a.params.s) for a in analyses
                if a.certificate is None
                or a.certificate.dim_t != closed_form_dimension(a.params)]
    _finish("1", failures, f"{len(analyses)} pairs, closure == formula exactly")


def test_criterion_2_triple_transitivity(sweep_a):
    """dim T0 (triple count) equals dim T~ (Burnside/orbit count) for n <= 40."""
    analyses, _ = sweep_a
    failures = [(a.params.n, a.params.s) for a in analyses
                if a.dim_t0 != a.dim_t_tilde
                or not a.checks["orbital_routes_agree"]]
    _finish("2", failures, "both sides by brute-force counting, integer equality")


def test_criterion_3_nine_case_counts(sweep_a):
    """The label-filtered triple counts match all nine closed-form expressions."""
    analyses, _ = sweep_a
    failures = []
    for a in analyses:
        expected = expected_case_counts(a.params)
        if a.case_counts != expected:
            bad = {case: (a.case_counts[case], expected[case])
                   for case in expected if a.case_counts[case] != expected[case]}
            failures.append((a.params.n, a.params.s, bad))
    _finish("3", failures, "nine cases, exact")


def test_criterion_4_conjugacy_closed_forms(sweep_a):
    """Brute-force classes and centralizers match the closed forms for n <= 40."""
    analyses, _ = sweep_a
    failures = []
    for a in analyses:
        n, tau = a.params.n, a.params.tau
        if not a.checks["conjugacy_routes_agree"]:
            failures.append((n, a.params.s, "routes"))
            continue
        for kind, members, cent in zip(a.classes.kinds, a.classes.classes,
                                       a.classes.centralizer_orders):
            size_ok = len(members) == {"X": 1, "Y": 2, "Z": n // tau}[kind]
            cent_ok = cent == {"X": 2 * n, "Y": n, "Z": 2 * tau}[kind]
            if not (size_ok and cent_ok):
                failures.append((n, a.params.s, kind))
    _finish("4", failures, "sizes 1/2/(n per tau), centralizers 2n/n/2tau")


def test_criterion_5_multiplicity_routes(char_pairs_200):
    """Closed-form multiplicities equal rounded row sums for all n <= 200."""
    failures = [(p.n, p.s) for p, _, _, rowsum, closed in char_pairs_200
                if not rowsum.same_values(closed)]
    _finish("5", failures, f"{len(char_pairs_200)} pairs, integer equality")


def test_criterion_6_block_square_sums(char_pairs_200):
    """Sum of squared Wedderburn blocks equals the dimension formula, n <= 200."""
    failures = [(p.n, p.s) for p, _, _, rowsum, _ in char_pairs_200
                if rowsum.sum_of_squares() != closed_form_dimension(p)]
    _finish("6", failures, "sum d_i^2 == (n^2+3n*tau+4tau^2)/2 exactly")


def test_criterion_7_character_table_certification(sweep_a):
    """Orthogonality at 1e-9, degree squares, and the pointwise centralizer
    identity at 1e-6 for n <= 40."""
    analyses, _ = sweep_a
    failures = [(a.params.n, a.params.s,
                 [c for c in ("char_orthogonality", "degree_squares",
                              "conjugation_character_pointwise") if not a.checks[c]])
                for a in analyses
                if not all(a.checks[c] for c in ("char_orthogonality", "degree_squares",
                                                 "conjugation_character_pointwise"))]
    _finish("7", failures, "orthogonality 1e-9, deg^2 sum, pi(g) = |C(g)| at 1e-6")


def test_criterion_8_central_idempotents():
    """Idempotent laws at 1e-8 and integral traces d_i*deg_i for 2n <= 24."""
    failures = []
    count = 0
    for n in range(3, 13):
        for s in valid_twists(n):
            count += 1
            params = validate_params(n, s)
            group = build_group(params)
            classes = conjugacy_classes(group)
            table = char_table(params, classes)
            mults = multiplicities_rowsum(table)
            try:
                report = central_idempotents(group, classes, table, mults)
            except Exception as exc:   # any broken identity is a failure here
                failures.append((n, s, str(exc)))
                continue
            if not report.ok or sum(report.traces) != 2 * n:
                failures.append((n, s, "identities"))
    _finish("8", failures, f"{count} pairs with |G| <= 24")


def test_criterion_9_commutant_oracle():
    """Exact commutant dimension equals the Burnside orbital count for 2n <= 16."""
    failures = []
    count = 0
    for n in range(3, 9):
        for s in valid_twists(n):
            count += 1
            group = build_group(validate_params(n, s))
            if commutant_oracle(group) != orbital_count(group):
                failures.append((n, s))
    _finish("9", failures, f"{count} pairs with |G| <= 16")


@pytest.fixture(scope="session")
def audits_50():
    return {a.n: a for a in audit_corollaries(3, 50)}


def test_criterion_10a_stated_agreement_set(audits_50):
    """The stated expectation: printed and derived blocks agree at n in {3,4,6,7}.

    The derived oracles contradict this at n = 3 and n = 7 (the printed odd-n
    copy count (n-1)//4 undershoots the derived (n-1)/2 for every odd n), so
    this clause fails there; see the audit rows for the exact deltas.
    """
    failures = [(n, audits_50[n].discrepancy_note)
                for n in (3, 4, 6, 7) if not audits_50[n].agree]
    _finish("10a", failures, "agreement at n in {3,4,6,7} as stated")


def test_criterion_10b_recorded_deltas(audits_50):
    """Printed-vs-derived deltas are computed and recorded at n = 5 and n = 8."""
    failures = []
    if audits_50[5].agree or "M1" not in audits_50[5].discrepancy_note:
        failures.append((5, audits_50[5].discrepancy_note))
    if audits_50[8].agree or "M2" not in audits_50[8].discrepancy_note:
        failures.append((8, audits_50[8].discrepancy_note))
    _finish("10b", failures, "deltas recorded at n = 5 (M1) and n = 8 (M2)")


def test_criterion_10c_derived_consistency(audits_50):
    """Derived decompositions satisfy the dimension identity at every n <= 50."""
    failures = []
    for n, audit in audits_50.items():
        params = validate_params(n, n - 1)
        if sum(d * d for d in audit.derived_blocks) != closed_form_dimension(params):
            failures.append(n)
    _finish("10c", failures, "sum d^2 == formula for every audited n")


def test_criterion_11_pinned_output(sweep_a):
    """The JSON and CSV bytes of sweep 3..40 are pinned; the JSON carries the
    closure rounds and both rank histories of every pair."""
    analyses, _ = sweep_a
    pinned = {
        "json": "9094a39ff14e526b2e3149d6d1582ee535b97d00e04db6bee5f1eba00382de36",
        "csv": "80c979d4b2d7ccf23470dba7fa83ae7656b973e63b90171460c17c5386a1694c",
    }
    failures = [fmt for fmt, digest in pinned.items()
                if hashlib.sha256(_rendered(analyses, fmt).encode()).hexdigest() != digest]
    _finish("11", failures, "sweep 3..40 json and csv match the pinned sha256")


def test_criterion_11_pinned_census_output():
    """The JSON bytes of sweep 41..100 (closure off above n = 40) are pinned:
    the dims, blocks and verdicts of all 162 pairs."""
    rows = SweepRows("json")
    sweep(41, 100, sink=rows)
    digest = hashlib.sha256(render_sweep(rows).encode()).hexdigest()
    pinned = "64c0c8d8809ebb301db551959c9b27b523cb2e3d7e2e9f9db20ce11ebb77e331"
    _finish("11", [digest] if digest != pinned else [], "sweep 41..100 json matches the pinned sha256")


def test_criterion_11_determinism(sweep_a):
    """A second sweep with a different thread count and permuted generator
    order must be byte-identical, and the default primes must agree on every
    reported rank."""
    analyses_a, bytes_a = sweep_a
    failures = []
    analyses_b = sweep(3, 40, threads=2, generator_order_seed=2026)
    bytes_b = _rendered(analyses_b, "csv")
    if bytes_a != bytes_b:
        failures.append("outputs differ between the two runs")
    for a in analyses_a:
        cert = a.certificate
        if cert is None or cert.primes != DEFAULT_PRIMES:
            failures.append((a.params.n, a.params.s, "primes"))
        elif not a.checks["closure_two_primes_agree"]:
            failures.append((a.params.n, a.params.s, "rank disagreement"))
    _finish("11", failures, "byte-identical across thread counts and seed order")
