"""Full analysis of one (n, s) pair and sweep orchestration.

An analysis runs the entire chain: group construction with dual-route
conjugacy data, scheme axioms, intersection tensor with the nine case
counts and the product identity for every (i, j), the two dimension
bounds, the generator closure counted from labels (one path, which forms
no dual idempotent and no basis), the character table with both
multiplicity routes, Wedderburn blocks, and the desk-scale certificates
(commutant rank, central idempotents) when the group is small enough.
Every verdict lands in an ordered checks dict; consistency exceptions from
the underlying operations are caught per step and reported as failed
verdicts rather than tracebacks, and so is a closure that runs out of
memory.

A sweep hands each pair's row to a sink in (n, s) order as soon as it and
every earlier pair have finished, and keeps none; the default sink is a
list's append, which sweep returns.  A pair whose analysis raises a
ConsistencyError or a MemoryError outside a step (a Cayley table that does
not fit, a scheme that cannot be built) is only that pair's row: a
PairFailure, whose one verdict is false and whose note is the exception.

The orbits of G on G x G are enumerated once per analysis, by their
representatives alone (orbit_reps), and no orbit id of the |G|^2 pairs is
computed.  The orbital verdict checks their number against the Burnside
average, and the closure reads its orbital coordinates, the values at the
representatives, from the same enumeration.  That shares an input, not a
result: the closure reads no verdict and no dimension from the orbital
route, it checks the count against Burnside itself before using it as its
bound, and its rank is counted from the generators' labels, so the closure
route stays independent of the orbital one.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import algebra, characters, scheme, wedderburn
from .groups import (ConjugacyData, ConsistencyError, GroupParams, build_group,
                     conjugacy_classes, orbit_reps, validate_params, valid_twists)

CLOSURE_DEFAULT_LIMIT = 40


@dataclass
class Analysis:
    """The report for one pair, plus the pass/fail verdicts; the group, scheme,
    tensor and character table it was computed from are not kept."""

    params: GroupParams
    classes: ConjugacyData
    dim_t0: int
    case_counts: dict
    dim_t_tilde: int
    formula_value: int
    certificate: algebra.DimensionCertificate | None
    mults_rowsum: characters.Multiplicities
    mults_closedform: characters.Multiplicities | None
    blocks_rowsum: wedderburn.WedderburnReport
    blocks_closedform: wedderburn.WedderburnReport | None
    commutant_dim: int | None
    idempotents: wedderburn.IdempotentReport | None
    checks: dict[str, bool]
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def dims_row(self) -> tuple:
        dim_t = self.certificate.dim_t if self.certificate else None
        return (self.params.n, self.params.s, self.params.tau,
                self.dim_t0, dim_t, self.dim_t_tilde, self.formula_value)

    def to_json_dict(self) -> dict:
        cert = self.certificate
        return {
            "n": self.params.n,
            "s": self.params.s,
            "tau": self.params.tau,
            "dims": {
                "t0": self.dim_t0,
                "t": cert.dim_t if cert else None,
                "t_tilde": self.dim_t_tilde,
                "formula": self.formula_value,
            },
            "triply_transitive": self.dim_t0 == self.dim_t_tilde,
            "blocks": {
                "rowsum": list(self.blocks_rowsum.blocks),
                "closedform": (list(self.blocks_closedform.blocks)
                               if self.blocks_closedform else None),
            },
            "checks": dict(self.checks),
            "closure": None if cert is None else {
                "provenance": cert.provenance, "primes": list(cert.primes),
                "rounds": cert.closure_rounds,
                "basis_size_history": [list(h) for h in cert.basis_size_history]},
            "notes": list(self.notes),
        }


@dataclass
class PairFailure:
    """The row of a pair whose analysis raised before it could report: the
    closed-form dimension, one false verdict and the exception as its note."""

    params: GroupParams
    note: str
    passed = False
    mults_closedform = None  # no multiplicity route finished

    @property
    def checks(self) -> dict[str, bool]:
        return {"analysis_completed": False}

    @property
    def notes(self) -> list[str]:
        return [self.note]

    def dims_row(self) -> tuple:
        p = self.params
        return (p.n, p.s, p.tau, None, None, None, scheme.closed_form_dimension(p))

    def to_json_dict(self) -> dict:
        n, s, tau, *_, formula = self.dims_row()
        return {"n": n, "s": s, "tau": tau,
                "dims": {"t0": None, "t": None, "t_tilde": None, "formula": formula},
                "triply_transitive": None, "blocks": None, "checks": self.checks,
                "closure": None, "notes": self.notes}


def analyze_pair(n: int, s: int, *,
                 closure: bool = True,
                 generator_order_seed: int | None = None,
                 desk_certificates: bool = True) -> Analysis:
    """Run the full pipeline for D(n, s).

    `generator_order_seed` changes nothing: the closure's count reads no
    generator order.  It is accepted only because perfbench/worker.py
    passes it, and goes once that harness stops passing it."""
    params = validate_params(n, s)
    group = build_group(params)
    checks: dict[str, bool] = {}
    notes: list[str] = []

    def step(name: str, fn):
        """Run one verdict; consistency failures become a False entry."""
        try:
            result = fn()
        except ConsistencyError as exc:
            checks[name] = False
            notes.append(f"{name}: {exc}")
            return None
        checks[name] = True
        return result

    classes = conjugacy_classes(group)          # raises only on route mismatch
    checks["conjugacy_routes_agree"] = True

    scheme_data = step("scheme_axioms", lambda: scheme.build_scheme(group, classes))
    tensor = step("tensor_well_defined",
                  lambda: scheme.intersection_numbers(group, classes))
    if scheme_data is None or tensor is None:
        raise ConsistencyError("scheme construction failed: " + "; ".join(notes))

    t0 = scheme.dim_t0(tensor)
    cases = scheme.case_counts(tensor, classes)
    formula = scheme.closed_form_dimension(params)
    checks["t0_matches_formula"] = t0 == formula
    checks["t0_cases_match"] = cases == scheme.expected_case_counts(params)

    checks["product_identity"] = scheme.verify_product_identity(scheme_data, tensor)

    reps = orbit_reps(group)
    t_tilde = step("orbital_routes_agree", lambda: algebra.dim_t_tilde(group, reps))
    if t_tilde is None:
        raise ConsistencyError("orbital count failed; cannot continue: " + "; ".join(notes))
    checks["t_tilde_matches_formula"] = t_tilde == formula
    checks["triply_transitive"] = t0 == t_tilde

    certificate = None
    if closure:
        def closure_certificate():
            try:
                return algebra.algebra_closure(scheme_data, dim_t0_value=t0, reps=reps)
            except MemoryError as exc:
                # an allocation that fails is caught here; an OOM kill is not
                detail = f" ({exc})" if str(exc) else ""
                raise ConsistencyError(f"out of memory at (n, s) = ({n}, {s}), "
                                       f"dim T~ = {t_tilde}{detail}") from exc

        certificate = step("closure_two_primes_agree", closure_certificate)
        if certificate is not None:
            checks["closure_matches_formula"] = certificate.dim_t == formula
            checks["closure_provenance_exact"] = certificate.provenance == algebra.PROVENANCE_EXACT

    table = characters.char_table(params, classes)
    step("char_orthogonality", lambda: characters.orthogonality_check(table, classes))
    checks["degree_squares"] = sum(d * d for d in table.degrees) == 2 * n

    mults_rowsum = step("rowsums_integral", lambda: characters.multiplicities_rowsum(table))
    mults_closed = step("closedform_integral",
                        lambda: characters.multiplicities_closedform(params))
    if mults_rowsum is None:
        raise ConsistencyError("row sums failed; cannot continue: " + "; ".join(notes))
    if mults_closed is not None:
        checks["rowsum_equals_closedform"] = mults_rowsum.same_values(mults_closed)

    step("conjugation_character_pointwise",
         lambda: characters.conjugation_character_check(table, mults_rowsum, classes))

    blocks_rowsum = wedderburn.decomposition(mults_rowsum, t_tilde, strict=False)
    checks["blocks_match_dimension"] = bool(blocks_rowsum.matches_dimension)
    blocks_closed = None
    if mults_closed is not None:
        blocks_closed = wedderburn.decomposition(mults_closed, formula, strict=False)
        checks["block_routes_agree"] = (
            blocks_rowsum.blocks == blocks_closed.blocks
            and bool(blocks_closed.matches_dimension))

    commutant_dim = None
    idem_report = None
    if desk_certificates:
        if group.order <= algebra.COMMUTANT_ORDER_LIMIT:
            commutant_dim = algebra.commutant_oracle(group)
            checks["commutant_matches_orbitals"] = commutant_dim == t_tilde
        if group.order <= wedderburn.IDEMPOTENT_ORDER_LIMIT:
            idem_report = step("central_idempotents", lambda: wedderburn.central_idempotents(
                group, classes, table, mults_rowsum))

    return Analysis(
        params=params, classes=classes, dim_t0=t0, case_counts=cases,
        dim_t_tilde=t_tilde, formula_value=formula, certificate=certificate,
        mults_rowsum=mults_rowsum, mults_closedform=mults_closed,
        blocks_rowsum=blocks_rowsum, blocks_closedform=blocks_closed,
        commutant_dim=commutant_dim, idempotents=idem_report,
        checks=checks, notes=notes,
    )


def enumerate_pairs(n_min: int, n_max: int) -> list[tuple[int, int]]:
    """All valid (n, s) with n in [n_min, n_max], in lexicographic order."""
    return [(n, s) for n in range(n_min, n_max + 1) for s in valid_twists(n)]


def sweep(n_min: int, n_max: int, *,
          closure_limit: int = CLOSURE_DEFAULT_LIMIT,
          threads: int = 1,
          generator_order_seed: int | None = None,
          sink: Callable[[Analysis | PairFailure], object] | None = None,
          ) -> list[Analysis | PairFailure] | None:
    """Analyze every valid pair in range, without the desk certificates; the
    closure runs only for n <= closure_limit.  Rows are computed in parallel
    but reach the sink in (n, s) order, each as soon as it and every earlier
    row are done, and sweep keeps none of them.  Without a sink the rows are
    returned as a list; with one, sweep returns None.
    `generator_order_seed` changes nothing, as in analyze_pair."""
    pairs = enumerate_pairs(n_min, n_max)
    rows: list[Analysis | PairFailure] = []
    emit = rows.append if sink is None else sink

    def run(pair: tuple[int, int]) -> Analysis | PairFailure:
        n, s = pair
        try:
            return analyze_pair(
                n, s,
                closure=n <= closure_limit,
                desk_certificates=False,
            )
        except (ConsistencyError, MemoryError) as exc:
            return PairFailure(validate_params(n, s), f"{type(exc).__name__}: {exc}")

    # a pool starts no thread until a pair is submitted to it, and the loop
    # drops each row as the next one arrives
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for row in (map if threads <= 1 else pool.map)(run, pairs):
            emit(row)
    return rows if sink is None else None


def audit_corollaries(n_min: int, n_max: int) -> list[wedderburn.CorollaryAudit]:
    """Dihedral corollary audit rows for every n in range."""
    return [wedderburn.corollary_audit(n) for n in range(max(3, n_min), n_max + 1)]
