"""Command-line front end: analyze, sweep, audit-corollaries, char-table, tensor.

Exit codes: 0 all verdicts pass, 1 any verdict failed, 2 usage error.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

from . import characters, pipeline, scheme
from .groups import (ConjugacyData, ConsistencyError, GroupParams, build_group,
                     conjugacy_classes, validate_params)

SWEEP_CSV_HEADER = "n,s,tau,dim_t0,dim_t,dim_t_tilde,formula,pass"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_line(cells: list) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _csv_text(rows: list[list], header: list[str]) -> str:
    return "".join(map(_csv_line, [header, *rows]))


def _blocks_str(blocks) -> str:
    return " ".join(str(b) for b in blocks)


def render_analysis_text(a: pipeline.Analysis) -> str:
    lines = [f"D(n={a.params.n}, s={a.params.s})   tau={a.params.tau}   order={2 * a.params.n}"]
    lines.append("classes:")
    for label, members, cent in zip(a.classes.labels, a.classes.classes,
                                    a.classes.centralizer_orders):
        names = ", ".join(a.params.element_name(x) for x in members)
        lines.append(f"  {label:<5} |C|={cent:<4} {{{names}}}")
    lines.append(f"identity class: {a.classes.labels[a.classes.identity_class]} "
                 f"(index {a.classes.identity_class})")
    dim_t = a.certificate.dim_t if a.certificate else "-"
    lines.append(f"dim T0 = {a.dim_t0}   dim T = {dim_t}   dim T~ = {a.dim_t_tilde}   "
                 f"formula = {a.formula_value}")
    if a.certificate:
        lines.append(f"closure: rounds={a.certificate.closure_rounds} "
                     f"provenance={a.certificate.provenance} primes={a.certificate.primes}")
    lines.append(f"triply transitive: {a.dim_t0 == a.dim_t_tilde}")
    rows = a.classes.num_classes  # char_table raises unless they are equal
    lines.append(f"characters: {rows} rows "
                 f"({2 * a.params.tau} linear, {rows - 2 * a.params.tau} two-dimensional)")
    lines.append(f"blocks (row sums):    {_blocks_str(a.blocks_rowsum.blocks)}")
    if a.blocks_closedform:
        lines.append(f"blocks (closed form): {_blocks_str(a.blocks_closedform.blocks)}")
    if a.commutant_dim is not None:
        lines.append(f"commutant dimension: {a.commutant_dim}")
    if a.idempotents is not None:
        lines.append(f"idempotent traces: {_blocks_str(a.idempotents.traces)}")
    lines.append("checks:")
    for name, ok in a.checks.items():
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {name}")
    for note in a.notes:
        lines.append(f"  note: {note}")
    lines.append(f"result: {'PASS' if a.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _analysis_csv_row(a: pipeline.Analysis | pipeline.PairFailure) -> list:
    return ["" if v is None else v for v in a.dims_row()] + ["true" if a.passed else "false"]


class SweepRows:
    """The sink of a CLI sweep: each row is rendered as it arrives, and only
    its text, the pass count and its half-tau census entry are kept, so no
    analysis outlives its row."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.texts: list[str] = []
        self.passed = 0
        # census of the fractional-looking multiplicity case (tau/2), which
        # may only fire when tau is even; the rows record every occurrence
        self.half_tau_case: list[dict] = []

    def __call__(self, a: pipeline.Analysis | pipeline.PairFailure) -> None:
        self.passed += a.passed
        if self.fmt != "json":
            self.texts.append(_csv_line(_analysis_csv_row(a)))
            return
        # json.dumps escapes every newline inside a string, so indenting each
        # line by four spaces nests the row's canonical text in the report
        text = json.dumps(a.to_json_dict(), sort_keys=True, indent=2)
        self.texts.append("    " + text.replace("\n", "\n    "))
        if a.mults_closedform and a.mults_closedform.half_case_ks:
            self.half_tau_case.append({"n": a.params.n, "s": a.params.s,
                                       "ks": list(a.mults_closedform.half_case_ks)})


def render_sweep(rows: SweepRows) -> str:
    """The whole sweep report, the bytes of the rows' canonical document: the
    rows as they were rendered, then the summary ("rows" sorts first)."""
    pairs = len(rows.texts)
    if rows.fmt == "json":
        summary = canonical_json({"summary": {
            "pairs": pairs, "passed": rows.passed, "failed": pairs - rows.passed,
            "half_tau_case": rows.half_tau_case}})
        return '{\n  "rows": [\n' + ",\n".join(rows.texts) + "\n  ],\n" + summary[2:]
    body = SWEEP_CSV_HEADER + "\n" + "".join(rows.texts)
    if rows.fmt == "csv":
        return body
    return body + f"# {pairs} pairs, {rows.passed} passed, {pairs - rows.passed} failed\n"


def render_audit(audits, fmt: str) -> str:
    header = ["n", "printed_blocks", "derived_blocks", "agree", "note"]
    rows = [[a.n, _blocks_str(a.printed_blocks), _blocks_str(a.derived_blocks),
             "true" if a.agree else "false", a.discrepancy_note] for a in audits]
    if fmt == "json":
        return canonical_json({
            "rows": [{"n": a.n, "tau": a.tau,
                      "printed_blocks": list(a.printed_blocks),
                      "derived_blocks": list(a.derived_blocks),
                      "agree": a.agree, "note": a.discrepancy_note}
                     for a in audits],
            "summary": {"agree": sum(a.agree for a in audits),
                        "disagree": sum(not a.agree for a in audits)},
        })
    if fmt == "csv":
        return _csv_text(rows, header)
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row[:4]) + (f"  [{row[4]}]" if row[4] else "")
              for row in rows]
    agree = sum(a.agree for a in audits)
    lines.append(f"# {len(audits)} audited, {agree} agree, {len(audits) - agree} disagree")
    return "\n".join(lines) + "\n"


def render_tensor(params: GroupParams, classes: ConjugacyData,
                  tensor: scheme.IntersectionTensor, fmt: str) -> str:
    rows = tensor.nonzero_triples()
    if fmt == "json":
        return canonical_json({
            "n": params.n, "s": params.s,
            "class_labels": list(classes.labels),
            "nonzero": [{"i": i, "j": j, "k": k, "p": p} for i, j, k, p in rows],
        })
    body = _csv_text([list(r) for r in rows], ["i", "j", "k", "p_ijk"])
    if fmt == "csv":
        return body
    return body + f"# {len(rows)} nonzero triples = dim T0\n"


def _numeric_cell(value: complex) -> str:
    re = 0.0 + round(value.real, 6)   # normalize -0.0
    im = 0.0 + round(value.imag, 6)
    return f"{re:g}" if im == 0 else f"{re:g}{im:+g}i"


def render_char_table(params: GroupParams, classes: ConjugacyData,
                      table: characters.CharTable, fmt: str, numeric: bool = False) -> str:
    if fmt == "json":
        symbolic = table.symbolic  # built on each access, so bound once
        return canonical_json({
            "n": params.n, "s": params.s, "tau": params.tau,
            "columns": list(table.column_labels),
            "class_sizes": list(classes.sizes()),
            "rows": [{
                "label": label,
                "degree": table.degrees[r],
                "entries": [{"coef": coef, "exponents": list(exps),
                             "re": round(float(table.values[r, c].real), 12),
                             "im": round(float(table.values[r, c].imag), 12)}
                            for c, (coef, exps) in enumerate(symbolic[r])],
            } for r, label in enumerate(table.row_labels)],
        })
    if numeric:
        cells = [[label] + [_numeric_cell(v) for v in table.values[r]]
                 for r, label in enumerate(table.row_labels)]
    else:
        cells = [[label] + [characters.format_symbolic(e) for e in row]
                 for label, row in zip(table.row_labels, table.symbolic)]
    if fmt == "csv":
        return _csv_text(cells, ["character"] + list(table.column_labels))
    widths = [max(len(r[c]) for r in cells + [["character"] + list(table.column_labels)])
              for c in range(len(cells[0]))]
    header = ["character"] + list(table.column_labels)
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if not numeric:
        lines.append(f"(w = primitive {params.n}-th root of unity; "
                     f"entries are coef * sum of powers of w)")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terwilliger",
        description="Terwilliger algebra dimensions and Wedderburn decompositions "
                    "of the group association schemes of C_n x| C_2.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p_an = sub.add_parser("analyze", help="full report for one (n, s)")
    p_an.add_argument("--n", type=int, required=True)
    p_an.add_argument("--s", type=int, required=True)
    p_an.add_argument("--no-closure", action="store_true")
    common(p_an)

    p_sw = sub.add_parser("sweep", help="analyze every valid (n, s) in a range")
    p_sw.add_argument("--n-min", type=int, required=True)
    p_sw.add_argument("--n-max", type=int, required=True)
    p_sw.add_argument("--threads", type=int, default=1)
    p_sw.add_argument("--closure-limit", type=int, default=pipeline.CLOSURE_DEFAULT_LIMIT,
                      help="run the closure only for n up to this limit")
    p_sw.add_argument("--generator-order", type=int, default=None, metavar="SEED",
                      help="changes nothing: the closure's count reads no generator "
                           "order; accepted only because perfbench/worker.py passes it")
    common(p_sw, formats=("csv", "json", "text"))

    p_au = sub.add_parser("audit-corollaries",
                          help="compare stated dihedral block formulas with derived ones")
    p_au.add_argument("--n-min", type=int, required=True)
    p_au.add_argument("--n-max", type=int, required=True)
    common(p_au, formats=("csv", "json", "text"))

    p_ct = sub.add_parser("char-table", help="print the character table of D(n, s)")
    p_ct.add_argument("--n", type=int, required=True)
    p_ct.add_argument("--s", type=int, required=True)
    p_ct.add_argument("--numeric", action="store_true",
                      help="print complex values instead of root-of-unity exponents "
                           "(JSON always carries both the symbolic and the numeric entries)")
    common(p_ct)

    p_tn = sub.add_parser("tensor",
                          help="export the nonzero intersection numbers of D(n, s)")
    p_tn.add_argument("--n", type=int, required=True)
    p_tn.add_argument("--s", type=int, required=True)
    common(p_tn, formats=("csv", "json", "text"))
    return parser


def _report(args, params: GroupParams | None) -> tuple[str, int]:
    """The report of one command and its exit code; a run that ends with no
    report raises instead."""
    if args.command == "analyze":
        analysis = pipeline.analyze_pair(args.n, args.s, closure=not args.no_closure)
        if args.format == "json":
            text = canonical_json(analysis.to_json_dict())
        elif args.format == "csv":
            text = _csv_text([_analysis_csv_row(analysis)], SWEEP_CSV_HEADER.split(","))
        else:
            text = render_analysis_text(analysis)
        return text, 0 if analysis.passed else 1

    if args.command == "sweep":
        rows = SweepRows(args.format)
        pipeline.sweep(args.n_min, args.n_max, threads=args.threads,
                       closure_limit=args.closure_limit, sink=rows)
        return render_sweep(rows), 0 if rows.passed == len(rows.texts) else 1

    if args.command == "audit-corollaries":
        audits = pipeline.audit_corollaries(args.n_min, args.n_max)
        return render_audit(audits, args.format), 0  # findings, not failures

    if args.command == "char-table":
        classes = conjugacy_classes(build_group(params))
        table = characters.char_table(params, classes)
        return render_char_table(params, classes, table, args.format, numeric=args.numeric), 0

    if args.command == "tensor":
        group = build_group(params)
        classes = conjugacy_classes(group)
        tensor = scheme.intersection_numbers(group, classes)
        if not scheme.verify_product_identity(scheme.build_scheme(group, classes), tensor):
            raise ConsistencyError("product identity A_i A_j = sum_k p[i,j,k] A_k fails")
        return render_tensor(params, classes, tensor, args.format), 0
    raise AssertionError("unreachable command")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("sweep", "audit-corollaries") and not 3 <= args.n_min <= args.n_max:
        parser.error("need 3 <= n-min <= n-max")
    if args.command == "sweep" and args.threads < 1:
        parser.error("need --threads >= 1")

    try:
        params = None
        if args.command in ("analyze", "char-table", "tensor"):
            params = validate_params(args.n, args.s)  # before --output is opened
        # --output is opened before any work, so an unwritable path fails
        # fast, but for appending, so that a run that ends with no report
        # leaves an existing file as it was; a report replaces its bytes
        with (open(args.output, "a", encoding="utf-8") if args.output
              else contextlib.nullcontext(sys.stdout)) as out:
            text, code = _report(args, params)
            if args.output:
                out.truncate(0)
            out.write(text)
            return code
    except OSError as exc:
        if not args.output:
            raise
        # a file that cannot be opened or written is a usage error
        print(f"error: cannot write --output: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the input is valid, so not a usage error
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
