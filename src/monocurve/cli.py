"""Command-line front end.

Five subcommands: ``analyze`` one tuple, ``sweep`` a bounded family into a
JSONL census file, ``census`` to digest such a file, ``hilbert`` for the
series identity alone, and ``matrices`` to print both matrix sets side by
side.  Exit codes are uniform everywhere: 0 all checks passed, 1 the input
was invalid, 2 something real failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    DEFAULT_TRUNCATE,
    analyze_sequence,
    census_digest,
    sweep,
    sweep_lines,
)
from .closedform import (
    CaseUnmatched,
    DegreeImbalance,
    TemplateMismatch,
    case_id,
    closed_form_resolution,
    extract_parameters,
)
from .groebner import toric_kernel
from .poly import render
from .resolution import (
    build_resolution,
    hilbert_numerator,
    hilbert_series_truncation,
    minimalize,
)
from .semigroup import ValidationError, gamma_series_truncation, validate_sequence

def _resolve(kernel):
    return minimalize(build_resolution(kernel.reduced_gb))


def _parse_seq(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected four comma-separated integers, got %r" % text)
    return tuple(int(p.strip()) for p in parts)


def _check_truncate(truncate: int) -> None:
    if truncate < 0:
        raise ValueError("--truncate must be nonnegative, got %d" % truncate)


def _numerator_text(numerator: dict) -> str:
    if not numerator:
        return "0"
    pieces = []
    for degree, coeff in sorted(numerator.items()):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = "z^%d" % degree if degree else "1"
        if mag != 1:
            body = "%d*%s" % (mag, body)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append("%s %s" % (sign, body))
    return " ".join(pieces)


def _print_report(report, stream) -> None:
    print("sequence %s" % (",".join(str(x) for x in report.seq)), file=stream)
    if report.params and "template_mismatch" in report.params:
        print("  no template fits: %s" % report.params["template_mismatch"], file=stream)
    else:
        print(
            "  case %s   lookup %s   computed %s"
            % (report.case, report.betti_lookup, report.betti_computed),
            file=stream,
        )
    if report.case is None and report.betti_computed is not None:
        print("  computed betti %s" % (report.betti_computed,), file=stream)
    flags = "  ".join("%s=%s" % (k, v) for k, v in report.flags.items())
    print("  flags: %s" % flags, file=stream)
    if report.discrepancies:
        print("  discrepancies:", file=stream)
        for rec in report.discrepancies:
            print("    %s" % json.dumps(rec), file=stream)
    else:
        print("  discrepancies: none", file=stream)
    print("  elapsed %d ms" % report.ms_elapsed, file=stream)


def cmd_analyze(args) -> int:
    try:
        seq = _parse_seq(args.seq)
        _check_truncate(args.truncate)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    report = analyze_sequence(
        *seq, verify_level=args.verify_level, truncate=args.truncate
    )
    if args.json:
        print(json.dumps(report.to_json()))
    elif not report.valid:
        print(report.discrepancies[0]["reason"], file=sys.stderr)
    else:
        _print_report(report, sys.stdout)
    if not report.valid:
        return 1
    return 0 if report.all_verified() else 2


def cmd_sweep(args) -> int:
    try:
        _check_truncate(args.truncate)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    reports = sweep(
        args.max_m2,
        args.max_n,
        verify_level=args.verify_level,
        threads=args.threads,
        truncate=args.truncate,
    )
    payload = sweep_lines(reports)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print("cannot write %s: %s" % (args.out, exc), file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    failed = [r for r in reports if not r.all_verified()]
    if failed:
        print(
            "%d of %d records failed verification" % (len(failed), len(reports)),
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_census(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
    except OSError as exc:
        print("cannot read %s: %s" % (args.infile, exc), file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print("unparseable record in %s: %s" % (args.infile, exc), file=sys.stderr)
        return 1
    digest = census_digest(records)
    if args.json:
        print(json.dumps(digest))
    else:
        print("records: %d" % digest["total"])
        for triple, count in digest["triples"]:
            print("  betti %-10s %6d" % (",".join(map(str, triple)), count))
        if digest["cases"]:
            print("cases:")
            for label, count in digest["cases"].items():
                print("  %-14s %6d" % (label, count))
        if digest["discrepancy_kinds"]:
            print("discrepancies:")
            for kind, count in digest["discrepancy_kinds"].items():
                print("  %-18s %6d" % (kind, count))
            print("  uncertified: %d" % digest["uncertified"])
    if digest["foreign"]:
        print("betti triples outside the case table: %s" % digest["foreign"], file=sys.stderr)
        return 2
    return 0


def cmd_hilbert(args) -> int:
    try:
        seq = _parse_seq(args.seq)
        spec = validate_sequence(*seq)
        _check_truncate(args.truncate)
    except (ValueError, ValidationError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    kernel = toric_kernel(spec)
    resolution = _resolve(kernel)
    numerator = hilbert_numerator(resolution)
    print("K(z) = %s" % _numerator_text(numerator))
    lhs = hilbert_series_truncation(numerator, spec.weights, args.truncate)
    rhs = gamma_series_truncation(spec.semigroup(), args.truncate)
    if lhs == rhs:
        print("PASS: series agree through degree %d" % args.truncate)
        return 0
    first = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    print(
        "FAIL: first difference at degree %d (%d vs %d)" % (first, lhs[first], rhs[first])
    )
    return 2


def _print_maps(tag: str, resolution, stream) -> None:
    for index, gmap in enumerate(resolution.maps):
        rows = [[render(gmap.entries[i][j]) for j in range(gmap.source.rank)]
                for i in range(gmap.target.rank)]
        widths = [
            max(len(rows[i][j]) for i in range(len(rows))) if rows else 0
            for j in range(gmap.source.rank)
        ]
        print(
            "%s map %d: %d x %d, twists %s -> %s"
            % (tag, index, gmap.target.rank, gmap.source.rank,
               list(gmap.source.twists), list(gmap.target.twists)),
            file=stream,
        )
        for row in rows:
            line = "  [ " + " | ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]"
            print(line, file=stream)


def cmd_matrices(args) -> int:
    try:
        seq = _parse_seq(args.seq)
        spec = validate_sequence(*seq)
    except (ValueError, ValidationError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    kernel = toric_kernel(spec)
    generic = _resolve(kernel)
    _print_maps("generic", generic, sys.stdout)
    try:
        params = extract_parameters(kernel)
        closed = closed_form_resolution(params, spec)
    except (TemplateMismatch, DegreeImbalance, CaseUnmatched) as exc:
        print("no closed form for this tuple: %s" % exc)
        return 0
    print("case %s" % case_id(params).label)
    _print_maps("closed", closed, sys.stdout)
    agree_ranks = generic.ranks == closed.ranks
    agree_twists = all(
        sorted(a.twists) == sorted(b.twists)
        for a, b in zip(generic.modules, closed.modules)
    )
    print("rank agreement: %s" % agree_ranks)
    print("graded degree multiset agreement: %s" % agree_twists)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocurve",
        description="minimal graded free resolutions of monomial curves in A^4",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="verify a single sequence")
    analyze.add_argument("--seq", required=True, help="four integers: m0,m1,m2,n")
    analyze.add_argument("--json", action="store_true", help="emit one JSON record")
    analyze.add_argument(
        "--verify-level", choices=("fast", "full"), default="full", dest="verify_level"
    )
    analyze.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATE)
    analyze.set_defaults(func=cmd_analyze)

    swp = sub.add_parser("sweep", help="analyze every valid tuple in a box")
    swp.add_argument("--max-m2", type=int, required=True, dest="max_m2")
    swp.add_argument("--max-n", type=int, required=True, dest="max_n")
    swp.add_argument("--out", help="JSONL destination (default stdout)")
    swp.add_argument("--threads", type=int, default=1)
    swp.add_argument(
        "--verify-level", choices=("fast", "full"), default="full", dest="verify_level"
    )
    swp.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATE)
    swp.set_defaults(func=cmd_sweep)

    census = sub.add_parser("census", help="digest a sweep file")
    census.add_argument("--in", required=True, dest="infile")
    census.add_argument("--json", action="store_true")
    census.set_defaults(func=cmd_census)

    hilbert = sub.add_parser("hilbert", help="series identity for one sequence")
    hilbert.add_argument("--seq", required=True)
    hilbert.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATE)
    hilbert.set_defaults(func=cmd_hilbert)

    matrices = sub.add_parser("matrices", help="print both matrix sets")
    matrices.add_argument("--seq", required=True)
    matrices.set_defaults(func=cmd_matrices)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
