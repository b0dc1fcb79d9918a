"""Command-line front end.

Five subcommands: ``analyze`` one tuple, ``sweep`` a bounded family into a
JSONL census file, ``census`` to digest such a file, ``hilbert`` for the
series identity alone, and ``matrices`` to print both matrix sets side by
side.  Exit codes are uniform everywhere: 0 all checks passed, 1 the input
or the command line was invalid, 2 something real failed verification.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import fields

from .analysis import (
    AnalysisReport,
    analyze_sequence,
    census_digest,
    enumerate_box,
    sweep_lines,
    sweep_specs,
)
from .closedform import (
    CaseUnmatched,
    DegreeImbalance,
    TemplateMismatch,
    canonical_generators,
    case_id,
    closed_form_resolution,
    extract_parameters,
)
from .groebner import toric_kernel
from .poly import render
from .resolution import build_resolution, hilbert_numerator, minimalize
from .semigroup import ValidationError, series_numerator, validate_sequence

#: least seconds between two sweep progress lines on stderr
PROGRESS_INTERVAL = 1.0

#: the keys every sweep record carries
RECORD_KEYS = frozenset(field.name for field in fields(AnalysisReport))


def _resolve(kernel):
    return minimalize(build_resolution(kernel.reduced_gb))


def _parse_seq(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected four comma-separated integers, got %r" % text)
    return tuple(int(p.strip()) for p in parts)


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
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    report = analyze_sequence(*seq, verify_level=args.verify_level)
    if args.json:
        print(json.dumps(report.to_json()))
    elif not report.valid:
        print(report.discrepancies[0]["reason"], file=sys.stderr)
    else:
        _print_report(report, sys.stdout)
    if not report.valid:
        return 1
    return 0 if report.all_verified() else 2


def _with_progress(reports, total: int, stream):
    """Yield the reports, writing done/total, elapsed time and ETA to
    ``stream`` at most once per PROGRESS_INTERVAL, then a final line.

    Lines start one interval after the first report and the ETA
    extrapolates the rate since then, so neither worker start-up nor the
    burst of a first chunk skews it."""
    started = time.monotonic()
    first = None
    done = 0
    for report in reports:
        yield report
        done += 1
        now = time.monotonic()
        if first is None:
            first = last = now
        elif now - last >= PROGRESS_INTERVAL and done < total:
            last = now
            eta = (now - first) * (total - done) / (done - 1)
            print(
                "sweep %d/%d tuples, %.0f s elapsed, ETA %.0f s" % (done, total, now - started, eta),
                file=stream,
                flush=True,
            )
    print("sweep %d/%d tuples done in %.0f s" % (done, total, time.monotonic() - started), file=stream, flush=True)


def cmd_sweep(args) -> int:
    if args.threads < 1 or args.max_m2 < 0 or args.max_n < 0:
        print("--threads must be at least 1, --max-m2 and --max-n at least 0", file=sys.stderr)
        return 1
    try:
        # opened before the sweep, which an unwritable path would waste
        out = open(args.out, "w", encoding="utf-8", buffering=1) if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print("cannot write %s: %s" % (args.out, exc), file=sys.stderr)
        return 1
    # weights only: a held SequenceSpec keeps its cached Gamma table alive
    seqs = [spec.weights for spec in enumerate_box(args.max_m2, args.max_n)]
    reports = _with_progress(
        sweep_specs(seqs, verify_level=args.verify_level, threads=args.threads), len(seqs), sys.stderr
    )
    failed = 0
    try:
        # each record is written, a line at a time, as its report arrives,
        # so an interrupted sweep leaves the records done so far
        with out as handle:
            for report in reports:
                handle.write(sweep_lines([report]))
                failed += not report.all_verified()
    except OSError as exc:
        print("cannot write %s: %s" % (args.out or "<stdout>", exc), file=sys.stderr)
        return 1
    if failed:
        print("%d of %d records failed verification" % (failed, len(seqs)), file=sys.stderr)
        return 2
    return 0


def _is_sweep_record(record) -> bool:
    """Does ``record`` carry every sweep-record key, with the types
    ``census_digest`` reads on a valid record?"""
    if not (isinstance(record, dict) and RECORD_KEYS <= record.keys()):
        return False
    if type(record["valid"]) is not bool:
        return False
    if not record["valid"]:
        return True
    betti, case, discrepancies = record["betti_computed"], record["case"], record["discrepancies"]
    return (
        (betti is None or (type(betti) is list and all(type(b) is int for b in betti)))
        and (case is None or type(case) is str)
        and type(discrepancies) is list
        and all(type(d) is dict and type(d.get("kind")) is str for d in discrepancies)
    )


def cmd_census(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as handle:
            lines = [(n, text) for n, text in enumerate(map(str.strip, handle), 1) if text]
        records = [json.loads(line) for _, line in lines]
    except OSError as exc:
        print("cannot read %s: %s" % (args.infile, exc), file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as exc:  # bad JSON, non-UTF-8 bytes, or nesting too deep
        print("unparseable record in %s: %s" % (args.infile, exc), file=sys.stderr)
        return 1
    for (number, line), record in zip(lines, records):
        if not _is_sweep_record(record):
            print("not a sweep record at line %d: %s" % (number, line), file=sys.stderr)
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
    except (ValueError, ValidationError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    kernel = toric_kernel(spec)
    resolution = _resolve(kernel)
    numerator = hilbert_numerator(resolution)
    print("K(z) = %s" % _numerator_text(numerator))
    expected = series_numerator(spec.gamma)
    if numerator == expected:
        print("PASS: K(z) = Gamma(z) * prod (1 - z^w) exactly")
        return 0
    first = min(
        d for d in numerator.keys() | expected.keys() if numerator.get(d, 0) != expected.get(d, 0)
    )
    print(
        "FAIL: first difference at degree %d (%d vs %d)"
        % (first, numerator.get(first, 0), expected.get(first, 0))
    )
    return 2


def _print_maps(tag: str, resolution, stream) -> None:
    for index, gmap in enumerate(resolution.maps):
        rows = [[render(p) for p in row] for row in gmap.entries]
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
        gens = canonical_generators(params, spec)
        case = case_id(params)
        closed = closed_form_resolution(params, gens)
    except (TemplateMismatch, DegreeImbalance, CaseUnmatched) as exc:
        print("no closed form for this tuple: %s" % exc)
        return 0
    print("case %s" % case.label)
    _print_maps("closed", closed, sys.stdout)
    agree_ranks = generic.ranks == closed.ranks
    agree_twists = all(
        sorted(a.twists) == sorted(b.twists)
        for a, b in zip(generic.modules, closed.modules)
    )
    print("rank agreement: %s" % agree_ranks)
    print("graded degree multiset agreement: %s" % agree_twists)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as invalid input does; argparse's 2 is taken."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    analyze.set_defaults(func=cmd_analyze)

    swp = sub.add_parser("sweep", help="analyze every valid tuple in a box")
    swp.add_argument("--max-m2", type=int, required=True, dest="max_m2")
    swp.add_argument("--max-n", type=int, required=True, dest="max_n")
    swp.add_argument("--out", help="JSONL destination (default stdout)")
    swp.add_argument("--threads", type=int, default=1)
    swp.add_argument(
        "--verify-level", choices=("fast", "full"), default="full", dest="verify_level"
    )
    swp.set_defaults(func=cmd_sweep)

    census = sub.add_parser("census", help="digest a sweep file")
    census.add_argument("--in", required=True, dest="infile")
    census.add_argument("--json", action="store_true")
    census.set_defaults(func=cmd_census)

    hilbert = sub.add_parser("hilbert", help="series identity for one sequence")
    hilbert.add_argument("--seq", required=True)
    hilbert.set_defaults(func=cmd_hilbert)

    matrices = sub.add_parser("matrices", help="print both matrix sets")
    matrices.add_argument("--seq", required=True)
    matrices.set_defaults(func=cmd_matrices)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:  # e.g. m0 near M0_BUDGET under a tight address-space cap
        print("out of memory: the input needs more memory than this process may use", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
