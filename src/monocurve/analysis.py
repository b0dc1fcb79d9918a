"""End-to-end verification reports, for one tuple or a swept family.

A report glues the pipeline together: validate the sequence, compute the
defining ideal, resolve and minimalize, then hold the outcome against every
claim the closed-form layer makes about it -- the case label, the Betti
lookup, the template generators' Gröbner property, the instantiated
matrices, and the tabulated twist lists.  A claim that fails to match lands
in the report's discrepancy list rather than raising: the computed side
carries its own certificates (series identity, composition checks), so a
wrong table entry is a finding about the table, not an error in the tuple.

Discrepancy kinds:

* ``invalid_sequence``   the input never entered the pipeline
* ``template_mismatch``  the reduced basis fits no template shape
* ``case_unmatched``     parameters extracted but no case row covers them
* ``betti_lookup``       table triple differs from the computed one
* ``twist_table``        a tabulated twist list differs from the computed
                         multiset at one homological level
* ``closed_form``        the instantiated template resolution disagrees
                         with the generic one
* ``internal_error``     the pipeline raised while sweeping this tuple; the
                         record carries the exception and where it was
                         raised, and the sweep goes on with the next tuple

Each record carries ``certified``: true when the computed side passed the
series identity, which is what lets a mismatch indict the table instead of
the computation.  Every check runs on every valid tuple; a flag is ``None``
only for a tuple with no case, which leaves ``gb_ok`` and
``closed_form_agrees`` no template to check.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .closedform import (
    CASE_TABLE,
    CaseUnmatched,
    TemplateMismatch,
    canonical_generators,
    case_id,
    closed_form_resolution,
    extract_parameters,
    graded_shifts,
)
from .groebner import is_groebner, toric_kernel
from .resolution import (
    NotMinimal,
    ShapeMismatch,
    betti_table,
    build_resolution,
    hilbert_numerator,
    minimalize,
)
from .semigroup import ValidationError, series_numerator, validate_sequence

#: every minimal Betti triple the case table can produce
ALLOWED_TRIPLES = frozenset(row.betti for row in CASE_TABLE)

#: canonical ordering of the case labels for human-facing tallies: table order
CASE_ORDER = tuple(row.label for row in CASE_TABLE)


def _case_sort_key(label: str) -> tuple:
    try:
        return (0, CASE_ORDER.index(label))
    except ValueError:
        return (1, label)


@dataclass
class AnalysisReport:
    """Everything one tuple's verification produced, JSON-shaped.

    ``ms_elapsed`` is the wall-clock total, dropped from sweep files so
    reruns are byte-identical.
    """

    seq: tuple
    valid: bool
    discrepancies: list
    ms_elapsed: int | None
    params: dict | None = None
    case: str | None = None
    betti_lookup: tuple | None = None
    betti_computed: tuple | None = None
    graded_betti: list = field(default_factory=list)
    hilbert_numerator: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def all_verified(self) -> bool:
        """No flag explicitly false and every discrepancy certified.

        ``None`` flags, which only a tuple with no case carries, do not
        count against verification; an uncertified discrepancy always does.
        """
        if not self.valid:
            return False
        if any(value is False for value in self.flags.values()):
            return False
        return all(rec.get("certified", False) for rec in self.discrepancies)

    def to_json(self, timing: bool = True) -> dict:
        return {
            "seq": list(self.seq),
            "valid": self.valid,
            "params": self.params,
            "case": self.case,
            "betti_lookup": list(self.betti_lookup) if self.betti_lookup else None,
            "betti_computed": list(self.betti_computed) if self.betti_computed else None,
            "graded_betti": [list(row) for row in self.graded_betti],
            "hilbert_numerator": [list(row) for row in self.hilbert_numerator],
            "flags": dict(self.flags),
            "discrepancies": [dict(rec) for rec in self.discrepancies],
            "ms_elapsed": self.ms_elapsed if timing else None,
        }


def _gb_ok(gens, certified) -> bool:
    """Buchberger's criterion for the template generators: being a Gröbner
    basis is a property of the set up to units, so when ``gens`` are up to
    sign the elements of ``certified``, the kernel's basis in the same ring,
    its ``buchberger`` certificate answers; else ``is_groebner``."""
    basis = certified.elements
    same = len(gens) == len(basis) and {frozenset(g.terms) for g in gens} == {frozenset(g.terms) for g in basis}
    return same or is_groebner(gens)


def analyze_sequence(
    m0: int,
    m1: int,
    m2: int,
    n: int,
    verify_level: str = "full",
) -> AnalysisReport:
    """Run the whole pipeline on one sequence and report every outcome.

    ``verify_level`` accepts ``"full"`` only and raises ValueError on any
    other value: every check always runs.  It stays because the benchmark
    harness passes it; the next change to the benchmark drops it.
    """
    if verify_level != "full":
        raise ValueError("verify_level must be 'full'")
    started = time.perf_counter()
    seq = (m0, m1, m2, n)
    flags: dict = {}
    discrepancies: list = []

    try:
        spec = validate_sequence(m0, m1, m2, n)
    except ValidationError as exc:
        return AnalysisReport(
            seq=seq,
            valid=False,
            discrepancies=[
                {"kind": "invalid_sequence", "reason": "%s: %s" % (type(exc).__name__, exc)}
            ],
            ms_elapsed=round(1000 * (time.perf_counter() - started)),
        )

    # the part every swept tuple must pay: kernel, minimal resolution,
    # Betti numbers, and the series identity as one exact polynomial equation
    kernel = toric_kernel(spec)
    resolution = minimalize(build_resolution(kernel.reduced_gb))
    table = betti_table(resolution)
    betti_computed = table.totals()
    numerator = hilbert_numerator(resolution)
    graded = [(i, d, c) for (i, d), c in table.entries]  # ascending (i, d)
    flags["hilbert_ok"] = numerator == series_numerator(spec.gamma)

    # validate() checks composition before minimality, so one pass sets both
    try:
        resolution.validate()
        flags["compose_ok"] = flags["minimal_ok"] = True
    except ShapeMismatch:
        flags["compose_ok"] = flags["minimal_ok"] = False
    except NotMinimal:
        flags["compose_ok"], flags["minimal_ok"] = True, False

    params = case = case_label = betti_lookup = None
    try:
        params = extract_parameters(kernel)
        params_json = dict(vars(params))  # the dataclass's fields, in order
        case = case_id(params)
    except (TemplateMismatch, CaseUnmatched) as exc:
        if params is None:
            params_json = {"template_mismatch": str(exc)}
        flags["gb_ok"] = flags["closed_form_agrees"] = None
        discrepancies.append(
            {
                "kind": "template_mismatch" if params is None else "case_unmatched",
                "reason": str(exc),
                "certified": flags["hilbert_ok"],
            }
        )

    if case is not None:
        case_label = case.label
        betti_lookup = case.betti
        gens = canonical_generators(params, spec)
        flags["gb_ok"] = _gb_ok(gens, kernel.reduced_gb)
        if betti_lookup != betti_computed:
            discrepancies.append(
                {
                    "kind": "betti_lookup",
                    "case": case_label,
                    "lookup": list(betti_lookup),
                    "computed": list(betti_computed),
                    "certified": False,
                }
            )
        tabulated = graded_shifts(case, params, spec)
        computed_twists = [module.twists for module in resolution.modules[1:]]
        for level in range(max(len(tabulated), len(computed_twists))):
            expected = tabulated[level] if level < len(tabulated) else ()
            got = computed_twists[level] if level < len(computed_twists) else ()
            if sorted(expected) != sorted(got):  # the multisets differ
                expected, got = Counter(expected), Counter(got)
                table_only = sorted((expected - got).elements())
                computed_only = sorted((got - expected).elements())
                discrepancies.append(
                    {
                        "kind": "twist_table",
                        "case": case_label,
                        "level": level + 1,
                        "table_only": table_only,
                        "computed_only": computed_only,
                        "certified": flags["hilbert_ok"],
                    }
                )
        try:
            closed = closed_form_resolution(params, gens)
            closed.validate()
        except Exception as exc:  # any instantiation failure is a finding
            detail = "%s: %s" % (type(exc).__name__, exc)
        else:
            detail = None
            if closed.ranks != resolution.ranks:
                detail = "ranks %s != %s" % (closed.ranks, resolution.ranks)
            elif hilbert_numerator(closed) != numerator:
                detail = "numerator differs"
        flags["closed_form_agrees"] = detail is None
        if detail is not None:
            discrepancies.append(
                {
                    "kind": "closed_form",
                    "case": case_label,
                    "reason": detail,
                    "certified": False,
                }
            )

    return AnalysisReport(
        seq=seq,
        valid=True,
        params=params_json,
        case=case_label,
        betti_lookup=betti_lookup,
        betti_computed=betti_computed,
        graded_betti=graded,
        hilbert_numerator=sorted(numerator.items()),
        flags=flags,
        discrepancies=discrepancies,
        ms_elapsed=round(1000 * (time.perf_counter() - started)),
    )


def enumerate_box(max_m2: int, max_n: int):
    """Valid sequences with m2 <= max_m2 and n <= max_n, ascending (m0, d, n)."""
    for m0 in range(1, max_m2 - 1):
        d = 1
        while m0 + 2 * d <= max_m2:
            for n in range(1, max_n + 1):
                try:
                    yield validate_sequence(m0, m0 + d, m0 + 2 * d, n)
                except ValidationError:
                    continue
            d += 1


def _sweep_one(seq) -> AnalysisReport:
    try:
        return analyze_sequence(*seq)
    except Exception as exc:  # one bad tuple must not sink the sweep
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return AnalysisReport(
            seq=seq,
            valid=True,
            discrepancies=[
                {
                    "kind": "internal_error",
                    "reason": "%s: %s" % (type(exc).__name__, exc),
                    "where": "%s:%d in %s"
                    % (frame.filename.rsplit("/", 1)[-1], frame.lineno, frame.name),
                    "certified": False,
                }
            ],
            ms_elapsed=None,
        )


def sweep_specs(seqs, threads: int = 1):
    """Yield the report of each validated sequence in ``seqs``, its
    (m0, m1, m2, n), in order, as soon as it and every earlier one are done.

    Every check runs on every tuple; a flag is ``None`` only for a tuple
    with no case.  A tuple whose analysis raises yields an uncertified
    ``internal_error`` record instead.  Thread count only distributes the
    per-tuple work; the reports are identical for every value.  At most one
    worker process per job and per CPU is started, since a fork pool starts
    all of them at the first submit.
    """
    jobs = list(seqs)
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(_sweep_one, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # reports come back a chunk at a time: small chunks keep progress
        # and the last worker's share fine-grained
        chunk = max(1, min(64, len(jobs) // (8 * workers)))
        yield from pool.map(_sweep_one, jobs, chunksize=chunk)


def sweep(max_m2: int, max_n: int, threads: int = 1) -> list:
    """Analyze every valid tuple in the box, in enumeration order."""
    return list(sweep_specs((spec.weights for spec in enumerate_box(max_m2, max_n)), threads))


def sweep_lines(reports) -> str:
    """One JSON record per line, timing dropped so reruns compare equal."""
    return "".join(json.dumps(r.to_json(timing=False)) + "\n" for r in reports)


def census_digest(records) -> dict:
    """Tallies over parsed sweep records: triples, cases, discrepancies.

    ``foreign`` collects any computed triple outside the eight the case
    table can produce -- a non-empty list is a verification failure.
    """
    triples: dict = {}
    cases: dict = {}
    kinds: dict = {}
    uncertified = 0
    foreign = []
    total = 0
    for rec in records:
        total += 1
        if not rec.get("valid"):
            continue
        if rec["betti_computed"] is not None:  # None on an internal error
            triple = tuple(rec["betti_computed"])
            triples[triple] = triples.get(triple, 0) + 1
            if triple not in ALLOWED_TRIPLES and triple not in foreign:
                foreign.append(triple)
        label = rec["case"] if rec["case"] else "unclassified"
        cases[label] = cases.get(label, 0) + 1
        for disc in rec["discrepancies"]:
            kinds[disc["kind"]] = kinds.get(disc["kind"], 0) + 1
            if not disc.get("certified", False):
                uncertified += 1
    return {
        "total": total,
        "triples": [[list(t), c] for t, c in sorted(triples.items())],
        "cases": dict(sorted(cases.items(), key=lambda kv: _case_sort_key(kv[0]))),
        "discrepancy_kinds": dict(sorted(kinds.items())),
        "uncertified": uncertified,
        "foreign": [list(t) for t in sorted(foreign)],
    }
