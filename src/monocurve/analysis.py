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

Each record carries ``certified``: true when the computed side passed the
series identity, which is what lets a mismatch indict the table instead of
the computation.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from .closedform import (
    CaseUnmatched,
    DegreeImbalance,
    TemplateMismatch,
    canonical_generators,
    case_id,
    closed_form_resolution,
    curve_ring,
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
    hilbert_series_truncation,
    minimalize,
)
from .semigroup import ValidationError, gamma_series_truncation, validate_sequence

#: every minimal Betti triple the case table can produce
ALLOWED_TRIPLES = frozenset(
    {(3, 3, 1), (4, 5, 2), (4, 6, 3), (5, 5, 1), (5, 6, 2), (5, 7, 3), (6, 8, 3), (6, 9, 4)}
)

#: canonical ordering of the case labels for human-facing tallies
CASE_ORDER = (
    "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
    "xi", "xii", "xiii", "xiv", "xv", "xvi", "xvii", "xviii", "xix",
)


def _case_sort_key(label: str) -> tuple:
    try:
        return (0, CASE_ORDER.index(label))
    except ValueError:
        return (1, label)

DEFAULT_TRUNCATE = 200

VERIFY_LEVELS = ("fast", "full")


@dataclass
class AnalysisReport:
    """Everything one tuple's verification produced, JSON-shaped.

    ``timings`` maps pipeline stages to seconds and stays out of the
    serialized record; ``ms_elapsed`` is the wall-clock total, dropped from
    sweep files so reruns are byte-identical.
    """

    seq: tuple
    valid: bool
    params: dict | None
    case: str | None
    betti_lookup: tuple | None
    betti_computed: tuple | None
    graded_betti: list
    hilbert_numerator: list
    flags: dict
    discrepancies: list
    ms_elapsed: int | None
    timings: dict = field(default_factory=dict)

    def all_verified(self) -> bool:
        """No flag explicitly false and every discrepancy certified.

        ``None`` flags (skipped checks, unclassifiable tuples) do not count
        against verification; an uncertified discrepancy always does.
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


def analyze_sequence(
    m0: int,
    m1: int,
    m2: int,
    n: int,
    verify_level: str = "full",
    truncate: int = DEFAULT_TRUNCATE,
) -> AnalysisReport:
    """Run the whole pipeline on one sequence and report every outcome.

    ``fast`` skips instantiating the closed-form matrices (the flag
    ``closed_form_agrees`` comes back ``None``); everything else -- kernel,
    resolution, series identity, Gröbner check, twist-table comparison --
    runs at both levels.
    """
    if verify_level not in VERIFY_LEVELS:
        raise ValueError("verify_level must be one of %s" % (VERIFY_LEVELS,))
    started = time.perf_counter()
    seq = (m0, m1, m2, n)
    flags: dict = {}
    discrepancies: list = []
    timings: dict = {}

    try:
        spec = validate_sequence(m0, m1, m2, n)
    except ValidationError as exc:
        return AnalysisReport(
            seq=seq,
            valid=False,
            params=None,
            case=None,
            betti_lookup=None,
            betti_computed=None,
            graded_betti=[],
            hilbert_numerator=[],
            flags={},
            discrepancies=[
                {"kind": "invalid_sequence", "reason": "%s: %s" % (type(exc).__name__, exc)}
            ],
            ms_elapsed=round(1000 * (time.perf_counter() - started)),
        )

    # census stage: the part every swept tuple must pay -- kernel,
    # minimal resolution, Betti numbers, series identity
    stage = time.perf_counter()
    kernel = toric_kernel(spec)
    resolution = minimalize(build_resolution(kernel.reduced_gb))
    table = betti_table(resolution)
    betti_computed = table.totals()
    numerator = hilbert_numerator(resolution)
    graded = [(i, d, c) for (i, d), c in sorted(table.counts().items())]
    series = hilbert_series_truncation(numerator, spec.weights, truncate)
    flags["hilbert_ok"] = series == gamma_series_truncation(spec.semigroup(), truncate)
    timings["census"] = time.perf_counter() - stage

    stage = time.perf_counter()
    # validate() checks composition before minimality, so one pass sets both
    try:
        resolution.validate()
        flags["compose_ok"] = flags["minimal_ok"] = True
    except ShapeMismatch:
        flags["compose_ok"] = flags["minimal_ok"] = False
    except NotMinimal:
        flags["compose_ok"], flags["minimal_ok"] = True, False

    params_json: dict | None
    case_label = None
    betti_lookup = None
    try:
        params = extract_parameters(kernel)
    except (TemplateMismatch, DegreeImbalance) as exc:
        params = None
        params_json = {"template_mismatch": str(exc)}
        flags["gb_ok"] = None
        flags["closed_form_agrees"] = None
        discrepancies.append(
            {
                "kind": "template_mismatch",
                "reason": str(exc),
                "certified": flags["hilbert_ok"],
            }
        )
    else:
        params_json = asdict(params)
        try:
            case = case_id(params)
        except CaseUnmatched as exc:
            case = None
            flags["gb_ok"] = None
            flags["closed_form_agrees"] = None
            discrepancies.append(
                {
                    "kind": "case_unmatched",
                    "reason": str(exc),
                    "certified": flags["hilbert_ok"],
                }
            )

    if params is not None and case is not None:
        case_label = case.label
        betti_lookup = case.betti
        flags["gb_ok"] = is_groebner(canonical_generators(params, spec), curve_ring(spec).order())
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
            expected = Counter(tabulated[level] if level < len(tabulated) else ())
            got = Counter(computed_twists[level] if level < len(computed_twists) else ())
            table_only = sorted((expected - got).elements())
            computed_only = sorted((got - expected).elements())
            if table_only or computed_only:
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
        if verify_level == "full":
            agreement = True
            try:
                closed = closed_form_resolution(params, spec)
                closed.validate()
            except Exception as exc:  # any instantiation failure is a finding
                agreement = False
                detail = "%s: %s" % (type(exc).__name__, exc)
            else:
                detail = None
                if closed.ranks != resolution.ranks:
                    agreement = False
                    detail = "ranks %s != %s" % (closed.ranks, resolution.ranks)
                elif hilbert_numerator(closed) != numerator:
                    agreement = False
                    detail = "numerator differs"
            flags["closed_form_agrees"] = agreement
            if not agreement:
                discrepancies.append(
                    {
                        "kind": "closed_form",
                        "case": case_label,
                        "reason": detail,
                        "certified": False,
                    }
                )
        else:
            flags["closed_form_agrees"] = None
    timings["verify"] = time.perf_counter() - stage

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
        timings=timings,
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


def _sweep_one(job) -> AnalysisReport:
    seq, verify_level, truncate = job
    return analyze_sequence(*seq, verify_level=verify_level, truncate=truncate)


def sweep(
    max_m2: int,
    max_n: int,
    verify_level: str = "full",
    threads: int = 1,
    truncate: int = DEFAULT_TRUNCATE,
) -> list:
    """Analyze every valid tuple in the box, in enumeration order.

    Thread count only distributes the per-tuple work; the result list (and
    anything serialized from it) is identical for every value.
    """
    jobs = [
        ((s.m0, s.m1, s.m2, s.n), verify_level, truncate) for s in enumerate_box(max_m2, max_n)
    ]
    if threads <= 1:
        return [_sweep_one(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        chunk = max(1, len(jobs) // (8 * threads))
        return list(pool.map(_sweep_one, jobs, chunksize=chunk))


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
