"""Ten end-to-end verdicts over the whole verification surface.

Each check records exactly one scoreboard line ``criterion N: PASS|FAIL -- …``;
the terminal-summary hook in ``conftest.py`` prints them after the run, so
the log shows every outcome whether or not output capture is on.  The
expensive piece -- analyzing every valid tuple with m2 <= 60 and n <= 60,
every check on every tuple -- runs once and is shared by the checks that read
the family census.
"""

import hashlib
import random
import time
from pathlib import Path

import pytest

from conftest import SCOREBOARD
from monocurve.analysis import ALLOWED_TRIPLES, enumerate_box, sweep, sweep_lines
from monocurve.closedform import (
    canonical_generators,
    case_id,
    closed_form_base,
    extract_parameters,
)
from monocurve.groebner import buchberger, toric_kernel, toric_kernel_generic
from monocurve.poly import parse, render
from monocurve.resolution import build_resolution, hilbert_numerator, minimalize
from monocurve.semigroup import SubSemigroup, frobenius, validate_sequence

from oracles import (
    buchberger as generic_buchberger,
    curve_ring,
    gamma_series_truncation,
    graded_betti_numbers,
    hilbert_series_truncation,
    template_polys,
    transcript_syzygies,
)

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"

# every case label the bounded family can realize; the one missing label is
# the no-cross variant whose side conditions no tuple in (or far beyond) the
# box satisfies
REACHABLE_CASES = {
    "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
    "xi", "xii", "xiii", "xiv", "xv", "xvi", "xviii", "xix",
}

# cases whose tabulated twist rows reproduce the computed resolution exactly
CLEAN_TWIST_CASES = {"i", "ii", "iii", "iv", "v", "vi", "vii", "ix", "xviii", "xix"}


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = "criterion %2d: %s -- %s" % (num, "PASS" if ok else "FAIL", detail)
    SCOREBOARD.append(line)
    assert ok, line


@pytest.fixture(scope="session")
def box_reports():
    return sweep(60, 60, threads=1)


def test_criterion_01_betti_census(box_reports):
    triples = {tuple(r.betti_computed) for r in box_reports}
    stray = triples - ALLOWED_TRIPLES
    # every stage of every tuple counts against the budget, the census stage
    # (kernel, resolution, Betti numbers, series identity) included
    analysis_seconds = sum(r.ms_elapsed for r in box_reports) / 1000.0
    ok = len(box_reports) == 25364 and not stray and analysis_seconds <= 600.0
    _verdict(
        1,
        ok,
        "%d tuples, %d distinct triples, stray=%s, analysis %.0f s (budget 600 s)"
        % (len(box_reports), len(triples), sorted(stray), analysis_seconds),
    )


def test_criterion_02_lookup_agreement(box_reports):
    matched = [r for r in box_reports if r.case is not None]
    unmatched = [r for r in box_reports if r.case is None]
    disagreements = [
        r.seq for r in matched if tuple(r.betti_lookup) != tuple(r.betti_computed)
    ]
    ARTIFACTS.mkdir(exist_ok=True)
    archive = ARTIFACTS / "template_mismatches.txt"
    with archive.open("w", encoding="utf-8") as handle:
        for r in unmatched:
            reason = (r.params or {}).get("template_mismatch", "")
            handle.write("%s\t%s\n" % (",".join(map(str, r.seq)), reason))
    rate = len(unmatched) / len(box_reports)
    ok = not disagreements
    _verdict(
        2,
        ok,
        "%d matched tuples all agree with the lookup; %d unmatched (%.1f%%) archived to %s"
        % (len(matched), len(unmatched), 100 * rate, archive.relative_to(ARTIFACTS.parent)),
    )


def test_criterion_03_groebner_claim(box_reports):
    matched = [r for r in box_reports if r.case is not None]
    failures = [r.seq for r in matched if r.flags.get("gb_ok") is not True]
    _verdict(
        3,
        not failures,
        "template generators form a basis with confirmed S-pair reductions on all %d matched tuples"
        % len(matched),
    )


# --- first-syzygy row fixtures -------------------------------------------
#
# One tuple per presentation shape.  Each builder returns the tabulated
# first-syzygy rows instantiated at the extracted parameters, plus the
# comparison mode: "equal" where the source lists every reduction row,
# "subset" where it prints only the minimal matrix (one reducible row
# omitted).  Rows are compared up to overall sign and ordering.


def _row_builder(ring, params):
    M = lambda a, b, c, d: ring.monomial((a, b, c, d))
    lam, mu = params.x0_plain, params.x0_pure
    q, qp = params.x2_plain, params.x2_cross
    v, w = params.y_order, params.y_split
    return M, lam, mu, q, qp, v, w


def _rows_plain2_cross1(ring, params):
    M, lam, mu, q, qp, v, w = _row_builder(ring, params)
    Z = ring.zero()
    xi = M(0, 2, 0, 0) - M(1, 0, 1, 0)
    phi0 = M(0, 1, q, 0) - M(lam, 0, 0, w)
    phi1 = M(0, 0, q + 1, 0) - M(lam - 1, 1, 0, w)
    psi0 = M(0, 0, qp + 1, v - w) - M(lam + mu, 0, 0, 0)
    theta = M(0, 0, 0, v) - M(mu, 1, q - qp - 1, 0)
    return [
        (-M(0, 0, q, 0), M(0, 1, 0, 0), -M(1, 0, 0, 0), Z, Z),
        (-phi1, Z, xi, Z, Z),
        (-psi0, Z, Z, xi, Z),
        (-theta, Z, Z, Z, xi),
        (M(lam - 1, 0, 0, w), -M(0, 0, 1, 0), M(0, 1, 0, 0), Z, Z),
        (Z, -M(0, 0, 0, v - w), Z, M(0, 1, q - qp - 1, 0), -M(lam, 0, 0, 0)),
        (Z, -theta, Z, Z, phi0),
        (-M(mu + lam - 1, 0, q - qp - 1, 0), Z, -M(0, 0, 0, v - w), M(0, 0, q - qp, 0), -M(lam - 1, 1, 0, 0)),
        (Z, Z, -theta, Z, phi1),
        (Z, M(mu, 0, 0, 0), Z, -M(0, 0, 0, w), M(0, 0, qp + 1, 0)),
    ], "equal"


def _rows_plain2_cross2(ring, params):
    M, lam, mu, q, qp, v, w = _row_builder(ring, params)
    Z = ring.zero()
    xi = M(0, 2, 0, 0) - M(1, 0, 1, 0)
    phi0 = M(0, 1, q, 0) - M(lam, 0, 0, w)
    phi1 = M(0, 0, q + 1, 0) - M(lam - 1, 1, 0, w)
    psi1 = M(0, 0, qp + 1, v - w) - M(lam + mu - 1, 1, 0, 0)
    theta = M(0, 0, 0, v) - M(mu, 0, q - qp, 0)
    return [
        (-M(0, 0, q, 0), M(0, 1, 0, 0), -M(1, 0, 0, 0), Z, Z, Z),
        (-phi1, Z, xi, Z, Z, Z),
        (-M(0, 0, qp, v - w), Z, Z, M(0, 1, 0, 0), -M(1, 0, 0, 0), Z),
        (-psi1, Z, Z, Z, xi, Z),
        (-theta, Z, Z, Z, Z, xi),
        (M(lam - 1, 0, 0, w), -M(0, 0, 1, 0), M(0, 1, 0, 0), Z, Z, Z),
        (Z, -M(0, 0, 0, v - w), Z, M(0, 0, q - qp, 0), Z, -M(lam, 0, 0, 0)),
        (M(lam + mu - 1, 0, q - qp - 1, 0), -M(0, 0, 0, v - w), Z, Z, M(0, 1, q - qp - 1, 0), -M(lam, 0, 0, 0)),
        (Z, -theta, Z, Z, Z, phi0),
        (-M(lam + mu - 1, 0, q - qp, 0), Z, -M(0, 1, 0, v - w), M(0, 0, q - qp + 1, 0), Z, -M(lam - 1, 2, 0, 0)),
        (Z, Z, -M(0, 0, 0, v - w), Z, M(0, 0, q - qp, 0), -M(lam - 1, 1, 0, 0)),
        (Z, Z, -theta, Z, Z, phi1),
        (M(lam + mu - 1, 0, 0, 0), Z, Z, -M(0, 0, 1, 0), M(0, 1, 0, 0), Z),
        (Z, M(mu, 0, 0, 0), Z, -M(0, 0, 0, w), Z, M(0, 1, qp, 0)),
        (Z, Z, M(mu, 0, 0, 0), Z, -M(0, 0, 0, w), M(0, 0, qp + 1, 0)),
    ], "equal"


def _rows_plain1_cross2(ring, params):
    M, lam, mu, q, qp, v, w = _row_builder(ring, params)
    Z = ring.zero()
    xi = M(0, 2, 0, 0) - M(1, 0, 1, 0)
    phi0 = M(0, 0, q + 1, 0) - M(lam, 0, 0, w)
    psi1 = M(0, 0, qp + 1, v - w) - M(lam + mu, 1, 0, 0)
    theta = M(0, 0, 0, v) - M(mu, 1, q - qp, 0)
    return [
        (-phi0, xi, Z, Z, Z),
        (-M(0, 0, qp, v - w), Z, M(0, 1, 0, 0), -M(1, 0, 0, 0), Z),
        (-psi1, Z, Z, xi, Z),
        (-theta, Z, Z, Z, xi),
        (-M(lam + mu, 0, q - qp, 0), -M(0, 1, 0, v - w), M(0, 0, q - qp + 1, 0), Z, -M(lam, 1, 0, 0)),
        (Z, -M(0, 0, 0, v - w), Z, M(0, 0, q - qp, 0), -M(lam, 0, 0, 0)),
        (Z, -theta, Z, Z, phi0),
        (M(lam + mu, 0, 0, 0), Z, -M(0, 0, 1, 0), M(0, 1, 0, 0), Z),
        (M(mu, 0, q, 0), M(mu + 1, 0, 0, 0), -M(0, 0, 0, w), Z, M(0, 1, qp, 0)),
        (Z, M(mu, 1, 0, 0), Z, -M(0, 0, 0, w), M(0, 0, qp + 1, 0)),
    ], "equal"


def _rows_plain1_cross1(ring, params):
    M, lam, mu, q, qp, v, w = _row_builder(ring, params)
    Z = ring.zero()
    xi = M(0, 2, 0, 0) - M(1, 0, 1, 0)
    phi0 = M(0, 0, q + 1, 0) - M(lam, 0, 0, w)
    psi0 = M(0, 0, qp + 1, v - w) - M(lam + mu, 0, 0, 0)
    theta = M(0, 0, 0, v) - M(mu, 0, q - qp, 0)
    return [
        (-phi0, xi, Z, Z),
        (-psi0, Z, xi, Z),
        (-theta, Z, Z, xi),
        (Z, -M(0, 0, 0, v - w), M(0, 0, q - qp, 0), -M(lam, 0, 0, 0)),
        (Z, -theta, Z, phi0),
        (Z, M(mu, 0, 0, 0), -M(0, 0, 0, w), M(0, 0, qp + 1, 0)),
    ], "equal"


def _rows_plain2_nocross(ring, params):
    M, lam, mu, q, qp, v, w = _row_builder(ring, params)
    Z = ring.zero()
    xi = M(0, 2, 0, 0) - M(1, 0, 1, 0)
    phi0 = M(0, 1, q, 0) - M(lam, 0, 0, w)
    phi1 = M(0, 0, q + 1, 0) - M(lam - 1, 1, 0, w)
    theta = M(0, 0, 0, v) - M(mu, 0, q - qp, 0)
    return [
        (-M(0, 0, q, 0), M(0, 1, 0, 0), -M(1, 0, 0, 0), Z),
        (M(lam - 1, 0, 0, w), -M(0, 0, 1, 0), M(0, 1, 0, 0), Z),
        (-theta, Z, Z, xi),
        (Z, -theta, Z, phi0),
        (Z, Z, -theta, phi1),
    ], "subset"


def _rows_plain1_nocross(ring, params):
    M, lam, mu, q, qp, v, w = _row_builder(ring, params)
    Z = ring.zero()
    xi = M(0, 2, 0, 0) - M(1, 0, 1, 0)
    phi0 = M(0, 0, q + 1, 0) - M(lam, 0, 0, w)
    theta = M(0, 0, 0, v) - M(mu, 0, q - qp, 0)
    return [
        (-phi0, xi, Z),
        (-theta, Z, xi),
        (Z, -theta, phi0),
    ], "equal"


SYZYGY_FIXTURES = {
    "v": ((7, 8, 9, 12), _rows_plain2_cross1),
    "ix": ((8, 9, 10, 13), _rows_plain2_cross2),
    "xiv": ((9, 10, 11, 15), _rows_plain1_cross2),
    "xvi": ((6, 7, 8, 10), _rows_plain1_cross1),
    "xviii": ((6, 7, 8, 9), _rows_plain2_nocross),
    "xix": ((8, 9, 10, 12), _rows_plain1_nocross),
}


def _signed_render(row, order):
    for p in row:
        if not p.is_zero:
            if p.lead(order)[1] < 0:
                row = tuple(-q for q in row)
            break
    return tuple(render(p) for p in row)


def test_criterion_04_syzygy_rows_match_tabulated_lists():
    outcomes = []
    ok = True
    for label, (seq, builder) in SYZYGY_FIXTURES.items():
        spec = validate_sequence(*seq)
        kernel = toric_kernel(spec)
        params = extract_parameters(spec)
        assert case_id(params).label == label
        gens = template_polys(params, spec)
        order = curve_ring(spec).order()
        gb = generic_buchberger(gens, order)
        assert gb.elements == gens, "completion appended to the template set"
        buchberger(gens)  # the program's certificate refuses a set that is no basis
        syz = transcript_syzygies(gb)
        computed = [
            _signed_render(tuple(syz.entries[i][c] for i in range(len(gens))), order)
            for c in range(syz.source.rank)
        ]
        rows, mode = builder(curve_ring(spec), params)
        listed = [_signed_render(r, order) for r in rows]
        if mode == "equal":
            good = sorted(computed) == sorted(listed)
        else:
            good = all(r in computed for r in listed)
        ok = ok and good
        outcomes.append("%s %d/%d" % (label, len(listed), len(computed)))
    _verdict(4, ok, "rows match at " + ", ".join(outcomes) + " (listed/computed)")


def test_criterion_05_degenerate_entries_minimalize_away():
    moves = []
    ok = True
    for seq, before, after in [
        ((7, 9, 11, 10), (1, 5, 7, 3), (1, 4, 6, 3)),
        ((10, 11, 12, 8), (1, 4, 5, 2), (1, 3, 3, 1)),
    ]:
        spec = validate_sequence(*seq)
        params = extract_parameters(spec)
        base = closed_form_base(params, canonical_generators(params, spec), curve_ring(spec))
        trimmed = minimalize(base)
        good = base.ranks == before and trimmed.ranks == after
        ok = ok and good
        moves.append("%s %s->%s" % (seq, base.ranks, trimmed.ranks))
    _verdict(5, ok, "; ".join(moves))


def test_criterion_06_hilbert_identity_sampled():
    tuples = [
        (s.m0, s.m1, s.m2, s.n) for s in enumerate_box(60, 60)
    ]
    sample = random.Random(606).sample(tuples, 25)
    worst = 0.0
    ok = True
    for seq in sample:
        started = time.perf_counter()
        spec = validate_sequence(*seq)
        kernel = toric_kernel(spec)
        res = minimalize(build_resolution(kernel.reduced_gb))
        numerator = hilbert_numerator(res)
        lhs = hilbert_series_truncation(numerator, spec.weights, 500)
        rhs = gamma_series_truncation(spec.gamma, 500)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        ok = ok and lhs == rhs and elapsed <= 1.0
    _verdict(6, ok, "25 sampled tuples agree to degree 500, worst %.2f s (budget 1 s)" % worst)


def test_criterion_07_closed_form_verification(box_reports):
    matched = [r for r in box_reports if r.case is not None]
    bad = [
        r.seq
        for r in matched
        if not (
            r.flags.get("closed_form_agrees") is True
            and r.flags.get("compose_ok") is True
            and r.flags.get("minimal_ok") is True
        )
    ]
    _verdict(
        7,
        not bad,
        "closed-form matrices verified (compositions, entry degrees, numerator) on all %d matched tuples"
        % len(matched),
    )


def test_criterion_08_twist_tables_certified(box_reports):
    matched = [r for r in box_reports if r.case is not None]
    seen_cases = {r.case for r in matched}
    twist_recs = [
        (r.case, d)
        for r in matched
        for d in r.discrepancies
        if d["kind"] == "twist_table"
    ]
    uncertified = [rec for _, rec in twist_recs if not rec.get("certified")]
    dirty_clean_cases = sorted({c for c, _ in twist_recs} & CLEAN_TWIST_CASES)
    ok = (
        seen_cases == REACHABLE_CASES
        and not uncertified
        and not dirty_clean_cases
    )
    _verdict(
        8,
        ok,
        "%d/%d reachable cases hit; %d tabulated-twist mismatches, all certified; clean cases clean"
        % (len(seen_cases), len(REACHABLE_CASES), len(twist_recs)),
    )


def test_criterion_09_small_oracles():
    ring, gb = toric_kernel_generic((3, 4, 5))
    order = ring.order()
    sign_fixed = lambda p: render(p if p.lead(order)[1] > 0 else -p)
    got = {sign_fixed(p) for p in gb.elements}
    want = {
        sign_fixed(parse(ring, text))
        for text in ("y^2 - x*z", "x^3 - y*z", "x^2*y - z^2")
    }
    f345 = frobenius(SubSemigroup((3, 4, 5)))
    f5791 = frobenius(SubSemigroup((5, 7, 9, 11)))
    ok = got == want and f345 == 2 and f5791 == 13
    _verdict(
        9,
        ok,
        "three-variable kernel is the expected triple; gap bounds 2 and 13 confirmed",
    )


def test_criterion_10_euler_characteristic(box_reports):
    bad = []
    for r in box_reports:
        a, b, c = r.betti_computed
        levels = {i for i, _, _ in r.graded_betti}
        if a - b + c != 1 or max(levels) > 2:
            bad.append(r.seq)
    _verdict(
        10,
        not bad,
        "alternating rank sum is 1 and length <= 3 on all %d minimal resolutions" % len(box_reports),
    )


# the two checks below guard the census without a scoreboard line of their own

#: sha256 of ``sweep --max-m2 60 --max-n 60`` output, which is ``sweep_lines``
BOX60_SWEEP_SHA256 = "50a429e8c58364e07628e667981bb549f665d32194dc18965172e830e3f01b25"


def test_box60_sweep_bytes_pinned(box_reports):
    digest = hashlib.sha256(sweep_lines(box_reports).encode()).hexdigest()
    assert digest == BOX60_SWEEP_SHA256


def test_box60_graded_betti_match_homology_oracle(box_reports):
    """Every graded Betti number of the census equals the reduced homology
    of its semigroup complex, which no Gröbner code computes."""
    wrong = [
        r.seq
        for r in box_reports
        if [list(row) for row in r.graded_betti] != graded_betti_numbers(r.seq)
    ]
    assert not wrong, wrong[:10]
