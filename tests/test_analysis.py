"""How analyze_sequence sets its flags: the one FreeResolution.validate()
pass onto compose_ok and minimal_ok, the exact series identity onto
hilbert_ok, and the kernel's certificate or is_groebner onto gb_ok; that
each check runs once per tuple and builds one semigroup table in all; and
how long it takes on large generators."""

import math
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from monocurve import analysis, closedform, semigroup
from monocurve.groebner import toric_kernel
from monocurve.poly import Poly
from monocurve.resolution import FreeResolution, _find_constant_entry, minimalize

from oracles import is_groebner as generic_is_groebner, matrix_map

SEQ = (5, 7, 9, 11)


def _flags(monkeypatch, doctor):
    monkeypatch.setattr(analysis, "minimalize", doctor)
    flags = analysis.analyze_sequence(*SEQ).flags
    return flags["compose_ok"], flags["minimal_ok"]


def test_constant_entry_fails_minimality_only(monkeypatch):
    def flagged_without_trimming(res):
        assert _find_constant_entry(res.maps) is not None
        return FreeResolution(res.maps, minimal=True)

    assert _flags(monkeypatch, flagged_without_trimming) == (True, False)


def test_broken_composition_fails_both(monkeypatch):
    def scaled_entry(res):
        res = minimalize(res)
        first = res.maps[1]
        rows = [list(row) for row in first.entries]
        j = next(j for j, p in enumerate(rows[0]) if not p.is_zero)
        rows[0][j] = rows[0][j] * 2
        maps = list(res.maps)
        maps[1] = matrix_map(first.source, first.target, rows, first.layout)
        return FreeResolution(maps, minimal=True)

    assert _flags(monkeypatch, scaled_entry) == (False, False)


def test_hilbert_ok_sees_a_difference_far_above_degree_200(monkeypatch):
    # K(z) + z^300 - z^301 differs from Gamma(z) * prod (1 - z^w) only
    # beyond any fixed comparison window of 200 degrees
    original = analysis.hilbert_numerator

    def corrupted(res):
        numerator = dict(original(res))
        numerator[300] = numerator.get(300, 0) + 1
        numerator[301] = numerator.get(301, 0) - 1
        return numerator

    monkeypatch.setattr(analysis, "hilbert_numerator", corrupted)
    report = analysis.analyze_sequence(*SEQ)
    assert report.flags["hilbert_ok"] is False
    assert not report.all_verified()


def test_hilbert_ok_when_the_numerator_outruns_degree_200():
    # deg K(z) is 15 143 here, so the identity is checked far past 200
    report = analysis.analyze_sequence(301, 304, 307, 1000)
    assert max(d for d, _ in report.hilbert_numerator) > 15000
    assert report.flags["hilbert_ok"] is True


# Large m0 stresses the kernel (Apéry set of m0 residues) and the closed
# form's least multiple of n in <m0, m1, m2>.  Measured single-threaded on a
# 2-vCPU host, Python 3.11.7: 0.19 s, 0.09 s and 0.80 s; the budget is ten
# times that.
@pytest.mark.parametrize(
    "seq, budget_s",
    [
        ((10007, 10008, 10009, 123457), 2.0),
        ((4001, 4002, 4003, 49999), 1.0),
        ((100003, 100004, 100005, 1234567), 8.0),
    ],
)
def test_large_m0_is_analysed_within_budget(seq, budget_s):
    started = time.perf_counter()
    report = analysis.analyze_sequence(*seq)
    elapsed = time.perf_counter() - started
    assert report.valid and all(report.flags.values()), report.flags
    assert len(report.flags) == 5
    assert elapsed < budget_s, f"{seq} took {elapsed:.2f} s, budget {budget_s} s"


def _spy_tables(monkeypatch) -> list:
    """The generators of every Apéry table ``semigroup`` builds from now on."""
    seen = []
    original = semigroup._least_per_residue

    def spy(generators, m):
        seen.append(tuple(generators))
        return original(generators, m)

    monkeypatch.setattr(semigroup, "_least_per_residue", spy)
    return seen


@pytest.mark.parametrize("seq", [(5, 7, 9, 11), (150, 157, 164, 299)])
def test_extract_parameters_builds_no_table(monkeypatch, seq):
    """extract_parameters reads the least multiple of n in <m0, m1, m2>
    off a formula, so it builds no semigroup table."""
    kernel = toric_kernel(semigroup.validate_sequence(*seq))
    seen = _spy_tables(monkeypatch)
    params = closedform.extract_parameters(kernel)
    assert params.y_order >= 1  # parameters were extracted
    assert seen == []


@pytest.mark.parametrize("seq", [(5, 7, 9, 11), (150, 157, 164, 299), (7, 9, 11, 5)])
def test_one_semigroup_table_per_tuple(monkeypatch, seq):
    """A valid tuple builds one table, Gamma's, which decides minimal
    generation and gives the series numerator."""
    seen = _spy_tables(monkeypatch)
    report = analysis.analyze_sequence(*seq)
    assert report.case is not None and report.flags["hilbert_ok"]
    assert seen == [tuple(sorted(seq))]


def _count_case_matches(monkeypatch, *owners) -> list:
    """Route every ``case_id`` lookup through ``owners`` to a spy that
    records each call."""
    calls = []
    original = closedform.case_id

    def spy(params):
        calls.append(params)
        return original(params)

    for owner in (closedform,) + owners:
        monkeypatch.setattr(owner, "case_id", spy)
    return calls


def _count_groebner_checks(monkeypatch) -> list:
    """The generator list of every is_groebner call analysis makes."""
    calls = []
    original = analysis.is_groebner

    def spy(gens):
        calls.append(gens)
        return original(gens)

    monkeypatch.setattr(analysis, "is_groebner", spy)
    return calls


def _same_binomials(seq) -> bool:
    """Are the template generators of ``seq`` its certified basis up to sign?"""
    spec = semigroup.validate_sequence(*seq)
    kernel = toric_kernel(spec)
    gens = closedform.canonical_generators(closedform.extract_parameters(kernel), spec)
    basis = kernel.reduced_gb.elements
    return sorted(map(sorted, (g.terms for g in gens))) == sorted(map(sorted, (g.terms for g in basis)))


def test_gb_ok_reads_the_certificate_when_the_sets_agree(monkeypatch):
    assert _same_binomials(SEQ)
    calls = _count_groebner_checks(monkeypatch)
    report = analysis.analyze_sequence(*SEQ)
    assert report.flags["gb_ok"] is True
    assert calls == []


def test_gb_ok_divides_when_the_sets_differ(monkeypatch):
    seq = (4, 5, 6, 7)  # matched, in the box, template set not the basis
    assert not _same_binomials(seq)
    calls = _count_groebner_checks(monkeypatch)
    report = analysis.analyze_sequence(*seq)
    assert report.case is not None and report.flags["gb_ok"] is True
    assert len(calls) == 1


def test_gb_ok_checks_every_other_set(monkeypatch):
    """Only the certified set itself skips is_groebner: a proper subset,
    the set with a repeated element, or one tail swapped goes through it,
    and its verdict is the reference's."""
    basis = toric_kernel(semigroup.validate_sequence(*SEQ)).reduced_gb
    order = basis.elements[0].ring.order()
    gens = list(basis.elements)
    calls = _count_groebner_checks(monkeypatch)
    assert analysis._gb_ok(gens[::-1], basis) is True and calls == []
    lead = gens[1].lead(order)[0]
    tail = next(m for m in gens[2].terms if m != gens[2].lead(order)[0])
    swapped = gens[:1] + [Poly(gens[1].ring, {lead: 1, tail: -1})] + gens[2:]  # gens[2]'s tail on gens[1]
    others = [gens[:-1], gens[1:], gens + gens[:1], swapped]
    for other in others:
        assert analysis._gb_ok(other, basis) == generic_is_groebner(other, order)
    assert calls == others
    assert analysis._gb_ok(swapped, basis) is False


def test_case_parameters_validated_once_per_tuple(monkeypatch):
    calls = []
    original = closedform.CaseParameters.validate

    def spy(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(closedform.CaseParameters, "validate", spy)
    report = analysis.analyze_sequence(*SEQ)
    assert report.case == "iv"
    assert len(calls) == 1


def test_case_matched_once_per_tuple(monkeypatch):
    calls = _count_case_matches(monkeypatch, analysis)
    report = analysis.analyze_sequence(*SEQ)
    assert report.case == "iv" and report.flags["closed_form_agrees"]
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(61, 200), st.integers(1, 200), st.integers(1, 600))
def test_beyond_the_box_every_tuple_verifies_and_only_glued_ones_mismatch(m0, d, n):
    """The whole pipeline beyond the box: every valid tuple is verified, and
    no template fits exactly the glued tuples, those with g = gcd(m0, d) > 1
    whose least multiple of n in <m0, m1, m2> is g·n."""
    try:
        semigroup.validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except semigroup.ValidationError:
        assume(False)
    report = analysis.analyze_sequence(m0, m0 + d, m0 + 2 * d, n)
    assert report.all_verified()
    mismatch = any(rec["kind"] == "template_mismatch" for rec in report.discrepancies)
    g = math.gcd(m0, d)
    assert mismatch == (g > 1 and semigroup.progression_multiple(n, m0, d) == g)
