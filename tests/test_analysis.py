"""How analyze_sequence sets its flags: the one FreeResolution.validate()
pass onto compose_ok and minimal_ok, the exact series identity onto
hilbert_ok, and the template leads held to the kernel's onto gb_ok; that
each check runs once per tuple and builds one semigroup table in all; and
how long it takes on large generators."""

import math
import time
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from monocurve import analysis, closedform, groebner, semigroup
from monocurve.groebner import _Module, toric_kernel
from monocurve.poly import Poly, Ring
from monocurve.resolution import FreeResolution, _find_constant_entry, minimalize

from oracles import ideal_member, is_groebner as generic_is_groebner, is_homogeneous, matrix_map

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
    """extract_parameters reads membership in Gamma off Gamma's table and
    the least multiple of n in <m0, m1, m2> off a formula, so it builds no
    table besides Gamma's, and none once Gamma's is built."""
    seen = _spy_tables(monkeypatch)
    params = closedform.extract_parameters(semigroup.validate_sequence(*seq))
    assert params.y_order >= 1  # parameters were extracted
    assert seen == [tuple(sorted(seq))]
    spec = semigroup.validate_sequence(*seq)
    semigroup.series_numerator(spec.gamma)  # builds Gamma's table, as analysis does first
    seen.clear()
    assert closedform.extract_parameters(spec) == params
    assert seen == []


@pytest.mark.parametrize("seq", [(5, 7, 9, 11), (150, 157, 164, 299), (7, 9, 11, 5)])
def test_one_semigroup_table_per_tuple(monkeypatch, seq):
    """A valid tuple builds one table, Gamma's, which decides minimal
    generation and gives the series numerator."""
    seen = _spy_tables(monkeypatch)
    report = analysis.analyze_sequence(*seq)
    assert report.case is not None and report.flags["hilbert_ok"]
    assert seen == [tuple(sorted(seq))]


def test_a_sweep_builds_one_table_per_valid_tuple(monkeypatch):
    """Validation is by formula, so enumerating the box builds no table,
    and the sweep then builds one per valid tuple, Gamma's, in its analysis."""
    seen = _spy_tables(monkeypatch)
    specs = list(analysis.enumerate_box(12, 12))
    assert seen == []
    reports = analysis.sweep(12, 12)
    assert [report.seq for report in reports] == [spec.weights for spec in specs]
    assert seen == [tuple(sorted(report.seq)) for report in reports]


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


def _same_binomials(seq) -> bool:
    """Are the template generators of ``seq`` its certified basis up to sign?"""
    spec = semigroup.validate_sequence(*seq)
    kernel = toric_kernel(spec)
    gens = closedform.canonical_generators(closedform.extract_parameters(spec), spec)
    basis = kernel.reduced_gb.elements
    return sorted(map(sorted, gens)) == sorted(map(sorted, (g.terms for g in basis)))


def test_gb_ok_reads_the_certificate_when_the_sets_agree():
    assert _same_binomials(SEQ)
    report = analysis.analyze_sequence(*SEQ)
    assert report.flags["gb_ok"] is True


def test_gb_ok_compares_leads_when_the_sets_differ():
    seq = (4, 5, 6, 7)  # matched, in the box, template set not the basis
    assert not _same_binomials(seq)
    report = analysis.analyze_sequence(*seq)
    assert report.case is not None and report.flags["gb_ok"] is True


def _gb_reference(polys, basis) -> bool:
    """Are ``polys`` a Gröbner basis of the ideal whose reduced basis is
    ``basis``: each homogeneous, so in the ideal, a Gröbner basis by all-pairs
    division, and every element of ``basis`` reducing to zero by them?"""
    order = basis.ring.order()
    return (
        all(is_homogeneous(g) is not None for g in polys)
        and generic_is_groebner(polys, order)
        and all(ideal_member(f, SimpleNamespace(elements=polys)) for f in basis.elements)
    )


def test_gb_ok_checks_every_other_set():
    """The certified set in any order passes; a proper subset, the set with
    a repeated element, or one tail swapped gets the reference's verdict,
    which is all-pairs division's on each.  ``_gb_ok`` takes term dicts, as
    ``canonical_generators`` makes them."""
    basis = toric_kernel(semigroup.validate_sequence(*SEQ)).reduced_gb
    order = basis.elements[0].ring.order()
    gens = list(basis.elements)
    terms = lambda polys: [g.terms for g in polys]  # noqa: E731
    assert analysis._gb_ok(terms(gens[::-1]), basis) is True
    lead = gens[1].lead(order)[0]
    tail = next(m for m in gens[2].terms if m != gens[2].lead(order)[0])
    swapped = gens[:1] + [Poly(gens[1].ring, {lead: 1, tail: -1})] + gens[2:]  # gens[2]'s tail on gens[1]
    for other in [gens[:-1], gens[1:], gens + gens[:1], swapped]:
        assert analysis._gb_ok(terms(other), basis) == generic_is_groebner(other, order) == _gb_reference(other, basis)
    assert analysis._gb_ok(terms(swapped), basis) is False


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(1, 58), st.integers(1, 29), st.integers(1, 60)).filter(lambda t: t[0] + 2 * t[1] <= 60),
        st.tuples(st.integers(61, 200), st.integers(1, 20), st.integers(1, 300)),
    ),
    st.data(),
)
def test_gb_ok_is_the_reference_on_templates_and_their_perturbations(curve, data):
    """On a matched tuple's template set, and on it with one element
    dropped or repeated, reversed, or with one element's tail moved onto
    another's lead, ``_gb_ok`` is the reference's verdict."""
    m0, d, n = curve
    try:
        spec = semigroup.validate_sequence(m0, m0 + d, m0 + 2 * d, n)
        gens = closedform.canonical_generators(closedform.extract_parameters(spec), spec)
    except (semigroup.ValidationError, closedform.TemplateMismatch):
        assume(False)
    basis = toric_kernel(spec).reduced_gb
    order = basis.ring.order()
    k, j = data.draw(st.integers(0, len(gens) - 1)), data.draw(st.integers(0, len(gens) - 1))
    lead = Poly(basis.ring, gens[j]).lead(order)[0]
    tail = next(m for m in gens[k] if m != Poly(basis.ring, gens[k]).lead(order)[0])
    variants = [gens, gens[:k] + gens[k + 1 :], gens + [gens[k]], gens[::-1]]
    if lead != tail:
        variants.append(gens[:k] + [{lead: 1, tail: -1}] + gens[k + 1 :])
    for variant in variants:
        polys = [Poly(basis.ring, g) for g in variant]
        assert analysis._gb_ok(variant, basis) == _gb_reference(polys, basis), variant


@pytest.mark.parametrize(
    "seq, differs, kind",
    [
        (SEQ, 0, None),  # matched, its template set the kernel's basis
        ((6, 8, 10, 7), 0, "template_mismatch"),  # glued: no template fits
        ((4, 5, 6, 7), 1, None),  # matched, its template set not the basis
    ],
)
def test_analysis_builds_no_poly(monkeypatch, seq, differs, kind):
    """The kernel's basis, the templates and every map stay packed on
    ``analyze_sequence``'s path: no ``Poly`` is built, on a matched tuple,
    on a glued one, or on one whose template set differs from the kernel's
    basis, and the kernel's ring is the only ``Ring``."""
    if kind is None:
        assert _same_binomials(seq) != differs
    built = []
    for owner, name in ((Poly, "__init__"), (Poly, "_like"), (Ring, "__init__")):
        original = getattr(owner, name)

        def spy(self, *args, _original=original, _name="%s.%s" % (owner.__name__, name)):
            built.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(owner, name, spy)
    report = analysis.analyze_sequence(*seq)
    assert report.all_verified()
    assert [rec["kind"] for rec in report.discrepancies if rec["kind"] == "template_mismatch"] == ([kind] if kind else [])
    assert built == ["Ring.__init__"]


@pytest.mark.parametrize("seq", [SEQ, (6, 8, 10, 7), (10007, 10008, 10009, 123457)])
def test_analysis_decodes_only_the_kernel_leads(monkeypatch, seq):
    """On a matched tuple, a glued one and the large-m0 tuple CI analyses,
    the kernel's basis goes from its table to level 1 packed: ``_rank_one``
    and ``_Module.encode`` are never called, and ``_Module.decode`` reads
    only the kernel leads ``_gb_ok`` holds the templates to, each once, and
    nothing on a tuple with no case."""
    calls = {"_rank_one": [], "encode": [], "decode": []}
    rank_one, encode, decode = groebner._rank_one, _Module.encode, _Module.decode
    monkeypatch.setattr(groebner, "_rank_one", lambda *args: calls["_rank_one"].append(args) or rank_one(*args))
    monkeypatch.setattr(_Module, "encode", lambda self, *args: calls["encode"].append(args) or encode(self, *args))
    monkeypatch.setattr(_Module, "decode", lambda self, key: calls["decode"].append(key) or decode(self, key))
    report = analysis.analyze_sequence(*seq)
    assert report.all_verified() and (report.case is None) == (seq == (6, 8, 10, 7))
    leads = [max(column) for column in toric_kernel(semigroup.validate_sequence(*seq)).reduced_gb.columns]
    assert calls["_rank_one"] == calls["encode"] == []
    assert calls["decode"] == (leads if report.case else [])


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
