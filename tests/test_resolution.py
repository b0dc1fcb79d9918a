"""Resolution layer: syzygy columns from the lead frame, iterated construction,
unit splitting and minimalization (against the elementary-operation
calculus), Betti and Hilbert data."""

import functools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from monocurve import groebner, resolution
from monocurve.closedform import (
    CaseUnmatched,
    DegreeImbalance,
    TemplateMismatch,
    canonical_generators,
    case_id,
    closed_form_base,
    closed_form_resolution,
    extract_parameters,
)
from monocurve.groebner import _Module, _rank_one, buchberger, pair_records, toric_kernel, toric_kernel_generic
from monocurve.poly import Poly, Ring, parse
from monocurve.resolution import (
    BettiTable,
    FreeResolution,
    GradedFreeModule,
    GradedMap,
    HomogeneityBroken,
    NotMinimal,
    PreconditionViolated,
    ShapeMismatch,
    betti_table,
    build_resolution,
    compose_zero,
    hilbert_numerator,
    minimalize,
    prune_unit,
)
from monocurve.semigroup import SubSemigroup, ValidationError, frobenius, series_numerator, validate_sequence

from oracles import (
    AddMultiple,
    NotElementary,
    PositionOverTerm,
    ScaleBasis,
    SchreyerOrder,
    SwapBasis,
    betti_degrees,
    cofactors,
    compose_zero_generic,
    constant_entry_scan,
    decoded_frame,
    gamma_series_truncation,
    graded_betti_numbers,
    hilbert_series_truncation,
    is_groebner,
    map_columns,
    map_terms,
    matrix_map,
    minimalize_by_operations,
    packed,
    pair,
    pair_records_generic,
    pair_records_tuples,
    rank_one_key,
    record_vector,
    resolution_all_pairs,
    schreyer_levels_tuples,
    syzygy_level_tuples,
    transform_complex,
    unpacked,
    Vect,
)
from test_closedform import FIXTURES

R4 = Ring(("X0", "X1", "X2", "Y"), (5, 7, 9, 11))
R2 = Ring(("x", "y"), (5, 7))


def P(text, ring=R4):
    return parse(ring, text)


def curve_resolution(m0, m1, m2, n):
    spec = validate_sequence(m0, m1, m2, n)
    return spec, build_resolution(toric_kernel(spec).reduced_gb)


def certified(gens):
    """The program's certificate of ``gens``, a Gröbner basis already."""
    return buchberger(gens)


# ---------------------------------------------------------------------------
# graded maps


def test_graded_map_checks_homogeneity():
    F = GradedFreeModule(R4, (14,))
    base = GradedFreeModule(R4, (0,))
    matrix_map(F, base, [[P("X1^2 - X0*X2")]])
    with pytest.raises(HomogeneityBroken):
        matrix_map(F, base, [[P("X1^2 - X0")]])  # mixed degrees
    with pytest.raises(HomogeneityBroken):
        matrix_map(F, base, [[P("X1^3")]])  # degree 21 != 14
    with pytest.raises(ShapeMismatch):
        matrix_map(F, base, [[P("X1^2"), P("X0")]])


@pytest.mark.parametrize(
    "terms, error, message",
    [
        # a term in row 2 of a rank-2 target
        ([[(2, 16, (0, 1, 0, 0))]], ShapeMismatch, "column 0 has a term in row 2 of rank 2"),
        # X1^2 in row 0 (twist 28), then X1 in row 1 (twist 23): unequal twists
        ([[(0, 14, (0, 2, 0, 0)), (1, 16, (0, 1, 0, 0))]], HomogeneityBroken, "entry (1,0) has degree 7, twists demand 12"),
        # 1 at twist 14 in row 1 of twist 16: below its row's
        ([[(1, 14, (0, 0, 0, 0))]], HomogeneityBroken, "entry (1,0) has degree -2, twists demand -2"),
        # a zero second column
        ([[(0, 14, (0, 0, 1, 0))], []], ShapeMismatch, "column 1 is zero, so it has no twist"),
    ],
)
def test_from_columns_names_the_failing_term(terms, error, message):
    """``from_columns`` names the term it refuses; a closed form that
    fails writes this message into its ``closed_form`` discrepancy.  Each
    term is (row, twist, exponent), keyed as x^exponent in a row of that
    twist, into a target of twists (14, 16)."""
    layout = _Module(R4.weights, 64)
    columns = [{layout.encode(i, t, e): 1 for i, t, e in column} for column in terms]
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        GradedMap.from_columns(GradedFreeModule(R4, (14, 16)), columns, layout)


def test_compose_zero_shape_mismatch():
    base = GradedFreeModule(R4, (0,))
    F = GradedFreeModule(R4, (14,))
    G = GradedFreeModule(R4, (23,))
    a = matrix_map(F, base, [[P("X1^2 - X0*X2")]])
    b = matrix_map(G, F, [[P("X2")]])
    assert not compose_zero(a, b)
    with pytest.raises(ShapeMismatch):
        compose_zero(b, a)


@pytest.mark.parametrize("k", range(1, 8))
def test_compose_zero_tells_apart_monomials_of_one_degree(k):
    """x^(2^k) and y share their degree under the weights (1, 2^k), so no
    packing of the exponents may merge them: a product holding x^(2^k) - y
    is not zero, on either side of the product."""
    ring = Ring(("x", "y"), (1, 2**k))
    f = Poly(ring, {(2**k, 0): 1, (0, 1): -1})
    low, high = GradedFreeModule(ring, (0,)), GradedFreeModule(ring, (2**k,))
    gen = matrix_map(high, low, [[f]])
    assert not compose_zero(matrix_map(low, low, [[ring.one()]]), gen)
    assert not compose_zero(gen, matrix_map(high, high, [[ring.one()]]))


# ---------------------------------------------------------------------------
# Schreyer syzygies


def test_koszul_pair_column():
    syz = build_resolution(certified([P("x", R2), P("y", R2)])).maps[1]
    assert syz.source.twists == (12,)
    assert syz.target.twists == (5, 7)
    assert [str(p) for col in zip(*syz.entries) for p in col] == ["-y", "x"]


def test_columns_annihilated_and_groebner():
    ideal = toric_kernel(validate_sequence(5, 7, 9, 11))
    gb = ideal.reduced_gb
    syz = build_resolution(gb).maps[1]
    # six of the ten S-pairs of five generators are in the lead frame
    assert syz.source.rank == len(decoded_frame(gb)) == 6
    row = matrix_map(
        GradedFreeModule(R4, syz.target.twists),
        GradedFreeModule(R4, (0,)),
        [list(gb.elements)],
        syz.layout,
    )
    assert compose_zero(row, syz)
    order = R4.order()
    leads = [(0, g.lead(order)[0]) for g in gb.elements]
    induced = SchreyerOrder(rank_one_key(order), leads)
    assert is_groebner(map_columns(syz), induced)


def test_column_signs_match_hand_syzygy():
    # for the reference curve, the pair (X1^2 - X0*X2, X1*X2 - X0*Y) yields
    # the relation -X2*g0 + X1*g1 - X0*g2 = 0 against g2 = X2^2 - X1*Y
    ideal = toric_kernel(validate_sequence(5, 7, 9, 11))
    syz = build_resolution(ideal.reduced_gb).maps[1]
    first = [str(row[0]) for row in syz.entries]
    assert first == ["-X2", "X1", "-X0", "0", "0"]


# ---------------------------------------------------------------------------
# build_resolution


def test_principal_ideal():
    res = build_resolution(certified([P("X0")]))
    assert res.ranks == (1, 1)
    assert hilbert_numerator(res) == {0: 1, 5: -1}


def test_koszul_complex():
    res = build_resolution(certified([P("x", R2), P("y", R2)]))
    assert res.ranks == (1, 2, 1)
    res.validate()
    mini = minimalize(res)
    table = betti_table(mini)
    assert betti_degrees(table, 0) == {5: 1, 7: 1}
    assert betti_degrees(table, 1) == {12: 1}
    assert hilbert_numerator(res) == {0: 1, 5: -1, 7: -1, 12: 1}


def test_inhomogeneous_rejected():
    with pytest.raises(HomogeneityBroken):
        build_resolution(certified([P("X0 - X1^2")]))


def test_reference_curve_resolution():
    spec, res = curve_resolution(5, 7, 9, 11)
    res.validate()
    assert len(res.maps) <= 4
    mini = minimalize(res)
    mini.validate()
    table = betti_table(mini)
    assert table.totals() == (5, 5, 1)
    assert betti_degrees(table, 0) == {14: 1, 16: 1, 18: 1, 20: 1, 22: 1}
    assert betti_degrees(table, 2) == {45: 1}
    # Euler characteristic of the length-3 minimal resolution
    b = table.totals()
    assert b[0] - b[1] + b[2] == 1


@pytest.mark.parametrize("seq", [(4, 7, 10, 13), (7, 9, 11, 5), (10, 13, 16, 7)])
def test_hilbert_identity_more_curves(seq):
    spec, res = curve_resolution(*seq)
    res.validate()
    num = hilbert_numerator(res)
    assert num == hilbert_numerator(minimalize(res))
    series = hilbert_series_truncation(num, spec.weights, 70)
    assert series == gamma_series_truncation(spec.gamma, 70)


@settings(max_examples=20, deadline=None)
@given(st.integers(61, 200), st.integers(1, 20), st.integers(1, 300))
def test_exact_hilbert_identity_beyond_the_box(m0, d, n):
    """K(z) equals the Apery numerator Gamma(z) * prod (1 - z^w) exactly, and
    the truncated series agree through D = max(deg K, F + sum w), the degree
    that bounds both polynomials."""
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        return
    numerator = hilbert_numerator(curve_resolution(*spec.weights)[1])
    assert numerator == series_numerator(spec.gamma)
    semigroup = spec.gamma
    top = max(max(numerator), frobenius(semigroup) + sum(spec.weights))
    series = hilbert_series_truncation(numerator, spec.weights, top)
    assert series == gamma_series_truncation(semigroup, top)


# the lead frame against the generic path: every level completed by
# buchberger, all pair syzygies written down, the lead-minimal ones kept

CURVES = st.one_of(
    # the box-60 family: m2 <= 60, n <= 60
    st.tuples(st.integers(1, 58), st.integers(1, 29), st.integers(1, 60)).filter(
        lambda t: t[0] + 2 * t[1] <= 60
    ),
    # beyond it
    st.tuples(st.integers(61, 200), st.integers(1, 20), st.integers(1, 300)),
)


def _frame_resolution(gb):
    """build_resolution(gb) and the columns each of its maps is built from,
    decoded."""
    levels = []
    original = resolution.schreyer_syzygies

    def spy(target, columns, layout):
        levels.append(map_terms(columns, layout))
        return original(target, columns, layout)

    resolution.schreyer_syzygies = spy
    try:
        return build_resolution(gb), levels
    finally:
        resolution.schreyer_syzygies = original


@settings(max_examples=100, deadline=None)
@given(CURVES)
def test_lead_frame_matches_all_pairs_path(curve):
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    gb = toric_kernel(spec).reduced_gb
    res, levels = _frame_resolution(gb)
    expected, expected_levels = resolution_all_pairs(gb)
    assert levels == expected_levels
    assert [(m.source, m.target, m.entries) for m in res.maps] == [
        (m.source, m.target, m.entries) for m in expected.maps
    ]


def test_lead_frame_on_monomial_ideals():
    ring = Ring(("x", "y", "z"), (2, 3, 4))
    gens = [ring.monomial(m) for m in [(1, 2, 2), (2, 1, 0), (2, 0, 1), (0, 3, 1)]]
    gb = buchberger(gens)
    res, levels = _frame_resolution(gb)
    expected, expected_levels = resolution_all_pairs(gb)
    assert levels == expected_levels
    assert [m.entries for m in res.maps] == [m.entries for m in expected.maps]


def _program_levels(gb):
    """The nonempty levels of build_resolution(gb) as the program packs
    them, level 1 first: (module of the frame's terms, frame), level 1 read
    off ``gb`` and every later one off a ``syzygy_level`` call."""
    levels = [gb.level]
    original = resolution.syzygy_level

    def spy(module, columns, leads):
        levels.append(original(module, columns, leads))
        return levels[-1]

    resolution.syzygy_level = spy
    try:
        build_resolution(gb)
    finally:
        resolution.syzygy_level = original
    return [level for level in levels if level[1]]


def _packed_rank_one(polys):
    """``_rank_one`` on ``Poly``s: their term dicts over their ring's weights."""
    return _rank_one(polys[0].ring.weights, [g.terms for g in polys])


def _assert_packed_like_tuples(elements, levels, depth):
    """The program's packed ``levels``, decoded, are the first ``depth``
    levels of the tuple-form oracle term for term, leads included, and at
    F_0 = R and at every level the terms sort by their packed ints as by
    the oracle's Schreyer key."""
    order = elements[0].ring.order()
    expected = schreyer_levels_tuples(elements, order, depth)
    decoded = [[(pair, unpacked(syz, lead), _decoded(syz, col)) for pair, lead, col in frame] for syz, frame in levels]
    assert decoded == [frame for _, frame in expected]
    rank_one = _packed_rank_one(elements)[0]
    columns = [{(0, m): c for m, c in g.terms.items()} for g in elements]
    orders = [(rank_one, rank_one_key(order), columns)]
    orders += [(syz, key, [col for _, _, col in frame]) for (syz, _), (key, frame) in zip(levels, expected)]
    for module, key, columns in orders:
        terms = sorted({t for column in columns for t in column}, key=key)
        assert sorted(terms, key=lambda t: packed(module, t)) == terms
        assert [unpacked(module, packed(module, t)) for t in terms] == terms


@settings(max_examples=100, deadline=None)
@given(CURVES)
def test_packed_levels_match_tuple_oracle(curve):
    """In and beyond the box: ``gb.level`` and every later level's frame,
    decoded, are those of the tuple-form Schreyer levels, and each level's
    terms sort by packed int as by ``SchreyerOrder.key``."""
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    gb = toric_kernel(spec).reduced_gb
    _assert_packed_like_tuples(gb.elements, _program_levels(gb), gb.elements[0].ring.nvars)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)))
def test_packed_levels_match_tuple_oracle_on_three_variables(weights):
    """The same on the toric kernels of three weights, whose resolutions
    have at most two levels and whose x_0 may be any weight."""
    assume(math.gcd(*weights) == 1)
    ring, gb = toric_kernel_generic(weights)
    _assert_packed_like_tuples(gb.elements, _program_levels(gb), ring.nvars)


_MONOS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_MONOS, _MONOS).filter(lambda ab: ab[0] != ab[1]), min_size=1, max_size=5))
def test_packed_level_one_matches_tuple_oracle_off_homogeneity(pairs):
    """Pure-difference binomials of any degrees, like the Koszul example's
    X0^2 - X1 and X2*Y - X1^2: ``buchberger`` certifies the set exactly when
    the tuple-form level does, with the same frame, and refuses it with the
    same first remainder otherwise, each as the generic all-pairs check
    judges the set; and level 1 sorts by packed int as by the Schreyer key."""
    gens = [Poly(R4, {a: 1, b: -1}) for a, b in pairs]
    order = R4.order()
    columns = [{(0, m): c for m, c in g.terms.items()} for g in gens]
    leads = [(0, g.lead(order)[0]) for g in gens]
    try:
        _, expected = syzygy_level_tuples(columns, rank_one_key(order), leads)
    except AssertionError as exc:
        assert not is_groebner(gens, order)
        with pytest.raises(AssertionError, match=str(exc).replace("(", r"\(").replace(")", r"\)")):
            buchberger(gens)
        return
    gb = buchberger(gens)
    assert is_groebner(gens, order)
    assert decoded_frame(gb) == expected
    _assert_packed_like_tuples(gens, [gb.level] if gb.level[1] else [], 1)


def test_koszul_example_packs_like_tuples():
    gens = [P("X0^2 - X1"), P("X2*Y - X1^2")]
    gb = buchberger(gens)
    assert [pair for pair, _, _ in decoded_frame(gb)] == [(0, 1)]
    _assert_packed_like_tuples(gens, [gb.level], 1)


@pytest.mark.parametrize(
    "weights",
    [
        (100003, 100004, 100005, 1234567),
        # three variables, weights spread over six orders of magnitude
        (2, 1009, 1000003),
        (1000003, 999999, 2),
    ],
)
def test_packed_levels_near_the_bound(weights):
    """Large exponents: the kernel CI analyses at m0 = 100 003, and three
    widely spread weights, whose exponents run to 499 497 and 999 999.
    Every level decodes to the tuple-form oracle's, and the largest exponent
    fills its field to within nvars + 1 bits: the bound's slack of one bit
    per level the field is sized for, which no resolution here uses."""
    ring, gb = toric_kernel_generic(weights)
    _assert_packed_like_tuples(gb.elements, _program_levels(gb), ring.nvars)
    largest = max(max(mono) for g in gb.elements for mono in g.terms)
    assert largest.bit_length() >= gb.level[0].value - ring.nvars - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=2, max_size=5), st.integers(1, 400), st.data())
def test_packed_keys_exact_up_to_the_bound(weights, top, data):
    """Two levels of terms whose F_0 images have degree up to ``top``, so
    that an exponent may fill its field (2^value - 1 or just under): each
    int decodes back to its term, the ints sort as ``SchreyerOrder.key``,
    and ``cofactors`` of two terms at one position is lcm minus each."""
    weights = tuple(weights)
    ring = Ring(tuple("abcde")[: len(weights)], weights)

    def monomial(budget):
        mono = []
        for w in weights:
            e = data.draw(st.integers(0, budget // w))
            mono.append(e)
            budget -= e * w
        return tuple(mono)

    rank_one = _Module(weights, top)
    assert max(top // w for w in weights) < 1 << rank_one.value
    bottom = [monomial(top) for _ in range(data.draw(st.integers(1, 4)))]
    terms = sorted({(0, m) for m in bottom}, key=rank_one_key(ring.order()))
    assert sorted(terms, key=lambda t: packed(rank_one, t)) == terms
    assert [unpacked(rank_one, packed(rank_one, t)) for t in terms] == terms
    leads = [t for t in terms if ring.degree(t[1]) <= top // 2] or [(0, (0,) * len(weights))]
    level = rank_one.next([packed(rank_one, t) for t in leads])
    induced = SchreyerOrder(rank_one_key(ring.order()), leads)
    above = {(p, monomial(top - ring.degree(leads[p][1]))) for p in range(len(leads)) for _ in range(3)}
    assert sorted(above, key=lambda t: packed(level, t)) == sorted(above, key=induced.key)
    for t in above:
        assert unpacked(level, packed(level, t)) == t
    for (p, a), (q, b) in zip(sorted(above), sorted(above)[1:]):
        if p == q:
            lcm = tuple(map(max, a, b))
            shifts = level.shifts
            want = tuple(sum(e << s for e, s in zip(map(int.__sub__, lcm, m), shifts)) for m in (a, b))
            assert cofactors(level, packed(level, (p, a)), packed(level, (q, b))) == want


def test_buchberger_and_is_groebner_boundaries():
    """No generator is a ValueError for ``buchberger``, though the empty
    set is a basis of the zero ideal for the all-pairs check."""
    with pytest.raises(ValueError, match="at least one generator"):
        buchberger([])
    assert is_groebner([], R4.order())


def test_pair_records_assert_the_packing_bound():
    """A module packed for lower degrees than a pair's lcm refuses the pair
    before dividing it."""
    gens = [P("X1^2 - X0*X2"), P("X1*X2 - X0*Y")]
    module, columns, leads = _packed_rank_one(gens)
    module.top = 20  # both leads have degree 14 and 16, their lcm 23
    with pytest.raises(AssertionError, match=r"pair \(0, 1\) exceeds the packing bound"):
        pair_records(module, columns, [pair(module, leads, 0, 1)], leads)


def test_pair_records_with_no_pairs_still_check_the_lead_coefficients():
    """No pair gives no syzygy, and a lead coefficient other than ±1 is a
    ValueError with no pair too: that check makes the result hold over
    every field."""
    gens = [P("X1^2 - X0*X2"), P("X1*X2 - X0*Y")]
    module, columns, leads = _packed_rank_one(gens)
    assert pair_records(module, columns, [], leads) == []
    doubled = [{t: 2 * c for t, c in column.items()} for column in columns]
    with pytest.raises(ValueError, match="not ±1"):
        pair_records(module, doubled, [], leads)


def test_pair_records_check_the_lead_coefficient_of_a_column_no_pair_divides_by():
    """The ±1 check covers every column, also one whose tail no division
    of the given pairs reads: column 2 doubled, only the pair (0, 1)."""
    gens = [P("X1^2 - X0*X2"), P("X1*X2 - X0*Y"), P("X2^2 - X1*Y")]
    module, columns, leads = _packed_rank_one(gens)
    assert len(pair_records(module, columns, [pair(module, leads, 0, 1)], leads)) == 1
    columns[2] = {t: 2 * c for t, c in columns[2].items()}
    with pytest.raises(ValueError, match="not ±1"):
        pair_records(module, columns, [pair(module, leads, 0, 1)], leads)


def test_map_keys_are_packed_without_encode(monkeypatch):
    """Closed form and generic alike, building, minimalizing and validating
    a complex keys every term by shifts and adds: ``_Module.encode``, which
    the certificate's ``_rank_one`` still calls, is called zero times."""
    calls = []
    encode = _Module.encode

    def counted(self, *args):
        calls.append(args)
        return encode(self, *args)

    monkeypatch.setattr(_Module, "encode", counted)
    buchberger(toric_kernel(validate_sequence(5, 7, 9, 11)).reduced_gb.elements)
    assert calls  # the counter sees the certificate's calls
    for label in sorted(FIXTURES):
        spec = validate_sequence(*FIXTURES[label])
        kernel = toric_kernel(spec)
        params = extract_parameters(spec)
        gens = canonical_generators(params, spec)
        calls.clear()
        closed_form_resolution(params, gens, kernel.reduced_gb.ring).validate()
        minimalize(build_resolution(kernel.reduced_gb)).validate()
        assert calls == [], label


def test_build_resolution_leaves_the_basis_as_it_was():
    """Twice on one kernel, as a cached kernel is resolved on every pass:
    equal maps both times, and the basis and its packed level, decoded and
    as it is, are unchanged."""
    gb = toric_kernel(validate_sequence(5, 7, 9, 11)).reduced_gb
    before = (list(gb.elements), repr(decoded_frame(gb)), repr(gb.level[1]), repr(gb.level[0].consts))
    first, second = build_resolution(gb), build_resolution(gb)
    assert [(m.source, m.target, m.columns) for m in first.maps] == [
        (m.source, m.target, m.columns) for m in second.maps
    ]
    assert (list(gb.elements), repr(decoded_frame(gb)), repr(gb.level[1]), repr(gb.level[0].consts)) == before


@settings(max_examples=100, deadline=None)
@given(CURVES)
def test_level_one_map_is_the_certificate(curve):
    """maps[1] of build_resolution(gb) is the certificate ``buchberger``
    kept, decoded: its columns are those of ``gb.level``, in frame order."""
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    gb = toric_kernel(spec).reduced_gb
    first = build_resolution(gb).maps[1]
    assert [column for _, _, column in decoded_frame(gb)] == map_terms(first.columns, first.layout)


def _pair_record_calls(gb):
    """The (module, columns, pairs, leads) of every ``pair_records`` call of
    build_resolution(gb), each pair a record (i, j, cofactor_i, cofactor_j, d)."""
    calls = []
    original = groebner.pair_records

    def spy(module, columns, pairs, leads):
        calls.append((module, columns, pairs, leads))
        return original(module, columns, pairs, leads)

    groebner.pair_records = spy
    try:
        build_resolution(gb)
    finally:
        groebner.pair_records = original
    return calls


def _decoded(module, column):
    """A map column as a {(slot, exponent): coefficient} dict."""
    return {module.decode(t): c for t, c in column.items()}


@settings(max_examples=100, deadline=None)
@given(CURVES)
def test_pair_records_match_generic_division(curve):
    """Syzygy for syzygy at every level, the kernel's reduced basis included
    in F_0 = R with its frame pairs: each syzygy, decoded, is the generic
    record's, ``s_polynomial`` and ``divide`` run on the level's elements as
    vectors in the Schreyer order of the leads below, and the tuple-form
    division's; and the leads each level is handed, read off the frame, are
    the greatest terms in the level's order."""
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    gb = toric_kernel(spec).reduced_gb
    ring = gb.elements[0].ring
    module, columns, leads = _packed_rank_one(gb.elements)
    first = (module, columns, [pair(module, leads, i, j) for (i, j), _, _ in gb.level[1]], leads)
    key = rank_one_key(ring.order())
    for module, columns, records, leads in [first] + _pair_record_calls(gb):
        syzygies = [_decoded(module, column) for column in pair_records(module, columns, records, leads)]
        pairs = [record[:2] for record in records]
        columns, leads = [_decoded(module, column) for column in columns], [unpacked(module, t) for t in leads]
        rank = 1 + max(pos for column in columns for pos, _ in column)
        elements = [Vect(ring, rank, column) for column in columns]
        records = pair_records_generic(elements, SimpleNamespace(key=key), pairs)
        expected = [record_vector(rec, ring, len(columns)).terms for rec in records]
        assert syzygies == expected
        assert pair_records_tuples(columns, key, pairs, leads) == expected
        for column, lead in zip(columns, leads):
            assert lead == max(column, key=key)
        key = SchreyerOrder(key, leads).key


def test_pair_records_raise_on_a_remainder():
    """Without X2^2 - X1*Y the reference basis is no Gröbner basis, so some
    pair leaves a remainder: in the program's packed terms, in its
    certificate on the lead frame, in the tuple-form division, and in the
    generic division of ring polynomials and of rank-one vectors."""
    gens = [P(t) for t in ["X1^2 - X0*X2", "X1*X2 - X0*Y", "X2*Y - X0^4", "Y^2 - X0^3*X1"]]
    order = R4.order()
    module, columns, leads = _packed_rank_one(gens)
    pairs = [(i, j) for j in range(len(gens)) for i in range(j)]
    with pytest.raises(AssertionError, match=r"pair \(\d, \d\) leaves a nonzero remainder"):
        pair_records(module, columns, [pair(module, leads, i, j) for i, j in pairs], leads)
    with pytest.raises(AssertionError, match=r"pair \(\d, \d\) leaves a nonzero remainder"):
        buchberger(gens)
    columns = [_decoded(module, column) for column in columns]
    with pytest.raises(AssertionError, match="nonzero remainder"):
        pair_records_tuples(columns, rank_one_key(order), pairs, [unpacked(module, t) for t in leads])
    vectors = [Vect.from_polys([g]) for g in gens]
    for elements, generic_order in ((gens, order), (vectors, PositionOverTerm(order))):
        with pytest.raises(AssertionError, match="nonzero remainder"):
            pair_records_generic(elements, generic_order, pairs)


def test_pair_records_refuse_a_lead_coefficient_other_than_a_unit():
    """The division multiplies by each lead coefficient in place of dividing
    by it, so a lead coefficient other than ±1 is refused before any pair,
    in the program's packed terms as in the tuple form."""
    order = R4.order()
    gens = [P("X1^2 - X0*X2"), P("X1*X2 - X0*Y")]
    module, columns, leads = _packed_rank_one(gens)
    columns[1] = {t: 2 * c for t, c in columns[1].items()}
    for pairs in ([(0, 1)], []):
        with pytest.raises(ValueError, match="lead coefficient"):
            pair_records(module, columns, [pair(module, leads, i, j) for i, j in pairs], leads)
        with pytest.raises(ValueError, match="lead coefficient"):
            pair_records_tuples(
                [_decoded(module, column) for column in columns],
                rank_one_key(order),
                pairs,
                [unpacked(module, t) for t in leads],
            )


@settings(max_examples=20, deadline=None)
@given(st.integers(61, 200), st.integers(1, 20), st.integers(1, 300))
def test_graded_betti_match_homology_oracle_beyond_the_box(m0, d, n):
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    table = betti_table(minimalize(build_resolution(toric_kernel(spec).reduced_gb)))
    rows = [[i, deg, c] for (i, deg), c in sorted(table.counts().items())]
    assert rows == graded_betti_numbers(spec.weights)


def test_series_numerator_of_a_small_curve():
    # Ap(<3,4,5>, 3) = {0, 4, 5}; (1 + z^4 + z^5)(1 - z^4)(1 - z^5)
    assert series_numerator(SubSemigroup((3, 4, 5))) == {0: 1, 8: -1, 9: -1, 10: -1, 13: 1, 14: 1}


# ---------------------------------------------------------------------------
# transforms, unit splitting and minimalization


def _toy_complex():
    """R <- F1 <- F2 with a removable constant: generators (x, y) listed twice."""
    gens = [P("x", R2), P("y", R2), P("x", R2)]
    return build_resolution(certified(gens))


def test_transform_identity_roundtrip():
    res = _toy_complex()
    again = transform_complex(res, 1, [])
    assert [m.entries for m in again.maps] == [m.entries for m in res.maps]


def test_transform_swap_permutes_twists():
    res = _toy_complex()
    swapped = transform_complex(res, 1, SwapBasis(0, 1))
    assert swapped.modules[1].twists == (7, 5, 5)
    swapped.validate()
    back = transform_complex(swapped, 1, SwapBasis(0, 1))
    assert back.modules[1].twists == res.modules[1].twists


def test_transform_rejects_garbage():
    res = _toy_complex()
    with pytest.raises(NotElementary):
        transform_complex(res, 1, "E12")
    with pytest.raises(NotElementary):
        transform_complex(res, 1, AddMultiple(0, 0, P("x", R2)))
    with pytest.raises(NotElementary):
        transform_complex(res, 1, ScaleBasis(0, 0))
    with pytest.raises(HomogeneityBroken):
        # twists (5, 7, 5): moving slot 1 into slot 0 needs degree 2, there is
        # no such monomial in this ring
        transform_complex(res, 1, AddMultiple(0, 1, P("x", R2)))


def test_transform_preserves_validity():
    res = _toy_complex()
    # slots 0 and 2 both have twist 5, so a constant multiple is legal
    moved = transform_complex(res, 1, AddMultiple(0, 2, R2.one()))
    moved.validate()


def test_prune_unit_splits_a_non_isolated_unit():
    res = _toy_complex()
    # the first constant of maps[1] comes from the duplicated generator, and
    # its column carries another nonzero entry
    found = resolution._find_constant_entry(res.maps)
    assert found is not None
    step, row, col = found
    entries = res.maps[step].entries
    assert any(not r[col].is_zero for i, r in enumerate(entries) if i != row)
    pruned = prune_unit(res, *found)
    pruned.validate()
    assert hilbert_numerator(pruned) == hilbert_numerator(res)
    assert pruned.ranks == (1, 2, 1)
    with pytest.raises(PreconditionViolated):
        prune_unit(res, 0, 0, 0)  # the generator x is no constant
    with pytest.raises(IndexError):
        prune_unit(res, step, len(entries), col)
    with pytest.raises(IndexError):
        prune_unit(res, len(res.maps), 0, 0)


def _unit_column_complex(c):
    """R <- R(-5)^2 <- R(-5) + R(-12), d_0 = (x, x) and d_1 = [[-c, y], [c, -y]]:
    a complex whose only constant entries are -c and c."""
    x, y, one = P("x", R2), P("y", R2), R2.one()
    f1, f2 = GradedFreeModule(R2, (5, 5)), GradedFreeModule(R2, (5, 12))
    d0 = matrix_map(f1, GradedFreeModule(R2, (0,)), [[x, x]])
    d1 = matrix_map(f2, f1, [[one * -c, y], [one * c, -y]])
    res = FreeResolution((d0, d1))
    res.validate()
    return res


def test_prune_unit_takes_only_unit_pivots():
    """A constant 2 is refused, by ``prune_unit`` and so by ``minimalize``;
    pivots -1 and +1 are split off, to what the elementary operations give."""
    doubled = _unit_column_complex(2)
    with pytest.raises(PreconditionViolated, match="±1"):
        prune_unit(doubled, 1, 0, 0)
    with pytest.raises(PreconditionViolated):
        minimalize(doubled)
    res = _unit_column_complex(1)
    for row in (0, 1):  # the pivot -1, then +1
        pruned = prune_unit(res, 1, row, 0)
        pruned.validate()
        assert pruned.ranks == (1, 1, 1)
        assert pruned.maps[0].entries == ((P("x", R2),),)
        assert hilbert_numerator(pruned) == hilbert_numerator(res)
        assert all(type(c) is int for m in pruned.maps for column in m.columns for c in column.values())
    _same_minimalization(res)


# CURVES, and beyond the box with d and n wider
_PIVOT_CURVES = st.one_of(CURVES, st.tuples(st.integers(61, 200), st.integers(1, 200), st.integers(1, 600)))


@settings(max_examples=100, deadline=None)
@given(_PIVOT_CURVES)
def test_every_pivot_is_a_unit_and_every_coefficient_an_int(curve):
    """Generic and closed form alike, every pivot ``minimalize`` splits off
    is ±1 and every coefficient of every map before and after is an int:
    then minimalization commutes with reduction mod every prime."""
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    kernel = toric_kernel(spec)
    pivots = []
    original = resolution.prune_unit

    def spy(res, step, row, col):
        gmap = res.maps[step]
        pivots.append(gmap.columns[col][gmap.layout.encode(row, gmap.target.twists[row])])
        return original(res, step, row, col)

    complexes = [build_resolution(kernel.reduced_gb)]
    base = _closed_form_base(spec, kernel)
    if base is not None:
        complexes.append(base)
    resolution.prune_unit = spy
    try:
        complexes += [minimalize(res) for res in complexes]
    finally:
        resolution.prune_unit = original
    assert all(p in (1, -1) for p in pivots)
    assert all(type(c) is int for res in complexes for m in res.maps for column in m.columns for c in column.values())


def _same_minimalization(res):
    ours = minimalize(res)
    reference = minimalize_by_operations(res)
    assert [(m.source.twists, m.target.twists, m.entries) for m in ours.maps] == [
        (m.source.twists, m.target.twists, m.entries) for m in reference.maps
    ]


def _closed_form_base(spec, kernel):
    """The closed-form base complex of a curve that matches a case, else None."""
    try:
        params = extract_parameters(spec)
        case_id(params)
    except (TemplateMismatch, DegreeImbalance, CaseUnmatched):
        return None
    return closed_form_base(params, canonical_generators(params, spec), kernel.reduced_gb.ring)


@settings(max_examples=200, deadline=None)
@given(CURVES)
def test_minimalize_matches_elementary_operations(curve):
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    kernel = toric_kernel(spec)
    _same_minimalization(build_resolution(kernel.reduced_gb))
    base = _closed_form_base(spec, kernel)
    if base is not None:
        _same_minimalization(base)


@pytest.mark.parametrize("label", sorted(FIXTURES))
def test_minimalize_matches_elementary_operations_on_fixtures(label):
    spec = validate_sequence(*FIXTURES[label])
    kernel = toric_kernel(spec)
    _same_minimalization(build_resolution(kernel.reduced_gb))
    base = _closed_form_base(spec, kernel)
    assert base is not None
    _same_minimalization(base)


def _same_unit_scans(res):
    """The twist-based unit search against the scan of every entry, from
    every starting row: on ``res``, on each complex that splitting off its
    units one at a time passes through, and on ``minimalize(res)``."""
    complexes = [minimalize(res)]
    while res is not None:
        complexes.append(res)
        found = constant_entry_scan(res.maps)
        res = prune_unit(res, *found) if found else None
    for maps in (c.maps for c in complexes):
        for step, gmap in enumerate(maps):
            for row in range(gmap.target.rank + 1):
                assert resolution._find_constant_entry(maps, step, row) == constant_entry_scan(maps, step, row)


@settings(max_examples=100, deadline=None)
@given(CURVES)
def test_unit_search_by_twists_matches_full_scan(curve):
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    kernel = toric_kernel(spec)
    _same_unit_scans(build_resolution(kernel.reduced_gb))
    base = _closed_form_base(spec, kernel)
    if base is not None:
        _same_unit_scans(base)


@pytest.mark.parametrize("label", sorted(FIXTURES))
def test_unit_search_by_twists_matches_full_scan_on_fixtures(label):
    spec = validate_sequence(*FIXTURES[label])
    kernel = toric_kernel(spec)
    _same_unit_scans(build_resolution(kernel.reduced_gb))
    _same_unit_scans(_closed_form_base(spec, kernel))


def test_unit_search_by_twists_matches_full_scan_on_toy_complexes():
    _same_unit_scans(_toy_complex())
    # x listed three times: rows whose first equal-twist column holds a zero
    # and a later one a unit
    _same_unit_scans(build_resolution(certified([P("x", R2), P("y", R2), P("x", R2), P("x", R2)])))


def test_minimalize_removes_duplicate_generator():
    res = _toy_complex()
    mini = minimalize(res)
    mini.validate()
    assert betti_table(mini).totals() == (2, 1)
    assert hilbert_numerator(mini) == hilbert_numerator(res)


def test_betti_requires_minimal():
    res = _toy_complex()
    with pytest.raises(NotMinimal):
        betti_table(res)


# ---------------------------------------------------------------------------
# Hilbert arithmetic


def test_hilbert_series_division():
    # 1/(1-z^2) = 1 + z^2 + z^4 + ...
    assert hilbert_series_truncation({0: 1}, (2,), 6) == [1, 0, 1, 0, 1, 0, 1]
    # (1 - z^4)/((1-z^2)(1-z^2)) telescopes to (1+z^2)/(1-z^2) shifted
    got = hilbert_series_truncation({0: 1, 4: -1}, (2, 2), 8)
    assert got == [1, 0, 2, 0, 2, 0, 2, 0, 2]


@settings(max_examples=40, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda t: sum(t) > 0),
        min_size=1,
        max_size=4,
    )
)
def test_monomial_ideal_hilbert_oracle(monos):
    """For monomial ideals the quotient's weighted Hilbert function can be
    counted directly; the resolution must reproduce it exactly."""
    ring = Ring(("x", "y"), (2, 3))
    gens = [ring.monomial(m) for m in sorted(monos)]
    res = build_resolution(certified(gens))
    res.validate()
    bound = 24
    series = hilbert_series_truncation(hilbert_numerator(res), ring.weights, bound)
    counts = [0] * (bound + 1)
    for a in range(bound // 2 + 1):
        for b in range(bound // 3 + 1):
            d = 2 * a + 3 * b
            if d <= bound and not any(a >= m[0] and b >= m[1] for m in monos):
                counts[d] += 1
    assert series == counts


# ---------------------------------------------------------------------------
# the composition certificate against the generic oracle


@functools.lru_cache(maxsize=None)
def _monomials_of_degree(d):
    """Every exponent tuple of R4 of weighted degree d."""
    w0, w1, w2, w3 = R4.weights
    out = []
    for e0 in range(d // w0 + 1):
        for e1 in range((d - e0 * w0) // w1 + 1):
            for e2 in range((d - e0 * w0 - e1 * w1) // w2 + 1):
                rest = d - e0 * w0 - e1 * w1 - e2 * w2
                if rest % w3 == 0:
                    out.append((e0, e1, e2, rest // w3))
    return tuple(out)


COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)])


@st.composite
def composable_maps(draw):
    """Small sparse maps a: F -> G and b: E -> F over R4 with Fraction
    coefficients.  With ``twin`` drawn, a = [U | U] and b = [V; -V], so a∘b
    vanishes by cancellation of every product term."""

    def module(low, high):
        rank = draw(st.integers(1, 3))
        return sorted(draw(st.lists(st.integers(low, high), min_size=rank, max_size=rank)))

    def matrix(source, target):
        rows = []
        for t in target:
            row = []
            for s in source:
                monos = _monomials_of_degree(s - t) if s >= t else ()
                picked = draw(st.lists(st.sampled_from(monos), max_size=3)) if monos else []
                row.append(Poly(R4, {m: draw(COEFFS) for m in picked}))
            rows.append(row)
        return rows

    G, F, E = module(0, 9), module(14, 32), module(28, 55)
    U, V = matrix(F, G), matrix(E, F)
    twin = draw(st.booleans())
    if twin:
        F = F + F
        U = [row + row for row in U]
        V = V + [[-p for p in row] for row in V]
    G, F, E = (GradedFreeModule(R4, tuple(t)) for t in (G, F, E))
    return matrix_map(F, G, U), matrix_map(E, F, V), twin


@settings(max_examples=300, deadline=None)
@given(composable_maps())
def test_compose_zero_matches_generic_oracle_on_random_maps(maps):
    a, b, twin = maps
    assert compose_zero(a, b) == compose_zero_generic(a, b)
    if twin:
        assert compose_zero(a, b)


def test_maps_whose_exponents_fill_the_value_fields():
    """Unit weights and a layout sized for degree 63, so x^63 and y^63 fill
    their 6-bit value fields.  d_0 = (g, f, f, h, h) for g = x^32 - y^32,
    f = x^31 - y^31 and h = x^63 - y^63, and d_1 the Koszul column of g and
    f and two unit columns: each map round-trips through ``entries``, the
    complex composes as ``compose_zero_generic`` says, with a doubled term
    on either side too, and its units split off as the elementary
    operations split them."""
    ring = Ring(("x", "y"), (1, 1))
    layout = _Module(ring.weights, 63)
    assert layout.value == 6
    g, f, h = (parse(ring, "x^%d - y^%d" % (e, e)) for e in (32, 31, 63))
    o, one = ring.zero(), ring.one()
    f1, f2 = GradedFreeModule(ring, (32, 31, 31, 63, 63)), GradedFreeModule(ring, (63, 31, 63))
    d0 = matrix_map(f1, GradedFreeModule(ring, (0,)), [[g, f, f, h, h]], layout)
    d1 = matrix_map(f2, f1, [[f, o, o], [-g, one, o], [o, -one, o], [o, o, one], [o, o, -one]], layout)
    for m in (d0, d1):
        assert matrix_map(m.source, m.target, m.entries, layout).columns == m.columns
    assert compose_zero(d0, d1) and compose_zero_generic(d0, d1)
    for left, right in ((_scaled_term(d0, 0, 3, (63, 0)), d1), (d0, _scaled_term(d1, 0, 0, (31, 0)))):
        assert not compose_zero(left, right) and not compose_zero_generic(left, right)
    res = FreeResolution((d0, d1))
    res.validate()
    _same_minimalization(res)
    assert minimalize(res).ranks == (1, 3, 1)


def _scaled_term(gmap: GradedMap, k: int, j: int, mono) -> GradedMap:
    """``gmap`` with the coefficient of ``mono`` in entry (k, j) doubled."""
    entries = [list(row) for row in gmap.entries]
    terms = dict(entries[k][j].terms)
    terms[mono] *= 2
    entries[k][j] = Poly(entries[k][j].ring, terms)
    return matrix_map(gmap.source, gmap.target, entries, gmap.layout)


@settings(max_examples=100, deadline=None)
@given(CURVES, st.data())
def test_compose_zero_matches_generic_oracle_on_curves(curve, data):
    """Every consecutive pair of the generic and closed-form complexes, before
    and after minimalization, composes to zero on both sides; doubling one
    term of one entry (k, j) of the right map, where column k of the left map
    is nonzero, adds that term times the column to column j of the product,
    so both sides must then say False."""
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    kernel = toric_kernel(spec)
    schreyer = build_resolution(kernel.reduced_gb)
    complexes = [schreyer, minimalize(schreyer)]
    try:
        params = extract_parameters(spec)
        base = closed_form_base(params, canonical_generators(params, spec), kernel.reduced_gb.ring)
        complexes += [base, minimalize(base)]
    except (TemplateMismatch, DegreeImbalance):
        pass
    for res in complexes:
        for left, right in zip(res.maps, res.maps[1:]):
            assert compose_zero(left, right) and compose_zero_generic(left, right)
            spots = [
                (k, j)
                for k, row in enumerate(right.entries)
                for j, p in enumerate(row)
                if p.terms and any(r[k].terms for r in left.entries)
            ]
            k, j = data.draw(st.sampled_from(spots))
            mono = data.draw(st.sampled_from(sorted(right.entries[k][j].terms)))
            broken = _scaled_term(right, k, j, mono)
            assert not compose_zero(left, broken)
            assert not compose_zero_generic(left, broken)


@settings(max_examples=100, deadline=None)
@given(CURVES, st.data())
def test_graded_map_columns_round_trip_and_term_checks(curve, data):
    """Every map of the generic and closed-form complexes, before and after
    minimalization, rebuilt from its entries in its own layout has the same
    packed columns and entries.  Moving one term of one column, at any
    position, to a wrong degree raises HomogeneityBroken, and to a row
    outside the target raises ShapeMismatch."""
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    kernel = toric_kernel(spec)
    schreyer = build_resolution(kernel.reduced_gb)
    complexes = [schreyer, minimalize(schreyer)]
    base = _closed_form_base(spec, kernel)
    if base is not None:
        complexes += [base, minimalize(base)]
    maps = [m for res in complexes for m in res.maps]
    for m in maps:
        again = matrix_map(m.source, m.target, m.entries, m.layout)
        assert again.columns == m.columns
        assert again.entries == m.entries

    m = data.draw(st.sampled_from([m for m in maps if m.source.rank]))
    j = data.draw(st.integers(0, m.source.rank - 1))
    key, c = data.draw(st.sampled_from(sorted(m.columns[j].items())))
    i, mono = m.layout.decode(key)

    def moved(row, exponent):
        columns = [dict(column) for column in m.columns]
        del columns[j][key]
        columns[j][m.layout.encode(row, m.target.twists[i], exponent)] = c
        return columns

    heavier = moved(i, (mono[0] + 1,) + mono[1:])
    with pytest.raises(HomogeneityBroken):
        matrix_map(m.source, m.target, GradedMap._trimmed(m.source, m.target, heavier, m.layout).entries)
    if len(m.columns[j]) > 1:
        with pytest.raises(HomogeneityBroken):
            resolution.schreyer_syzygies(m.target, heavier, m.layout)
    row = data.draw(st.sampled_from([-1, m.target.rank, m.target.rank + 2]))
    with pytest.raises(ShapeMismatch):
        resolution.schreyer_syzygies(m.target, moved(row, mono), m.layout)
