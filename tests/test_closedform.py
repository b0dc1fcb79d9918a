"""Closed-form layer: parameter extraction, the case table, instantiated
resolutions, and the tabulated twist lists with their known slips."""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from monocurve.closedform import (
    CASE_TABLE,
    CaseParameters,
    CaseUnmatched,
    DegreeImbalance,
    TemplateMismatch,
    canonical_generators,
    case_id,
    closed_form_base,
    closed_form_resolution,
    extract_parameters,
    graded_shifts,
    _case_code,
    _shift_row,
)
from monocurve.groebner import _Module, buchberger, toric_kernel
from monocurve.resolution import build_resolution, compose_zero, hilbert_numerator, minimalize
from monocurve.semigroup import ValidationError, validate_sequence

from monocurve import closedform, groebner
from monocurve.analysis import enumerate_box
from oracles import (
    case_id_by_rows,
    closed_form_base_by_exponents,
    curve_ring,
    eval_shift,
    extract_parameters_from_basis,
    is_groebner,
    parse_condition,
    reduce_basis,
    template_polys,
)

# one sequence per reachable case, smallest found by sweeping
FIXTURES = {
    "i": (7, 9, 11, 10),
    "ii": (5, 7, 9, 6),
    "iii": (7, 8, 9, 19),
    "iv": (5, 6, 7, 8),
    "v": (7, 8, 9, 12),
    "vi": (7, 8, 9, 6),
    "vii": (4, 5, 6, 7),
    "viii": (4, 7, 10, 9),
    "ix": (8, 9, 10, 13),
    "x": (9, 11, 13, 12),
    "xi": (5, 7, 9, 8),
    "xii": (5, 6, 7, 9),
    "xiii": (7, 8, 9, 11),
    "xiv": (9, 10, 11, 15),
    "xv": (10, 11, 12, 8),
    "xvi": (6, 7, 8, 10),
    "xviii": (6, 7, 8, 9),
    "xix": (8, 9, 10, 12),
}

TRIPLES = {
    "i": (4, 6, 3),
    "ii": (5, 6, 2),
    "iii": (5, 6, 2),
    "iv": (5, 5, 1),
    "v": (5, 7, 3),
    "vi": (4, 5, 2),
    "vii": (6, 8, 3),
    "viii": (6, 8, 3),
    "ix": (6, 9, 4),
    "x": (5, 6, 2),
    "xi": (5, 5, 1),
    "xii": (5, 6, 2),
    "xiii": (4, 6, 3),
    "xiv": (5, 7, 3),
    "xv": (3, 3, 1),
    "xvi": (4, 5, 2),
    "xviii": (4, 5, 2),
    "xix": (3, 3, 1),
}


def pipeline(seq):
    spec = validate_sequence(*seq)
    kernel = toric_kernel(spec)
    return spec, kernel, extract_parameters(spec)


# ---------------------------------------------------------------------------
# extraction and the case table


@pytest.mark.parametrize("label", sorted(FIXTURES))
def test_fixture_roundtrip(label):
    """Template generators are a basis of the same ideal: every lead of the
    reduced basis appears among their leads, and reducing them reproduces it
    exactly.  (They are not always tail-reduced, and one shape carries a
    redundant member, so neither set equality holds in general.)"""
    seq = FIXTURES[label]
    spec, kernel, params = pipeline(seq)
    assert case_id(params).label == label
    assert case_id(params).betti == TRIPLES[label]
    gens = template_polys(params, spec)
    order = curve_ring(spec).order()
    template_leads = {g.lead(order) for g in gens}
    assert {g.lead(order) for g in kernel.reduced_gb.elements} <= template_leads
    assert len(gens) - len(kernel.reduced_gb.elements) in (0, 1)
    rebuilt = reduce_basis(buchberger(gens))
    assert {render_terms(g) for g in rebuilt.elements} == {
        render_terms(g) for g in kernel.reduced_gb.elements
    }


def render_terms(p):
    return tuple(sorted(p.terms.items()))


def test_reference_tuple_parameters():
    spec, kernel, params = pipeline((5, 7, 9, 11))
    assert params == CaseParameters(
        plain_offset=1,
        cross_offset=2,
        x0_plain=1,
        x0_pure=3,
        x0_cross=4,
        x2_plain=1,
        x2_cross=0,
        y_order=2,
        y_split=1,
        has_cross=True,
    )
    assert case_id(params).label == "iv"
    assert case_id(params).betti == (5, 5, 1)


def test_template_mismatch_families():
    """Both structural reasons to refuse: Y-free plain tails, and equal X2
    exponents crowding out the pure tail."""
    spec = validate_sequence(6, 8, 10, 7)
    with pytest.raises(TemplateMismatch):
        extract_parameters(spec)


def _parameters_or_refusal(extract, source):
    try:
        return extract(source)
    except TemplateMismatch as exc:
        return "TemplateMismatch: %s" % exc


def _reads_as_the_basis(spec) -> bool:
    """Are the parameters from Γ, or the refusal text, the ones the kernel's
    reduced basis gives?"""
    basis_reading = _parameters_or_refusal(extract_parameters_from_basis, toric_kernel(spec))
    return _parameters_or_refusal(extract_parameters, spec) == basis_reading


def test_parameters_from_the_semigroup_match_the_basis_reading():
    """On every valid tuple with m2 <= 30 and n <= 30, glued ones included,
    and on two with large m0, the sequence alone gives the parameters, or
    the refusal, that the kernel's reduced basis gives."""
    specs = list(enumerate_box(30, 30))
    assert len(specs) == 2124
    large = [validate_sequence(10007, 10008, 10009, 123457), validate_sequence(100003, 100004, 100005, 1234567)]
    assert [spec for spec in specs + large if not _reads_as_the_basis(spec)] == []
    refused = [spec for spec in specs if isinstance(_parameters_or_refusal(extract_parameters, spec), str)]
    assert refused and validate_sequence(6, 8, 10, 7) in refused


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(61, 400), st.integers(1, 60), st.integers(1, 800)),
        st.tuples(st.integers(61, 1500), st.integers(1, 300), st.integers(1, 4000)),
    )
)
@example((100, 10, 77))  # glued: gcd(m0, d) = 10 is the least multiple of n in <m0, m1, m2>
@example((1200, 250, 3001))  # glued, gcd 50
def test_parameters_match_the_basis_reading_beyond_the_box(curve):
    m0, d, n = curve
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        assume(False)
    assert _reads_as_the_basis(spec)


def test_parameters_read_no_kernel(monkeypatch):
    """With every entry to the kernel and its certificate patched to raise,
    the parameters still come out, and the glued tuple is still refused."""

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel was read")

    for name in ("toric_kernel", "toric_kernel_generic", "buchberger"):
        monkeypatch.setattr(groebner, name, refuse)
    monkeypatch.setattr(closedform, "buchberger", refuse)
    for label, seq in FIXTURES.items():
        assert case_id(extract_parameters(validate_sequence(*seq))).label == label
    with pytest.raises(TemplateMismatch, match=r"plain exponents \(q=1, l=3, w=0\) out of range"):
        extract_parameters(validate_sequence(6, 8, 10, 7))


def test_bare_pure_tail_is_supported():
    """A pure relation with no X1/X2 factor is the no-cross family, not an
    error."""
    spec, kernel, params = pipeline((6, 7, 8, 9))
    assert not params.has_cross
    assert params.x2_plain == params.x2_cross
    assert case_id(params).label == "xviii"
    gens = template_polys(params, spec)
    buchberger(gens)  # certifies them, else an AssertionError
    assert is_groebner(gens, curve_ring(spec).order())


def test_case_table_shape():
    labels = [row.label for row in CASE_TABLE]
    assert len(labels) == 19 == len(set(labels))
    assert labels == [
        "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
        "xi", "xii", "xiii", "xiv", "xv", "xvi", "xvii", "xviii", "xix",
    ]
    allowed = {
        (3, 3, 1), (4, 5, 2), (4, 6, 3), (5, 5, 1),
        (5, 6, 2), (5, 7, 3), (6, 8, 3), (6, 9, 4),
    }
    assert {row.betti for row in CASE_TABLE} == allowed


def test_case_rows_disjoint_on_fixtures():
    """Every fixture satisfies exactly one row -- case_id would raise on
    overlap, so this pins the table's mutual exclusivity where it matters."""
    for label, seq in FIXTURES.items():
        _, _, params = pipeline(seq)
        assert case_id(params).label == label


def test_parameter_validation_rejects_nonsense():
    good = dict(
        plain_offset=1, cross_offset=2, x0_plain=1, x0_pure=3, x0_cross=4,
        x2_plain=1, x2_cross=0, y_order=2, y_split=1, has_cross=True,
    )
    CaseParameters(**good).validate()
    for field, bad, message in [
        ("plain_offset", 3, "family offsets must be 1 or 2"),
        ("x0_plain", 0, "tail X0 budgets must be at least 1"),
        ("x2_plain", 0, "plain X2 exponent below cross X2 exponent"),
        ("y_split", 2, "Y split must lie strictly inside"),   # must stay below y_order
        ("x0_cross", 7, "cross X0 budget 7 is not plain"),  # breaks the budget identity
    ]:
        with pytest.raises(TemplateMismatch, match=message):
            CaseParameters(**{**good, field: bad})  # refused when made


def test_unvalidatable_generators_raise():
    spec = validate_sequence(5, 7, 9, 11)
    _, _, params = pipeline((7, 9, 11, 10))
    with pytest.raises(DegreeImbalance):
        canonical_generators(params, spec)  # parameters from another curve


# ---------------------------------------------------------------------------
# closed-form complexes


@pytest.mark.parametrize("label", sorted(FIXTURES))
def test_closed_form_matches_generic(label):
    seq = FIXTURES[label]
    spec, kernel, params = pipeline(seq)
    closed = closed_form_resolution(params, canonical_generators(params, spec), curve_ring(spec))
    closed.validate()
    generic = minimalize(build_resolution(kernel.reduced_gb))
    assert closed.ranks == generic.ranks == (1,) + TRIPLES[label]
    assert hilbert_numerator(closed) == hilbert_numerator(generic)
    for ours, theirs in zip(closed.modules, generic.modules):
        assert sorted(ours.twists) == sorted(theirs.twists)


def test_base_complex_trims_degenerate_entries():
    """Degenerate parameter values leave unit entries in the base complex;
    minimalization removes exactly the tabulated amount."""
    spec, _, params = pipeline((7, 9, 11, 10))  # x0_pure = 0 here
    gens = canonical_generators(params, spec)
    base = closed_form_base(params, gens, curve_ring(spec))
    base.validate()
    assert base.ranks == (1, 5, 7, 3)
    assert closed_form_resolution(params, gens, curve_ring(spec)).ranks == (1, 4, 6, 3)

    spec, _, params = pipeline((10, 11, 12, 8))  # no cross family survives
    gens = canonical_generators(params, spec)
    base = closed_form_base(params, gens, curve_ring(spec))
    base.validate()
    assert base.ranks == (1, 4, 5, 2)
    assert closed_form_resolution(params, gens, curve_ring(spec)).ranks == (1, 3, 3, 1)


def test_closed_form_requires_a_case():
    """Parameters that satisfy the shape rules but sit on the one impossible
    condition combination (no Y left for the pure tail) match no table row."""
    spec = validate_sequence(6, 8, 10, 7)
    bogus = CaseParameters(
        plain_offset=1, cross_offset=2, x0_plain=1, x0_pure=0, x0_cross=1,
        x2_plain=1, x2_cross=0, y_order=2, y_split=1, has_cross=True,
    )
    bogus.validate()
    # no curve carries these parameters, so they have no generator row, and
    # no case
    with pytest.raises(DegreeImbalance):
        canonical_generators(bogus, spec)
    with pytest.raises(CaseUnmatched, match="no table row covers"):
        case_id(bogus)


# ---------------------------------------------------------------------------
# tabulated twist lists


def shifts_and_computed(label):
    seq = FIXTURES[label]
    spec, kernel, params = pipeline(seq)
    case = case_id(params)
    tabulated = graded_shifts(case, params, spec)
    closed = closed_form_resolution(params, canonical_generators(params, spec), curve_ring(spec))
    computed = [sorted(m.twists) for m in closed.modules[1:]]
    return tabulated, computed


@pytest.mark.parametrize(
    "label", ["i", "ii", "iii", "iv", "v", "vi", "vii", "ix", "xviii", "xix"]
)
def test_twist_tables_match_where_correct(label):
    tabulated, computed = shifts_and_computed(label)
    assert [sorted(part) for part in tabulated] == computed


# printed value vs the degree the minimal resolution actually has, per level;
# these rows of the tables carry transcription slips in the source material
KNOWN_TWIST_SLIPS = {
    "viii": {1: ([12, 15], [16, 19]), 2: ([22], [26])},
    "x": {2: ([59], [50])},
    "xi": {1: ([22], [15]), 2: ([29, 30], [22, 25]), 3: ([47], [40])},
    "xii": {1: ([21], [15]), 2: ([27], [21])},
    "xiii": {1: ([36], [28]), 2: ([44, 45], [36, 37])},
    "xiv": {1: ([46], [36])},
    "xv": {1: ([36], [20]), 2: ([60, 82], [42, 44]), 3: ([78], [66])},
    "xvi": {3: ([52], [])},
}


@pytest.mark.parametrize("label", sorted(KNOWN_TWIST_SLIPS))
def test_twist_tables_surface_known_slips(label):
    """The tables are returned verbatim, so their slips are visible and
    stable: exactly these values differ, at exactly these levels."""
    tabulated, computed = shifts_and_computed(label)
    slips = KNOWN_TWIST_SLIPS[label]
    for level in range(3):
        table = sorted(tabulated[level])
        got = computed[level]
        table_only = sorted(_multiset_sub(table, got))
        computed_only = sorted(_multiset_sub(got, table))
        expected = slips.get(level + 1, ([], []))
        assert (table_only, computed_only) == expected, "level %d" % (level + 1)


def _multiset_sub(left, right):
    rest = list(right)
    out = []
    for item in left:
        if item in rest:
            rest.remove(item)
        else:
            out.append(item)
    return out


def test_surplus_tabulated_entry_is_returned():
    """One row lists three top-level twists for a rank-2 module; the surplus
    entry must come back rather than being censored."""
    tabulated, computed = shifts_and_computed("xvi")
    assert len(tabulated[2]) == 3 and len(computed[2]) == 2


def test_shift_expression_walker_is_strict():
    assert eval_shift("2*m1 + x0_plain*m0", {"m0": 5, "m1": 7, "x0_plain": 3}) == 29
    with pytest.raises(ValueError):
        eval_shift("m0 ** 2", {"m0": 5})
    with pytest.raises(ValueError):
        eval_shift("__import__('os')", {})
    with pytest.raises(ValueError):
        eval_shift("unknown + 1", {})


@pytest.mark.parametrize(
    "bad",
    ["m0 ** 2", "unknown + 1", "x0_plain * has_cross", "__import__('os')", "2 *", "m0 / 2", "x0_plain*m0 == m1"],
)
def test_shift_rows_are_checked_at_load(bad):
    row = {"s": ["2*m1"], "p": ["x0_plain*m0 + 1"], "q": [bad]}
    with pytest.raises(ValueError):
        _shift_row(row)
    row["q"] = ["-(y_order - y_split)*n + 3*m2"]
    _shift_row(row)


@pytest.mark.parametrize(
    "bad",
    [
        "x0_pure < 1", "x0_pure", "x0_pure == 1 == 2", "3 == x0_pure", "y_order != 2", "x2_gap == one",
        "x0_pure == 0 or has_cross", "x0_pure == 0 and y_order == 2", "x0_pure != -1",
    ],
)
def test_case_conditions_are_checked_at_load(bad):
    with pytest.raises(ValueError):
        _case_code([("has_cross", bad)])
    _case_code([("has_cross", "x2_gap != 1"), ("no_cross",)])


@st.composite
def case_parameters(draw):
    """CaseParameters that pass validate(), which runs when they are made,
    with and without a cross family; the cross X0 budget is mostly the one
    validate requires."""
    a, b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    lam, mu = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    qc = draw(st.integers(0, 3))
    q = qc + draw(st.integers(0, 3))
    v = draw(st.integers(2, 6))
    nu = draw(st.sampled_from([lam + mu + (a > b), lam + mu, lam + mu + 1]))
    w, has_cross = draw(st.integers(1, v - 1)), draw(st.booleans())
    try:
        return CaseParameters(a, b, lam, mu, nu, q, qc, v, w, has_cross)
    except TemplateMismatch:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(case_parameters())
def test_compiled_case_match_agrees_with_rows(params):
    """The compiled matcher returns the row the row-by-row reference finds,
    or raises CaseUnmatched with the same message."""
    try:
        expected = case_id_by_rows(params)
    except CaseUnmatched as exc:
        with pytest.raises(CaseUnmatched) as got:
            case_id(params)
        assert str(got.value) == str(exc)
    else:
        assert case_id(params) is expected


def test_case_overlap_is_refused(monkeypatch):
    _, _, params = pipeline((5, 7, 9, 11))
    monkeypatch.setattr(closedform, "_CASE_CODE", _case_code([("x0_pure == x0_pure",)] * len(CASE_TABLE)))
    with pytest.raises(CaseUnmatched, match=r"table rows \['i', 'ii', .*\] overlap on"):
        case_id(params)


def test_case_conditions_parse_to_field_op_operand():
    """The reference's parser, which ``case_id_by_rows`` reads the table with."""
    assert parse_condition(" x2_gap != 1 ")[::2] == ("x2_gap", 1)
    assert parse_condition("x2_plain==x2_cross")[::2] == ("x2_plain", "x2_cross")
    assert parse_condition("no_cross")[::2] == ("has_cross", False)
    for bad in ["x0_pure < 1", "x0_pure", "x0_pure == 1 == 2", "3 == x0_pure", "y_order != 2", "x2_gap == one"]:
        with pytest.raises(ValueError):
            parse_condition(bad)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=20, deadline=None)
@given(
    m0=st.integers(min_value=4, max_value=24),
    d=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=2, max_value=30),
)
def test_extraction_roundtrip_property(m0, d, n):
    """Whenever extraction succeeds, the template generators span the same
    ideal (reducing them reproduces the reduced basis) and the lookup equals
    the computed triple."""
    try:
        spec = validate_sequence(m0, m0 + d, m0 + 2 * d, n)
    except ValidationError:
        return
    kernel = toric_kernel(spec)
    try:
        params = extract_parameters(spec)
    except (TemplateMismatch, DegreeImbalance):
        return
    gens = template_polys(params, spec)
    order = curve_ring(spec).order()
    assert {g.lead(order) for g in kernel.reduced_gb.elements} <= {
        g.lead(order) for g in gens
    }
    rebuilt = reduce_basis(buchberger(gens))
    assert {render_terms(g) for g in rebuilt.elements} == {
        render_terms(g) for g in kernel.reduced_gb.elements
    }
    triple = minimalize(build_resolution(kernel.reduced_gb)).ranks[1:]
    assert case_id(params).betti == triple


# about one draw in 25 is a valid tuple with no cross family, so the filter
# health check,
# which expects 10 kept draws before 50 dropped ones, is off for this property
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.integers(61, 200), st.integers(1, 200), st.integers(1, 600))
def test_no_cross_cones_beyond_the_box(m0, d, n):
    """Beyond the box, the mapping cones of the no-cross shapes compose to
    zero before minimalization, and their minimalization has the generic
    resolution's ranks and Hilbert numerator."""
    try:
        spec, kernel, params = pipeline((m0, m0 + d, m0 + 2 * d, n))
    except (ValidationError, TemplateMismatch, DegreeImbalance):
        assume(False)
    assume(not params.has_cross)
    base = closed_form_base(params, canonical_generators(params, spec), curve_ring(spec))
    assert all(compose_zero(a, b) for a, b in zip(base.maps, base.maps[1:]))
    closed = minimalize(base)
    generic = minimalize(build_resolution(kernel.reduced_gb))
    assert closed.ranks == generic.ranks == (1,) + case_id(params).betti
    assert hilbert_numerator(closed) == hilbert_numerator(generic)


# ---------------------------------------------------------------------------
# packed templates


def _shape(params):
    """The ``_BUILDERS`` key of the parameters' family shape."""
    return (params.plain_offset, params.cross_offset) if params.has_cross else params.plain_offset


#: (m0, d, n) of one curve per builder shape in the box, then one beyond it
SHAPE_CURVES = {
    (1, 2): [(7, 2, 10), (158, 18, 53)],
    (1, 1): [(7, 1, 6), (165, 9, 94)],
    (2, 1): [(9, 2, 12), (156, 16, 127)],
    (2, 2): [(6, 1, 10), (98, 9, 34)],
    1: [(6, 1, 9), (153, 14, 85)],
    2: [(8, 1, 12), (68, 15, 128)],
}


def _same_as_exponent_assembly(curve):
    """The packed ``closed_form_base`` of the curve against the oracle's
    exponent-tuple assembly: the same ranks, twists and decoded entries, and
    no twist above the sum of the generator degrees, half the packed
    layout's bound.  Returns the shape, or None for a curve with no
    generator row."""
    m0, d, n = curve
    try:
        spec, _, params = pipeline((m0, m0 + d, m0 + 2 * d, n))
        gens = canonical_generators(params, spec)
    except (ValidationError, TemplateMismatch, DegreeImbalance):
        return None
    ring = curve_ring(spec)
    packed, oracle = closed_form_base(params, gens, ring), closed_form_base_by_exponents(params, gens, ring)
    assert packed.ranks == oracle.ranks
    assert [module.twists for module in packed.modules] == [module.twists for module in oracle.modules]
    assert [gmap.entries for gmap in packed.maps] == [gmap.entries for gmap in oracle.maps]
    bound = sum(ring.degree(next(iter(g))) for g in gens)
    assert max(max(module.twists) for module in packed.modules) <= bound
    assert packed.maps[0].layout.top == 2 * bound
    return _shape(params)


@pytest.mark.parametrize("shape, curve", [(shape, c) for shape, cs in SHAPE_CURVES.items() for c in cs])
def test_packed_templates_match_exponent_assembly_per_shape(shape, curve):
    """Every one of the six builder shapes, in the box and beyond it."""
    assert _same_as_exponent_assembly(curve) == shape


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(1, 58), st.integers(1, 29), st.integers(1, 60)).filter(lambda t: t[0] + 2 * t[1] <= 60),
    st.tuples(st.integers(61, 200), st.integers(1, 200), st.integers(1, 600)),
))
def test_packed_templates_match_exponent_assembly(curve):
    """In and beyond the box, the templates packed as written equal the
    exponent-tuple assembly they replaced."""
    assume(_same_as_exponent_assembly(curve) is not None)


def _templates_in(layout, params, gens):
    """The generator row and the shape's two matrices packed in ``layout``,
    as ``closed_form_base`` packs them in its own."""
    s0, s1, s2, s3 = layout.steps

    def m(x0=0, x1=0, x2=0, y=0):
        return layout.full + x0 * s0 + x1 * s1 + x2 * s2 + y * s3

    rows = [{m(*e): c for e, c in g.items()} for g in gens]
    return (rows,) + tuple(closedform._BUILDERS[_shape(params)](rows, params, m))


@pytest.mark.parametrize("label", ["i", "vi", "x", "xvi", "xviii", "xix"])
def test_assembler_refuses_a_layout_too_small_for_its_twists(label):
    """A layout whose bound is under twice the largest twist is an
    AssertionError, also where every key still fits; at twice it the
    assembler gives ``closed_form_base``'s complex."""
    spec, _, params = pipeline(FIXTURES[label])
    gens, ring = canonical_generators(params, spec), curve_ring(spec)
    base = closed_form_base(params, gens, ring)
    top = max(max(module.twists) for module in base.modules)
    for small in (top, 2 * top - 1):
        layout = _Module(ring.weights, small)
        with pytest.raises(AssertionError, match="exceeds half its layout's bound"):
            closedform._assemble(ring, layout, *_templates_in(layout, params, gens))
    layout = _Module(ring.weights, 2 * top)
    fitted = closedform._assemble(ring, layout, *_templates_in(layout, params, gens))
    assert [gmap.entries for gmap in fitted.maps] == [gmap.entries for gmap in base.maps]
    assert [module.twists for module in fitted.modules] == [module.twists for module in base.modules]
