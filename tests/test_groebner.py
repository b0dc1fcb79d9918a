"""Gröbner machinery against small hand-checkable oracles."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monocurve import groebner
from monocurve.groebner import (
    _lead_labels,
    _standard_table,
    buchberger,
    is_groebner,
    is_pure_difference,
    toric_kernel,
    toric_kernel_generic,
)
from monocurve.closedform import (
    DegreeImbalance,
    TemplateMismatch,
    canonical_generators,
    extract_parameters,
)
from monocurve.poly import Poly, Ring, parse
from monocurve.semigroup import SubSemigroup, ValidationError, apery_set, validate_sequence

from oracles import (
    PositionOverTerm,
    SchreyerOrder,
    Vect,
    apery_set_walk,
    buchberger as generic_buchberger,
    decoded_frame,
    frame_matches,
    ideal_member,
    is_groebner as generic_is_groebner,
    is_homogeneous,
    lead_frame_tuples,
    lead_labels_by_scan,
    lead_minimal,
    mono_coprime,
    rank_one_key,
    record_vector,
    reduce_basis,
    replay_ok,
    toric_kernel_by_sets,
    toric_kernel_elimination,
    toric_kernel_saturation,
    vanishes_under_substitution,
)

R4 = Ring(("X0", "X1", "X2", "Y"), (5, 7, 9, 11))


def P(text, ring=R4):
    return parse(ring, text)


# reduced Gröbner basis of the defining ideal for weights (5,7,9,11); every
# element is independently certified by the degree check 2*7=5+9, 7+9=5+11,
# 2*9=7+11, 9+11=4*5, 2*11=3*5+7
REFERENCE_BASIS = [
    "X1^2 - X0*X2",
    "X1*X2 - X0*Y",
    "X2^2 - X1*Y",
    "X2*Y - X0^4",
    "Y^2 - X0^3*X1",
]


def test_buchberger_singleton():
    gb = buchberger([P("X1^2 - X0*X2")])
    assert len(gb.elements) == 1
    assert decoded_frame(gb) == []


def test_buchberger_keeps_input_prefix():
    gens = [P("X0^2"), P("X0*X1")]
    gb = buchberger(gens)
    assert gb.elements == gens
    assert generic_is_groebner(gb.elements, R4.order())
    assert frame_matches(gb, generic_buchberger(gens, R4.order()))


def test_reference_basis_is_groebner():
    gens = [P(t) for t in REFERENCE_BASIS]
    assert is_groebner(gens)
    gb = buchberger(gens)
    assert gb.elements == gens
    assert frame_matches(gb, generic_buchberger(gens, R4.order()))


def test_transcript_covers_all_pairs():
    """The generic completion records every pair; the certificate keeps the
    pairs whose syzygies are lead-minimal, each with its syzygy's lead."""
    gens = [P(t) for t in REFERENCE_BASIS]
    order = R4.order()
    generic = generic_buchberger(gens, order)
    records = sorted(generic.transcript, key=lambda r: (r.i, r.j))
    t = len(gens)
    assert [(r.i, r.j) for r in records] == [(i, j) for i in range(t) for j in range(i + 1, t)]
    leads = [(0, g.lead(order)[0]) for g in gens]
    induced = SchreyerOrder(rank_one_key(order), leads)
    vectors = [record_vector(r, R4, t) for r in records]
    kept = sorted(lead_minimal(vectors, induced))
    gb = buchberger(gens)
    assert [(pair, lead) for pair, lead, _ in decoded_frame(gb)] == [
        ((records[k].i, records[k].j), vectors[k].lead(induced)[0]) for k in kept
    ]


def test_koszul_records_replay():
    # leads are X0^2 (degree 10 beats 7) and X2*Y (degree 20 beats 14): coprime,
    # so the pair is closed by the product-criterion record instead of division
    gens = [P("X0^2 - X1"), P("X2*Y - X1^2")]
    gb = buchberger(gens)
    generic = generic_buchberger(gens, R4.order())
    assert [pair for pair, _, _ in decoded_frame(gb)] == [(0, 1)]
    assert generic.transcript[0].koszul
    assert replay_ok(generic)
    assert frame_matches(gb, generic)


def test_completion_appends():
    # x, y alone are a GB; x+y^2, y is not reduced but already a GB; use a real
    # completion case: leads X1^2 and X1*Y hide the S-pair remainder.  The
    # generic completion appends it, the certificate refuses the set, and
    # certifies the completed one.
    gens = [P("X1^2 - X0*X2"), P("X1*Y - X0^3")]
    generic = generic_buchberger(gens, R4.order())
    assert generic.elements[: len(gens)] == gens
    assert len(generic.elements) > len(gens)
    assert is_groebner(generic.elements)
    assert replay_ok(generic)
    with pytest.raises(AssertionError, match="nonzero remainder"):
        buchberger(gens)
    gb = buchberger(generic.elements)
    assert frame_matches(gb, generic_buchberger(generic.elements, R4.order()))


def test_is_groebner_detects_failure():
    assert not is_groebner([P("X1^2 - X0*X2"), P("X1*Y - X0^3")])


def test_reduce_basis_canonical():
    gb = generic_buchberger([P("X0"), P("X0 + X1")], R4.order())
    reduced = reduce_basis(gb)
    assert [str(g) for g in reduced.elements] == ["X0", "X1"]
    again = reduce_basis(reduced)
    assert again.elements == reduced.elements


def test_reduce_basis_drops_redundant_lead():
    gens = [P(t) for t in REFERENCE_BASIS]
    # pad with X2 * (X2*Y - X0^4): its lead X2^2*Y is a multiple of X2*Y
    padded = gens + [gens[3] * P("X2")]
    reduced = reduce_basis(buchberger(padded))
    assert {str(g) for g in reduced.elements} == set(REFERENCE_BASIS)


def test_ideal_member():
    gb = reduce_basis(buchberger([P(t) for t in REFERENCE_BASIS]))
    assert ideal_member(P("X1^2 - X0*X2"), gb)
    assert ideal_member(R4.zero(), gb)
    assert not ideal_member(P("X0"), gb)
    assert not ideal_member(P("X1*X2"), gb)
    # products of members stay members
    assert ideal_member(P("X1^2 - X0*X2") * P("X0 + Y"), gb)


def test_toric_kernel_three_variable_oracle():
    ring, gb = toric_kernel_generic((3, 4, 5))
    expected = {
        parse(ring, "y^2 - x*z"),
        parse(ring, "x^3 - y*z"),
        parse(ring, "x^2*y - z^2"),
    }
    got = set(gb.elements) | {-g for g in gb.elements}
    assert all(e in got for e in expected)
    assert len(gb.elements) == 3


def test_toric_kernel_two_variable_oracle():
    ring, gb = toric_kernel_generic((1, 2))
    assert len(gb.elements) == 1
    g = gb.elements[0]
    assert g == parse(ring, "y - x^2") or g == parse(ring, "-y + x^2")


def test_toric_kernel_reference_tuple():
    spec = validate_sequence(5, 7, 9, 11)
    ideal = toric_kernel(spec)
    elements = ideal.reduced_gb.elements
    assert elements[0].ring == R4
    assert P("X1^2 - X0*X2") in elements
    texts = {str(g) for g in elements}
    assert texts == set(REFERENCE_BASIS)
    assert is_groebner(elements)
    assert frame_matches(ideal.reduced_gb, generic_buchberger(elements, R4.order()))


def test_toric_ideal_invariants():
    for seq in [(5, 7, 9, 11), (7, 9, 11, 5), (4, 7, 10, 13), (10, 13, 16, 7)]:
        spec = validate_sequence(*seq)
        ideal = toric_kernel(spec)
        ideal.validate()  # pure differences, homogeneous, substitution-vanishing
        for g in ideal.reduced_gb.elements:
            assert is_pure_difference(g)
            assert is_homogeneous(g, g.ring) is not None
            assert vanishes_under_substitution(g, g.ring.weights)


def test_toric_ideal_refuses_a_pure_difference_of_unequal_degrees():
    """validate has no homogeneity pass of its own: for a pure difference
    the substitution test is the same test, so it must refuse this one."""
    ideal = toric_kernel(validate_sequence(5, 7, 9, 11))
    bad = P("X1^2 - X0*X1")  # degrees 14 and 12
    assert is_pure_difference(bad) and is_homogeneous(bad, R4) is None
    ideal.reduced_gb.elements = ideal.reduced_gb.elements + [bad]
    with pytest.raises(AssertionError, match="does not vanish under substitution"):
        ideal.validate()


def test_binomial_membership_matches_degree_oracle():
    """A pure-difference binomial lies in the kernel iff its two monomials
    have the same weighted degree (both sides then map to the same t-power)."""
    spec = validate_sequence(5, 7, 9, 11)
    ideal = toric_kernel(spec)
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        if a == b:
            continue
        f = R4.monomial(a) - R4.monomial(b)
        same_degree = R4.degree(a) == R4.degree(b)
        assert ideal_member(f, ideal.reduced_gb) == same_degree
        checked += 1
    assert checked > 250


def test_buchberger_idempotent_up_to_reduction():
    # not a basis: the generic completion first, then the certificate
    gens = [P("X1^2 - X0*X2"), P("X1*Y - X0^3"), P("X2^3 - X0*X1*Y")]
    r1 = reduce_basis(generic_buchberger(gens, R4.order()))
    r2 = reduce_basis(buchberger(r1.elements))
    assert r1.elements == r2.elements


def test_module_pair_with_coprime_leads_is_reduced():
    # leads X0*e0 and X1*e0 are coprime at the same position, yet their
    # S-pair leaves (0, X1*X2): the product criterion holds only in the ring
    f = Vect.from_polys([P("X0"), P("X2")])
    g = Vect.from_polys([P("X1"), R4.zero()])
    gb = generic_buchberger([f, g], PositionOverTerm(R4.order()))
    assert len(gb.elements) == 3
    assert gb.elements[2] == Vect.from_polys([R4.zero(), P("X1*X2")])


def test_rejects_zero_generator():
    with pytest.raises(ValueError):
        buchberger([R4.zero()])


# the two kernel constructions are independent algorithms; agreement on the
# reduced basis is a strong cross-check of both


@pytest.mark.parametrize(
    "weights",
    [
        (3, 4, 5),
        (5, 6, 7),
        (5, 7, 9, 6),
        (4, 5, 6, 7),
        (5, 7, 9, 11),
        (7, 9, 11, 10),
        (6, 7, 8, 9),
        (8, 9, 10, 13),
    ],
)
def test_elimination_and_lattice_kernels_agree(weights):
    ring_e, gb_e = toric_kernel_elimination(weights)
    ring_l, gb_l = toric_kernel_generic(weights)
    assert ring_e.names == ring_l.names and ring_e.weights == ring_l.weights
    as_terms = lambda gb: [sorted(p.terms.items()) for p in gb.elements]
    assert as_terms(gb_e) == as_terms(gb_l)


# the Apéry-set kernel against lattice saturation in generic arithmetic: a
# reduced basis is unique, so the elements must match exactly, and each
# frame column the syzygy of the generic record of its pair


def _valid(weights):
    try:
        validate_sequence(*weights)
    except ValidationError:
        return False
    return True


ARITHMETIC_WEIGHTS = st.one_of(
    # the box-60 family: m2 <= 60, n <= 60
    st.tuples(st.integers(1, 58), st.integers(1, 29), st.integers(1, 60)).filter(
        lambda t: t[0] + 2 * t[1] <= 60
    ),
    # beyond it
    st.tuples(st.integers(61, 200), st.integers(1, 20), st.integers(1, 300)),
).map(lambda t: (t[0], t[0] + t[1], t[0] + 2 * t[1], t[2]))


@settings(max_examples=80, deadline=None)
@given(ARITHMETIC_WEIGHTS.filter(_valid))
@example((1, 2))
@example((3, 4, 5))
@example((5, 6, 7))
@example((5, 7, 9, 11))
# common factors of some or all weights
@example((6, 10, 15))
@example((2, 4, 6, 7))
@example((4, 6, 10))
# a weight the others generate
@example((1, 5, 17))
# w0 not the least weight, and a repeated weight
@example((36, 26, 26))
@example((5, 7, 9, 13, 17))
def test_binomial_kernel_matches_poly_saturation(weights):
    ring, gb = toric_kernel_generic(weights)
    ring_o, gb_o = toric_kernel_saturation(weights)
    assert ring == ring_o
    assert gb.elements == gb_o.elements
    assert frame_matches(gb, gb_o)


# the int-label kernel against the tuple-and-set version it replaced: the
# same elements in the same order, and the same frame


def _kernel_outcome(kernel, weights):
    try:
        ring, gb = kernel(weights)
    except ValueError as exc:  # a single weight leaves nothing to complete
        return type(exc), str(exc)
    return ring, gb.elements, decoded_frame(gb)


@settings(max_examples=200, deadline=None)
@given(st.one_of(ARITHMETIC_WEIGHTS, st.lists(st.integers(1, 30), min_size=1, max_size=5).map(tuple)))
@example((1, 2))
@example((3, 5, 7))
@example((4, 6, 9))
# common factors of some or all weights
@example((6, 10, 15))
@example((2, 4, 6, 7))
# a repeated weight, and w0 not the least weight
@example((36, 26, 26))
@example((5, 7, 9, 13, 17))
@example((5, 7, 11, 13, 17))
def test_kernel_matches_set_based_reference(weights):
    outcome = _kernel_outcome(toric_kernel_generic, weights)
    assert outcome == _kernel_outcome(toric_kernel_by_sets, weights)


# the staircase walk against the residue scan it replaced: the same lead
# labels, each once, from the same table


def _reduced(weights):
    g = math.gcd(*weights)
    return tuple(v // g for v in weights)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        ARITHMETIC_WEIGHTS,
        st.lists(st.integers(1, 30), min_size=1, max_size=5).map(tuple),
        # a common factor of every weight
        st.tuples(st.lists(st.integers(1, 12), min_size=1, max_size=5), st.integers(2, 5)).map(
            lambda t: tuple(v * t[1] for v in t[0])
        ),
    )
)
@example((7,))
@example((1, 2))
@example((1, 1, 1))
@example((6, 10, 15))
@example((36, 26, 26))
@example((5, 7, 9, 13, 17))
@example((30, 7, 9, 11, 13))
def test_lead_walk_matches_residue_scan(weights):
    table, module = _standard_table(_reduced(weights))
    walk = _lead_labels(table, module)
    assert sorted(walk) == sorted(lead_labels_by_scan(table, module))


class _CountingTable(list):
    """A list that counts its index lookups."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return list.__getitem__(self, index)


def test_lead_walk_lookups_follow_the_staircase_not_m0():
    table, module = _standard_table((100003, 100004, 100005, 1234567))
    walked, scanned = _CountingTable(table), _CountingTable(table)
    leads = _lead_labels(walked, module)
    assert sorted(leads) == sorted(lead_labels_by_scan(scanned, module))
    assert walked.lookups <= 3000
    assert scanned.lookups >= 100003


def _least_labels(w, top):
    """Per value t <= top, the lexicographically least (t, -e_1, .., -e_k)
    over all ways to write t as a sum of w[1:], else None: the last summand
    is one of w[1:], so dynamic programming over t settles it."""
    best = [(0,) * len(w)] + [None] * top
    for t in range(1, top + 1):
        for j in range(1, len(w)):
            if w[j] <= t and best[t - w[j]] is not None:
                e = list(best[t - w[j]])
                e[0], e[j] = t, e[j] - 1
                if best[t] is None or tuple(e) < best[t]:
                    best[t] = tuple(e)
    return best


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=5))
@example([36, 26, 26])
@example([6, 10, 15])
@example([5, 7, 9, 13, 17])
def test_kernel_table_is_the_apery_set_with_least_monomials(weights):
    g = math.gcd(*weights)
    w = tuple(v // g for v in weights)
    packed, module = _standard_table(w)
    table = [(label >> module.mb, *(-e for e in module.decode(label)[1])) for label in packed]
    # the ints compare as the (degree, -e_1, .., -e_k) tuples they pack
    by_int = sorted(range(w[0]), key=packed.__getitem__)
    assert by_int == sorted(range(w[0]), key=table.__getitem__)
    least = [label[0] for label in table]
    assert [a % w[0] for a in least] == list(range(w[0]))
    semigroup = SubSemigroup(w)
    assert set(least) == apery_set(semigroup, w[0]) == apery_set_walk(semigroup, w[0])
    best = _least_labels(w, max(least))
    assert table == [best[a] for a in least]
    assert packed == [module.encode(0, 0, [-e for e in best[a][1:]]) for a in least]


# the binomial certificate and Gröbner check against the generic ones, on the
# template generating sets of curves and on the same sets with one generator
# dropped (often no longer a basis, which the certificate must refuse)


def _template_set(weights):
    try:
        spec = validate_sequence(*weights)
        params = extract_parameters(toric_kernel(spec))
        return canonical_generators(params, spec)
    except (ValidationError, TemplateMismatch, DegreeImbalance):
        assume(False)


@settings(max_examples=100, deadline=None)
@given(ARITHMETIC_WEIGHTS.filter(lambda w: len(w) == 4), st.integers(-1, 8))
def test_binomial_routines_match_generic(weights, drop):
    gens = _template_set(weights)
    if 0 <= drop < len(gens):
        gens = gens[:drop] + gens[drop + 1 :]
    order = gens[0].ring.order()
    assert is_groebner(gens) == generic_is_groebner(gens, order)
    expected = generic_buchberger(gens, order)
    if len(expected.elements) > len(gens):
        with pytest.raises(AssertionError, match="nonzero remainder"):
            buchberger(gens)
    else:
        assert frame_matches(buchberger(gens), expected)


def _monomials_of_degree(weights, degree, cap=200) -> list:
    """Up to ``cap`` exponent tuples of the given weighted degree."""
    found = []

    def walk(prefix, rest):
        if len(found) < cap:
            if len(prefix) == len(weights) - 1:
                if rest % weights[-1] == 0:
                    found.append(prefix + (rest // weights[-1],))
                return
            for e in range(rest // weights[len(prefix)] + 1):
                walk(prefix + (e,), rest - e * weights[len(prefix)])

    walk((), degree)
    return found


@settings(max_examples=100, deadline=None)
@given(ARITHMETIC_WEIGHTS.filter(lambda w: len(w) == 4), st.data())
def test_is_groebner_verdict_on_non_bases(weights, data):
    """is_groebner divides only the lead frame's pairs whose leads are not
    coprime; its verdict must still be the all-pairs division's on sets
    drawn from a template basis that are often no basis: one tail swapped
    for another monomial of its degree, the subsets whose leads are
    pairwise coprime, the basis with a redundant element or with a second
    element of the same lead, and the empty set."""
    gens = _template_set(weights)
    ring = gens[0].ring
    order = ring.order()
    swaps = [
        (k, lead, m)
        for k, (lead, _) in enumerate(g.lead(order) for g in gens)
        for m in _monomials_of_degree(ring.weights, ring.degree(lead))
        if m not in gens[k].terms
    ]
    if swaps:
        k, lead, m = data.draw(st.sampled_from(swaps))
        swapped = gens[:k] + [Poly(ring, {lead: 1, m: -1})] + gens[k + 1 :]
        assert is_groebner(swapped) == generic_is_groebner(swapped, order)
    coprime = []
    for g in data.draw(st.permutations(gens)):
        if all(mono_coprime(g.lead(order)[0], h.lead(order)[0]) for h in coprime):
            coprime.append(g)
    assert is_groebner(coprime) == generic_is_groebner(coprime, order)
    # a redundant ideal element, its lead a multiple of another lead: the
    # frame drops the pairs its lead makes redundant
    k, v = data.draw(st.integers(0, len(gens) - 1)), data.draw(st.integers(0, ring.nvars - 1))
    padded = gens + [gens[k] * ring.monomial(tuple(int(u == v) for u in range(ring.nvars)))]
    assert is_groebner(padded) == generic_is_groebner(padded, order)
    # two elements with one lead: the frame keeps one of their pairs
    lower = [(k, lead, m) for k, lead, m in swaps if order.key(m) < order.key(lead)]
    if lower:
        k, lead, m = data.draw(st.sampled_from(lower))
        shared = gens + [Poly(ring, {lead: 1, m: -1})]
        assert is_groebner(shared) == generic_is_groebner(shared, order)
    assert is_groebner([]) == generic_is_groebner([], order)


def test_is_groebner_divides_every_pair_sharing_a_variable(monkeypatch):
    """One ``pair_records`` call, on every pair whose leads share a
    variable: on the reference basis five of the ten, all of them lead
    frame pairs; on three elements with leads y*z^2, z^3 and y^2*z all
    three, though the frame leaves out (1, 2)."""
    ring = Ring(("x", "y", "z"), (1, 1, 1))
    calls = []
    original = groebner.pair_records

    def spy(module, syz, columns, pairs, leads):
        calls.append(list(pairs))
        return original(module, syz, columns, pairs, leads)

    monkeypatch.setattr(groebner, "pair_records", spy)
    for gens, divided, left_out in (
        ([P(t) for t in REFERENCE_BASIS], [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)], set()),
        ([P(t, ring) for t in ("x^2*z - y*z^2", "x*y*z - z^3", "y^2*z - x*z^2")], [(0, 1), (0, 2), (1, 2)], {(1, 2)}),
    ):
        order = gens[0].ring.order()
        leads = [(0, g.lead(order)[0]) for g in gens]
        pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
        assert divided == [(i, j) for i, j in pairs if not mono_coprime(leads[i][1], leads[j][1])]
        frame = [pair for pair, _ in lead_frame_tuples(leads, SchreyerOrder(rank_one_key(order), leads))]
        assert set(divided) - set(frame) == left_out
        calls.clear()
        assert is_groebner(gens) and generic_is_groebner(gens, order)
        assert [sorted(pairs) for pairs in calls] == [divided]


def test_is_groebner_sees_a_dropped_generator():
    gens = [P(t) for t in REFERENCE_BASIS]
    assert not is_groebner(gens[:2] + gens[3:])
    assert not generic_is_groebner(gens[:2] + gens[3:], R4.order())


def test_is_groebner_with_a_shared_lead():
    """Two elements with the lead z^2 leave y^2 - x*y, so they are a basis
    only with it, whichever place it takes."""
    ring = Ring(("x", "y", "z"), (1, 1, 1))
    order = ring.order()
    shared = [P("z^2 - x*y", ring), P("z^2 - y^2", ring)]
    third = P("y^2 - x*y", ring)
    for gens, verdict in ((shared, False), (shared + [third], True), ([third] + shared, True)):
        assert is_groebner(gens) == generic_is_groebner(gens, order) == verdict


def test_binomial_routines_refuse_other_polynomials():
    with pytest.raises(ValueError):
        buchberger([P("X0 + X1")])
    with pytest.raises(ValueError):
        is_groebner([P("X1^2 - X0*X2"), P("X0^2")])
