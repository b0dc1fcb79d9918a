"""Polynomial core: order axioms, division contract, text round-trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocurve.groebner import _Module
from monocurve.poly import GrevlexOrder, Poly, Ring, divide, parse, render, s_polynomial

from oracles import (
    EliminationOrder,
    PositionOverTerm,
    SchreyerOrder,
    Vect,
    extended,
    is_homogeneous,
    packed,
    rank_one_key,
    unpacked,
)

R4 = Ring(("X0", "X1", "X2", "Y"), (5, 7, 9, 11))


def P(text):
    return parse(R4, text)


monos = st.tuples(*(st.integers(0, 6) for _ in range(4)))


def test_compare_reference_pairs():
    order = R4.order()
    # equal weighted degree 14; first differing exponent is X0 (0 vs 1)
    assert order.key((0, 2, 0, 0)) > order.key((1, 0, 1, 0))
    # equal weighted degree 45; X0 exponent 9 vs 0, smaller wins
    assert order.key((9, 0, 0, 0)) < order.key((0, 1, 3, 1))
    assert order.key((2, 1, 0, 3)) == order.key((2, 1, 0, 3))
    # pure degree comparison
    assert order.key((0, 0, 0, 1)) > order.key((1, 0, 0, 0))


def test_weighted_degree():
    assert R4.degree((0, 2, 0, 0)) == 14
    assert R4.degree((5, 0, 0, 1)) == 36
    assert R4.degree((0, 0, 0, 0)) == 0


@given(monos, monos)
@settings(max_examples=300)
def test_order_total(a, b):
    order = R4.order()
    ka, kb = order.key(a), order.key(b)
    assert [ka < kb, ka == kb, ka > kb].count(True) == 1
    assert (ka == kb) == (a == b)


@given(monos, monos, monos)
@settings(max_examples=300)
def test_order_multiplicative(a, b, c):
    order = R4.order()
    shifted_a = tuple(x + y for x, y in zip(a, c))
    shifted_b = tuple(x + y for x, y in zip(b, c))
    ka, kb = order.key(a), order.key(b)
    shifted_ka, shifted_kb = order.key(shifted_a), order.key(shifted_b)
    assert (ka < kb, ka > kb) == (shifted_ka < shifted_kb, shifted_ka > shifted_kb)


@given(monos)
def test_order_one_minimal(a):
    order = R4.order()
    assert order.key(a) >= order.key((0, 0, 0, 0))


@given(monos, monos)
@settings(max_examples=200)
def test_degree_compatible(a, b):
    order = R4.order()
    if R4.degree(a) > R4.degree(b):
        assert order.key(a) > order.key(b)


def test_elimination_order_blocks():
    ext = extended(R4)
    order = EliminationOrder(ext)
    # any T beats no T, regardless of weighted degree
    assert order.key((0, 0, 0, 0, 1)) > order.key((9, 9, 9, 9, 0))
    # T-free comparisons agree with plain grevlex
    assert order.key((0, 2, 0, 0, 0)) > order.key((1, 0, 1, 0, 0))


def test_arithmetic_identities():
    f = P("X1^2 - X0*X2")
    g = P("Y^2 - X0^3*X1")
    assert (f + g) - g == f
    assert f - f == R4.zero()
    assert f * R4.zero() == R4.zero()
    assert (f * g).terms == (g * f).terms
    assert f * 1 == f and (-1) * f == -f
    h = P("X0 + X1")
    assert h * h == P("X0^2 + 2*X0*X1 + X1^2")


@given(monos, monos)
def test_homogeneous_product_degree(a, b):
    f = R4.monomial(a, 3)
    g = R4.monomial(b, Fraction(1, 2))
    fg = f * g
    assert is_homogeneous(fg, R4) == R4.degree(a) + R4.degree(b)


def test_is_homogeneous():
    assert is_homogeneous(P("X1^2 - X0*X2"), R4) == 14
    assert is_homogeneous(P("X0 + X1"), R4) is None
    assert is_homogeneous(P("Y^2 - X0^3*X1"), R4) == 22
    assert is_homogeneous(R4.zero(), R4) is None


def test_divide_single_step():
    quots, rem = divide(P("X1^3"), [P("X1^2 - X0*X2")], R4.order())
    assert quots[0] == P("X1")
    assert rem == P("X0*X1*X2")


def test_divide_self():
    g = P("X1^2 - X0*X2")
    quots, rem = divide(g, [g], R4.order())
    assert quots[0] == R4.one()
    assert rem.is_zero


def test_divide_reduction_with_cofactor():
    # X0*X2^(q+1) - X0^λ*X1*Y^w reduces to zero by X2^(q+1) - X0^(λ-1)*X1*Y^w
    q, lam, w = 2, 3, 1
    f = P(f"X0*X2^{q+1} - X0^{lam}*X1*Y^{w}")
    g = P(f"X2^{q+1} - X0^{lam-1}*X1*Y^{w}")
    quots, rem = divide(f, [g], R4.order())
    assert rem.is_zero
    assert quots[0] == P("X0")


def positioned_terms(max_size):
    return st.lists(
        st.tuples(st.integers(0, 1), monos, st.integers(-4, 4)), min_size=1, max_size=max_size
    )


@given(positioned_terms(5), positioned_terms(4), positioned_terms(4))
@settings(max_examples=150, deadline=None)
def test_divide_reconstructs(f_terms, g_terms, h_terms):
    # ring elements: positions ignored, one divisor
    f = Poly(R4, {m: c for _, m, c in f_terms})
    g = Poly(R4, {m: c for _, m, c in g_terms})
    if not g.is_zero:
        order = R4.order()
        quots, rem = divide(f, [g], order)
        assert quots[0] * g + rem == f
        gm = g.lead(order)[0]
        for m in rem.terms:
            assert not all(x <= y for x, y in zip(gm, m))
    # module elements of R^2: a lead divides only terms at its own position
    order = PositionOverTerm(R4.order())
    fv = Vect(R4, 2, {(p, m): c for p, m, c in f_terms})
    divisors = [Vect(R4, 2, {(p, m): c for p, m, c in t}) for t in (g_terms, h_terms)]
    divisors = [d for d in divisors if not d.is_zero]
    if not divisors:
        return
    quots, rem = divide(fv, divisors, order)
    total = rem
    for q, d in zip(quots, divisors):
        total = q * d + total
    assert total == fv
    leads = [d.lead(order)[0] for d in divisors]
    for pos, m in rem.terms:
        for lead_pos, lead_mono in leads:
            assert not (lead_pos == pos and all(x <= y for x, y in zip(lead_mono, m)))


def test_spair_reference():
    # leads X1^2 and X1*X2^q cancel into the lcm X1^2*X2^q
    q, lam, w = 3, 2, 1
    xi = P("X1^2 - X0*X2")
    phi0 = P(f"X1*X2^{q} - X0^{lam}*Y^{w}")
    spoly, cof_f, cof_g = s_polynomial(xi, phi0, R4.order())
    assert cof_f == P(f"X2^{q}")
    assert cof_g == P("X1")
    assert spoly == cof_f * xi - cof_g * phi0
    assert spoly == P(f"-X0*X2^{q+1} + X0^{lam}*X1*Y^{w}")


def test_spair_module_positions():
    order = PositionOverTerm(R4.order())
    a = Vect(R4, 2, {(0, (1, 0, 0, 0)): 1})
    b = Vect(R4, 2, {(1, (0, 1, 0, 0)): 1})
    assert s_polynomial(a, b, order) is None
    c = Vect(R4, 2, {(0, (0, 1, 0, 0)): 1})
    spoly, _, _ = s_polynomial(a, c, order)
    assert spoly.is_zero


def test_mono_lcm():
    assert Poly.key_lcm((1, 0, 2, 0), (0, 3, 1, 0)) == (1, 3, 2, 0)


def test_schreyer_order_uses_parent_leads():
    # leads X1^2 and X2^3 in F_0 = R: compare e_0, e_1 through their images
    leads = [(0, (0, 2, 0, 0)), (0, (0, 0, 3, 0))]
    order = SchreyerOrder(rank_one_key(R4.order()), leads)
    e0 = (0, (0, 0, 0, 0))
    e1 = (1, (0, 0, 0, 0))
    # images have degrees 14 and 27
    assert order.key(e1) > order.key(e0)
    # equal images: X2^3*e0 vs X1^2*e1 map to X1^2*X2^3 both; the
    # lexicographically smaller cofactor wins
    a = (0, (0, 0, 3, 0))
    b = (1, (0, 2, 0, 0))
    assert order.key(a) > order.key(b)
    # a level above, leads are (position, exponent) keys shifted at their
    # position; two equal leads tie on image and cofactor, and the smaller
    # position wins
    above_leads = [(1, (1, 0, 0, 0)), (0, (0, 0, 1, 0)), (0, (0, 0, 1, 0))]
    above = SchreyerOrder(order.key, above_leads)
    assert above.key((0, (0, 0, 0, 0))) > above.key((1, (0, 0, 0, 0)))
    assert above.key((1, (1, 0, 0, 0))) > above.key((2, (1, 0, 0, 0)))
    # the program's packed ints are the same keys: each comparison above
    # holds between them, and each decodes back to its term
    rank_one = _Module(R4.weights, 27 << 4)
    level = rank_one.next([packed(rank_one, lead) for lead in leads])
    top = level.next([packed(level, lead) for lead in above_leads])
    ordered = ((level, e1, e0), (level, a, b), (top, e0, e1), (top, (1, (1, 0, 0, 0)), (2, (1, 0, 0, 0))))
    for module, big, small in ordered:
        assert packed(module, big) > packed(module, small)
        assert unpacked(module, packed(module, big)) == big and unpacked(module, packed(module, small)) == small


def test_render_parse_round_trip():
    cases = [
        "X1^2 - X0*X2",
        "Y^2 - X0^3*X1",
        "-X0^9 + X1*X2^3*Y",
        "3*X0^2*Y - 1/2*X1 + 7",
        "0",
        "-5",
    ]
    for text in cases:
        f = parse(R4, text)
        assert parse(R4, render(f)) == f
    assert render(P("X1^2 - X0*X2")) == "X1^2 - X0*X2"
    # rendering is order-stable: lead first
    assert render(P("-X0*X2 + X1^2")) == "X1^2 - X0*X2"


@given(st.lists(st.tuples(monos, st.integers(-9, 9)), min_size=0, max_size=6))
@settings(max_examples=200)
def test_render_round_trip_random(terms):
    f = Poly(R4, dict(terms))
    assert parse(R4, render(f)) == f


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse(R4, "X3 + 1")
    with pytest.raises(ValueError):
        parse(R4, "")
    with pytest.raises(ValueError):
        parse(R4, "X0 +")
    for text in ("1/0*X0", "3/0", "0/0"):  # a zero denominator
        with pytest.raises(ValueError):
            parse(R4, text)
    assert parse(R4, "3/02*X0") == parse(R4, "3/2*X0")


def test_vect_arithmetic():
    v = Vect.from_polys([P("X1"), P("-X0")])
    w = Vect.unit(R4, 2, 0)
    assert (v + w).component(0) == P("X1 + 1")
    assert (P("X2") * v).component(1) == P("-X0*X2")
    assert v - v == Vect(R4, 2, {})
    assert list((-v).to_polys()) == [P("-X1"), P("X0")]


def test_mixed_sums_rejected():
    v = Vect.from_polys([P("X1"), P("-X0")])
    with pytest.raises(TypeError):
        P("X2") + v
    with pytest.raises(TypeError):
        v - P("X2")
    with pytest.raises(TypeError):
        v + 1


def test_arithmetic_results_stay_normalised():
    x = P("X0")
    half = x * Fraction(1, 2)
    whole = half + half
    assert whole.terms == {(1, 0, 0, 0): 1}
    assert type(whole.terms[(1, 0, 0, 0)]) is int
    assert (x - x).terms == {}
    assert (x * 0).terms == {} and (half - half).terms == {}
    doubled = Poly(R4, {(0, 1, 0, 0): Fraction(3, 2)}) * half * 4
    assert doubled.terms == {(1, 1, 0, 0): 3} and type(doubled.terms[(1, 1, 0, 0)]) is int
    # the public constructor still normalises what it is given
    assert Poly(R4, {(1, 0, 0, 0): Fraction(4, 2), (0, 1, 0, 0): 0}).terms == {(1, 0, 0, 0): 2}

    v = Vect.from_polys([P("X1"), P("-X0"), P("0")])
    w = Vect.unit(R4, 3, 2)
    results = [
        v + w,
        v - v,
        v * Fraction(2, 3),
        Fraction(3, 2) * (v * Fraction(2, 3)),
        v._times(P("X2 - X1")),
        v.mul_term((0, 0, 1, 0), 2),
        v.mul_term((0, 0, 1, 0), 0),
    ]
    assert all(type(r) is Vect and r.rank == 3 for r in results)
    assert results[1].terms == {}
    assert results[3] == v and all(type(c) is int for c in results[3].terms.values())


def test_module_divide_matches_positions():
    order = PositionOverTerm(R4.order())
    f = Vect.from_polys([P("X0*X1"), P("X2")])
    g = Vect.from_polys([P("X1"), R4.zero()])
    quots, rem = divide(f, [g], order)
    assert quots[0] == P("X0")
    reconstructed = quots[0] * g + rem
    assert reconstructed == f
