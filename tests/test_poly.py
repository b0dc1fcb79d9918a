"""Polynomial core: order axioms, division contract, text round-trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocurve.poly import (
    EQ,
    GT,
    LT,
    EliminationOrder,
    GrevlexOrder,
    Poly,
    PositionOverTerm,
    Ring,
    SchreyerOrder,
    Vect,
    compare,
    divide,
    is_homogeneous,
    mono_lcm,
    parse,
    render,
    s_polynomial,
)

R4 = Ring(("X0", "X1", "X2", "Y"), (5, 7, 9, 11))


def P(text):
    return parse(R4, text)


monos = st.tuples(*(st.integers(0, 6) for _ in range(4)))


def test_compare_reference_pairs():
    order = R4.order()
    # equal weighted degree 14; first differing exponent is X0 (0 vs 1)
    assert compare(order, (0, 2, 0, 0), (1, 0, 1, 0)) == GT
    # equal weighted degree 45; X0 exponent 9 vs 0, smaller wins
    assert compare(order, (9, 0, 0, 0), (0, 1, 3, 1)) == LT
    assert compare(order, (2, 1, 0, 3), (2, 1, 0, 3)) == EQ
    # pure degree comparison
    assert compare(order, (0, 0, 0, 1), (1, 0, 0, 0)) == GT


def test_weighted_degree():
    assert R4.degree((0, 2, 0, 0)) == 14
    assert R4.degree((5, 0, 0, 1)) == 36
    assert R4.degree((0, 0, 0, 0)) == 0


@given(monos, monos)
@settings(max_examples=300)
def test_order_total(a, b):
    order = R4.order()
    c = compare(order, a, b)
    assert c in (LT, EQ, GT)
    assert (c == EQ) == (a == b)
    assert compare(order, b, a) == -c


@given(monos, monos, monos)
@settings(max_examples=300)
def test_order_multiplicative(a, b, c):
    order = R4.order()
    shifted_a = tuple(x + y for x, y in zip(a, c))
    shifted_b = tuple(x + y for x, y in zip(b, c))
    assert compare(order, a, b) == compare(order, shifted_a, shifted_b)


@given(monos)
def test_order_one_minimal(a):
    order = R4.order()
    assert compare(order, a, (0, 0, 0, 0)) in (EQ, GT)


@given(monos, monos)
@settings(max_examples=200)
def test_degree_compatible(a, b):
    order = R4.order()
    if R4.degree(a) > R4.degree(b):
        assert compare(order, a, b) == GT


def test_elimination_order_blocks():
    ext = R4.extended()
    order = EliminationOrder(ext)
    # any T beats no T, regardless of weighted degree
    assert compare(order, (0, 0, 0, 0, 1), (9, 9, 9, 9, 0)) == GT
    # T-free comparisons agree with plain grevlex
    assert compare(order, (0, 2, 0, 0, 0), (1, 0, 1, 0, 0)) == GT


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
    v = Vect.from_polys([P("X1"), P("X0")])
    assert is_homogeneous(v, R4, twists=(5, 7)) == 12
    assert is_homogeneous(v, R4, twists=(5, 5)) is None


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


@given(
    st.lists(st.tuples(monos, st.integers(-4, 4)), min_size=1, max_size=5),
    st.lists(st.tuples(monos, st.integers(-4, 4)), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_divide_reconstructs(f_terms, g_terms):
    f = Poly(R4, dict(f_terms))
    g = Poly(R4, dict(g_terms))
    if g.is_zero:
        return
    order = R4.order()
    quots, rem = divide(f, [g], order)
    assert quots[0] * g + rem == f
    if not rem.is_zero:
        gm = g.lead(order)[0]
        for m in rem.terms:
            assert not all(x <= y for x, y in zip(gm, m))


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
    assert mono_lcm((1, 0, 2, 0), (0, 3, 1, 0)) == (1, 3, 2, 0)


def test_schreyer_order_uses_parent_leads():
    # leads X1^2 and X2^3: compare e_0, e_1 through their images
    order = SchreyerOrder(R4.order(), [(0, 2, 0, 0), (0, 0, 3, 0)])
    e0 = (0, (0, 0, 0, 0))
    e1 = (1, (0, 0, 0, 0))
    # images have degrees 14 and 27
    assert compare(order, e1, e0) == GT
    # equal images: X2^3*e0 vs X1^2*e1 map to X1^2*X2^3 both; smaller position wins
    a = (0, (0, 0, 3, 0))
    b = (1, (0, 2, 0, 0))
    assert compare(order, a, b) == GT


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


def test_vect_arithmetic():
    v = Vect.from_polys([P("X1"), P("-X0")])
    w = Vect.unit(R4, 2, 0)
    assert (v + w).component(0) == P("X1 + 1")
    assert (P("X2") * v).component(1) == P("-X0*X2")
    assert v - v == Vect(R4, 2, {})
    assert list((-v).to_polys()) == [P("-X1"), P("X0")]


def test_module_divide_matches_positions():
    order = PositionOverTerm(R4.order())
    f = Vect.from_polys([P("X0*X1"), P("X2")])
    g = Vect.from_polys([P("X1"), R4.zero()])
    quots, rem = divide(f, [g], order)
    assert quots[0] == P("X0")
    reconstructed = quots[0] * g + rem
    assert reconstructed == f
