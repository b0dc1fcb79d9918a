"""Sparse exact polynomial arithmetic with weighted monomial orders, for the
program's edges: parsing, rendering, ``cli matrices`` and the tests.  The
program itself computes on packed ints (``groebner._Module``), one per term
of a syzygy level or a graded map, and builds no ``Poly`` per tuple.

Polynomials live in a rational polynomial ring whose variables carry
positive integer weights, ordered by weighted grevlex.  ``Poly.lead``,
``divide`` and ``s_polynomial`` take any order: anything with a ``key``
method, a monomial greater than another iff its key is.  ``_Terms`` maps
keys to coefficients and holds all the arithmetic; ``Poly``, its one
subclass here, names its exponent-tuple key arithmetic once, as static
``key_*`` attributes, which ``divide`` and ``s_polynomial`` read.

Coefficients are ints wherever divisions stay exact and Fractions
otherwise.  ``Poly(ring, terms)`` drops zero coefficients and makes
integral Fractions ints; arithmetic results, free of zeros already, are
built by ``_like``, which only collapses integral Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, le, mul, neg, sub


def _norm_coeff(c):
    """Collapse integral Fractions to plain int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def coeff_div(a, b):
    """Exact a/b, staying in int when the division is exact."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return _norm_coeff(Fraction(a) / Fraction(b))


class Ring:
    """Rational polynomial ring with named variables and positive integer weights.

    The weight tuple doubles as the grading: a monomial's weighted degree is
    the dot product of its exponent vector with the weights.
    """

    __slots__ = ("names", "weights", "_default_order", "_hash")

    def __init__(self, names, weights):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if not names or len(names) != len(weights):
            raise ValueError("need one positive weight per variable name")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.names = names
        self.weights = weights
        self._default_order = GrevlexOrder(self)
        self._hash = hash((names, weights))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def order(self) -> "GrevlexOrder":
        return self._default_order

    def degree(self, mono: tuple) -> int:
        return sum(map(mul, mono, self.weights))

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: 1})

    def constant(self, c) -> "Poly":
        return Poly(self, {(0,) * self.nvars: c})

    def monomial(self, mono: tuple, coeff=1) -> "Poly":
        return Poly(self, {tuple(mono): coeff})

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"Ring({pairs})"


class GrevlexOrder:
    """Weighted grevlex: higher weighted degree wins; on ties the first
    variable (in storage order) with differing exponent decides, smaller
    exponent winning."""

    __slots__ = ("ring",)

    def __init__(self, ring: Ring):
        self.ring = ring

    def key(self, mono: tuple):
        return (sum(map(mul, mono, self.ring.weights)),) + tuple(map(neg, mono))

    def __repr__(self):
        return f"GrevlexOrder({self.ring!r})"


class _Terms:
    """Immutable sparse sum of terms: ``terms`` maps keys to coefficients.

    All arithmetic lives here; a subclass names its keys' arithmetic once, as
    static ``key_*`` attributes, and ``divide``, ``s_polynomial`` and the
    Gröbner code read only those.
    """

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: Ring, terms=None):
        self.ring = ring
        self._lead = None
        clean = {}
        if terms:
            for k, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[k] = c
        self.terms = clean

    def _like(self, terms):
        """Element of the same space with the given terms, which the caller
        has already cleared of zero coefficients; only integral Fractions
        are collapsed, in place."""
        out = object.__new__(type(self))
        out.ring = self.ring
        out._lead = None
        for k, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[k] = c.numerator
        out.terms = terms
        return out

    def _scalar(self, c):
        """A scalar as an element of this space; none by default."""
        return None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lead(self, order=None):
        """(key, coefficient) of the leading term, or None if zero (kept per order)."""
        if not self.terms:
            return None
        if order is None:
            order = self.ring.order()
        if self._lead is None or self._lead[0] is not order:
            k = max(self.terms, key=order.key)
            self._lead = (order, (k, self.terms[k]))
        return self._lead[1]

    def _same_space(self, other):
        """``other`` (an element or a scalar) as an element of this space, or None."""
        if type(other) is type(self):
            return other
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
            if type(other) is type(self):
                return other
        return None

    def __add__(self, other):
        other = self._same_space(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._same_space(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) - c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return self._like(out)

    def __mul__(self, other):
        """Scalar multiple, or product with a ring polynomial on either side."""
        if isinstance(other, _Terms):
            if type(self) is Poly:
                return other._times(self)
            if type(other) is Poly:
                return self._times(other)
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._like({})
            return self._like({k: c * other for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def _times(self, f: "Poly"):
        """f * self, with f's terms in the outer loop."""
        key_mul = self.key_mul
        out = {}
        for m1, c1 in f.terms.items():
            for k2, c2 in self.terms.items():
                k = key_mul(k2, m1)
                v = out.get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                else:
                    del out[k]
        return self._like(out)

    def mul_term(self, mono: tuple, coeff):
        """Fast product with a single ring term."""
        if not coeff:
            return self._like({})
        key_mul = self.key_mul
        return self._like({key_mul(k, mono): c * coeff for k, c in self.terms.items()})


class Poly(_Terms):
    """Ring polynomial; keys are exponent tuples."""

    __slots__ = ()

    key_mul = staticmethod(lambda a, b: tuple(map(add, a, b)))
    key_divides = staticmethod(lambda a, b: all(map(le, a, b)))  # does x^a divide x^b?
    key_div = staticmethod(lambda a, b: tuple(map(sub, a, b)))  # x^a / x^b, for x^b dividing x^a
    key_lcm = staticmethod(lambda a, b: tuple(map(max, a, b)))

    def _scalar(self, c):
        return self.ring.constant(c)

    def __eq__(self, other):
        other = self._same_space(other)
        return other is not None and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return render(self)


def divide(f, divisors, order):
    """Multivariate division: f = sum(quotients[k] * divisors[k]) + remainder.

    No remainder term is divisible by any divisor's lead (module elements
    require matching basis positions).  When several divisor leads divide the
    current term, the one whose lead is greatest in the active order is used;
    ties go to the earlier divisor.  Quotients are ring polynomials in both
    the ring and module cases.
    """
    ring = f.ring
    leads = [g.lead(order) for g in divisors]
    if None in leads:
        raise ZeroDivisionError("zero divisor in division")
    # precedence: greatest lead first, then original index
    ranked = sorted(range(len(divisors)), key=lambda i: order.key(leads[i][0]), reverse=True)
    divides = f.key_divides
    quotients = [ring.zero() for _ in divisors]
    remainder_terms = {}
    p = f
    while p.terms:
        pm = max(p.terms, key=order.key)
        pc = p.terms[pm]
        hit = None
        for i in ranked:
            if divides(leads[i][0], pm):
                hit = i
                break
        if hit is None:
            remainder_terms[pm] = pc
            rest = dict(p.terms)
            del rest[pm]
            p = f._like(rest)
            continue
        dm, dc = leads[hit]
        t_mono = f.key_div(pm, dm)
        t_coeff = coeff_div(pc, dc)
        quotients[hit] = quotients[hit] + ring.monomial(t_mono, t_coeff)
        p = p - divisors[hit].mul_term(t_mono, t_coeff)
    return quotients, f._like(remainder_terms)


def s_polynomial(f, g, order):
    """S-pair data: (spoly, cofactor_f, cofactor_g) with
    spoly = cofactor_f * f - cofactor_g * g and cancelled leads.

    Module elements with different leading positions have no S-pair; the
    None marker is returned in that case.
    """
    ring = f.ring
    lf = f.lead(order)
    lg = g.lead(order)
    if lf is None or lg is None:
        raise ZeroDivisionError("s_polynomial of zero element")
    (kf, cf), (kg, cg) = lf, lg
    l = f.key_lcm(kf, kg)
    if l is None:
        return None
    cof_f = ring.monomial(f.key_div(l, kf), coeff_div(1, cf))
    cof_g = ring.monomial(f.key_div(l, kg), coeff_div(1, cg))
    spoly = cof_f * f - cof_g * g
    return spoly, cof_f, cof_g


# ---------------------------------------------------------------------------
# text round-trip


def _render_mono(ring: Ring, mono: tuple) -> str:
    parts = []
    for name, e in zip(ring.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render(f: Poly) -> str:
    """Canonical text form, terms descending in the ring's order, e.g. 'X1^2 - X0*X2'."""
    if not f.terms:
        return "0"
    monos = sorted(f.terms, key=f.ring.order().key, reverse=True)
    pieces = []
    for i, m in enumerate(monos):
        c = f.terms[m]
        body = _render_mono(f.ring, m)
        mag = abs(c)
        if not body:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag}*{body}"
        if i == 0:
            pieces.append(chunk if c > 0 else f"-{chunk}")
        else:
            pieces.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
    return " ".join(pieces)


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")
_NUMBER = re.compile(r"^\d+(?:/0*[1-9]\d*)?$")  # no zero denominator


def parse(ring: Ring, text: str) -> Poly:
    """Inverse of render (accepts any whitespace placement)."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    if compact == "0":
        return ring.zero()
    index = {name: i for i, name in enumerate(ring.names)}
    terms = {}
    for chunk in _TERM_SPLIT.split(compact):
        if not chunk or chunk in "+-":
            if chunk:
                raise ValueError(f"dangling sign in {text!r}")
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        coeff = Fraction(sign)
        mono = [0] * ring.nvars
        for factor in chunk.split("*"):
            if _NUMBER.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if not m or m.group(1) not in index:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            mono[index[m.group(1)]] += int(m.group(2) or 1)
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + coeff
    return Poly(ring, terms)
