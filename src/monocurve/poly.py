"""Sparse exact polynomial arithmetic with weighted monomial orders.

Polynomials live in a rational polynomial ring whose variables carry positive
integer weights; the default order is the weighted graded reverse-lexicographic
order.  Elements of free modules (used for syzygy computations) share the same
term machinery with an extra basis-position component and induced orders
(position-over-term, or the Schreyer order coming from a previous basis).

Monomials are plain exponent tuples; module monomials are (position, exponent
tuple) pairs.  Coefficients are Python ints wherever divisions stay exact and
Fractions otherwise, which keeps the binomial-dominated workloads fast without
ever leaving exact arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction

LT, EQ, GT = -1, 0, 1


def _norm_coeff(c):
    """Collapse integral Fractions to plain int."""
    if isinstance(c, Fraction) and c.denominator == 1:
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


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    """Does x^a divide x^b?"""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    """Exponent vector of x^a / x^b (caller guarantees divisibility)."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a: tuple, b: tuple) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


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
        w = self.weights
        return sum(e * w[i] for i, e in enumerate(mono) if e)

    def zero_mono(self) -> tuple:
        return (0,) * len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self.zero_mono(): 1})

    def constant(self, c) -> "Poly":
        return Poly(self, {self.zero_mono(): c})

    def monomial(self, mono: tuple, coeff=1) -> "Poly":
        return Poly(self, {tuple(mono): coeff})

    def extended(self, name: str = "T", weight: int = 1) -> "Ring":
        """Ring with one auxiliary variable appended (used for elimination)."""
        return Ring(self.names + (name,), self.weights + (weight,))

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
        w = self.ring.weights
        deg = 0
        out = [0]
        for i, e in enumerate(mono):
            deg += e * w[i]
            out.append(-e)
        out[0] = deg
        return tuple(out)

    def __repr__(self):
        return f"GrevlexOrder({self.ring!r})"


class EliminationOrder:
    """Any monomial containing the last variable beats any without it; ties
    fall back to weighted grevlex on the remaining variables."""

    __slots__ = ("ring",)

    def __init__(self, ring: Ring):
        if ring.nvars < 2:
            raise ValueError("elimination order needs at least two variables")
        self.ring = ring

    def key(self, mono: tuple):
        w = self.ring.weights
        deg = 0
        out = [mono[-1], 0]
        for i in range(len(mono) - 1):
            e = mono[i]
            deg += e * w[i]
            out.append(-e)
        out[1] = deg
        return tuple(out)


class PositionOverTerm:
    """Module order: smaller basis position always wins; within a position,
    the underlying ring order decides."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def key(self, mm):
        pos, mono = mm
        return (-pos,) + self.base.key(mono)


class SchreyerOrder:
    """Order induced by a list of leading monomials from the previous level:
    compare x^a e_i vs x^b e_j by the parent order applied to x^a * lead(i)
    vs x^b * lead(j); on ties the lexicographically smaller cofactor wins,
    then the smaller position.

    The cofactor tie-break is the same order one gets from the plain
    smaller-position rule after relabeling the previous level's elements in
    descending lead order; phrased this way the basis order stays untouched,
    and the iterated syzygy construction provably sheds one variable of its
    lead cofactors per level, so it stops within #variables steps."""

    __slots__ = ("parent", "leads", "_module_parent")

    def __init__(self, parent, leads):
        self.parent = parent
        self.leads = tuple(leads)
        self._module_parent = isinstance(parent, (PositionOverTerm, SchreyerOrder))

    def key(self, mm):
        pos, mono = mm
        lead = self.leads[pos]
        if self._module_parent:
            shifted = (lead[0], mono_mul(mono, lead[1]))
        else:
            shifted = mono_mul(mono, lead)
        return self.parent.key(shifted) + tuple(-e for e in mono) + (-pos,)


def compare(order, a, b) -> int:
    """Three-way comparison of two monomials under the given order."""
    ka = order.key(a)
    kb = order.key(b)
    if ka < kb:
        return LT
    if ka > kb:
        return GT
    return EQ


class Poly:
    """Immutable sparse polynomial; terms map exponent tuples to coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms=None):
        self.ring = ring
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[m] = c
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lead(self, order=None):
        """(monomial, coefficient) of the leading term, or None if zero."""
        if not self.terms:
            return None
        if order is None:
            order = self.ring.order()
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.ring, {})
            return Poly(self.ring, {m: c * other for m, c in self.terms.items()})
        if isinstance(other, Vect):
            return other.__rmul__(self)
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def mul_term(self, mono: tuple, coeff) -> "Poly":
        """Fast product with a single term."""
        if not coeff:
            return Poly(self.ring, {})
        return Poly(
            self.ring, {mono_mul(m, mono): c * coeff for m, c in self.terms.items()}
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return render(self)


class Vect:
    """Element of a free module R^rank; terms map (position, monomial) to coefficients."""

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring: Ring, rank: int, terms=None):
        self.ring = ring
        self.rank = rank
        clean = {}
        if terms:
            for mm, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[mm] = c
        self.terms = clean

    @classmethod
    def unit(cls, ring: Ring, rank: int, pos: int) -> "Vect":
        return cls(ring, rank, {(pos, ring.zero_mono()): 1})

    @classmethod
    def from_polys(cls, polys) -> "Vect":
        polys = list(polys)
        ring = polys[0].ring
        terms = {}
        for pos, p in enumerate(polys):
            for m, c in p.terms.items():
                terms[(pos, m)] = c
        return cls(ring, len(polys), terms)

    def component(self, pos: int) -> Poly:
        return Poly(
            self.ring, {m: c for (p, m), c in self.terms.items() if p == pos}
        )

    def to_polys(self) -> list:
        out = [dict() for _ in range(self.rank)]
        for (p, m), c in self.terms.items():
            out[p][m] = c
        return [Poly(self.ring, d) for d in out]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lead(self, order):
        if not self.terms:
            return None
        mm = max(self.terms, key=order.key)
        return mm, self.terms[mm]

    def __add__(self, other):
        if not isinstance(other, Vect):
            return NotImplemented
        out = dict(self.terms)
        for mm, c in other.terms.items():
            v = out.get(mm, 0) + c
            if v:
                out[mm] = v
            else:
                del out[mm]
        return Vect(self.ring, self.rank, out)

    def __sub__(self, other):
        if not isinstance(other, Vect):
            return NotImplemented
        out = dict(self.terms)
        for mm, c in other.terms.items():
            v = out.get(mm, 0) - c
            if v:
                out[mm] = v
            else:
                del out[mm]
        return Vect(self.ring, self.rank, out)

    def __neg__(self):
        return Vect(self.ring, self.rank, {mm: -c for mm, c in self.terms.items()})

    def __rmul__(self, other):
        """Scalar or ring-polynomial multiple."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return Vect(self.ring, self.rank, {})
            return Vect(
                self.ring, self.rank, {mm: c * other for mm, c in self.terms.items()}
            )
        if isinstance(other, Poly):
            out = {}
            for m1, c1 in other.terms.items():
                for (pos, m2), c2 in self.terms.items():
                    mm = (pos, mono_mul(m1, m2))
                    v = out.get(mm, 0) + c1 * c2
                    if v:
                        out[mm] = v
                    else:
                        del out[mm]
            return Vect(self.ring, self.rank, out)
        return NotImplemented

    __mul__ = __rmul__

    def mul_term(self, mono: tuple, coeff) -> "Vect":
        if not coeff:
            return Vect(self.ring, self.rank, {})
        return Vect(
            self.ring,
            self.rank,
            {(p, mono_mul(m, mono)): c * coeff for (p, m), c in self.terms.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, Vect)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        comps = ", ".join(render(p) for p in self.to_polys())
        return f"({comps})"


def divide(f, divisors, order):
    """Multivariate division: f = sum(quotients[k] * divisors[k]) + remainder.

    No remainder term is divisible by any divisor's lead (module elements
    require matching basis positions).  When several divisor leads divide the
    current term, the one whose lead is greatest in the active order is used;
    ties go to the earlier divisor.  Quotients are ring polynomials in both
    the ring and module cases.
    """
    ring = f.ring
    module = isinstance(f, Vect)
    leads = []
    for g in divisors:
        lt = g.lead(order)
        if lt is None:
            raise ZeroDivisionError("zero divisor in division")
        leads.append(lt)
    # precedence: greatest lead first, then original index
    ranked = sorted(range(len(divisors)), key=lambda i: order.key(leads[i][0]), reverse=True)
    quotients = [ring.zero() for _ in divisors]
    remainder_terms = {}
    p = f
    while p.terms:
        pm = max(p.terms, key=order.key)
        pc = p.terms[pm]
        hit = None
        for i in ranked:
            dm = leads[i][0]
            if module:
                if dm[0] == pm[0] and mono_divides(dm[1], pm[1]):
                    hit = i
                    break
            elif mono_divides(dm, pm):
                hit = i
                break
        if hit is None:
            remainder_terms[pm] = pc
            rest = dict(p.terms)
            del rest[pm]
            p = Vect(ring, f.rank, rest) if module else Poly(ring, rest)
            continue
        dm, dc = leads[hit]
        t_mono = mono_div(pm[1], dm[1]) if module else mono_div(pm, dm)
        t_coeff = coeff_div(pc, dc)
        quotients[hit] = quotients[hit] + ring.monomial(t_mono, t_coeff)
        p = p - divisors[hit].mul_term(t_mono, t_coeff)
    if module:
        remainder = Vect(ring, f.rank, remainder_terms)
    else:
        remainder = Poly(ring, remainder_terms)
    return quotients, remainder


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
    if isinstance(f, Vect):
        (pos_f, mf), cf = lf
        (pos_g, mg), cg = lg
        if pos_f != pos_g:
            return None
    else:
        mf, cf = lf
        mg, cg = lg
    l = mono_lcm(mf, mg)
    cof_f = ring.monomial(mono_div(l, mf), coeff_div(1, cf))
    cof_g = ring.monomial(mono_div(l, mg), coeff_div(1, cg))
    spoly = cof_f * f - cof_g * g
    return spoly, cof_f, cof_g


def is_homogeneous(f, ring_or_weights=None, twists=None):
    """Common weighted degree of all terms, or None if degrees differ.

    For module elements the ambient twists (one per basis position) shift the
    degree of each component; omitted twists count as zero.
    """
    ring = f.ring if ring_or_weights is None else ring_or_weights
    weights = ring.weights if isinstance(ring, Ring) else tuple(ring)
    degree = None
    if isinstance(f, Vect):
        for (pos, m), _ in f.terms.items():
            d = sum(e * w for e, w in zip(m, weights))
            if twists is not None:
                d += twists[pos]
            if degree is None:
                degree = d
            elif degree != d:
                return None
        return degree
    for m in f.terms:
        d = sum(e * w for e, w in zip(m, weights))
        if degree is None:
            degree = d
        elif degree != d:
            return None
    return degree


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


def render(f: Poly, order=None) -> str:
    """Canonical text form, terms in descending order, e.g. 'X1^2 - X0*X2'."""
    if not f.terms:
        return "0"
    if order is None:
        order = f.ring.order()
    monos = sorted(f.terms, key=order.key, reverse=True)
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
_NUMBER = re.compile(r"^\d+(?:/\d+)?$")


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
