"""Buchberger's algorithm on binomials with reduction transcripts, plus
toric kernels.

The transcript is the point: every processed S-pair (i, j) records its
cofactors and the quotients of its reduction to zero, so that the first
syzygy module can be written down directly from the records.  Pairs with
coprime leading monomials are not reduced explicitly; their certified
reduction is the Koszul-style combination
S = -(tail_j/(c_i c_j)) g_i + (tail_i/(c_i c_j)) g_j, recorded as such.

Ideal elements are pure-difference binomials or unit monomials, up to sign,
and run on (lead, tail) exponent pairs (Sturmfels, *Gröbner Bases and Convex
Polytopes*, ch. 12); ``pair_records`` divides module syzygies generically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import add, itemgetter, le, mul, neg, sub

from monocurve.poly import (
    Poly,
    Ring,
    divide,
    is_homogeneous,
    mono_coprime,
    mono_div,
    mono_lcm,
    s_polynomial,
)
from monocurve.semigroup import SequenceSpec

VARIABLE_NAMES = ("X0", "X1", "X2", "Y")


@dataclass(frozen=True)
class PairRecord:
    """One processed S-pair: cofactor_i * g_i - cofactor_j * g_j = sum quotients[k] * g_k."""

    i: int
    j: int
    cofactor_i: Poly
    cofactor_j: Poly
    quotients: dict
    koszul: bool = False


@dataclass
class GroebnerBasis:
    elements: list
    order: object
    transcript: list = field(default_factory=list)


def _split(g, order):
    """(lead, tail, sign) with g = sign * (x^lead - x^tail), tail None when
    g = sign * x^lead; anything else is a ValueError."""
    if type(g) is not Poly or sorted(g.terms.values()) not in ([-1], [1], [-1, 1]):
        raise ValueError("not a unit monomial or pure-difference binomial: %r" % (g,))
    lead, sign = g.lead(order)
    tail = next((m for m in g.terms if m != lead), None)
    return lead, tail, sign


def _ranked(basis, order) -> list:
    """Division precedence: greatest lead first, ties to the earlier index."""
    return sorted(range(len(basis)), key=lambda k: order.key(basis[k][0]), reverse=True)


def _s_binomial(gi, gj):
    """lcm of the leads and the terms of cofactor_i * g_i - cofactor_j * g_j
    = x^(lcm - lead_j + tail_j) - x^(lcm - lead_i + tail_i)."""
    (a, ta, _), (c, tc, _) = gi, gj
    lcm = mono_lcm(a, c)
    terms: dict = {}
    if tc is not None:
        terms[tuple(map(add, lcm, map(sub, tc, c)))] = 1
    if ta is not None:
        m = tuple(map(add, lcm, map(sub, ta, a)))
        if terms.pop(m, None) is None:
            terms[m] = -1
    return lcm, terms


def _reduce_binomial(terms: dict, basis, ranked, key):
    """``divide`` for ``terms`` (monomial -> coefficient, consumed), at most
    two of opposite sign, by ``basis``, (lead, tail, sign) triples in
    precedence ``ranked``: each step trades the greatest term's dividing lead
    for its tail.  Returns (quotients, remainder) as {index: {monomial:
    coefficient}}, where coefficients may cancel to zero, and {monomial:
    coefficient}."""
    quotients: dict = {}
    remainder: dict = {}
    while terms:
        m = max(terms, key=key)
        c = terms.pop(m)
        for k in ranked:
            lead, tail, sign = basis[k]
            if all(map(le, lead, m)):
                break
        else:
            remainder[m] = c
            continue
        q = tuple(map(sub, m, lead))
        row = quotients.setdefault(k, {})
        row[q] = row.get(q, 0) + c * sign
        if tail is not None:
            t = tuple(map(add, q, tail))
            v = terms.pop(t, 0) + c
            if v:
                terms[t] = v
    return quotients, remainder


def buchberger(gens, order) -> GroebnerBasis:
    """Complete unit monomials and pure-difference binomials to a Gröbner
    basis; the input is kept as a prefix.

    Pairs are processed smallest lcm first in the order, which fixes the
    transcripts, and reduced by ``_reduce_binomial``; a nonzero remainder is
    again such a binomial, appended with quotient 1.
    """
    elements = list(gens)
    if not elements:
        raise ValueError("need at least one generator")
    basis = [_split(g, order) for g in elements]
    ranked = _ranked(basis, order)
    ring = elements[0].ring
    heap: list = []

    def push_pairs(t: int):
        for i in range(t):
            heapq.heappush(heap, (order.key(mono_lcm(basis[i][0], basis[t][0])), i, t))

    for t in range(1, len(elements)):
        push_pairs(t)

    transcript = []
    while heap:
        _, i, j = heapq.heappop(heap)
        (a, ta, si), (c, tc, sj) = basis[i], basis[j]
        lcm, terms = _s_binomial(basis[i], basis[j])
        cof_i = ring.monomial(mono_div(lcm, a), si)
        cof_j = ring.monomial(mono_div(lcm, c), sj)
        if mono_coprime(a, c):
            # product criterion: reduction certified without division
            tails = ((i, tc, si), (j, ta, -sj))
            quots = {k: ring.monomial(t, s) for k, t, s in tails if t is not None}
            transcript.append(PairRecord(i, j, cof_i, cof_j, quots, koszul=True))
            continue
        quotients, remainder = _reduce_binomial(terms, basis, ranked, order.key)
        quots = {k: Poly(ring, q) for k, q in sorted(quotients.items()) if any(q.values())}
        if remainder:
            t = len(elements)
            elements.append(Poly(ring, remainder))
            basis.append(_split(elements[t], order))
            ranked = _ranked(basis, order)
            quots[t] = ring.one()
            push_pairs(t)
        transcript.append(PairRecord(i, j, cof_i, cof_j, quots))
    return GroebnerBasis(elements, order, transcript)


def is_groebner(gens, order) -> bool:
    """Buchberger criterion by honest division of every pair (no
    product-criterion shortcut), for pure-difference binomials."""
    basis = [_split(g, order) for g in gens]
    if any(tail is None for _, tail, _ in basis):
        raise ValueError("is_groebner takes pure-difference binomials only")
    ranked = _ranked(basis, order)
    for j in range(1, len(basis)):
        for i in range(j):
            _, terms = _s_binomial(basis[i], basis[j])
            if _reduce_binomial(terms, basis, ranked, order.key)[1]:
                return False
    return True


def pair_records(elements, order, pairs) -> list:
    """The record of each pair (i, j) of ``elements``, a Gröbner basis in
    ``order``: its S-element divided by ``elements``, which must leave
    remainder zero."""
    records = []
    for i, j in pairs:
        spoly, cof_i, cof_j = s_polynomial(elements[i], elements[j], order)
        quotients, remainder = divide(spoly, elements, order)
        if not remainder.is_zero:
            raise AssertionError("pair (%d, %d) leaves a nonzero remainder" % (i, j))
        quots = {k: q for k, q in enumerate(quotients) if not q.is_zero}
        records.append(PairRecord(i, j, cof_i, cof_j, quots))
    return records


def is_pure_difference(p: Poly) -> bool:
    """Two terms, coefficients +1 and -1."""
    if len(p.terms) != 2:
        return False
    return sorted(p.terms.values()) == [-1, 1]


def vanishes_under_substitution(p: Poly, weights) -> bool:
    """Does p vanish under x_i -> t^{w_i}?  (Coefficient sums per weighted degree.)"""
    sums: dict = {}
    for mono, coeff in p.terms.items():
        d = sum(e * w for e, w in zip(mono, weights))
        sums[d] = sums.get(d, 0) + coeff
    return all(v == 0 for v in sums.values())


@dataclass
class ToricIdeal:
    """Defining ideal of the monomial curve, with its reduced Gröbner basis."""

    spec: SequenceSpec
    ring: Ring
    generators: list
    reduced_gb: GroebnerBasis

    def validate(self) -> None:
        for p in self.generators:
            if not is_pure_difference(p):
                raise AssertionError(f"not a pure difference binomial: {p}")
            if is_homogeneous(p, self.ring) is None:
                raise AssertionError(f"not weighted-homogeneous: {p}")
            if not vanishes_under_substitution(p, self.ring.weights):
                raise AssertionError(f"does not vanish under substitution: {p}")


def _default_names(count: int):
    defaults = ("x", "y", "z", "w", "u", "v")
    return defaults[:count]


def _extended_gcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def _size_reduce(vectors):
    """Pairwise integer size-reduction; unimodular, so the lattice is kept."""
    vecs = [list(v) for v in vectors]
    for _ in range(32):
        changed = False
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                denom = sum(e * e for e in vecs[j])
                if denom == 0:
                    continue
                num = sum(a * b for a, b in zip(vecs[i], vecs[j]))
                k = round(num / denom)
                if k:
                    cand = [a - k * b for a, b in zip(vecs[i], vecs[j])]
                    if sum(e * e for e in cand) < sum(e * e for e in vecs[i]):
                        vecs[i] = cand
                        changed = True
        if not changed:
            break
    return [tuple(v) for v in vecs]


def _kernel_lattice_basis(weights):
    """Basis of the full integer kernel lattice of the weight row.

    Sequential gcd elimination: keep a certificate c with c·w[:i] = g; each
    new weight contributes one kernel vector, and the certificate absorbs it.
    """
    k = len(weights)
    basis = []
    g = weights[0]
    cert = [1] + [0] * (k - 1)
    for i in range(1, k):
        g2, s, t = _extended_gcd(g, weights[i])
        vec = [weights[i] // g2 * c for c in cert]
        vec[i] -= g // g2
        basis.append(vec)
        cert = [s * c for c in cert]
        cert[i] += t
        g = g2
    return _size_reduce(basis)


def _normal_form(mono, basis):
    """Reduce x^mono by the (lead, tail, tail - lead) binomials of ``basis``
    until no lead divides it: each step trades a lead for its tail."""
    while True:
        for lead, _, shift in basis:
            if all(map(le, lead, mono)):
                mono = tuple(map(add, mono, shift))
                break
        else:
            return mono


def _binomial(a, b, revlex):
    """(lead, tail, tail - lead) of x^a - x^b, two monomials of one degree,
    under the grevlex order that ``revlex`` picks the tie-break from."""
    if revlex(a) > revlex(b):
        a, b = b, a
    return a, b, tuple(map(sub, b, a))


def _reduced_binomial_basis(pairs, weights, perm):
    """Reduced Gröbner basis, as (lead, tail) exponent pairs ascending by
    lead, of the weighted-homogeneous binomials x^a - x^b given as exponent
    pairs (a, b).

    The order is weighted grevlex with ties broken by the variables in
    ``perm`` order, smaller exponent winning, so ``perm[0]`` is cheapest.
    The S-binomial of leads a and c is x^(L-c+d) - x^(L-a+b) with
    L = lcm(a, c); its lead is reduced until no basis lead divides it,
    re-oriented after each step.  Pairs go smallest lcm first and pairs
    with coprime leads are skipped (product criterion).  The reduced basis
    keeps the lead-minimal elements (of equal leads one) with their tails
    in normal form.
    """
    revlex = itemgetter(*perm)

    def key(m):
        return sum(map(mul, m, weights)), tuple(map(neg, revlex(m)))

    basis: list = []
    heap: list = []

    def add_binomial(a, b):
        if a == b:
            return
        lead, tail, shift = _binomial(a, b, revlex)
        while True:
            reduced = _normal_form(lead, basis)
            if reduced == lead:
                break
            if reduced == tail:
                return
            lead, tail, shift = _binomial(reduced, tail, revlex)
        t = len(basis)
        for i, (c, _, _) in enumerate(basis):
            if any(map(min, c, lead)):
                lcm = tuple(map(max, c, lead))
                heapq.heappush(heap, (key(lcm), i, t))
        basis.append((lead, tail, shift))

    for a, b in pairs:
        add_binomial(a, b)
    while heap:
        _, i, j = heapq.heappop(heap)
        (a, _, shift_i), (c, _, shift_j) = basis[i], basis[j]
        lcm = tuple(map(max, a, c))
        add_binomial(tuple(map(add, lcm, shift_j)), tuple(map(add, lcm, shift_i)))

    kept: list = []
    for g in sorted(basis, key=lambda g: key(g[0])):
        if not any(all(map(le, k[0], g[0])) for k in kept):
            kept.append(g)
    return [(lead, _normal_form(tail, kept)) for lead, tail, _ in kept]


def toric_kernel_generic(weights, names=None):
    """Kernel of k[names] -> k[t], x_i -> t^{w_i}, via the relation lattice.

    Start from binomials of a kernel-lattice basis of the weights, then
    saturate one variable at a time: complete under grevlex with that
    variable cheapest and divide each element by the variable's common
    power.  (A weighted-homogeneous element whose lead the cheapest variable
    divides is divisible by it throughout, which is exactly why the division
    yields the saturation.)  After all variables the ideal is the full
    kernel.  Everything runs in the target ring with small exponents, unlike
    elimination, whose auxiliary variable carries weight-sized powers.

    Every element is a pure-difference binomial x^u - x^v, so the
    completions run on (lead, tail) exponent pairs (Sturmfels, *Gröbner
    Bases and Convex Polytopes*, ch. 12).  The reduced basis goes once through
    ``buchberger`` here, for its transcript, so a stand-in serves that too.

    Returns (ring, gb) where gb is the reduced Gröbner basis of the kernel
    under the ring's weighted grevlex order, ascending by lead, with a fresh
    transcript.
    """
    weights = tuple(int(w) for w in weights)
    if names is None:
        names = _default_names(len(weights))
    ring = Ring(tuple(names), weights)
    nvars = ring.nvars
    pairs = [
        (tuple(max(e, 0) for e in vec), tuple(max(-e, 0) for e in vec))
        for vec in _kernel_lattice_basis(weights)
    ]
    for i in range(nvars):
        perm = (i,) + tuple(j for j in range(nvars) if j != i)
        saturated = []
        for lead, tail in _reduced_binomial_basis(pairs, weights, perm):
            low = min(lead[i], tail[i])
            if low:
                lead = lead[:i] + (lead[i] - low,) + lead[i + 1 :]
                tail = tail[:i] + (tail[i] - low,) + tail[i + 1 :]
            saturated.append((lead, tail))
        pairs = saturated
    reduced = [
        Poly(ring, {lead: 1, tail: -1})
        for lead, tail in _reduced_binomial_basis(pairs, weights, tuple(range(nvars)))
    ]
    gb = buchberger(reduced, ring.order())
    if len(gb.elements) != len(reduced):  # pragma: no cover - safety net
        raise AssertionError("binomial completion did not give a Gröbner basis")
    return ring, gb


def toric_kernel(spec: SequenceSpec) -> ToricIdeal:
    """Defining ideal of the curve (t^{m0}, t^{m1}, t^{m2}, t^{n})."""
    ring, gb = toric_kernel_generic(spec.weights, VARIABLE_NAMES)
    ideal = ToricIdeal(spec, ring, list(gb.elements), gb)
    ideal.validate()
    return ideal
