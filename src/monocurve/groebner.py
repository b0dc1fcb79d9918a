"""Binomial Gröbner bases certified on Schreyer's lead frame, plus toric
kernels.

Ideal elements are pure-difference binomials or unit monomials, up to sign
(Sturmfels, *Gröbner Bases and Convex Polytopes*, ch. 12).  One division
routine serves every syzygy level: ``pair_records`` divides each pair of a
level by ``divide``'s rule in one {(position, exponent): coefficient} dict
and returns the pair's syzygy as such a dict, so a level's elements are the
columns of the map before, with the ideal's generators at position 0 of the
rank-one module F_0 = R.  ``syzygy_level`` runs one level on its lead
frame (``_lead_frame``, the pairs whose syzygy leads are minimal; La Scala
and Stillman, JSC 26, 1998): on F_0 = R a pair with coprime leads has the
Koszul syzygy (g_i e_j - g_j e_i)·c_i c_j, every other pair goes to
``pair_records`` and must leave remainder zero.  ``buchberger`` certifies
a basis by that level, so the certificate is also level 1 of the
resolution, and ``resolution.build_resolution`` runs it for every later
level.  ``is_groebner`` needs no frame: it divides every pair whose leads
share a variable and answers False where ``pair_records`` finds a
remainder.

The toric kernel needs no completion: its reduced basis is read off the
Apéry set Ap(Γ, w_0), found by one shortest-path pass over the residues
mod w_0 that also picks the order-least monomial of each Apéry degree
(``_standard_table``).  They form an order ideal S, and the leads are the
minimal monomials outside it, each with the standard monomial of its
degree as tail.  Monomials there are int labels, the degree and then each
exponent in a fixed-width field, exact since no Apéry element exceeds
(w_0 - 1)·max(w); one is in S iff its label is the table's at its degree
mod w_0.  ``_lead_labels`` walks S's boundary by such lookups, as many as
S's extent, not w_0.  The basis is certified in three independent steps:
``ToricIdeal.validate`` puts every element in the kernel, the one
``buchberger`` pass reduces every frame pair to zero, so the elements are
a Gröbner basis, and the Hilbert identity, checked from ``semigroup``'s
own Apéry set, makes the ideal they generate the whole kernel; so the
kernel's table shares no code with ``semigroup``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import add, le, neg, sub

from monocurve.poly import Poly, Ring, SchreyerOrder, mono_coprime

# divide and s_polynomial are not called here; they stay importable as
# groebner.divide and groebner.s_polynomial
from monocurve.poly import divide, s_polynomial  # noqa: F401
from monocurve.semigroup import SequenceSpec

VARIABLE_NAMES = ("X0", "X1", "X2", "Y")


@dataclass
class GroebnerBasis:
    """A Gröbner basis with its certificate: for each pair of its lead
    frame, ((i, j), lead of the pair's syzygy, the syzygy as one {(slot,
    exponent): coefficient} dict), a column of the first syzygy map."""

    elements: list
    order: object
    frame: list


def _lead_frame(leads, induced) -> list:
    """The pairs (i, j) whose syzygies the resolution keeps, ascending, each
    with the lead of its syzygy.

    ``leads`` are the basis's (position, exponent) leads and ``induced``
    their Schreyer order.  The syzygy of (i, j), leads at one position, has
    lead cofactor_i e_i or cofactor_j e_j, whichever cofactor is
    lexicographically smaller (ties to i): both map to the lcm of the two
    leads, every quotient term to less.  Kept are the pairs whose lead is no
    multiple of a kept lead, taken in ascending order, of equal leads the
    first.
    """
    frame = []
    for i, (pos, a) in enumerate(leads):
        for j in range(i + 1, len(leads)):
            other, b = leads[j]
            if other == pos:
                lcm = tuple(map(max, a, b))
                cof_i, cof_j = tuple(map(sub, lcm, a)), tuple(map(sub, lcm, b))
                lead = (i, cof_i) if cof_i <= cof_j else (j, cof_j)
                frame.append((induced.key(lead), lead, (i, j)))
    kept: list = []
    for _, (slot, cof), pair in sorted(frame, key=lambda entry: entry[0]):
        if not any(slot == p and all(map(le, c, cof)) for (p, c), _ in kept):
            kept.append(((slot, cof), pair))
    return sorted((pair, lead) for lead, pair in kept)


def _rank_one(elements, order) -> tuple:
    """(columns, key, leads) of ``elements`` in F_0 = R: their position-0
    dicts, the rank-one key ordering (0, m) as m, and their leads."""
    columns = [{(0, m): c for m, c in g.terms.items()} for g in elements]
    return columns, lambda pm: order.key(pm[1]), [(0, g.lead(order)[0]) for g in elements]


def _refuse_others(elements) -> None:
    """ValueError unless every element is a unit monomial or a
    pure-difference binomial, up to sign."""
    for g in elements:
        if type(g) is not Poly or sorted(g.terms.values()) not in ([-1], [1], [-1, 1]):
            raise ValueError("not a unit monomial or pure-difference binomial: %r" % (g,))


def syzygy_level(columns, key, leads) -> tuple:
    """(induced, frame) of one syzygy level: ``induced`` the Schreyer order
    of ``leads``, the lead keys of ``columns`` in the order ``key``, and
    ``frame`` one (pair, lead, column) per pair of ``_lead_frame``, the
    column the pair's syzygy as a {(slot, exponent): coefficient} dict.

    On F_0 = R, every term at position 0, a pair with coprime leads keeps
    its Koszul column (g_i e_j - g_j e_i)·c_i c_j, c the lead coefficients
    (product criterion); every other pair goes to one ``pair_records``
    call, whose AssertionError names the first pair that leaves a remainder.
    """
    induced = SchreyerOrder(key, leads)
    kept = _lead_frame(leads, induced)
    rank_one = all(pos == 0 for column in columns for pos, _ in column)
    koszul = [rank_one and mono_coprime(leads[i][1], leads[j][1]) for (i, j), _ in kept]
    syzygies = iter(pair_records(columns, key, [pair for (pair, _), k in zip(kept, koszul) if not k], leads))
    frame = []
    for ((i, j), lead), k in zip(kept, koszul):
        if k:
            s = columns[i][leads[i]] * columns[j][leads[j]]
            column = {(i, m): -s * c for (_, m), c in columns[j].items()}
            column.update({(j, m): s * c for (_, m), c in columns[i].items()})
        else:
            column = next(syzygies)
        frame.append(((i, j), lead, column))
    return induced, frame


def buchberger(elements, order) -> GroebnerBasis:
    """Certify unit monomials and pure-difference binomials as a Gröbner
    basis by Buchberger's criterion over the lead frame, writing down the
    syzygy of each frame pair: ``syzygy_level`` on the elements as
    position-0 dicts of F_0 = R, so a pair that leaves a remainder raises an
    AssertionError naming it.  The kept pair syzygies generate the syzygies
    of the leads, so zero remainders on them prove the criterion.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one generator")
    _refuse_others(elements)
    return GroebnerBasis(elements, order, syzygy_level(*_rank_one(elements, order))[1])


def is_groebner(gens, order) -> bool:
    """Buchberger's criterion for pure-difference binomials with the
    product criterion (Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, §2.9): the set is a Gröbner basis iff ``pair_records``
    finds no remainder on the pairs whose leads share a variable."""
    gens = list(gens)
    _refuse_others(gens)
    if not all(map(is_pure_difference, gens)):
        raise ValueError("is_groebner takes pure-difference binomials only")
    columns, key, leads = _rank_one(gens, order)
    pairs = [(i, j) for j in range(len(leads)) for i in range(j) if not mono_coprime(leads[i][1], leads[j][1])]
    try:
        pair_records(columns, key, pairs, leads)
    except AssertionError:
        return False
    return True


def _subtract(terms: dict, items, shift: tuple, scale) -> None:
    """terms -= scale · x^shift · items, for (position, exponent) keys, in
    place, dropping the coefficients that cancel."""
    for (p, m), c in items:
        t = (p, tuple(map(add, m, shift)))
        v = terms.get(t, 0) - c * scale
        if v:
            terms[t] = v
        else:
            del terms[t]


def pair_records(columns, key, pairs, leads) -> list:
    """The syzygy of each pair (i, j) of ``columns``, {(position, exponent):
    coefficient} dicts that form a Gröbner basis in the order ``key``, with
    ``leads`` their lead keys, of which i's and j's share their position:
    the one division the program runs, for ``buchberger`` and
    ``is_groebner`` on a basis as position-0 dicts and for every later
    syzygy level.

    The S-element c_i·cofactor_i·columns[i] - c_j·cofactor_j·columns[j],
    c the lead coefficients, which must be ±1 (else a ValueError), is
    divided by ``columns``, which must leave remainder zero, by ``divide``'s
    rule in one dict: the greatest term goes to the dividing lead that is
    greatest in ``key``, ties to the earlier index, and only that divisor's
    tail is subtracted, since its lead cancels the term.  A term no lead
    divides would stay in the remainder, so the first one fails the pair.
    The syzygy is the quotients, minus c_i·cofactor_i at slot i, plus
    c_j·cofactor_j at slot j, again one {(slot, exponent): coefficient}
    dict; each quotient key is new to it, as the divided terms strictly
    fall and all lie below the lcm of the pair's leads.
    """
    units = [column[lead] for column, lead in zip(columns, leads)]
    if any(u not in (1, -1) for u in units):
        raise ValueError("a lead coefficient is not ±1: %r" % (units,))
    divisors: dict = {}  # position -> [(index, lead exponent, lead coefficient)], by precedence
    for k in sorted(range(len(leads)), key=lambda k: key(leads[k]), reverse=True):
        pos, mono = leads[k]
        divisors.setdefault(pos, []).append((k, mono, units[k]))
    tails = [[(t, c) for t, c in terms.items() if t != lead] for terms, lead in zip(columns, leads)]
    syzygies = []
    for i, j in pairs:
        (pos, a), (_, b) = leads[i], leads[j]
        lcm = tuple(map(max, a, b))
        cof_i, cof_j = tuple(map(sub, lcm, a)), tuple(map(sub, lcm, b))
        terms: dict = {}
        _subtract(terms, tails[i], cof_i, -units[i])
        _subtract(terms, tails[j], cof_j, units[j])
        syzygy = {(i, cof_i): -units[i], (j, cof_j): units[j]}
        while terms:
            top = max(terms, key=key)
            c = terms.pop(top)
            pos, mono = top
            for k, lead, unit in divisors.get(pos, ()):
                if all(map(le, lead, mono)):
                    break
            else:
                raise AssertionError("pair (%d, %d) leaves a nonzero remainder" % (i, j))
            q = tuple(map(sub, mono, lead))
            c *= unit
            syzygy[k, q] = c
            _subtract(terms, tails[k], q, c)
        syzygies.append(syzygy)
    return syzygies


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
        # a pure difference x^a - x^b vanishes under x_i -> t^{w_i} iff
        # deg a = deg b, so the last test also proves homogeneity
        for p in self.generators:
            if not is_pure_difference(p):
                raise AssertionError(f"not a pure difference binomial: {p}")
            if not vanishes_under_substitution(p, self.ring.weights):
                raise AssertionError(f"does not vanish under substitution: {p}")


def _default_names(count: int):
    defaults = ("x", "y", "z", "w", "u", "v")
    return defaults[:count]


def _decode(label: int, k: int, width: int) -> tuple:
    """(a, -e_1, .., -e_k) of the int label of x^(0, e_1, .., e_k)."""
    full = (1 << width) - 1
    return (label >> k * width,) + tuple((label >> i * width & full) - full for i in reversed(range(k)))


def _standard_table(w) -> tuple:
    """(table, width, steps): per residue r mod w[0], for weights w coprime
    as a whole, the int label of the order-least monomial x^(0, e_1, .., e_k)
    of least degree a_r in that residue, so that a_r runs over Ap(<w>, w[0]).

    The label is a_r, then E - e_1, .., E - e_k in fields of ``width`` bits
    (E = 2^width - 1), so ints compare as (a, -e_1, .., -e_k): least degree,
    then most x_1, and so on, the ring order.  x_i adds (step, residue step)
    = steps[i - 1].  Exact while e_i <= E: a least-degree path visits no
    residue twice, so a_r <= top = (w_0 - 1)·max(w), hence e_i <= top //
    w_i, one more in a neighbour, and E > top // min(w).
    Shortest paths over the residues, one edge per weight after the first.
    """
    m, top = w[0], (w[0] - 1) * max(w)
    width = (top // min(w) + 1).bit_length()
    shift = (len(w) - 1) * width
    steps = [((v << shift) - (1 << o), v % m) for v, o in zip(w[1:], range(shift - width, -1, -width))]
    heap = [(1 << shift) - 1]  # the label of 1
    least = heap + [None] * (m - 1)
    while heap:
        label = heapq.heappop(heap)
        r = (label >> shift) % m
        if label != least[r]:
            continue
        for step, v in steps:
            t, q = label + step, r + v - m if r + v >= m else r + v
            if least[q] is None or t < least[q]:
                least[q] = t
                heapq.heappush(heap, t)
    if max(least) >> shift > top:
        raise AssertionError("an Apéry element exceeds the packing bound")
    return least, width, steps


def _lead_labels(table, width, steps) -> list:
    """The labels of the minimal monomials outside the order ideal S of the
    x_0-free standard monomials, found on S's boundary: x^(0, e) of degree d
    is in S iff its label is table[d mod w_0].

    Slices fix x_1 .. x_(k-2); their bases in S form a tree, p·x_i below p
    for x_i from p's last raised variable on, and a base outside S is a
    candidate.  Column a of the slice of p is p·x_(k-1)^a, and its height
    in x_k only falls, so it is probed down from the last column's.  The
    cells above column 0 and above each column whose height fell (the last
    one empty) are candidates too.  A candidate is a lead iff dividing it by
    each fixed variable it carries lands in S.  So the lookups number about
    the slices' widths and heights plus k - 2 per candidate, whatever w_0.
    """
    if not steps:
        return []  # one weight: the kernel is zero
    m, shift, full = len(table), len(steps) * width, (1 << width) - 1
    fixed = [(step, shift - (i + 1) * width) for i, (step, _) in enumerate(steps[:-2])]
    col, row = [None, *(step for step, _ in steps)][-2:]  # x_(k-1), or None when k = 1, and x_k
    inside = lambda label: table[(label >> shift) % m] == label  # noqa: E731
    leads, todo = [], [(table[0], 0)]  # slice bases, with the first fixed variable each may raise
    while todo:
        p, j = todo.pop()
        corners = [p]
        if inside(p):
            todo += [(p + step, i) for i, (step, _) in enumerate(fixed[j:], j)]
            h = 1
            while inside(p + h * row):
                h += 1
            corners = [p + h * row]
            while col is not None and h:
                p, g = p + col, h
                while g and not inside(p + (g - 1) * row):
                    g -= 1
                if g < h:
                    corners.append(p + g * row)
                h = g
        leads += [c for c in corners if all(inside(c - step) for step, o in fixed if c >> o & full != full)]
    return leads


def toric_kernel_generic(weights, names=None):
    """Kernel of k[names] -> k[t], x_i -> t^{w_i}, read off the Apéry set.

    The kernel is spanned by the binomials x^u - x^v with w·u = w·v, and
    its reduced Gröbner basis is fixed by the standard monomials, the
    order-least monomial of each degree of the semigroup (Sturmfels,
    *Gröbner Bases and Convex Polytopes*, ch. 4 and 12).  x_0 is cheapest
    in the order's reverse tie-break and regular on k[Γ], so no lead
    involves it (Bayer and Stillman, *Invent. Math.* 87, 1987), and the
    standard monomial of degree s is x_0^((s - a_r)/w_0) · std_r, with
    (a_r, std_r) from ``_standard_table`` for r = s mod w_0 (after dividing
    out the gcd of the weights).  The leads are the minimal monomials
    outside S = {std_r}, each with the standard monomial of its degree as
    tail.  Monomials stay int labels (exact by the bound ``_standard_table``
    asserts), and ``_lead_labels`` finds the leads by walking S's boundary,
    in lookups that follow S's extent, not w_0.

    The basis then goes once through ``buchberger``, whose frame pairs
    all reduce to zero: that certifies it a Gröbner basis.  With
    ``ToricIdeal.validate`` (each element is in the kernel) and the Hilbert
    identity that ``series_numerator`` checks from its own Apéry set, that
    makes it the kernel's basis; so the Hilbert check must not read this
    table, and the table's code shares nothing with ``semigroup``.

    Returns (ring, gb) where gb is the reduced Gröbner basis of the kernel
    under the ring's weighted grevlex order, ascending by lead, with its
    frame of first syzygies.
    """
    weights = tuple(int(w) for w in weights)
    if names is None:
        names = _default_names(len(weights))
    ring = Ring(tuple(names), weights)
    g = math.gcd(*weights)
    w = tuple(v // g for v in weights)
    m, k = w[0], len(w) - 1
    table, width, steps = _standard_table(w)
    reduced = []
    for label in sorted(_lead_labels(table, width, steps)):  # the ring order, as no lead has x_0
        degree, *lead = _decode(label, k, width)
        a, *tail = _decode(table[degree % m], k, width)
        reduced.append(Poly(ring, {(0, *map(neg, lead)): 1, ((degree - a) // m, *map(neg, tail)): -1}))
    return ring, buchberger(reduced, ring.order())


def toric_kernel(spec: SequenceSpec) -> ToricIdeal:
    """Defining ideal of the curve (t^{m0}, t^{m1}, t^{m2}, t^{n})."""
    ring, gb = toric_kernel_generic(spec.weights, VARIABLE_NAMES)
    ideal = ToricIdeal(spec, ring, list(gb.elements), gb)
    ideal.validate()
    return ideal
