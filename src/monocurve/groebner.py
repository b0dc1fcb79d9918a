"""Binomial Gröbner bases certified on Schreyer's lead frame, plus toric
kernels.

Ideal elements are pure-difference binomials or unit monomials, up to sign
(Sturmfels, *Gröbner Bases and Convex Polytopes*, ch. 12).  ``pair_records``
is the one division, for every syzygy level, whose elements are the
columns of the map before, the generators those of F_0 = R.
``syzygy_level`` runs a level on its lead frame (La Scala and Stillman,
JSC 26, 1998), ``buchberger`` certifies a basis by level 1 and keeps it
packed, and ``resolution.build_resolution`` goes on from it; ``is_groebner``
divides every pair whose leads share a variable.

Each term x^m e_p of a level is one int, its own Schreyer key
(``_Module``), so terms compare, shift and divide as ints and the greatest
is a plain ``max``.  In F_0 = R, x^m is (deg m << MB) + V - m, m in one
field per variable, x_0 highest, of v value bits under a guard bit, and V
every value bit: weighted grevlex.  Over leads l_p the next level packs
x^m e_p as the int of l_p·x^m, then V - m, then 2^PB - 1 - p: the image,
then the lexicographically smaller cofactor, then the smaller position,
which is Schreyer's order.  The int is affine in m, so x^q adds one int to
every term, and the guard bits give divisibility and lcms in a few
operations.  No field borrows: each is V minus an exponent of a divisor of
the term's image in F_0, whose degree at most doubles per level, and v
holds D·2^levels over the least weight for generators of degree at most D;
the cofactor tie-break sheds a variable of the lead cofactors per level,
so there are at most as many levels as variables.

Every graded map keys its terms in ``_Module``'s fields too: x^m in row i
of a column of twist t <= top is (i << rs) + (t << mb) + V - m, in row 0
F_0's int at degree t.  A level's int goes to its map key by shifts and
masks (``keys``), a row's key of 1 is ``unit``, products are int adds,
and only ``encode`` (for ``_rank_one``) and ``decode`` see exponent tuples.

The toric kernel's reduced basis is read off the Apéry set, with no S-pair,
on ``_Module`` F_0 ints over x_1 .. x_k (``toric_kernel_generic``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import mul

from monocurve.poly import Poly, Ring

# divide and s_polynomial are not called here; they stay importable as
# groebner.divide and groebner.s_polynomial
from monocurve.poly import divide, s_polynomial  # noqa: F401
from monocurve.semigroup import SequenceSpec

VARIABLE_NAMES = ("X0", "X1", "X2", "Y")


@dataclass
class GroebnerBasis:
    """A Gröbner basis with its certificate, ``level``: the (module, frame)
    of ``syzygy_level`` on ``columns``, the elements' ints in F_0 = R, one
    ((i, j), lead, column) per pair of the lead frame, lead and column
    packed terms of ``module``, the column the pair's syzygy.  Its order is
    always the ring's weighted grevlex, the only one the packed keys express."""

    elements: list
    level: tuple
    columns: list


class _Module:
    """Packs one level's terms x^m e_p into ints consts[p] + (deg m << x) -
    m·r, their own Schreyer keys: m in the fields at ``shifts``, ``value``
    bits under a guard bit each, ``mb`` bits in all; ``full`` sets every
    value bit, ``guard`` every guard bit; the position is the low ``pb``
    bits.  Images in F_0 have degree at most ``top``.  A map key's row is
    key >> rs, its twist key >> mb below that, and x_i adds steps[i] to it."""

    shared = ("weights", "top", "value", "vmask", "mb", "fields", "shifts", "full", "guard", "rs", "steps")
    __slots__ = shared + ("pb", "pmask", "x", "r", "consts")

    def __init__(self, weights, top):
        """F_0 = R, x^m packed as (deg m << mb) + V - m: weighted grevlex."""
        v = (top // min(weights, default=1)).bit_length()
        self.weights, self.top, self.value, self.vmask = weights, top, v, (1 << v) - 1
        self.mb = len(weights) * (v + 1)
        self.fields, self.shifts = (1 << self.mb) - 1, tuple(range(self.mb - v - 1, -1, -v - 1))
        self.full, self.guard = sum(self.vmask << s for s in self.shifts), sum(1 << s + v for s in self.shifts)
        self.rs = self.mb + top.bit_length()
        self.steps = tuple((w << self.mb) - (1 << s) for w, s in zip(weights, self.shifts))
        self.pb, self.pmask, self.x, self.r, self.consts = 0, 0, self.mb, 1, (self.full,)

    def next(self, leads) -> "_Module":
        """The level over ``leads``, ints of this one: x^m e_p is the int of
        leads[p]·x^m here, then V - m, then 2^pb - 1 - p."""
        out, pb = object.__new__(_Module), len(leads).bit_length()
        for name in self.shared:
            setattr(out, name, getattr(self, name))
        low = self.mb + pb
        out.consts = [(lead << low) + (self.full << pb) + (1 << pb) - 1 - p for p, lead in enumerate(leads)]
        out.pb, out.pmask, out.x, out.r = pb, (1 << pb) - 1, self.x + low, (self.r << low) + (1 << pb)
        return out

    def term(self, p: int, q: int, degree: int) -> int:
        """The int of x^q e_p, q packed, of the given degree."""
        return self.consts[p] + (degree << self.x) - q * self.r

    def degree(self, q: int) -> int:
        v = self.vmask
        return sum([w * (q >> s & v) for w, s in zip(self.weights, self.shifts)])

    def keys(self, column) -> dict:
        """``column``, {int: coefficient} of this level, with each x^m e_p
        keyed as x^m in row p of a map, at the degree of its image."""
        pb, pmask, x, mb, fields, rs = self.pb, self.pmask, self.x, self.mb, self.fields, self.rs
        return {(~t & pmask) << rs | t >> x << mb | t >> pb & fields: c for t, c in column.items()}

    def unit(self, row: int, twist: int) -> int:
        """The map key of 1 in a row of ``twist``; x^m adds m·steps to it."""
        return (row << self.rs) + (twist << self.mb) + self.full

    def encode(self, row: int, twist: int, exponent=()) -> int:
        """The map key of x^exponent, 1 by default, in a row of ``twist``."""
        return self.unit(row, twist) + sum(map(mul, exponent, self.steps))

    def decode(self, key: int) -> tuple:
        """(row, exponent) of a map key."""
        m, v = self.full - (key & self.fields), self.vmask
        return key >> self.rs, tuple([m >> s & v for s in self.shifts])

    def take_row(self, column, row: int) -> tuple:
        """(rest, taken) of a map column: a dict of its terms off ``row``, the
        rows after it moved up one, and a list of its (key, c) terms in it."""
        one = 1 << self.rs
        low, high = row * one, (row + 1) * one
        rest = {key - one if key >= high else key: c for key, c in column.items() if not low <= key < high}
        return rest, [(key, c) for key, c in column.items() if low <= key < high]

    def cofactors(self, a: int, b: int) -> tuple:
        """lcm - m_a and lcm - m_b, packed, for terms a and b at one
        position, m_a, m_b their exponents and lcm theirs."""
        a, b = a >> self.pb & self.fields, b >> self.pb & self.fields  # V - m_a, V - m_b
        ge = (a | self.guard) - b & self.guard  # the guard bits of the fields where a >= b
        least = ge - (ge >> self.value)
        low = b & least | a & ~least  # V - lcm
        return a - low, b - low


def _lead_frame(module, syz, leads) -> list:
    """The pairs (i, j) whose syzygies the resolution keeps, ascending, each
    with the lead of its syzygy in ``syz``, the level over ``leads``.

    The syzygy of (i, j), leads at one position, has lead cofactor_i e_i or
    cofactor_j e_j, whichever cofactor is lexicographically smaller (ties to
    i): both map to the lcm of the two leads, every quotient term to less.
    Kept are per slot the minimal lead cofactors, of equal ones the first
    pair: the leads an ascending pass keeps when no kept lead divides them,
    since per slot the Schreyer order is a monomial order.
    """
    mask, guard = module.pmask, module.guard
    minimal: dict = {}  # slot -> [(cofactor, pair)], none dividing another
    for i, a in enumerate(leads):
        for j in range(i + 1, len(leads)):
            if (a ^ leads[j]) & mask == 0:
                cof_i, cof_j = module.cofactors(a, leads[j])
                slot, cof = (i, cof_i) if cof_i <= cof_j else (j, cof_j)
                kept = minimal.setdefault(slot, [])
                if all((cof | guard) - k & guard != guard for k, _ in kept):
                    kept[:] = [(k, pair) for k, pair in kept if (k | guard) - cof & guard != guard]
                    kept.append((cof, (i, j)))
    return sorted((pair, syz.term(slot, c, syz.degree(c))) for slot, kept in minimal.items() for c, pair in kept)


def _rank_one(elements) -> tuple:
    """(module, columns, leads) of ``elements`` in F_0 = R: the ``_Module``
    for one level per variable, each at most doubling the degrees, the
    elements' {int: coefficient} dicts, and their leads."""
    ring = elements[0].ring
    w = ring.weights
    module = _Module(w, max(sum(map(mul, m, w)) for g in elements for m in g.terms) << ring.nvars)
    columns = [{module.encode(0, 0, m): c for m, c in g.terms.items()} for g in elements]
    return module, columns, [max(column) for column in columns]


def _refuse_others(elements) -> None:
    """ValueError unless every element is a unit monomial or a
    pure-difference binomial, up to sign."""
    for g in elements:
        if type(g) is not Poly or sorted(g.terms.values()) not in ([-1], [1], [-1, 1]):
            raise ValueError("not a unit monomial or pure-difference binomial: %r" % (g,))


def syzygy_level(module, columns, leads) -> tuple:
    """(syz, frame) of one syzygy level: ``syz`` the ``_Module`` over
    ``leads``, the leads of ``columns``, {int: coefficient} dicts of
    ``module``, and ``frame`` one (pair, lead, column) per pair of
    ``_lead_frame``, the column the pair's syzygy in ``syz``.

    On F_0 = R (r = 1) a pair with coprime leads, whose lcm's degree is the
    sum of theirs, keeps its Koszul column (g_i e_j - g_j e_i)·c_i c_j, c
    the lead coefficients (product criterion); every other pair goes to one
    ``pair_records`` call, whose AssertionError names the first pair that
    leaves a remainder.
    """
    syz, x = module.next(leads), module.x
    kept = _lead_frame(module, syz, leads)
    koszul = [module.r == 1 and lead >> syz.x == (leads[i] >> x) + (leads[j] >> x) for (i, j), lead in kept]
    divided = [pair for (pair, _), k in zip(kept, koszul) if not k]
    syzygies = iter(pair_records(module, syz, columns, divided, leads))
    # x^m e_p less consts[p], for x^m in F_0 = R
    lift = lambda t: (t >> x << syz.x) - (module.full - (t & module.fields)) * syz.r  # noqa: E731
    frame = []
    for ((i, j), lead), k in zip(kept, koszul):
        if k:
            s = columns[i][leads[i]] * columns[j][leads[j]]
            column = {syz.consts[i] + lift(t): -s * c for t, c in columns[j].items()}
            column.update({syz.consts[j] + lift(t): s * c for t, c in columns[i].items()})
        else:
            column = next(syzygies)
        frame.append(((i, j), lead, column))
    return syz, frame


def buchberger(elements) -> GroebnerBasis:
    """Certify unit monomials and pure-difference binomials as a Gröbner
    basis in the ring's weighted grevlex order by Buchberger's criterion
    over the lead frame: ``syzygy_level`` on the elements in F_0 = R, packed
    for the at most one level per variable ``build_resolution`` makes, so a
    pair that leaves a remainder raises an AssertionError naming it.  The
    kept pair syzygies generate the syzygies of the leads, so zero
    remainders on them prove the criterion; the level is kept packed.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one generator")
    _refuse_others(elements)
    module, columns, leads = _rank_one(elements)
    return GroebnerBasis(elements, syzygy_level(module, columns, leads), columns)


def is_groebner(gens) -> bool:
    """Buchberger's criterion for pure-difference binomials with the
    product criterion (Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, §2.9): the set is a Gröbner basis iff ``pair_records``
    finds no remainder on the pairs whose leads share a variable."""
    gens = list(gens)
    _refuse_others(gens)
    if not all(map(is_pure_difference, gens)):
        raise ValueError("is_groebner takes pure-difference binomials only")
    if not gens:
        return True  # the zero ideal, with no degree to pack by
    module, columns, leads = _rank_one(gens)
    guard, ones = module.guard, module.guard >> module.value
    # the guard bits of the variables each lead carries
    support = [(module.full - (t & module.fields) | guard) - ones & guard for t in leads]
    pairs = [(i, j) for j in range(len(leads)) for i in range(j) if support[i] & support[j]]
    try:
        pair_records(module, module.next(leads), columns, pairs, leads)
    except AssertionError:
        return False
    return True


def _subtract(terms: dict, items, shift: int, scale) -> None:
    """terms -= scale · x^q · items, x^q adding ``shift`` to each int, in
    place, dropping the coefficients that cancel."""
    for t, c in items:
        t += shift
        v = terms.get(t, 0) - c * scale
        if v:
            terms[t] = v
        else:
            del terms[t]


def pair_records(module, syz, columns, pairs, leads) -> list:
    """The syzygy of each pair (i, j) of ``columns``, {int: coefficient}
    dicts of ``module`` forming a Gröbner basis with leads ``leads``, i's and
    j's at one position, as a {int: coefficient} dict of ``syz``, the level
    over ``leads``: the one division the program runs, at every level.

    The S-element c_i·cofactor_i·columns[i] - c_j·cofactor_j·columns[j],
    c the lead coefficients, which must be ±1 (else a ValueError), is
    divided by ``divide``'s rule in one dict: the greatest term goes to the
    greatest dividing lead, ties to the earlier index, whose tail is
    subtracted shifted by the term minus the lead; a term no lead divides
    fails the pair (AssertionError).  The syzygy is the quotients, minus
    c_i·cofactor_i at slot i, plus c_j·cofactor_j at slot j; each quotient
    is new to it, as the divided terms strictly fall below the lcm of the
    pair's leads, whose degree must be at most ``module.top``.
    """
    units = [column[lead] for column, lead in zip(columns, leads)]
    if any(u not in (1, -1) for u in units):
        raise ValueError("a lead coefficient is not ±1: %r" % (units,))
    if not pairs:
        return []
    pb, x, r, guard, mask, mb = module.pb, module.x, module.r, module.guard, module.pmask, module.fields
    consts, sx, sr = syz.consts, syz.x, syz.r
    divisors: dict = {}  # position -> [(index, lead, V - its exponent, lead coefficient)], by precedence
    for k in sorted(range(len(leads)), key=leads.__getitem__, reverse=True):
        divisors.setdefault(leads[k] & mask, []).append((k, leads[k], leads[k] >> pb & mb, units[k]))
    tails = [[(t, c) for t, c in column.items() if t != lead] for column, lead in zip(columns, leads)]
    syzygies = []
    for i, j in pairs:
        a, b = leads[i], leads[j]
        cof_i, cof_j = module.cofactors(a, b)
        deg_i = module.degree(cof_i)
        if (a >> x) + deg_i > module.top:
            raise AssertionError("pair (%d, %d) exceeds the packing bound" % (i, j))
        lcm = a + (deg_i << x) - cof_i * r
        terms: dict = {}
        _subtract(terms, tails[i], lcm - a, -units[i])
        _subtract(terms, tails[j], lcm - b, units[j])
        syzygy = {syz.term(i, cof_i, deg_i): -units[i], syz.term(j, cof_j, (lcm >> x) - (b >> x)): units[j]}
        while terms:
            top = max(terms)
            c = terms.pop(top)
            m = top >> pb & mb
            for k, lead, d, unit in divisors.get(top & mask, ()):
                if (d | guard) - m & guard == guard:
                    break
            else:
                raise AssertionError("pair (%d, %d) leaves a nonzero remainder" % (i, j))
            c *= unit
            syzygy[consts[k] + ((top >> x) - (lead >> x) << sx) - (d - m) * sr] = c
            _subtract(terms, tails[k], top - lead, c)
        syzygies.append(syzygy)
    return syzygies


def is_pure_difference(p: Poly) -> bool:
    """Two terms, coefficients +1 and -1."""
    return sorted(p.terms.values()) == [-1, 1]


@dataclass
class ToricIdeal:
    """Defining ideal of the monomial curve, with its reduced Gröbner basis."""

    spec: SequenceSpec
    reduced_gb: GroebnerBasis

    def validate(self) -> None:
        # a pure difference x^a - x^b vanishes under x_i -> t^{w_i} iff
        # deg a = deg b, which also proves it homogeneous
        for p in self.reduced_gb.elements:
            if not is_pure_difference(p):
                raise AssertionError(f"not a pure difference binomial: {p}")
            if len({p.ring.degree(m) for m in p.terms}) != 1:
                raise AssertionError(f"does not vanish under substitution: {p}")


def _standard_table(w) -> tuple:
    """(table, module): per residue r mod w[0], for weights w coprime as a
    whole, the F_0 int in ``module``, the ``_Module`` over w[1:], of the
    order-least monomial x^(0, e_1, .., e_k) of least degree a_r in that
    residue, so that a_r runs over Ap(<w>, w[0]).

    The int is (a_r << mb) + V - e, so ints compare as (a, -e_1, .., -e_k):
    least degree, then most x_1, and so on, the ring order.  1 is
    ``module.full``, x_i adds ``module.steps[i - 1]``, the residue is the
    degree field mod w_0.  Exact while no field borrows: a least-degree path
    visits no residue twice, so a_r <= top = (w_0 - 1)·max(w), and a
    neighbour, a table monomial times one variable, has degree at most
    top + max(w), the module's top, so e_i <= (top + max(w)) // w_i fits.
    Shortest paths over the residues, one edge per weight after the first.
    """
    m, top = w[0], (w[0] - 1) * max(w)
    module = _Module(w[1:], top + max(w))
    mb = module.mb
    steps = [(step, v % m) for step, v in zip(module.steps, module.weights)]
    heap = [module.full]  # the int of 1
    least = heap + [None] * (m - 1)
    while heap:
        label = heapq.heappop(heap)
        r = (label >> mb) % m
        if label != least[r]:
            continue
        for step, v in steps:
            t, q = label + step, r + v - m if r + v >= m else r + v
            if least[q] is None or t < least[q]:
                least[q] = t
                heapq.heappush(heap, t)
    if max(least) >> mb > top:
        raise AssertionError("an Apéry element exceeds the packing bound")
    return least, module


def _lead_labels(table, module) -> list:
    """The ints, in ``module``'s F_0, of the minimal monomials outside the
    order ideal S of the x_0-free standard monomials, found on S's
    boundary: x^(0, e) of degree d is in S iff its int is table[d mod w_0].

    Slices fix x_1 .. x_(k-2); their bases in S form a tree, p·x_i below p
    for x_i from p's last raised variable on, and a base outside S is a
    candidate.  Column a of the slice of p is p·x_(k-1)^a, and its height
    in x_k only falls, so it is probed down from the last column's.  The
    cells above column 0 and above each column whose height fell (the last
    one empty) are candidates too.  A candidate is a lead iff dividing it by
    each fixed variable it carries lands in S.  So the lookups number about
    the slices' widths and heights plus k - 2 per candidate, whatever w_0.
    Every int probed is in S or a neighbour, so the table's bound holds.
    """
    if not module.steps:
        return []  # one weight: the kernel is zero
    m, mb, v = len(table), module.mb, module.vmask
    fixed = list(zip(module.steps[:-2], module.shifts))  # x_i's step, and its field
    col, row = [None, *module.steps][-2:]  # x_(k-1), or None when k = 1, and x_k
    inside = lambda label: table[(label >> mb) % m] == label  # noqa: E731
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
        leads += [c for c in corners if all(inside(c - step) for step, s in fixed if c >> s & v != v)]
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
    tail.  Monomials stay ``_Module`` ints over x_1 .. x_k, exact by the
    bound ``_standard_table`` sizes the module by and asserts, and
    ``_lead_labels`` finds the leads by walking S's boundary, in lookups
    that follow S's extent, not w_0.

    The basis then goes once through ``buchberger``, whose frame pairs
    all reduce to zero: that certifies it a Gröbner basis.  With
    ``ToricIdeal.validate`` (each element is in the kernel) and the Hilbert
    identity that ``series_numerator`` checks from its own Apéry set, that
    makes it the kernel's basis; so the Hilbert check must not read this
    table, and the table's code shares nothing with ``semigroup``.

    Returns (ring, gb) where gb is the reduced Gröbner basis of the kernel
    under the ring's weighted grevlex order, ascending by lead, with its
    packed level of first syzygies.
    """
    weights = tuple(int(w) for w in weights)
    ring = Ring(("x", "y", "z", "w", "u", "v")[: len(weights)] if names is None else tuple(names), weights)
    g = math.gcd(*weights)
    w = tuple(v // g for v in weights)
    table, module = _standard_table(w)
    reduced = []
    for lead in sorted(_lead_labels(table, module)):  # the ring order, as no lead has x_0
        degree = lead >> module.mb
        tail = table[degree % w[0]]
        x0 = (degree - (tail >> module.mb)) // w[0]
        reduced.append(Poly(ring, {(0, *module.decode(lead)[1]): 1, (x0, *module.decode(tail)[1]): -1}))
    return ring, buchberger(reduced)


def toric_kernel(spec: SequenceSpec) -> ToricIdeal:
    """Defining ideal of the curve (t^{m0}, t^{m1}, t^{m2}, t^{n})."""
    ideal = ToricIdeal(spec, toric_kernel_generic(spec.weights, VARIABLE_NAMES)[1])
    ideal.validate()
    return ideal
