"""Reference constructions that only the tests use.

The program checks the Hilbert identity as one exact polynomial equation
built from the Apéry set, which it finds by shortest paths.  The references
for that:

* ``gamma_series_truncation`` and ``hilbert_series_truncation``, the two
  sides of the identity as power series cut at a given degree;
* ``apery_set_walk``, the Apéry set by walking each residue class upward
  with membership queries.

The program completes and checks bases in (lead, tail) exponent arithmetic
and resolves on Schreyer's lead frame.  The generic paths it replaced, in
``Poly``/``Vect`` arithmetic, are the references for that: ``buchberger``
(every pair reduced by ``divide``), ``is_groebner``, ``replay_ok``,
``ideal_member``, and ``resolution_all_pairs``, which completes every level
with ``buchberger`` and keeps the ``lead_minimal`` columns.
``reduce_basis`` makes a completed basis reduced by generic division.

``graded_betti_numbers`` reads the graded Betti numbers off the semigroup
alone, as reduced homology of small simplicial complexes, with no Gröbner
code at all.

The program computes the toric kernel by lattice saturation on binomials
stored as exponent pairs.  Two references compute the same reduced basis
another way, and the tests require them to agree with it:

* ``toric_kernel_elimination``, the textbook algorithm, on the reduced
  elements;
* ``toric_kernel_saturation``, the same saturations run through generic
  ``Poly`` arithmetic and ``reduce_basis``, on the reduced elements and on
  every record of the completion transcript.
"""

import functools
import heapq
from fractions import Fraction

from monocurve.groebner import (
    GroebnerBasis,
    PairRecord,
    _default_names,
    _kernel_lattice_basis,
)
from monocurve.poly import (
    Poly,
    Ring,
    SchreyerOrder,
    coeff_div,
    divide,
    mono_coprime,
    s_polynomial,
)
from monocurve.resolution import (
    FreeResolution,
    GradedFreeModule,
    GradedMap,
    _element_degrees,
    schreyer_syzygies,
)
from monocurve.semigroup import SubSemigroup


def buchberger(gens, order) -> GroebnerBasis:
    """Complete gens to a Gröbner basis in generic arithmetic; the input is
    kept as a prefix.

    Pairs are processed smallest lcm first in the order, which fixes the
    transcripts; module pairs exist only between leads at the same position.
    """
    elements = list(gens)
    if not elements:
        raise ValueError("need at least one generator")
    leads = [g.lead(order) for g in elements]
    if None in leads:
        raise ValueError("basis elements must be nonzero")
    kind = type(elements[0])
    heap: list = []

    def push_pairs(t: int):
        for i in range(t):
            lcm = kind.key_lcm(leads[i][0], leads[t][0])
            if lcm is not None:
                heapq.heappush(heap, (order.key(lcm), i, t))

    for t in range(1, len(elements)):
        push_pairs(t)

    transcript = []
    while heap:
        _, i, j = heapq.heappop(heap)
        gi, gj = elements[i], elements[j]
        (key_i, ci), (key_j, cj) = leads[i], leads[j]
        if kind is Poly and mono_coprime(key_i, key_j):
            # product criterion (in the ring only): reduction certified without division
            scale = coeff_div(1, ci * cj)
            tail_i = gi - Poly(gi.ring, {key_i: ci})
            tail_j = gj - Poly(gj.ring, {key_j: cj})
            quots = {}
            hi = tail_j * (-scale)
            hj = tail_i * scale
            if not hi.is_zero:
                quots[i] = hi
            if not hj.is_zero:
                quots[j] = hj
            lcm = kind.key_lcm(key_i, key_j)
            transcript.append(
                PairRecord(
                    i,
                    j,
                    gi.ring.monomial(kind.key_div(lcm, key_i), coeff_div(1, ci)),
                    gi.ring.monomial(kind.key_div(lcm, key_j), coeff_div(1, cj)),
                    quots,
                    koszul=True,
                )
            )
            continue
        spoly, cof_i, cof_j = s_polynomial(gi, gj, order)
        quotients, remainder = divide(spoly, elements, order)
        quots = {k: q for k, q in enumerate(quotients) if not q.is_zero}
        if not remainder.is_zero:
            t = len(elements)
            elements.append(remainder)
            leads.append(remainder.lead(order))
            quots[t] = elements[0].ring.one()
            push_pairs(t)
        transcript.append(PairRecord(i, j, cof_i, cof_j, quots))
    return GroebnerBasis(elements, order, transcript)


def is_groebner(gens, order) -> bool:
    """Buchberger criterion by honest division (no product-criterion shortcut)."""
    gens = list(gens)
    for j in range(1, len(gens)):
        for i in range(j):
            spair = s_polynomial(gens[i], gens[j], order)
            if spair is None:
                continue
            _, remainder = divide(spair[0], gens, order)
            if not remainder.is_zero:
                return False
    return True


def replay_ok(gb: GroebnerBasis) -> bool:
    """Re-check every transcript record by exact arithmetic."""
    for rec in gb.transcript:
        lhs = rec.cofactor_i * gb.elements[rec.i] - rec.cofactor_j * gb.elements[rec.j]
        for k, h in rec.quotients.items():
            lhs = lhs - h * gb.elements[k]
        if not lhs.is_zero:
            return False
    return True


def ideal_member(f: Poly, gb: GroebnerBasis) -> bool:
    if f.is_zero:
        return True
    _, remainder = divide(f, gb.elements, gb.order)
    return remainder.is_zero


def lead_minimal(elements, order) -> list:
    """Indices, in ascending lead order, of the elements whose lead is no
    multiple of a kept element's lead (of equal leads the first is kept)."""
    leads = [g.lead(order)[0] for g in elements]
    divides = elements[0].key_divides
    kept: list = []
    for k in sorted(range(len(elements)), key=lambda k: order.key(leads[k])):
        if not any(divides(leads[o], leads[k]) for o in kept):
            kept.append(k)
    return kept


def resolution_all_pairs(gb: GroebnerBasis):
    """The resolution of a completed, transcripted basis the generic way:
    every level completed by ``buchberger``, all of its pair syzygies
    written down, the ``lead_minimal`` ones kept.

    Returns (resolution, levels) with levels[k] the records of the pairs
    kept at map k + 1, in column order.
    """
    ring = gb.elements[0].ring
    base = GradedFreeModule(ring, (0,))
    first = GradedFreeModule(ring, tuple(_element_degrees(gb, None)))
    maps = [GradedMap(first, base, [list(gb.elements)])]
    levels = []
    twists = None
    while len(maps) <= ring.nvars:
        syz = schreyer_syzygies(gb, twists=twists)
        if syz.source.rank == 0:
            return FreeResolution(maps), levels
        leads = [g.lead(gb.order)[0] for g in gb.elements]
        induced = SchreyerOrder(gb.order, leads, type(gb.elements[0]).key_mul)
        vectors = [syz.column(j) for j in range(syz.source.rank)]
        kept = sorted(lead_minimal(vectors, induced))
        records = sorted(gb.transcript, key=lambda r: (r.i, r.j))
        levels.append([records[j] for j in kept])
        trimmed = GradedMap(
            GradedFreeModule(ring, tuple(syz.source.twists[j] for j in kept)),
            syz.target,
            [[row[j] for j in kept] for row in syz.entries],
        )
        next_gb = buchberger([vectors[j] for j in kept], induced)
        if len(next_gb.elements) != len(kept):
            raise AssertionError("syzygy columns were not already a Gröbner basis")
        maps.append(trimmed)
        twists = trimmed.target.twists
        gb = next_gb
    raise AssertionError("resolution exceeded the number of variables")


@functools.lru_cache(maxsize=None)
def _reduced_homology(faces: frozenset, vertices: int) -> tuple:
    """(dim H~_k over Q for k = -1 .. vertices - 1) of the simplicial complex
    whose faces are the given bit masks (the empty face is mask 0).  A
    complex on four vertices is one of a few hundred, so answers are kept."""
    by_size: dict = {}
    for f in sorted(faces):
        by_size.setdefault(bin(f).count("1"), []).append(f)

    def rank(size: int) -> int:
        """Rank of the boundary from faces of ``size`` to faces of size - 1."""
        rows = by_size.get(size - 1, [])
        index = {f: r for r, f in enumerate(rows)}
        matrix = []
        for f in by_size.get(size, []):
            row = [Fraction(0)] * len(rows)
            sign = 1
            for v in range(vertices):
                if f >> v & 1:
                    row[index[f & ~(1 << v)]] = Fraction(sign)
                    sign = -sign
            matrix.append(row)
        r = 0
        for col in range(len(rows)):
            pivot = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
            if pivot is None:
                continue
            matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
            for i in range(r + 1, len(matrix)):
                factor = matrix[i][col] / matrix[r][col]
                matrix[i] = [x - factor * y for x, y in zip(matrix[i], matrix[r])]
            r += 1
        return r

    ranks = [rank(size) for size in range(vertices + 2)]
    return tuple(
        len(by_size.get(size, [])) - ranks[size] - ranks[size + 1]
        for size in range(vertices + 1)
    )


def graded_betti_numbers(weights) -> list:
    """[level, degree, count] rows, ascending, of the minimal resolution of
    k[Γ], Γ = <weights>, with level 0 the ideal generators.

    β_{i,s} = dim H~_{i-1}(Δ_s) with Δ_s = {F : s - Σ_{j∈F} w_j ∈ Γ}
    (Miller and Sturmfels, *Combinatorial Commutative Algebra*, ch. 9).
    Unless s = a + Σ_{j∈F} w_j with a in the Apéry set of w_0 and
    F ⊆ {1, .., r}, adding vertex 0 to a face keeps it a face, so Δ_s is a
    cone and acyclic; only those s are looked at.  Faces are bit masks.
    """
    count = len(weights)
    semigroup = SubSemigroup(tuple(weights))
    apery = apery_set_walk(semigroup, weights[0])
    sums = [sum(w for j, w in enumerate(weights) if f >> j & 1) for f in range(1 << count)]
    top = max(apery) + sum(weights)
    member = [semigroup.contains(x) for x in range(top + 1)]
    degrees = {a + sums[f] for a in apery for f in range(0, 1 << count, 2)}
    rows = []
    for s in sorted(degrees):
        faces = frozenset(f for f in range(1 << count) if s >= sums[f] and member[s - sums[f]])
        for size, dim in enumerate(_reduced_homology(faces, count)):
            if dim and size >= 1:
                rows.append([size - 1, s, dim])
    return sorted(rows)


def gamma_series_truncation(semigroup: SubSemigroup, degree: int) -> list:
    """Coefficients 0..degree of the indicator power series sum_{s in S} z^s."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [1 if semigroup.contains(s) else 0 for s in range(degree + 1)]


def hilbert_series_truncation(numerator: dict, weights, degree: int) -> list:
    """Coefficients 0..degree of numerator / Π_w (1 - z^w), exact integers."""
    coeffs = [0] * (degree + 1)
    for d, c in numerator.items():
        if 0 <= d <= degree:
            coeffs[d] = c
    for w in weights:
        for i in range(w, degree + 1):
            coeffs[i] += coeffs[i - w]
    return coeffs


def apery_set_walk(semigroup: SubSemigroup, m: int) -> set:
    """Smallest element of each residue class mod m, found by stepping
    r, r + m, r + 2m, ... until the semigroup contains it."""
    result = set()
    for residue in range(m):
        s = residue
        while not semigroup.contains(s):
            s += m
        result.add(s)
    return result


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """Reduced Gröbner basis: monic leads, fully tail-reduced, sorted by
    ascending leading monomial.  Unique for the given order."""
    order = gb.order
    kept = [gb.elements[k] for k in lead_minimal(gb.elements, order)]
    reduced = []
    for idx, g in enumerate(kept):
        others = [h for k, h in enumerate(kept) if k != idx]
        if others:
            _, g = divide(g, others, order)
        _, coeff = g.lead(order)
        reduced.append(g * coeff_div(1, coeff))
    reduced.sort(key=lambda g: order.key(g.lead(order)[0]))
    completed = buchberger(reduced, order)
    if len(completed.elements) != len(reduced):
        raise AssertionError("reduce_basis input was not a Gröbner basis")
    return completed


def extended(ring: Ring, name: str = "T", weight: int = 1) -> Ring:
    """Ring with one auxiliary variable appended (used for elimination)."""
    return Ring(ring.names + (name,), ring.weights + (weight,))


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


def toric_kernel_elimination(weights, names=None):
    """Kernel of k[names] -> k[t], x_i -> t^{w_i}, by elimination.

    The textbook construction: append T, complete {x_i - T^{w_i}} under an
    elimination order, keep the T-free part.  Cost grows steeply with the
    weights (T-exponents reach lcm scale), so this serves as a reference to
    cross-check the lattice construction on moderate inputs.

    Returns (ring, gb) where gb is the reduced Gröbner basis of the kernel
    under the ring's weighted grevlex order, with a fresh transcript.
    """
    weights = tuple(int(w) for w in weights)
    if names is None:
        names = _default_names(len(weights))
    ring = Ring(tuple(names), weights)
    ext = extended(ring, "T", 1)
    gens = []
    for i, w in enumerate(weights):
        mono = [0] * ext.nvars
        mono[i] = 1
        tpow = [0] * ext.nvars
        tpow[-1] = w
        gens.append(Poly(ext, {tuple(mono): 1, tuple(tpow): -1}))
    gb = buchberger(gens, EliminationOrder(ext))
    tfree = []
    for p in gb.elements:
        if all(m[-1] == 0 for m in p.terms):
            tfree.append(Poly(ring, {m[:-1]: c for m, c in p.terms.items()}))
    # T-free elements of an elimination basis are a basis for the intersection
    # under the restricted order, which is exactly the ring's grevlex
    reduced = reduce_basis(GroebnerBasis(tfree, ring.order()))
    return ring, reduced


def _strip_variable(p: Poly, index: int) -> Poly:
    low = min(m[index] for m in p.terms)
    if low == 0:
        return p
    terms = {}
    for mono, c in p.terms.items():
        m = list(mono)
        m[index] -= low
        terms[tuple(m)] = c
    return Poly(p.ring, terms)


def toric_kernel_saturation(weights, names=None):
    """Kernel of k[names] -> k[t], x_i -> t^{w_i}, by lattice saturation in
    generic polynomial arithmetic.

    The same saturations as ``toric_kernel_generic``: for each variable,
    complete under grevlex with that variable cheapest (the ring permuted to
    put it first) and divide each element by the variable's common power;
    then complete under the ring's order and reduce.

    Returns (ring, gb) like ``toric_kernel_generic``.
    """
    weights = tuple(int(w) for w in weights)
    if names is None:
        names = _default_names(len(weights))
    ring = Ring(tuple(names), weights)
    gens = []
    for vec in _kernel_lattice_basis(weights):
        plus = tuple(max(e, 0) for e in vec)
        minus = tuple(max(-e, 0) for e in vec)
        gens.append(ring.monomial(plus) - ring.monomial(minus))
    for i in range(ring.nvars):
        perm = (i,) + tuple(j for j in range(ring.nvars) if j != i)
        sat_ring = Ring(
            tuple(ring.names[j] for j in perm), tuple(ring.weights[j] for j in perm)
        )
        moved = [
            Poly(sat_ring, {tuple(m[j] for j in perm): c for m, c in p.terms.items()})
            for p in gens
        ]
        completed = buchberger(moved, sat_ring.order())
        gens = []
        for p in completed.elements:
            stripped = _strip_variable(p, 0)
            back = {}
            for mono, c in stripped.terms.items():
                orig = [0] * ring.nvars
                for k, j in enumerate(perm):
                    orig[j] = mono[k]
                back[tuple(orig)] = c
            gens.append(Poly(ring, back))
    completed = buchberger(gens, ring.order())
    return ring, reduce_basis(completed)
