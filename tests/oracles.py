"""Reference constructions that only the tests use.

The program checks the Hilbert identity as one exact polynomial equation
built from the Apéry set, which it finds by shortest paths.  The references
for that:

* ``gamma_series_truncation`` and ``hilbert_series_truncation``, the two
  sides of the identity as power series cut at a given degree;
* ``apery_set_walk``, the Apéry set by walking each residue class upward
  with membership queries.

``reduce_basis`` makes a completed basis reduced by generic division.

The program computes the toric kernel by lattice saturation on binomials
stored as exponent pairs.  Two references compute the same reduced basis
another way, and the tests require them to agree with it:

* ``toric_kernel_elimination``, the textbook algorithm, on the reduced
  elements;
* ``toric_kernel_saturation``, the same saturations run through generic
  ``Poly`` arithmetic and ``reduce_basis``, on the reduced elements and on
  every record of the completion transcript.
"""

from monocurve.groebner import (
    GroebnerBasis,
    _default_names,
    _kernel_lattice_basis,
    buchberger,
    lead_minimal,
)
from monocurve.poly import Poly, Ring, coeff_div, divide
from monocurve.semigroup import SubSemigroup


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
