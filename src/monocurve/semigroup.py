"""Numerical semigroup arithmetic for almost arithmetic generating sequences.

A sequence (m0, m1, m2, n) is accepted when m0 < m1 < m2 is arithmetic, the
four numbers are coprime as a whole, and each generator is genuinely needed.
The semigroup Gamma = <m0, m1, m2, n> supplies the grading used by every
other module; membership queries are answered by a small dynamic-programming
table that is exact for all inputs.  Apery sets, found by shortest paths
over the residues, give the Frobenius number, the exact numerator of the
semigroup's generating series and the least multiple of a number that the
semigroup contains.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


class ValidationError(ValueError):
    """Base class for rejected generating sequences."""


class NotArithmetic(ValidationError):
    """m0, m1, m2 is not a strictly increasing arithmetic progression."""


class GcdNotOne(ValidationError):
    """The generators have a common factor, so the semigroup has gaps forever."""


class RedundantGenerator(ValidationError):
    """One generator already lies in the semigroup spanned by the others."""

    def __init__(self, which: str, message: str | None = None):
        self.which = which
        super().__init__(message or f"generator {which} is redundant")


class SubSemigroup:
    """Additive submonoid of the nonnegative integers with finitely many generators.

    Membership is decided exactly: after dividing out the gcd g of the
    generators, every multiple of g at least min(gens)*max(gens) belongs to
    the semigroup, so a boolean table up to that bound settles all queries.
    The table grows on demand, only as far as the largest query below it.
    """

    __slots__ = ("generators", "gcd", "_reduced", "_table", "_bound")

    def __init__(self, generators):
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens or gens[0] <= 0:
            raise ValueError("generators must be positive integers")
        self.generators = gens
        self.gcd = math.gcd(*gens)
        self._reduced = tuple(a // self.gcd for a in gens)
        # Everything >= min*max (in the reduced scale) is representable; the
        # Frobenius number of a coprime set a_1 < ... < a_k is < a_1 * a_k.
        self._bound = self._reduced[0] * self._reduced[-1] + 1
        self._table = [True]

    def _grow(self, upto: int) -> None:
        table = self._table
        start = len(table)
        table.extend([False] * (upto + 1 - start))
        reduced = self._reduced
        for s in range(start, upto + 1):
            for a in reduced:
                if a <= s and table[s - a]:
                    table[s] = True
                    break

    def contains(self, s: int) -> bool:
        if s < 0:
            return False
        if s % self.gcd:
            return False
        reduced = s // self.gcd
        if reduced >= self._bound:
            return True
        if reduced >= len(self._table):
            self._grow(reduced)
        return self._table[reduced]

    def __contains__(self, s: int) -> bool:
        return self.contains(s)

    def __repr__(self) -> str:
        return f"SubSemigroup{self.generators}"


def _least_per_residue(generators, m: int) -> list:
    """Smallest sum of ``generators`` in each residue class modulo m, by
    shortest paths over the residues, one edge per generator; None for a
    class no sum reaches."""
    least = [0] + [None] * (m - 1)
    heap = [(0, 0)]
    while heap:
        s, r = heapq.heappop(heap)
        if s > least[r]:
            continue
        for g in generators:
            t = s + g
            q = t % m
            if least[q] is None or t < least[q]:
                least[q] = t
                heapq.heappush(heap, (t, q))
    return least


def apery_set(semigroup: SubSemigroup, m: int) -> set[int]:
    """Smallest semigroup element in each residue class modulo m.

    Defined only when the semigroup eventually meets every residue class,
    i.e. when its generators are coprime as a whole.
    """
    if semigroup.gcd != 1:
        raise GcdNotOne("apery set undefined: generators share a common factor")
    if m <= 0 or not semigroup.contains(m):
        raise ValueError("apery base must be a positive element of the semigroup")
    return set(_least_per_residue(semigroup.generators, m))


def frobenius(semigroup: SubSemigroup) -> int:
    """Largest integer outside the semigroup (-1 when there is none)."""
    if semigroup.gcd != 1:
        raise GcdNotOne("frobenius undefined: generators share a common factor")
    m = semigroup.generators[0]
    return max(apery_set(semigroup, m)) - m


def min_multiple_in(x: int, semigroup: SubSemigroup) -> int:
    """Least v >= 1 such that v*x lies in the semigroup.

    With g the gcd of the generators, v*x lies in it exactly when g divides
    v*x and s = v*x/g >= Ap[s mod m], where Ap holds the least element of
    each residue class of the semigroup divided by g, modulo its least
    generator m.  So only multiples of g/gcd(g, x) are tried, against one
    table of m entries.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    g = semigroup.gcd
    reduced = tuple(a // g for a in semigroup.generators)
    m = reduced[0]
    least = _least_per_residue(reduced, m)
    step = x // math.gcd(g, x)
    s = step
    while s < least[s % m]:
        s += step
    return s * g // x


def series_numerator(weights) -> dict:
    """Gamma(z) * prod_w (1 - z^w) as {degree: coefficient}, zeros dropped,
    where Gamma(z) = sum_{s in Gamma} z^s for the semigroup the weights
    generate (coprime as a whole).

    With m the least weight, Gamma(z) * (1 - z^m) is the Apery polynomial
    sum_{a in Ap(Gamma, m)} z^a, so the product is a polynomial, computed
    exactly.
    """
    semigroup = SubSemigroup(weights)
    m = semigroup.generators[0]
    rest = list(weights)
    rest.remove(m)
    coeffs = dict.fromkeys(apery_set(semigroup, m), 1)
    for w in rest:
        product = dict(coeffs)
        for d, c in coeffs.items():
            product[d + w] = product.get(d + w, 0) - c
        coeffs = product
    return {d: c for d, c in coeffs.items() if c}


@dataclass(frozen=True)
class SequenceSpec:
    """A validated generating sequence (m0, m1, m2, n) with its derived data."""

    m0: int
    m1: int
    m2: int
    n: int

    @property
    def d(self) -> int:
        """Common difference of the arithmetic part."""
        return self.m1 - self.m0

    @property
    def weights(self) -> tuple[int, int, int, int]:
        return (self.m0, self.m1, self.m2, self.n)

    def arithmetic_part(self) -> SubSemigroup:
        """Semigroup spanned by the arithmetic generators only."""
        return SubSemigroup((self.m0, self.m1, self.m2))

    def semigroup(self) -> SubSemigroup:
        """Semigroup spanned by all four generators."""
        return SubSemigroup(self.weights)

    def __str__(self) -> str:
        return f"({self.m0},{self.m1},{self.m2},{self.n})"


def validate_sequence(m0: int, m1: int, m2: int, n: int) -> SequenceSpec:
    """Check a candidate sequence and return its SequenceSpec.

    Raises NotArithmetic, GcdNotOne or RedundantGenerator (in that order of
    precedence; minimality is checked for n first, then m0, m1, m2).
    """
    values = (m0, m1, m2, n)
    if any(not isinstance(v, int) or v <= 0 for v in values):
        raise ValidationError("all four entries must be positive integers")
    if m1 - m0 != m2 - m1 or m1 - m0 <= 0:
        raise NotArithmetic(
            f"({m0},{m1},{m2}) is not a strictly increasing arithmetic progression"
        )
    if math.gcd(m0, m1, m2, n) != 1:
        raise GcdNotOne(f"gcd{values} is not 1")
    order = (("n", 3), ("m0", 0), ("m1", 1), ("m2", 2))
    for name, index in order:
        rest = values[:index] + values[index + 1 :]
        if SubSemigroup(rest).contains(values[index]):
            raise RedundantGenerator(name)
    return SequenceSpec(m0, m1, m2, n)
