"""Numerical semigroup arithmetic for almost arithmetic generating sequences.

A sequence (m0, m1, m2, n) is accepted when m0 < m1 < m2 is arithmetic, the
four numbers are coprime as a whole, and each generator is genuinely needed.
The semigroup Gamma = <m0, m1, m2, n> supplies the grading used by every
other module; membership queries are answered by a small dynamic-programming
table that is exact for all inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ValidationError(ValueError):
    """Base class for rejected generating sequences."""


class NotArithmetic(ValidationError):
    """m0, m1, m2 is not a strictly increasing arithmetic progression."""


class GcdNotOne(ValidationError):
    """The generators have a common factor, so the semigroup has gaps forever."""


class NotMinimal(ValidationError):
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


def apery_set(semigroup: SubSemigroup, m: int) -> set[int]:
    """Smallest semigroup element in each residue class modulo m.

    Defined only when the semigroup eventually meets every residue class,
    i.e. when its generators are coprime as a whole.
    """
    if semigroup.gcd != 1:
        raise GcdNotOne("apery set undefined: generators share a common factor")
    if m <= 0 or not semigroup.contains(m):
        raise ValueError("apery base must be a positive element of the semigroup")
    result = set()
    for residue in range(m):
        s = residue
        while not semigroup.contains(s):
            s += m
        result.add(s)
    return result


def frobenius(semigroup: SubSemigroup) -> int:
    """Largest integer outside the semigroup (-1 when there is none)."""
    if semigroup.gcd != 1:
        raise GcdNotOne("frobenius undefined: generators share a common factor")
    m = semigroup.generators[0]
    return max(apery_set(semigroup, m)) - m


def min_multiple_in(x: int, semigroup: SubSemigroup) -> int:
    """Least v >= 1 such that v*x lies in the semigroup."""
    if x <= 0:
        raise ValueError("x must be positive")
    v = 1
    while not semigroup.contains(v * x):
        v += 1
    return v


def gamma_series_truncation(semigroup: SubSemigroup, degree: int) -> list[int]:
    """Coefficients 0..degree of the indicator power series sum_{s in S} z^s."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [1 if semigroup.contains(s) else 0 for s in range(degree + 1)]


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

    Raises NotArithmetic, GcdNotOne or NotMinimal (in that order of
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
            raise NotMinimal(name)
    return SequenceSpec(m0, m1, m2, n)
