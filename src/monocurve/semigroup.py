"""Numerical semigroup arithmetic for almost arithmetic generating sequences.

A sequence (m0, m1, m2, n) is accepted when m0 < m1 < m2 is arithmetic, the
four numbers are coprime as a whole, and each generator is genuinely needed.
The semigroup Gamma = <m0, m1, m2, n> supplies the grading used by every
other module.  Apery sets, found by one round-robin pass over the residues,
answer membership (s is in the semigroup iff it is at least the Apery
element of its residue class) and give the Frobenius number and the exact
numerator of the semigroup's generating series.

A valid tuple builds one table, Gamma's, cached on its ``SequenceSpec``;
validation and the least multiple of n in <m0, m1, m2> come from formulas.
Every table the program builds, here and in the toric kernel, has at most
m0 entries, so ``validate_sequence`` refuses m0 above ``M0_BUDGET``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


#: the largest m0 accepted: a whole analysis at m0 = 3 999 971 peaks at
#: 509 MB and takes 8-11 s (shared 2-vCPU host), inside a 1 GB address-space cap
M0_BUDGET = 4_000_000


class ValidationError(ValueError):
    """Base class for rejected generating sequences."""


class OverBudget(ValidationError):
    """m0 exceeds M0_BUDGET, the size of the largest table built."""


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

    Membership is decided exactly by one Apéry table: with g the gcd of the
    generators and m the least of them divided by g, s belongs to the
    semigroup iff g divides s and s/g is at least the least element of its
    residue class mod m in the semigroup of the generators divided by g.
    The table has m entries and is built at the first query.
    """

    __slots__ = ("generators", "gcd", "_reduced", "_apery")

    def __init__(self, generators):
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens or gens[0] <= 0:
            raise ValueError("generators must be positive integers")
        self.generators = gens
        self.gcd = math.gcd(*gens)
        self._reduced = tuple(a // self.gcd for a in gens)
        self._apery = None

    def _least(self) -> list:
        """Least element of each residue class mod the least reduced
        generator, in the semigroup of the reduced generators."""
        if self._apery is None:
            self._apery = _least_per_residue(self._reduced, self._reduced[0])
        return self._apery

    def contains(self, s: int) -> bool:
        if s < 0 or s % self.gcd:
            return False
        s //= self.gcd
        m = self._reduced[0]
        if s < m:  # every Apéry element but 0 is at least m
            return s == 0
        return s >= self._least()[s % m]

    def __contains__(self, s: int) -> bool:
        return self.contains(s)

    def __repr__(self) -> str:
        return f"SubSemigroup{self.generators}"


def _least_per_residue(generators, m: int) -> list:
    """Smallest sum of ``generators`` in each residue class modulo m; None
    for a class no sum reaches.

    Round robin over the generators (Böcker and Lipták, *Algorithmica* 48,
    2007): adding generator g joins the residues into cycles r, r + g, ...
    mod m; each cycle is walked once from its least entry, which g cannot
    improve, keeping the lesser of the entry and the predecessor plus g.
    """
    least = [0] + [None] * (m - 1)
    for g in generators:
        d = math.gcd(g, m)
        if d == m:
            continue
        for start in range(d):
            known = [v for v in least[start::d] if v is not None]
            if not known:
                continue
            s = min(known)
            for _ in range(m // d - 1):
                s += g
                r = s % m
                v = least[r]
                if v is not None and v <= s:
                    s = v
                else:
                    least[r] = s
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
    return max(semigroup._least()) - semigroup.generators[0]


def min_multiple_in(x: int, semigroup: SubSemigroup) -> int:
    """Least v >= 1 such that v*x lies in the semigroup."""
    if x <= 0:
        raise ValueError("x must be positive")
    v = 1
    while not semigroup.contains(v * x):
        v += 1
    return v


def _in_progression(s: int, m0: int, d: int) -> bool:
    """Is s >= 0 in <m0, m0 + d, m0 + 2d>, whose elements are the k*m0 + j*d
    with 0 <= j <= 2k?  For g = gcd(m0, d) dividing s, k falls as j rises
    through one class mod m0/g, so the class's least j decides."""
    g = math.gcd(m0, d)
    m, e = m0 // g, d // g
    j = s // g * pow(e, -1, m) % m
    return s % g == 0 and j * m <= 2 * (s // g - j * e)  # j <= 2k, k = (s/g - j*e) / m


def _in_pair(s: int, a: int, b: int) -> bool:
    """Is s >= 0 in <a, b>?  The least count c of b's with c*b = s mod a
    decides, as it leaves the most for the a's."""
    g = math.gcd(a, b)
    return s % g == 0 and s // g * pow(b // g, -1, a // g) % (a // g) * b <= s


def progression_multiple(x: int, m0: int, d: int) -> int:
    """Least v >= 1 such that v*x lies in <m0, m0 + d, m0 + 2d>, with no
    table: only the multiples of g // gcd(g, x), g = gcd(m0, d), can."""
    if x <= 0:
        raise ValueError("x must be positive")
    g = math.gcd(m0, d)
    step = v = g // math.gcd(g, x)
    while not _in_progression(v * x, m0, d):
        v += step
    return v


def series_numerator(semigroup: SubSemigroup) -> dict:
    """Gamma(z) * prod_g (1 - z^g) over the generators g of ``semigroup``
    (coprime as a whole) as {degree: coefficient}, zeros dropped.  With m
    the least generator and g the largest, Gamma(z)(1 - z^m)(1 - z^g) is read
    off the boundary of Ap = Ap(Gamma, m), the semigroup's own table (a is in
    Ap iff it is its residue's entry): +1 at each a in Ap with a - g not in
    Ap, -1 at each a + g not in Ap.  Each other factor h then multiplies that
    dict in place: key e + h becomes old[e + h] - old[e]."""
    if semigroup.gcd != 1:
        raise GcdNotOne("series numerator undefined: generators share a common factor")
    m, *rest = semigroup.generators
    if not rest:
        return {0: 1}
    *rest, g = rest
    least = semigroup._least()
    coeffs = {a: 1 for a in least if least[(a - g) % m] != a - g}
    coeffs.update((a + g, -1) for a in least if least[(a + g) % m] != a + g)
    for h in rest:
        for e, c in list(coeffs.items()):
            coeffs[e + h] = coeffs.get(e + h, 0) - c
    return {e: c for e, c in coeffs.items() if c}


@dataclass(frozen=True)
class SequenceSpec:
    """A validated sequence (m0, m1, m2, n); ``gamma`` holds the tuple's one Apéry table."""

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

    @functools.cached_property
    def gamma(self) -> SubSemigroup:
        """Gamma, the semigroup spanned by all four generators."""
        return SubSemigroup(self.weights)

    def __str__(self) -> str:
        return f"({self.m0},{self.m1},{self.m2},{self.n})"


def validate_sequence(m0: int, m1: int, m2: int, n: int) -> SequenceSpec:
    """Check a candidate sequence and return its SequenceSpec.

    Raises NotArithmetic, GcdNotOne, OverBudget or RedundantGenerator (in
    that order of precedence; minimality is checked for n first, then m0,
    m1, m2).  Minimality is by formula, with no table: a generator is
    redundant iff it lies in <the other three>, where no larger one takes
    part, and 2*m1 > m2, so the tests are n in <m0, m1, m2>, n dividing m0,
    m1 in <m0, n>, and m2 or m2 - m1 in <m0, n>.
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
    if m0 > M0_BUDGET:
        raise OverBudget(f"m0 = {m0} exceeds M0_BUDGET = {M0_BUDGET}, the largest table of m0 entries built")
    if _in_progression(n, m0, m1 - m0):
        raise RedundantGenerator("n")
    if m0 % n == 0:
        raise RedundantGenerator("m0")
    if _in_pair(m1, m0, n):
        raise RedundantGenerator("m1")
    if _in_pair(m2, m0, n) or _in_pair(m2 - m1, m0, n):
        raise RedundantGenerator("m2")
    return SequenceSpec(m0, m1, m2, n)
