"""Seeded workload inputs and an exact Hilbert-series check, both computed
without calling the code under test.

A tuple (m0, m1, m2, n) is valid when m0 < m1 < m2 is arithmetic, the four
numbers are coprime as a whole and no generator lies in the semigroup of the
other three.  The filter below decides that with its own arithmetic, so a
change to ``monocurve.semigroup`` cannot change what a workload runs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random


def _in_arithmetic_span(s: int, m0: int, d: int) -> bool:
    """s in <m0, m0+d, m0+2d>: s = k*m0 + j*d for some 0 <= j <= 2k."""
    for k in range(s // m0 + 1):
        rest = s - k * m0
        if rest % d == 0 and rest // d <= 2 * k:
            return True
    return False


def _in_two_span(s: int, a: int, b: int) -> bool:
    """s in <a, b> for positive a, b."""
    for j in range(s // b + 1):
        if (s - j * b) % a == 0:
            return True
    return False


def is_valid(m0: int, d: int, n: int) -> bool:
    """Is (m0, m0+d, m0+2d, n) a valid almost arithmetic sequence?"""
    m1, m2 = m0 + d, m0 + 2 * d
    if math.gcd(math.gcd(m0, d), n) != 1:
        return False
    if _in_arithmetic_span(n, m0, d):
        return False
    # m0 is the least arithmetic generator, so only multiples of n reach it
    if n < m0 and m0 % n == 0:
        return False
    # m1 = a*m0 + c*n (m2 > m1 cannot take part)
    if _in_two_span(m1, m0, n):
        return False
    # m2 = c*n + (element of <m0, m1>)
    for c in range(m2 // n + 1):
        if _in_two_span(m2 - c * n, m0, m1):
            return False
    return True


def box_family(max_m2: int, max_n: int) -> list:
    """Valid tuples with m2 <= max_m2 and n <= max_n, ascending (m0, d, n)."""
    family = []
    for m0 in range(1, max_m2 - 1):
        d = 1
        while m0 + 2 * d <= max_m2:
            for n in range(1, max_n + 1):
                if is_valid(m0, d, n):
                    family.append((m0, m0 + d, m0 + 2 * d, n))
            d += 1
    return family


def wide_tuple(rng: random.Random) -> tuple:
    """A valid tuple drawn uniformly from m0 in 61..200, d in 1..20, n in 1..300."""
    while True:
        m0 = rng.randint(61, 200)
        d = rng.randint(1, 20)
        n = rng.randint(1, 300)
        if is_valid(m0, d, n):
            return (m0, m0 + d, m0 + 2 * d, n)


def digest(tuples) -> str:
    """Short sha256 of a tuple list, so two runs can prove equal inputs."""
    text = "\n".join(",".join(str(v) for v in t) for t in tuples)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def apery(weights) -> list:
    """Least semigroup element in each residue class mod min(weights).

    Shortest paths over the residues, one edge per generator; the
    generators must be coprime as a whole.
    """
    m = min(weights)
    least = [None] * m
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        s, r = heapq.heappop(heap)
        if s > least[r]:
            continue
        for w in weights:
            t = s + w
            q = t % m
            if least[q] is None or t < least[q]:
                least[q] = t
                heapq.heappush(heap, (t, q))
    return least


def hilbert_certified(weights, numerator) -> bool:
    """Is sum c z^d (``numerator`` as (d, c) pairs) equal to
    Gamma(z) * prod (1 - z^w) for the semigroup Gamma the weights generate?

    Both sides are polynomials of degree at most max(deg K, F + sum w), with
    F the Frobenius number, so comparing through that degree is a proof.
    """
    least = apery(weights)
    m = min(weights)
    numerator = {d: c for d, c in numerator if c}
    top = max(max(numerator, default=0), max(least) - m + sum(weights))
    series = [1 if s >= least[s % m] else 0 for s in range(top + 1)]
    for w in weights:
        for s in range(top, w - 1, -1):
            series[s] -= series[s - w]
    return numerator == {d: c for d, c in enumerate(series) if c}
