"""Graded free modules and maps, Schreyer syzygies on the lead frame, and
minimalization: each constant entry of a free resolution is split off with
its trivial summand, one Schur-complement step per unit, until the
resolution is minimal.  ``FreeResolution.validate`` certifies d∘d = 0 with
``compose_zero``, which sums each column of a product in exponent
arithmetic on the maps' column dicts and builds no polynomial.

The syzygy levels come from ``groebner.syzygy_level``, one packed frame
each: level 1 is the certificate ``buchberger`` made (``GroebnerBasis.level``),
every later level one more call on the frame before.  Each level's frame
is decoded once into columns of the level's map, which
``schreyer_syzygies`` takes as they are.

Conventions, fixed once:

* A free module is a list of twists; twist d stands for R(-d), so a generator
  of weighted degree d sits in a summand with twist d.
* A map F -> G is stored as its columns, one per basis vector of F: column j,
  the image of the j-th basis vector, is a {(row, exponent): coefficient}
  dict with rows indexing G's basis.  Every term of column j in row i has
  degree source.twists[j] - target.twists[i] >= 0; ``entries`` shows the
  map as a matrix of ``Poly`` entries, rank(G) rows by rank(F) columns.
* A resolution keeps maps[k]: F_{k+1} -> F_k with F_0 = R at twist 0, so
  maps[0] has one row, the ideal generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, lshift, mul

from monocurve.poly import Ring
from monocurve.groebner import GroebnerBasis, syzygy_level

# buchberger is not called here; it stays importable as resolution.buchberger
from monocurve.groebner import buchberger  # noqa: F401


class ShapeMismatch(ValueError):
    """Matrix shapes or module ranks do not line up."""


class HomogeneityBroken(ValueError):
    """An entry is inconsistent with the graded twists."""


class PreconditionViolated(ValueError):
    """prune_unit called on an entry that is not a constant ±1."""


class NotMinimal(ValueError):
    """Betti numbers are only read off resolutions flagged minimal."""


# ---------------------------------------------------------------------------
# graded modules and maps


@dataclass(frozen=True)
class GradedFreeModule:
    ring: Ring
    twists: tuple

    @property
    def rank(self) -> int:
        return len(self.twists)

    def __repr__(self):
        return f"GradedFreeModule({list(self.twists)})"


def _column_twists(target: GradedFreeModule, columns) -> tuple:
    """The twist of each column, read off its first term, after one check
    of every term: its row is one of ``target``'s (else ShapeMismatch) and
    its degree is the column's twist minus the row's, at least 0 (else
    HomogeneityBroken)."""
    weights, rows = target.ring.weights, target.twists
    rank = len(rows)
    out = []
    for j, column in enumerate(columns):
        want = None
        for i, mono in column:
            if not 0 <= i < rank:
                raise ShapeMismatch(f"column {j} has a term in row {i} of rank {rank}")
            d = sum(map(mul, mono, weights))
            t = d + rows[i]
            if want is None:
                want = t
            if t != want or d < 0:
                raise HomogeneityBroken(f"entry ({i},{j}) has degree {d}, twists demand {want - rows[i]}")
        if want is None:
            raise ShapeMismatch(f"column {j} is zero, so it has no twist")
        out.append(want)
    return tuple(out)


class GradedMap:
    """Homogeneous degree-zero map between graded free modules, kept as its
    columns: one {(row, exponent): coefficient} dict per source basis
    vector, never changed once ``from_columns`` has built the map."""

    __slots__ = ("source", "target", "columns")

    @classmethod
    def from_columns(cls, target: GradedFreeModule, columns) -> "GradedMap":
        """The map into ``target`` with the given nonzero columns, each
        column's twist read off its first term and every term checked once."""
        return cls._trimmed(GradedFreeModule(target.ring, _column_twists(target, columns)), target, columns)

    @classmethod
    def _trimmed(cls, source: GradedFreeModule, target: GradedFreeModule, columns):
        """A map whose columns are known to fit its twists (checked columns,
        or a checked map with rows or columns deleted), checked no more."""
        out = object.__new__(cls)
        out.source = source
        out.target = target
        out.columns = tuple(columns)
        return out

    @property
    def entries(self) -> tuple:
        """The matrix, rank(target) rows of rank(source) ``Poly`` entries,
        built anew from the columns at each call."""
        rows = [[{} for _ in self.columns] for _ in self.target.twists]
        for j, column in enumerate(self.columns):
            for (i, mono), c in column.items():
                rows[i][j][mono] = c
        zero = self.target.ring.zero()
        return tuple(tuple(zero._like(terms) for terms in row) for row in rows)

    def __repr__(self):
        return f"GradedMap({self.target.rank}x{self.source.rank})"


def compose_zero(a: GradedMap, b: GradedMap) -> bool:
    """True iff the matrix product a∘b is zero (a: F->G, b: E->F).

    Exact, on the column dicts: column j of a∘b is one accumulator keyed by
    (row, exponent), to which each term c·x^m of b's column j in row k adds
    a's column k shifted by x^m and scaled by c, and the first column left
    with a nonzero coefficient answers False.  The keys are packed into one
    int, the row above one field per variable: a term of a, b or a∘b has
    degree at most B, the largest twist of E and F minus the smallest of F
    and G, so with positive integer weights no exponent exceeds B, and
    fields of B.bit_length() + 1 bits never carry.
    """
    if a.source != b.target:
        raise ShapeMismatch("inner modules differ")
    inner = a.source.twists
    top = max(b.source.twists + inner, default=0) - min(inner + a.target.twists, default=0)
    width = top.bit_length() + 1
    shifts = range(0, width * a.target.ring.nvars, width)
    row_shift = width * len(shifts)
    left = [
        [((i << row_shift) + sum(map(lshift, m, shifts)), c) for (i, m), c in column.items()]
        for column in a.columns
    ]
    for column in b.columns:
        acc = {}
        for (k, m), c2 in column.items():
            shift = sum(map(lshift, m, shifts))
            for key, c1 in left[k]:
                key += shift
                acc[key] = acc.get(key, 0) + c1 * c2
        if any(acc.values()):
            return False
    return True


@dataclass(frozen=True)
class FreeResolution:
    """maps[k]: F_{k+1} -> F_k with F_0 = R at twist 0."""

    maps: tuple
    minimal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        for left, right in zip(self.maps, self.maps[1:]):
            if left.source != right.target:
                raise ShapeMismatch("consecutive maps do not chain")

    @property
    def modules(self) -> tuple:
        if not self.maps:
            return ()
        return (self.maps[0].target,) + tuple(m.source for m in self.maps)

    @property
    def ranks(self) -> tuple:
        return tuple(m.rank for m in self.modules)

    def validate(self) -> None:
        """Composition-zero everywhere; constant-free if flagged minimal."""
        for left, right in zip(self.maps, self.maps[1:]):
            if not compose_zero(left, right):
                raise ShapeMismatch("consecutive maps do not compose to zero")
        if self.minimal and _find_constant_entry(self.maps) is not None:
            raise NotMinimal("flagged minimal but a constant entry remains")


# ---------------------------------------------------------------------------
# syzygies, one (position, exponent) dict per column


def schreyer_syzygies(target: GradedFreeModule, columns) -> GradedMap:
    """The map into ``target`` with the given columns, {(slot, exponent):
    coefficient} dicts, taken as they are: each column's twist is the degree
    of its first term plus its slot's twist, and the one walk that reads it
    checks every term (``GradedMap.from_columns``)."""
    return GradedMap.from_columns(target, columns)


def build_resolution(gb: GroebnerBasis) -> FreeResolution:
    """The Schreyer resolution of a certified basis, one level per pass.

    maps[0] has the generators as position-0 columns of F_0 = R.  The loop
    starts at ``gb.level``, the lead-frame syzygies ``buchberger`` certified
    the basis with (Schreyer's frame; La Scala and Stillman, JSC 26, 1998),
    and each pass decodes the level's frame once into the columns of its
    map and makes the next level with one ``syzygy_level`` call, which
    asserts each remainder zero.  The kept pair syzygies generate the
    syzygies of the leads, so by the generalised Buchberger criterion each
    level is a Gröbner basis in the induced order.
    """
    ring = gb.elements[0].ring
    generators = [{(0, m): c for m, c in g.terms.items()} for g in gb.elements]
    maps = [GradedMap.from_columns(GradedFreeModule(ring, (0,)), generators)]
    module, frame = gb.level
    while frame:
        if len(maps) == ring.nvars:
            raise AssertionError("resolution exceeded the number of variables")
        columns = [column for _, _, column in frame]
        decoded = [{module.decode(t): c for t, c in column.items()} for column in columns]
        maps.append(schreyer_syzygies(maps[-1].source, decoded))
        module, frame = syzygy_level(module, columns, [lead for _, lead, _ in frame])
    return FreeResolution(maps)


# ---------------------------------------------------------------------------
# minimalization by unit splitting


def prune_unit(res: FreeResolution, step: int, row: int, col: int) -> FreeResolution:
    """Split off the constant entry u = D[row][col] of D = maps[step].

    Basis vector ``col`` of F_{step+1} and ``row`` of F_step span a trivial
    summand 0 -> R -> R -> 0 of the complex (Peeva, *Graded Syzygies*, 2011,
    ch. 1).  What is left: D's Schur complement, D[i][j] - D[i][col]·D[row][j]·u
    off row ``row`` and column ``col``; maps[step+1] without row ``col``; and
    maps[step-1] without column ``row``.  All on the column dicts: column j
    loses its row-``row`` terms c·x^m and gains -c·u·x^m times column
    ``col``, and the rows below ``row`` move up by one.  u must be ±1 (else
    PreconditionViolated), its own inverse, so integers stay integers.
    """
    if not (0 <= step < len(res.maps)):
        raise IndexError(f"no map at step {step}")
    mid = res.maps[step]
    if not (0 <= row < mid.target.rank and 0 <= col < mid.source.rank):
        raise IndexError("entry outside the matrix")
    pivot_column = mid.columns[col]
    pivot = pivot_column.get((row, mid.target.ring.zero_mono()))
    if mid.source.twists[col] != mid.target.twists[row] or pivot not in (1, -1):
        raise PreconditionViolated(f"pivot entry is not a constant ±1: {pivot!r}")
    below = [((i - (i > row), m1), c1) for (i, m1), c1 in pivot_column.items() if i != row]
    trimmed = []
    for j, column in enumerate(mid.columns):
        if j == col:
            continue
        complement = {}
        scales = []
        for (i, m), c in column.items():
            if i != row:
                complement[i - (i > row), m] = c
            else:
                scales.append((m, c * pivot))
        for m2, scale in scales:
            for (i, m1), c1 in below:
                t = (i, tuple(map(add, m1, m2)))
                v = complement.get(t, 0) - c1 * scale
                if v:
                    complement[t] = v
                else:
                    del complement[t]
        trimmed.append(complement)

    new_maps = list(res.maps)
    small_target = GradedFreeModule(
        mid.target.ring, tuple(t for i, t in enumerate(mid.target.twists) if i != row)
    )
    small_source = GradedFreeModule(
        mid.source.ring, tuple(t for j, t in enumerate(mid.source.twists) if j != col)
    )
    new_maps[step] = GradedMap._trimmed(small_source, small_target, trimmed)
    if step >= 1:
        prev = res.maps[step - 1]
        kept = prev.columns[:row] + prev.columns[row + 1:]
        new_maps[step - 1] = GradedMap._trimmed(small_target, prev.target, kept)
    if step + 1 < len(res.maps):
        nxt = res.maps[step + 1]
        kept = [{(i - (i > col), m): c for (i, m), c in column.items() if i != col} for column in nxt.columns]
        new_maps[step + 1] = GradedMap._trimmed(nxt.source, small_source, kept)
    return FreeResolution(new_maps, minimal=False)


def _find_constant_entry(maps, step: int = 0, row: int = 0):
    """(step, i, j) of the first nonzero constant entry in row-major order,
    starting at row ``row`` of map ``step``, or None.  With positive weights
    a nonzero entry is constant iff its row and column twists are equal, and
    then its one term is (i, 0) in column j, so only those keys are looked
    up."""
    for s in range(step, len(maps)):
        gmap = maps[s]
        unit = gmap.target.ring.zero_mono()
        columns: dict = {}
        for j, t in enumerate(gmap.source.twists):
            columns.setdefault(t, []).append(j)
        for i in range(row if s == step else 0, gmap.target.rank):
            for j in columns.get(gmap.target.twists[i], ()):
                if (i, unit) in gmap.columns[j]:
                    return s, i, j
    return None


def minimalize(res: FreeResolution) -> FreeResolution:
    """Split off every constant entry, one ``prune_unit`` each, then drop the
    trailing modules of rank zero.

    The scan for the next unit resumes at the pruned (step, row): no earlier
    entry was a nonzero constant, the neighbouring maps only lose a row or a
    column, and above ``row`` the Schur complement changes (i, j) only by
    D[i][col]·D[row][j]/u with D[i][col] of positive degree, so by
    homogeneity no constant appears there.
    """
    current = res
    found = _find_constant_entry(current.maps)
    while found is not None:
        current = prune_unit(current, *found)
        found = _find_constant_entry(current.maps, found[0], found[1])
    maps = list(current.maps)
    while maps and maps[-1].source.rank == 0:
        maps.pop()
    return FreeResolution(maps, minimal=True)


# ---------------------------------------------------------------------------
# numerical summaries


@dataclass(frozen=True)
class BettiTable:
    """entries[(i, d)] counts twists d in homological position i, where
    position 0 is the module covering the ideal generators."""

    entries: tuple

    def counts(self) -> dict:
        return dict(self.entries)

    def totals(self) -> tuple:
        by_index = {}
        for (i, _d), c in self.entries:
            by_index[i] = by_index.get(i, 0) + c
        if not by_index:
            return ()
        return tuple(by_index.get(i, 0) for i in range(max(by_index) + 1))


def betti_table(res: FreeResolution) -> BettiTable:
    if not res.minimal:
        raise NotMinimal("minimalize the resolution first")
    counts = {}
    for i, module in enumerate(res.modules[1:]):
        for d in module.twists:
            counts[(i, d)] = counts.get((i, d), 0) + 1
    return BettiTable(tuple(sorted(counts.items())))


def hilbert_numerator(res: FreeResolution) -> dict:
    """Alternating twist census K with K[d] = Σ_i (-1)^i #{twists d in F_i};
    F_0 = R contributes +1 at degree 0.  Invariant under minimalization."""
    coeffs = {}
    for i, module in enumerate(res.modules):
        sign = 1 if i % 2 == 0 else -1
        for d in module.twists:
            coeffs[d] = coeffs.get(d, 0) + sign
    return {d: c for d, c in coeffs.items() if c}
