"""Graded free modules and maps, Schreyer syzygies on the lead frame, and
minimalization: each constant entry of a free resolution is split off with
its trivial summand, one Schur-complement step per unit, until the
resolution is minimal.  ``FreeResolution.validate`` certifies d∘d = 0 with
``compose_zero``, which sums each column of a product in int adds on the
maps' packed columns and builds no polynomial.

The syzygy levels come from ``groebner.syzygy_level``, one packed frame
each: level 1 is the certificate ``buchberger`` made (``GroebnerBasis.level``),
every later level one more call on the frame before.  Each level's frame
goes to the columns of the level's map by shifts and masks
(``_Module.keys``), which ``schreyer_syzygies`` takes as they are.

Conventions, fixed once:

* A free module is a list of twists; twist d stands for R(-d), so a generator
  of weighted degree d sits in a summand with twist d.
* A map F -> G is stored as its columns, one per basis vector of F: column j,
  the image of the j-th basis vector, is an {int: coefficient} dict.  Each
  int packs a term's row, indexing G's basis, its twist and its monomial
  in the map's ``layout``, a ``groebner._Module`` sized for the complex's
  twists and shared by all of its maps.  A key's row and twist are shifts
  and masks, the key of 1 in a row is ``layout.unit(row, twist)``, a
  product is an int add, and only ``entries`` unpacks monomials.
  Every term of column j in row i has twist source.twists[j] and degree
  source.twists[j] - target.twists[i] >= 0; ``entries`` decodes the map as
  a matrix of ``Poly`` entries, rank(G) rows by rank(F) columns.
* A resolution keeps maps[k]: F_{k+1} -> F_k with F_0 = R at twist 0, so
  maps[0] has one row, the ideal generators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from monocurve.poly import Ring
from monocurve.groebner import GroebnerBasis, _subtract, syzygy_level

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


def _column_twists(target: GradedFreeModule, columns, layout) -> tuple:
    """The twist of each column, read off its first term's twist field,
    after one check of every term: its row is one of ``target``'s (else
    ShapeMismatch) and its twist is the column's, at least the row's (else
    HomogeneityBroken)."""
    mb, rs, tmask, rows, rank = layout.mb, layout.rs, (1 << layout.rs - layout.mb) - 1, target.twists, target.rank
    out = []
    for j, column in enumerate(columns):
        want = None
        for key in column:
            i, t = key >> rs, key >> mb & tmask
            if not 0 <= i < rank:
                raise ShapeMismatch(f"column {j} has a term in row {i} of rank {rank}")
            if want is None:
                want = t
            if t != want or t < rows[i]:
                raise HomogeneityBroken(f"entry ({i},{j}) has degree {t - rows[i]}, twists demand {want - rows[i]}")
        if want is None:
            raise ShapeMismatch(f"column {j} is zero, so it has no twist")
        out.append(want)
    return tuple(out)


class GradedMap:
    """Homogeneous degree-zero map between graded free modules, kept as its
    columns: one {int: coefficient} dict per source basis vector, keyed in
    ``layout``, never changed once ``from_columns`` has built the map."""

    __slots__ = ("source", "target", "columns", "layout")

    @classmethod
    def from_columns(cls, target: GradedFreeModule, columns, layout) -> "GradedMap":
        """The map into ``target`` with the given nonzero columns, each
        column's twist read off its first term and every term checked once."""
        source = GradedFreeModule(target.ring, _column_twists(target, columns, layout))
        return cls._trimmed(source, target, columns, layout)

    @classmethod
    def _trimmed(cls, source: GradedFreeModule, target: GradedFreeModule, columns, layout):
        """A map whose columns are known to fit its twists (checked columns,
        or a checked map with rows or columns deleted), checked no more."""
        out = object.__new__(cls)
        out.source, out.target, out.columns, out.layout = source, target, tuple(columns), layout
        return out

    @property
    def entries(self) -> tuple:
        """The matrix, rank(target) rows of rank(source) ``Poly`` entries,
        decoded anew from the columns at each call."""
        rows, decode = [[{} for _ in self.columns] for _ in self.target.twists], self.layout.decode
        for j, column in enumerate(self.columns):
            for key, c in column.items():
                i, mono = decode(key)
                rows[i][j][mono] = c
        zero = self.target.ring.zero()
        return tuple(tuple(zero._like(terms) for terms in row) for row in rows)

    def __repr__(self):
        return f"GradedMap({self.target.rank}x{self.source.rank})"


def compose_zero(a: GradedMap, b: GradedMap) -> bool:
    """True iff the matrix product a∘b is zero (a: F->G, b: E->F).

    Exact, on the packed columns of the maps' one layout: column j of a∘b
    is one accumulator, to which each term c·x^m of b's column j in row k
    adds a's column k times c·x^m, and the first column left with a nonzero
    coefficient answers False.  The product of a's term s in column k, of
    twist t, and b's term u in row k is keyed s + u - unit(k, t), the key
    of 1 in row k taken off once per column of a; each product is one int add.
    """
    if a.source != b.target or a.layout is not b.layout:
        raise ShapeMismatch("inner modules or layouts differ")
    rs, units = a.layout.rs, map(a.layout.unit, range(a.source.rank), a.source.twists)
    left = [[(s - one, c) for s, c in column.items()] for one, column in zip(units, a.columns)]
    for column in b.columns:
        acc = {}
        for u, c2 in column.items():
            for key, c1 in left[u >> rs]:
                key += u
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
# syzygies, one packed dict per column


def schreyer_syzygies(target: GradedFreeModule, columns, layout) -> GradedMap:
    """``GradedMap.from_columns``, kept as a function of its own only
    because the benchmark's tracer times each Schreyer level here."""
    return GradedMap.from_columns(target, columns, layout)


def build_resolution(gb: GroebnerBasis) -> FreeResolution:
    """The Schreyer resolution of a certified basis, one level per pass.

    Every map is in the levels' layout, maps[0] with the generators' F_0
    ints (``gb.columns``, its row-0 keys) as columns.  The loop starts at
    ``gb.level``, the lead-frame syzygies ``buchberger`` certified the basis
    with (Schreyer's frame; La Scala and Stillman, JSC 26, 1998); each pass
    hands the level's frame to its map by shifts and masks (``keys``), with
    ``top``, which ``pair_records`` asserts, bounding every twist, and makes
    the next level with one ``syzygy_level`` call.  The kept pair syzygies
    generate the syzygies of the leads, so by the generalised Buchberger
    criterion each level is a Gröbner basis in the induced order.
    """
    ring, (module, frame) = gb.elements[0].ring, gb.level
    maps = [GradedMap.from_columns(GradedFreeModule(ring, (0,)), gb.columns, module)]
    while frame:
        if len(maps) == ring.nvars:
            raise AssertionError("resolution exceeded the number of variables")
        columns = [column for _, _, column in frame]
        maps.append(schreyer_syzygies(maps[-1].source, list(map(module.keys, columns)), maps[0].layout))
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
    maps[step-1] without column ``row``.  All on the packed columns: column
    j loses its row-``row`` terms c·x^m and gains -c·u·x^m times column
    ``col``, each product the int add ``compose_zero`` makes, and the rows
    below ``row`` move up by one.  u must be ±1 (else PreconditionViolated),
    its own inverse, so integers stay integers.
    """
    if not (0 <= step < len(res.maps)):
        raise IndexError(f"no map at step {step}")
    mid = res.maps[step]
    if not (0 <= row < mid.target.rank and 0 <= col < mid.source.rank):
        raise IndexError("entry outside the matrix")
    layout = mid.layout
    unit = layout.unit(row, mid.target.twists[row])  # in column col only if its twist is the row's
    pivot = mid.columns[col].get(unit)
    if pivot not in (1, -1):
        raise PreconditionViolated(f"pivot entry is not a constant ±1: {pivot!r}")
    below = list(layout.take_row(mid.columns[col], row)[0].items())
    trimmed = []
    for column in mid.columns[:col] + mid.columns[col + 1:]:
        complement, taken = layout.take_row(column, row)
        for key, c in taken:
            _subtract(complement, below, key - unit, c * pivot)
        trimmed.append(complement)

    new_maps = list(res.maps)
    small_target = GradedFreeModule(mid.target.ring, mid.target.twists[:row] + mid.target.twists[row + 1:])
    small_source = GradedFreeModule(mid.source.ring, mid.source.twists[:col] + mid.source.twists[col + 1:])
    new_maps[step] = GradedMap._trimmed(small_source, small_target, trimmed, layout)
    if step >= 1:
        prev = res.maps[step - 1]
        kept = prev.columns[:row] + prev.columns[row + 1:]
        new_maps[step - 1] = GradedMap._trimmed(small_target, prev.target, kept, prev.layout)
    if step + 1 < len(res.maps):
        nxt = res.maps[step + 1]
        kept = [nxt.layout.take_row(column, col)[0] for column in nxt.columns]
        new_maps[step + 1] = GradedMap._trimmed(nxt.source, small_source, kept, nxt.layout)
    return FreeResolution(new_maps, minimal=False)


def _find_constant_entry(maps, step: int = 0, row: int = 0):
    """(step, i, j) of the first nonzero constant entry in row-major order,
    starting at row ``row`` of map ``step``, or None.  With positive weights
    a nonzero entry is constant iff its row and column twists are equal, and
    then its one term is the key of 1 in row i, so only those keys are
    looked up."""
    for s in range(step, len(maps)):
        gmap = maps[s]
        columns: dict = {}
        for j, t in enumerate(gmap.source.twists):
            columns.setdefault(t, []).append(j)
        for i in range(row if s == step else 0, gmap.target.rank):
            t = gmap.target.twists[i]
            if t in columns:
                unit = gmap.layout.unit(i, t)
                for j in columns[t]:
                    if unit in gmap.columns[j]:
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
        by_index = Counter()
        for (i, _d), c in self.entries:
            by_index[i] += c
        return tuple(by_index[i] for i in range(max(by_index) + 1)) if by_index else ()


def betti_table(res: FreeResolution) -> BettiTable:
    if not res.minimal:
        raise NotMinimal("minimalize the resolution first")
    counts = Counter((i, d) for i, module in enumerate(res.modules[1:]) for d in module.twists)
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
