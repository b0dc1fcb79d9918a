"""Graded free modules and maps, Schreyer syzygies on the lead frame, and
minimalization: each constant entry of a free resolution is split off with
its trivial summand, one Schur-complement step per unit, until the
resolution is minimal.  ``FreeResolution.validate`` certifies d∘d = 0 with
``compose_zero``, which sums each row of a product in exponent arithmetic
on the entries' term dicts and builds no intermediate polynomial.

The syzygy levels have one form: F_0 = R is the rank-one module, and every
level's elements are {(position, exponent): coefficient} dicts, the ideal's
generators at position 0.  Each level keeps one syzygy per pair of its lead
frame, as such a dict: level 1's are the columns ``buchberger`` certified
the basis with (``GroebnerBasis.frame``), every later level's come from
``pair_records``.  That dict is both a column of the level's map, which
``schreyer_syzygies`` builds, and an element of the next level, whose leads
are read off the lead frame, not found again by a maximum over terms.

Conventions, fixed once:

* A free module is a list of twists; twist d stands for R(-d), so a generator
  of weighted degree d sits in a summand with twist d.
* A map F -> G is stored as a matrix with rank(G) rows and rank(F) columns;
  column j is the image of the j-th basis vector of the source.  Every nonzero
  entry (i, j) must be homogeneous of degree source.twists[j] - target.twists[i].
* A resolution keeps maps[k]: F_{k+1} -> F_k with F_0 = R at twist 0, so
  maps[0] is the one-row matrix of ideal generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from monocurve.poly import Ring, SchreyerOrder, coeff_div, is_homogeneous
from monocurve.groebner import GroebnerBasis, _lead_frame, pair_records

# buchberger is not called here; it stays importable as resolution.buchberger
from monocurve.groebner import buchberger  # noqa: F401


class ShapeMismatch(ValueError):
    """Matrix shapes or module ranks do not line up."""


class HomogeneityBroken(ValueError):
    """An entry is inconsistent with the graded twists."""


class PreconditionViolated(ValueError):
    """prune_unit called on an entry that is not a nonzero constant."""


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


class GradedMap:
    """Homogeneous degree-zero map between graded free modules."""

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise ShapeMismatch(
                f"matrix {len(rows)}x{len(rows[0]) if rows else 0} does not map "
                f"rank {source.rank} into rank {target.rank}"
            )
        ring = source.ring
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                if p.is_zero:
                    continue
                d = is_homogeneous(p, ring)
                want = source.twists[j] - target.twists[i]
                if d is None or d != want or d < 0:
                    raise HomogeneityBroken(
                        f"entry ({i},{j}) has degree {d}, twists demand {want}"
                    )
        self.source = source
        self.target = target
        self.entries = rows

    @classmethod
    def _trimmed(cls, source: GradedFreeModule, target: GradedFreeModule, rows):
        """A map whose entries are known to have the degrees its twists
        demand (a checked map with rows or columns deleted, or elements of
        those degrees), so neither shape nor homogeneity is checked again."""
        out = object.__new__(cls)
        out.source = source
        out.target = target
        out.entries = tuple(tuple(row) for row in rows)
        return out

    def __repr__(self):
        return f"GradedMap({self.target.rank}x{self.source.rank})"


def compose_zero(a: GradedMap, b: GradedMap) -> bool:
    """True iff the matrix product a∘b is zero (a: F->G, b: E->F).

    Exact, in exponent arithmetic on the entries' term dicts: each row of a∘b
    is one accumulator keyed by (column, exponent tuple), entries that cancel
    leave it at once, and the first row that ends non-empty answers False.
    """
    if a.source != b.target:
        raise ShapeMismatch("inner modules differ")
    b_rows = [[(j, p.terms) for j, p in enumerate(row) if p.terms] for row in b.entries]
    for row in a.entries:
        acc = {}
        for left, right in zip(row, b_rows):
            if not right:
                continue
            for m1, c1 in left.terms.items():
                for j, terms in right:
                    for m2, c2 in terms.items():
                        k = (j, tuple(map(add, m1, m2)))
                        v = acc.get(k, 0) + c1 * c2
                        if v:
                            acc[k] = v
                        else:
                            del acc[k]
        if acc:
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


def _element_degrees(elements):
    degrees = []
    for g in elements:
        d = is_homogeneous(g)
        if d is None:
            raise HomogeneityBroken("basis element is not weighted-homogeneous")
        degrees.append(d)
    return tuple(degrees)


def schreyer_syzygies(target: GradedFreeModule, columns) -> GradedMap:
    """The map into ``target`` with the given columns, {(slot, exponent):
    coefficient} dicts; each column's twist is the degree of its terms."""
    ring = target.ring
    zero = ring.zero()
    entries = [[zero] * len(columns) for _ in target.twists]
    column_twists = []
    for c, column in enumerate(columns):
        rows: dict = {}
        for (k, mono), coeff in column.items():
            rows.setdefault(k, {})[mono] = coeff
        column_twists.append(ring.degree(mono) + target.twists[k])  # GradedMap checks the rest
        for k, terms in rows.items():
            entries[k][c] = zero._like(terms)
    return GradedMap(GradedFreeModule(ring, tuple(column_twists)), target, entries)


def build_resolution(gb: GroebnerBasis) -> FreeResolution:
    """The Schreyer resolution of a certified basis, one level per pass.

    F_0 = R, and the generators are position-0 dicts of it.  Every level
    keeps only the pairs of its lead frame (Schreyer's frame; La Scala and
    Stillman, JSC 26, 1998), one column each: level 1 takes the columns of
    ``gb.frame``, the certificate ``buchberger`` made, and each later level
    reduces its pairs with ``pair_records``, which asserts each remainder
    zero.  The kept pair syzygies generate the syzygies of the leads, so
    by the generalised Buchberger criterion this proves each level a
    Gröbner basis in the induced order.  The columns of each level's map
    are the next level's elements and the frame's leads their leads.
    """
    ring = gb.elements[0].ring
    module = GradedFreeModule(ring, _element_degrees(gb.elements))
    maps = [GradedMap._trimmed(module, GradedFreeModule(ring, (0,)), [gb.elements])]
    induced = SchreyerOrder(lambda pm: gb.order.key(pm[1]), [(0, g.lead(gb.order)[0]) for g in gb.elements])
    frame = gb.frame
    while frame:
        if len(maps) == ring.nvars:
            raise AssertionError("resolution exceeded the number of variables")
        columns = [column for _, _, column in frame]
        maps.append(schreyer_syzygies(maps[-1].source, columns))
        leads = [lead for _, lead, _ in frame]
        key, induced = induced.key, SchreyerOrder(induced.key, leads)
        kept = _lead_frame(leads, induced)
        syzygies = pair_records(columns, key, [pair for pair, _ in kept], leads)
        frame = [(pair, lead, column) for (pair, lead), column in zip(kept, syzygies)]
    return FreeResolution(maps)


# ---------------------------------------------------------------------------
# minimalization by unit splitting


def prune_unit(res: FreeResolution, step: int, row: int, col: int) -> FreeResolution:
    """Split off the constant entry u = D[row][col] of D = maps[step].

    Basis vector ``col`` of F_{step+1} and ``row`` of F_step span a trivial
    summand 0 -> R -> R -> 0 of the complex (Peeva, *Graded Syzygies*, 2011,
    ch. 1).  What is left: D's Schur complement, D[i][j] - D[i][col]·D[row][j]/u
    off row ``row`` and column ``col``; maps[step+1] without row ``col``; and
    maps[step-1] without column ``row``.
    """
    if not (0 <= step < len(res.maps)):
        raise IndexError(f"no map at step {step}")
    mid = res.maps[step]
    entries = mid.entries
    if not (0 <= row < len(entries) and 0 <= col < len(entries[0])):
        raise IndexError("entry outside the matrix")
    if entries[row][col].is_zero or mid.source.twists[col] != mid.target.twists[row]:
        raise PreconditionViolated("pivot entry is not a nonzero constant")
    (pivot,) = entries[row][col].terms.values()
    inverse = coeff_div(1, pivot)
    pivot_row = {j: p * inverse for j, p in enumerate(entries[row]) if j != col and not p.is_zero}
    trimmed = []
    for i, r in enumerate(entries):
        if i == row:
            continue
        complement = list(r)
        if not r[col].is_zero:
            for j, scaled in pivot_row.items():
                complement[j] = complement[j] - r[col] * scaled
        del complement[col]
        trimmed.append(complement)

    new_maps = list(res.maps)
    small_target = GradedFreeModule(
        mid.target.ring, tuple(t for i, t in enumerate(mid.target.twists) if i != row)
    )
    small_source = GradedFreeModule(
        mid.source.ring, tuple(t for j, t in enumerate(mid.source.twists) if j != col)
    )
    new_maps[step] = GradedMap(small_source, small_target, trimmed)
    if step >= 1:
        prev = res.maps[step - 1]
        kept = [[p for j, p in enumerate(r) if j != row] for r in prev.entries]
        new_maps[step - 1] = GradedMap._trimmed(small_target, prev.target, kept)
    if step + 1 < len(res.maps):
        nxt = res.maps[step + 1]
        kept = [r for i, r in enumerate(nxt.entries) if i != col]
        new_maps[step + 1] = GradedMap._trimmed(nxt.source, small_source, kept)
    return FreeResolution(new_maps, minimal=False)


def _find_constant_entry(maps, step: int = 0, row: int = 0):
    """(step, i, j) of the first nonzero constant entry in row-major order,
    starting at row ``row`` of map ``step``, or None.  With positive weights
    a nonzero entry is constant iff its row and column twists are equal, so
    only those positions are looked at."""
    for s in range(step, len(maps)):
        gmap = maps[s]
        columns: dict = {}
        for j, t in enumerate(gmap.source.twists):
            columns.setdefault(t, []).append(j)
        for i in range(row if s == step else 0, gmap.target.rank):
            for j in columns.get(gmap.target.twists[i], ()):
                if not gmap.entries[i][j].is_zero:
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

    def degrees(self, i: int) -> dict:
        return {d: c for (h, d), c in self.entries if h == i}


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
