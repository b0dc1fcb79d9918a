"""Graded free modules and maps, syzygies from division transcripts, and the
elementary-operation calculus that trims a free resolution down to a minimal
one.

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
from fractions import Fraction

from monocurve.poly import (
    Poly,
    Ring,
    SchreyerOrder,
    Vect,
    is_homogeneous,
    mono_divides,
)
from monocurve.groebner import GroebnerBasis, buchberger


class ShapeMismatch(ValueError):
    """Matrix shapes or module ranks do not line up."""


class TranscriptIncomplete(ValueError):
    """The Gröbner basis carries no reduction records to read syzygies from."""


class NotElementary(TypeError):
    """transform_complex accepts only the three elementary operation types."""


class HomogeneityBroken(ValueError):
    """An entry or operation is inconsistent with the graded twists."""


class PreconditionViolated(ValueError):
    """prune_unit called on an entry that is not an isolated nonzero constant."""


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


def _is_constant(p: Poly):
    """The value of a nonzero constant polynomial, else None."""
    if len(p.terms) != 1:
        return None
    (mono, coeff), = p.terms.items()
    if any(mono):
        return None
    return coeff


class GradedMap:
    """Homogeneous degree-zero map between graded free modules."""

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule, entries, check=True):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise ShapeMismatch(
                f"matrix {len(rows)}x{len(rows[0]) if rows else 0} does not map "
                f"rank {source.rank} into rank {target.rank}"
            )
        if check:
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

    def column(self, j: int) -> Vect:
        return Vect.from_polys([self.entries[i][j] for i in range(self.target.rank)])

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"GradedMap({self.target.rank}x{self.source.rank})"


def compose_zero(a: GradedMap, b: GradedMap) -> bool:
    """True iff the matrix product a∘b is zero (a: F->G, b: E->F)."""
    if a.source != b.target:
        raise ShapeMismatch("inner modules differ")
    ring = a.source.ring
    for i in range(a.target.rank):
        for j in range(b.source.rank):
            acc = ring.zero()
            for k in range(a.source.rank):
                left = a.entries[i][k]
                right = b.entries[k][j]
                if left.is_zero or right.is_zero:
                    continue
                acc = acc + left * right
            if not acc.is_zero:
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
# syzygies from transcripts


def _element_degrees(gb: GroebnerBasis, twists):
    ring = gb.elements[0].ring
    degrees = []
    for g in gb.elements:
        if isinstance(g, Vect):
            d = is_homogeneous(g, ring, twists=twists)
        else:
            d = is_homogeneous(g, ring)
        if d is None:
            raise HomogeneityBroken("basis element is not weighted-homogeneous")
        degrees.append(d)
    return degrees


def _pairs_exist(gb: GroebnerBasis) -> bool:
    elements = gb.elements
    if len(elements) < 2:
        return False
    if not isinstance(elements[0], Vect):
        return True
    positions = [g.lead(gb.order)[0][0] for g in elements]
    return len(positions) != len(set(positions))


def schreyer_syzygies(gb: GroebnerBasis, twists=None) -> GradedMap:
    """The map whose columns generate the syzygies of gb.elements.

    One column per reduction record (i, j), sorted by (i, j): the quotient
    vector minus cofactor_i at slot i plus cofactor_j at slot j.  `twists`
    are the ambient twists when the elements are module vectors.
    """
    ring = gb.elements[0].ring
    if not gb.transcript and _pairs_exist(gb):
        raise TranscriptIncomplete("run buchberger with record=True")
    degrees = _element_degrees(gb, twists)
    target = GradedFreeModule(ring, tuple(degrees))
    t = len(gb.elements)
    columns = []
    column_twists = []
    for rec in sorted(gb.transcript, key=lambda r: (r.i, r.j)):
        col = [ring.zero()] * t
        for k, h in rec.quotients.items():
            col[k] = col[k] + h
        col[rec.i] = col[rec.i] - rec.cofactor_i
        col[rec.j] = col[rec.j] + rec.cofactor_j
        columns.append(col)
        (mono, _coeff), = rec.cofactor_i.terms.items()
        column_twists.append(ring.degree(mono) + degrees[rec.i])
    source = GradedFreeModule(ring, tuple(column_twists))
    entries = [[columns[c][i] for c in range(len(columns))] for i in range(t)]
    return GradedMap(source, target, entries)


def _leads_for_schreyer(gb: GroebnerBasis):
    leads = []
    for g in gb.elements:
        lt, _coeff = g.lead(gb.order)
        leads.append(lt)
    return leads


def _essential_columns(vectors, order):
    """Indices of a lead-minimal subset that is still a basis of the same
    module: a column whose lead is a monomial multiple of another kept
    column's lead is redundant and gets dropped (ties keep the first)."""
    leads = [v.lead(order)[0] for v in vectors]
    by_key = sorted(range(len(vectors)), key=lambda j: order.key(leads[j]))
    kept = []
    for j in by_key:
        pos_j, mono_j = leads[j]
        redundant = any(
            leads[k][0] == pos_j and mono_divides(leads[k][1], mono_j) for k in kept
        )
        if not redundant:
            kept.append(j)
    return sorted(kept)


def build_resolution(ideal_gens) -> FreeResolution:
    """Iterate transcripted completion and syzygy extraction until exhaustion.

    The first level completes the input to a Gröbner basis (the input stays a
    prefix; for our kernels it already is one).  By Schreyer's theorem each
    syzygy level is already a basis in the induced order, so later levels must
    not append anything — that is asserted, not assumed.
    """
    if isinstance(ideal_gens, GroebnerBasis):
        # already completed with a full pair transcript -- no need to redo it
        gb = ideal_gens
        if not gb.elements:
            raise ValueError("need at least one generator")
        ring = gb.elements[0].ring
    else:
        gens = list(ideal_gens)
        if not gens:
            raise ValueError("need at least one generator")
        ring = gens[0].ring
        for g in gens:
            if is_homogeneous(g, ring) is None:
                raise HomogeneityBroken("ideal generators must be weighted-homogeneous")
        gb = buchberger(gens, ring.order())
    base = GradedFreeModule(ring, (0,))
    first = GradedFreeModule(ring, tuple(_element_degrees(gb, None)))
    maps = [GradedMap(first, base, [list(gb.elements)])]
    ambient_twists = None
    while len(maps) <= ring.nvars:
        syz = schreyer_syzygies(gb, twists=ambient_twists)
        if syz.source.rank == 0:
            return FreeResolution(maps)
        induced = SchreyerOrder(gb.order, _leads_for_schreyer(gb))
        vectors = [syz.column(j) for j in range(syz.source.rank)]
        # drop pair columns made redundant by another column's lead, exactly
        # like the hand calculation strikes rows that are combinations of the
        # ones kept; the survivors are still a basis of the same syzygies
        kept = _essential_columns(vectors, induced)
        vectors = [vectors[j] for j in kept]
        trimmed = GradedMap(
            GradedFreeModule(ring, tuple(syz.source.twists[j] for j in kept)),
            syz.target,
            [[row[j] for j in kept] for row in syz.entries],
        )
        next_gb = buchberger(vectors, induced)
        if len(next_gb.elements) != len(vectors):
            raise AssertionError("syzygy columns were not already a Gröbner basis")
        maps.append(trimmed)
        ambient_twists = trimmed.target.twists
        gb = next_gb
    raise AssertionError("resolution exceeded the number of variables")


# ---------------------------------------------------------------------------
# elementary transforms (the invertible-matrix calculus, syntactic inverses)


@dataclass(frozen=True)
class AddMultiple:
    """Basis change e_i += alpha * e_j ... as a matrix, E_{ij}(alpha): the
    identity plus alpha in entry (i, j).  Acts on rows of the incoming map
    (row i += alpha * row j) and columns of the outgoing one (col j -= alpha * col i)."""

    i: int
    j: int
    alpha: Poly


@dataclass(frozen=True)
class SwapBasis:
    i: int
    j: int


@dataclass(frozen=True)
class ScaleBasis:
    """Multiply one basis vector by a nonzero rational constant."""

    i: int
    factor: object


def _validate_op(op, twists):
    rank = len(twists)
    if isinstance(op, AddMultiple):
        if op.i == op.j:
            raise NotElementary("off-diagonal index pair required")
        if not (0 <= op.i < rank and 0 <= op.j < rank):
            raise NotElementary("index out of range")
        if not isinstance(op.alpha, Poly):
            raise NotElementary("coefficient must be a ring element")
        if op.alpha.is_zero:
            return
        d = is_homogeneous(op.alpha, op.alpha.ring)
        if d is None or d != twists[op.j] - twists[op.i]:
            raise HomogeneityBroken(
                f"E_({op.i},{op.j}) needs degree {twists[op.j] - twists[op.i]}, got {d}"
            )
    elif isinstance(op, SwapBasis):
        if op.i == op.j or not (0 <= op.i < rank and 0 <= op.j < rank):
            raise NotElementary("swap needs two distinct valid indices")
    elif isinstance(op, ScaleBasis):
        if not (0 <= op.i < rank):
            raise NotElementary("index out of range")
        if not isinstance(op.factor, (int, Fraction)) or op.factor == 0:
            raise NotElementary("scale factor must be a nonzero constant")
    else:
        raise NotElementary(f"not an elementary operation: {op!r}")


def _apply_to_rows(entries, op):
    """P · M for the incoming map (rows indexed by the transformed module)."""
    rows = [list(r) for r in entries]
    if isinstance(op, AddMultiple):
        if not op.alpha.is_zero:
            rows[op.i] = [a + op.alpha * b for a, b in zip(rows[op.i], rows[op.j])]
    elif isinstance(op, SwapBasis):
        rows[op.i], rows[op.j] = rows[op.j], rows[op.i]
    else:
        rows[op.i] = [p * op.factor for p in rows[op.i]]
    return rows


def _apply_to_columns(entries, op):
    """M · P⁻¹ for the outgoing map (columns indexed by the transformed module)."""
    rows = [list(r) for r in entries]
    if isinstance(op, AddMultiple):
        if not op.alpha.is_zero:
            for r in rows:
                r[op.j] = r[op.j] - op.alpha * r[op.i]
    elif isinstance(op, SwapBasis):
        for r in rows:
            r[op.i], r[op.j] = r[op.j], r[op.i]
    else:
        inverse = Fraction(1, 1) / Fraction(op.factor)
        inverse = int(inverse) if inverse.denominator == 1 else inverse
        for r in rows:
            r[op.i] = r[op.i] * inverse
    return rows


def transform_complex(res: FreeResolution, position: int, ops) -> FreeResolution:
    """Change basis of F_position by a product of elementary operations.

    `ops` is one operation or a sequence applied left to right; the incoming
    map picks up P·M, the outgoing one M·P⁻¹, twists are permuted by swaps.
    """
    modules = res.modules
    if not (0 <= position < len(modules)):
        raise IndexError(f"no module at position {position}")
    if isinstance(ops, (AddMultiple, SwapBasis, ScaleBasis)):
        ops = [ops]
    twists = list(modules[position].twists)
    incoming = res.maps[position].entries if position < len(res.maps) else None
    outgoing = res.maps[position - 1].entries if position >= 1 else None
    for op in ops:
        _validate_op(op, twists)
        if incoming is not None:
            incoming = _apply_to_rows(incoming, op)
        if outgoing is not None:
            outgoing = _apply_to_columns(outgoing, op)
        if isinstance(op, SwapBasis):
            twists[op.i], twists[op.j] = twists[op.j], twists[op.i]
    new_module = GradedFreeModule(modules[position].ring, tuple(twists))
    new_maps = list(res.maps)
    if incoming is not None:
        old = res.maps[position]
        new_maps[position] = GradedMap(old.source, new_module, incoming)
    if outgoing is not None:
        old = res.maps[position - 1]
        new_maps[position - 1] = GradedMap(new_module, old.target, outgoing)
    return FreeResolution(new_maps, minimal=False)


def prune_unit(res: FreeResolution, step: int, row: int, col: int) -> FreeResolution:
    """Split off an isolated constant entry of maps[step] and delete the two
    basis vectors it pairs up (row in F_step, column in F_{step+1})."""
    if not (0 <= step < len(res.maps)):
        raise IndexError(f"no map at step {step}")
    entries = res.maps[step].entries
    if not (0 <= row < len(entries) and 0 <= col < len(entries[0])):
        raise IndexError("entry outside the matrix")
    pivot = _is_constant(entries[row][col])
    if pivot is None:
        raise PreconditionViolated("pivot entry is not a nonzero constant")
    if any(not p.is_zero for j, p in enumerate(entries[row]) if j != col):
        raise PreconditionViolated("pivot row carries other nonzero entries")
    if any(not r[col].is_zero for i, r in enumerate(entries) if i != row):
        raise PreconditionViolated("pivot column carries other nonzero entries")

    new_maps = list(res.maps)
    mid = res.maps[step]
    small_target = GradedFreeModule(
        mid.target.ring, tuple(t for i, t in enumerate(mid.target.twists) if i != row)
    )
    small_source = GradedFreeModule(
        mid.source.ring, tuple(t for j, t in enumerate(mid.source.twists) if j != col)
    )
    trimmed = [
        [p for j, p in enumerate(r) if j != col]
        for i, r in enumerate(entries)
        if i != row
    ]
    new_maps[step] = GradedMap(small_source, small_target, trimmed)
    if step >= 1:
        prev = res.maps[step - 1]
        kept = [[p for j, p in enumerate(r) if j != row] for r in prev.entries]
        new_maps[step - 1] = GradedMap(small_target, prev.target, kept)
    if step + 1 < len(res.maps):
        nxt = res.maps[step + 1]
        kept = [r for i, r in enumerate(nxt.entries) if i != col]
        new_maps[step + 1] = GradedMap(nxt.source, small_source, kept)
    return FreeResolution(new_maps, minimal=False)


def _find_constant_entry(maps):
    for step, gm in enumerate(maps):
        for i, r in enumerate(gm.entries):
            for j, p in enumerate(r):
                if not p.is_zero and _is_constant(p) is not None:
                    return step, i, j
    return None


def minimalize(res: FreeResolution) -> FreeResolution:
    """Remove every constant entry by scale, clear, prune; first the column
    operations that empty the pivot's row, then the row operations for its
    column, then the deletion — each intermediate complex stays valid."""
    current = res
    while True:
        found = _find_constant_entry(current.maps)
        if found is None:
            break
        step, row, col = found
        pivot = _is_constant(current.maps[step].entries[row][col])
        if pivot != 1:
            current = transform_complex(current, step + 1, ScaleBasis(col, pivot))
        entries = current.maps[step].entries
        ops = [
            AddMultiple(col, j, entries[row][j])
            for j in range(len(entries[row]))
            if j != col and not entries[row][j].is_zero
        ]
        if ops:
            current = transform_complex(current, step + 1, ops)
        entries = current.maps[step].entries
        ops = [
            AddMultiple(i, row, -entries[i][col])
            for i in range(len(entries))
            if i != row and not entries[i][col].is_zero
        ]
        if ops:
            current = transform_complex(current, step, ops)
        current = prune_unit(current, step, row, col)
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
