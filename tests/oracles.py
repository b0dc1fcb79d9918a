"""Reference constructions that only the tests use.

The program checks the Hilbert identity as one exact polynomial equation
built from the Apéry set, which it finds by shortest paths.  The references
for that:

* ``gamma_series_truncation`` and ``hilbert_series_truncation``, the two
  sides of the identity as power series cut at a given degree;
* ``apery_set_walk``, the Apéry set by walking each residue class upward
  with membership queries;
* ``series_numerator_dense``, the series numerator as the product over the
  whole Apéry set, where the program reads the table's boundary.

All three answer membership from ``DenseSemigroup``, a boolean table of every
value up to the query, not from ``SubSemigroup``, which the program answers
from the same Apéry table that the Hilbert identity is built on.

The program certifies and checks bases in (lead, tail) exponent arithmetic
and resolves on Schreyer's lead frame in one form per level: F_0 = R is the
rank-one module (``rank_one_key`` orders it), and every level's elements
are {(position, exponent): coefficient} dicts, the columns of the map
before.  Its ``buchberger`` completes nothing: it reduces only the lead
frame's pairs, refuses a set that is no basis, and keeps each pair's
syzygy as a column.  The generic paths it replaced are the references for
that.  They run in ``Poly`` and ``Vect`` arithmetic, ``Vect`` being the
free-module element type, a ``_Terms`` subclass keyed by (position,
monomial) pairs that lives here since the program needs none:
``buchberger``, which completes any set and reduces every pair by
``divide``, writing a ``PairRecord`` per pair into the ``Completion``'s
transcript; ``is_groebner``, ``replay_ok``, ``ideal_member``, and
``resolution_all_pairs``, which completes every level with ``buchberger``,
writes each record's syzygy as a vector (``record_vector``) and keeps the
``lead_minimal`` ones.  ``decoded_frame`` reads a basis's packed level
1 as (pair, lead, column) with (position, exponent) keys, and
``frame_matches`` holds each of its columns to the generic record of its
pair.  ``pair_records_generic``
forms and divides each kept pair with ``s_polynomial`` and ``divide``; the
program does the same in one term dict.  ``reduce_basis`` makes a
completed basis reduced by generic division.  ``PositionOverTerm`` orders
module elements for those generic paths.  ``transcript_syzygies`` is the
map of every record of a transcript, for the tests that read every pair's
syzygy, and ``map_columns`` reads a map's columns back as vectors,
``map_terms`` as {(row, exponent): coefficient} dicts.  ``matrix_map``
builds a map from a matrix of ``Poly`` entries, each term checked and
encoded by the program's own ``_Module.encode``, in the layout given or
``default_layout``'s: the constructor the program no longer has, since it
builds every map from its packed columns.

The program packs each term x^m e_p of a syzygy level into one int that is
its own Schreyer key, and works on exponent tuples only at the edges.
The tuple form it replaced is the reference for that: ``SchreyerOrder``,
the induced order on (position, exponent) keys; ``lead_frame_tuples``, the
frame kept by a sort on those keys; ``pair_records_tuples``, the division
ordered by a key callable; ``syzygy_level_tuples`` and
``schreyer_levels_tuples``, one level and every level.  ``packed`` is the
program's int of a (position, exponent) term, ``unpacked`` the term of an
int, and ``mono_coprime`` the product-criterion test on exponent tuples.

The program minimalizes a resolution by splitting off each unit entry in one
Schur-complement step.  The elementary-operation calculus it replaced is the
reference for that: ``transform_complex`` applies ``AddMultiple``,
``SwapBasis`` and ``ScaleBasis`` basis changes, and
``minimalize_by_operations`` scales each unit to 1, clears its row and
column with them and deletes the isolated pair (``prune_isolated``).  The
program finds units from the twists, looking only where a row and a column
twist are equal; ``constant_entry_scan`` looks at every entry with
``is_constant``, and finds them for ``minimalize_by_operations``.

The program certifies d∘d = 0 in int adds on the maps' packed columns.
``compose_zero_generic``, the same test in generic ``Poly`` products and
sums, entry by entry, is the reference for that.

``graded_betti_numbers`` reads the graded Betti numbers off the semigroup
alone, as reduced homology of small simplicial complexes, with no Gröbner
code at all.  ``betti_degrees`` reads one level of a ``BettiTable``.

The program reads the toric kernel's reduced basis off the Apéry set, one
shortest-path pass with no S-pair.  Two references compute the same reduced
basis another way, and the tests require them to agree with it:

* ``toric_kernel_elimination``, the textbook algorithm, on the reduced
  elements;
* ``toric_kernel_saturation``, lattice saturation (a kernel-lattice basis
  from ``_kernel_lattice_basis``, then one saturation per variable) run
  through generic ``Poly`` arithmetic and ``reduce_basis``, on the reduced
  elements and, through ``frame_matches``, on every frame column.

The program runs that pass on ``groebner._Module`` ints over x_1 .. x_k,
each monomial's degree and exponents packed into one int, exact because
the module is sized by a proven bound on the Apéry set plus one variable's
step, and tests whether a monomial is standard by one lookup in the table
at its degree.  ``toric_kernel_by_sets`` is the version it replaced, kept as the
reference for it: ``standard_table_tuples`` builds a (degree, -e_1, ..,
-e_k) tuple per residue, and the lead search builds every neighbour and its
divisors as exponent tuples and looks them up in a set of the standard
ones.  Like the program's table, it never calls ``semigroup``, whose Apéry
set is what the Hilbert identity reads.  The program finds the leads by
walking the boundary of the order ideal of standard monomials, so its
lookups follow that staircase, not w_0.  ``lead_labels_by_scan`` is the
search it replaced, the reference for it: every residue's standard label
times each variable, kept when it is not standard and each of its
divisors by one variable is.

The program decides a sequence's minimal generation from one Apéry table,
Γ's: g is redundant iff g - h is in Γ for some other generator h <= g.
``validate_sequence_by_subsemigroups`` is the version it replaced, the
reference for it: each generator tested against the semigroup of the other
three, one table each.  ``is_homogeneous``, the common weighted degree of a
polynomial's terms, is the homogeneity test the program no longer needs:
the kernel's substitution test implies it for a pure difference.

The program matches a tuple's parameters against the case table with one
code object, compiled at import from every row's checked syntax trees.
``case_id_by_rows`` is the row-by-row matcher it replaced, the reference
for it: each condition split by ``parse_condition``, the string splitter
the program used to read them with, and each row tested in turn on a dict
of the parameters' fields with ``operator`` functions; it shares nothing
with the program's checker or compile step.  ``eval_shift`` evaluates one
twist expression through the program's checked tree, for the tests of its
walker.

The program packs each closed-form template monomial as it is written, the
offset it adds to the key of 1 in its row, in a layout sized off the
generator degrees.  ``closed_form_base_by_exponents`` is the assembly it
replaced, the reference for it: the same builders write each monomial as
its exponent tuple (``closedform._m``), a first pass reads each column's
twist off its first term to size the layout at twice the largest twist,
and ``_Module.encode`` packs every term.
"""

import functools
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, eq, le, lshift, mul, ne, neg, sub

from monocurve.closedform import _BUILDERS, _COMPARABLE, _PARAM_FIELDS, CASE_TABLE, CaseUnmatched, _compile, _m, _tree
from monocurve.groebner import _Module, buchberger as binomial_buchberger
from monocurve.poly import Poly, Ring, _Terms, coeff_div, divide, render, s_polynomial
from monocurve.resolution import (
    FreeResolution,
    GradedFreeModule,
    GradedMap,
    HomogeneityBroken,
    PreconditionViolated,
    ShapeMismatch,
)
from monocurve.semigroup import (
    M0_BUDGET,
    GcdNotOne,
    NotArithmetic,
    OverBudget,
    RedundantGenerator,
    SequenceSpec,
    SubSemigroup,
    ValidationError,
)


def is_homogeneous(f: Poly, ring_or_weights=None):
    """Common weighted degree of all terms, or None if degrees differ."""
    ring = f.ring if ring_or_weights is None else ring_or_weights
    weights = ring.weights if isinstance(ring, Ring) else tuple(ring)
    degrees = {sum(map(mul, mono, weights)) for mono in f.terms}
    return degrees.pop() if len(degrees) == 1 else None


def vanishes_under_substitution(p: Poly, weights) -> bool:
    """Does p vanish under x_i -> t^{w_i}?  (Coefficient sums per weighted degree.)"""
    sums: dict = {}
    for mono, coeff in p.terms.items():
        d = sum(e * w for e, w in zip(mono, weights))
        sums[d] = sums.get(d, 0) + coeff
    return all(v == 0 for v in sums.values())


def basis_order(gb):
    """The order of a basis: a ``Completion`` carries its own, and the
    program's ``GroebnerBasis`` is always in the ring's weighted grevlex."""
    return gb.order if isinstance(gb, Completion) else gb.elements[0].ring.order()


def _element_degrees(elements):
    """The weighted degree of each element, which must be homogeneous."""
    degrees = []
    for g in elements:
        d = is_homogeneous(g)
        if d is None:
            raise HomogeneityBroken("basis element is not weighted-homogeneous")
        degrees.append(d)
    return tuple(degrees)


class Vect(_Terms):
    """Element of a free module R^rank; keys are (position, monomial) pairs.

    Key arithmetic acts on the monomial and requires equal positions.
    """

    __slots__ = ("rank",)

    def __init__(self, ring: Ring, rank: int, terms=None):
        self.rank = rank
        super().__init__(ring, terms)

    def _like(self, terms):
        out = super()._like(terms)
        out.rank = self.rank
        return out

    @staticmethod
    def key_mul(key, mono):
        return key[0], Poly.key_mul(key[1], mono)

    @staticmethod
    def key_divides(a, b) -> bool:
        return a[0] == b[0] and Poly.key_divides(a[1], b[1])

    @staticmethod
    def key_div(a, b) -> tuple:
        return Poly.key_div(a[1], b[1])

    @staticmethod
    def key_lcm(a, b):
        """(position, lcm), or None when the positions differ."""
        if a[0] != b[0]:
            return None
        return a[0], Poly.key_lcm(a[1], b[1])

    @classmethod
    def unit(cls, ring: Ring, rank: int, pos: int) -> "Vect":
        return cls(ring, rank, {(pos, (0,) * ring.nvars): 1})

    @classmethod
    def from_polys(cls, polys) -> "Vect":
        polys = list(polys)
        ring = polys[0].ring
        terms = {}
        for pos, p in enumerate(polys):
            for m, c in p.terms.items():
                terms[(pos, m)] = c
        return cls(ring, len(polys), terms)

    def component(self, pos: int) -> Poly:
        return Poly(
            self.ring, {m: c for (p, m), c in self.terms.items() if p == pos}
        )

    def to_polys(self) -> list:
        out = [dict() for _ in range(self.rank)]
        for (p, m), c in self.terms.items():
            out[p][m] = c
        return [Poly(self.ring, d) for d in out]

    def __eq__(self, other):
        return (
            isinstance(other, Vect)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        comps = ", ".join(render(p) for p in self.to_polys())
        return f"({comps})"


class DenseSemigroup:
    """Membership in the semigroup of ``generators`` from a boolean table of
    every value up to the largest query.  After dividing out the gcd g, every
    multiple of g from min·max of the reduced generators on belongs to it
    (the Frobenius number of a coprime a_1 < ... < a_k is below a_1·a_k), so
    the table never grows past that bound."""

    def __init__(self, generators):
        gens = tuple(sorted(set(int(g) for g in generators)))
        self.gcd = math.gcd(*gens)
        self.reduced = tuple(a // self.gcd for a in gens)
        self.bound = self.reduced[0] * self.reduced[-1] + 1
        self.table = [True]

    def contains(self, s: int) -> bool:
        if s < 0 or s % self.gcd:
            return False
        s //= self.gcd
        if s >= self.bound:
            return True
        table = self.table
        for t in range(len(table), s + 1):
            table.append(any(a <= t and table[t - a] for a in self.reduced))
        return table[s]


@functools.lru_cache(maxsize=None)
def default_layout(ring: Ring):
    """One layout per ring, for twists up to 2^24: ``matrix_map``'s when it
    is given none, so that the maps it builds over one ring compose."""
    return _Module(ring.weights, 1 << 24)


def matrix_map(source: GradedFreeModule, target: GradedFreeModule, entries, layout=None) -> GradedMap:
    """The map with the given matrix of ``Poly`` entries, rank(target) rows
    by rank(source) columns, each term checked against the twists and
    encoded in ``layout``, ``default_layout(ring)`` if None."""
    layout = default_layout(target.ring) if layout is None else layout
    if max(source.twists, default=0) > layout.top:
        raise ValueError("twists beyond the layout's bound")
    rows = tuple(tuple(row) for row in entries)
    if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
        raise ShapeMismatch(
            f"matrix {len(rows)}x{len(rows[0]) if rows else 0} does not map "
            f"rank {source.rank} into rank {target.rank}"
        )
    columns = tuple({} for _ in source.twists)
    weights = target.ring.weights
    for i, row in enumerate(rows):
        for j, (column, p) in enumerate(zip(columns, row)):
            want = source.twists[j] - target.twists[i]
            for mono, c in p.terms.items():
                d = sum(map(mul, mono, weights))
                if d != want or d < 0:
                    raise HomogeneityBroken(f"entry ({i},{j}) has degree {d}, twists demand {want}")
                column[layout.encode(i, target.twists[i], mono)] = c
    return GradedMap._trimmed(source, target, columns, layout)


def compose_zero_generic(a: GradedMap, b: GradedMap) -> bool:
    """True iff the matrix product a∘b is zero (a: F->G, b: E->F)."""
    if a.source != b.target:
        raise ShapeMismatch("inner modules differ")
    ring = a.source.ring
    a_entries, b_entries = a.entries, b.entries
    for i in range(a.target.rank):
        for j in range(b.source.rank):
            acc = ring.zero()
            for k in range(a.source.rank):
                left = a_entries[i][k]
                right = b_entries[k][j]
                if left.is_zero or right.is_zero:
                    continue
                acc = acc + left * right
            if not acc.is_zero:
                return False
    return True


@dataclass(frozen=True)
class PairRecord:
    """One processed S-pair: cofactor_i * g_i - cofactor_j * g_j = sum quotients[k] * g_k."""

    i: int
    j: int
    cofactor_i: Poly
    cofactor_j: Poly
    quotients: dict
    koszul: bool = False


@dataclass
class Completion:
    """A basis completed by the generic ``buchberger``, with the record of
    every pair it processed."""

    elements: list
    order: object
    transcript: list = field(default_factory=list)


def buchberger(gens, order) -> Completion:
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
    return Completion(elements, order, transcript)


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


def pair_records_generic(elements, order, pairs) -> list:
    """The record of each pair (i, j) of ``elements``, a Gröbner basis in
    ``order``: its S-element from ``s_polynomial`` divided by ``elements``
    with ``divide``, which must leave remainder zero."""
    records = []
    for i, j in pairs:
        spoly, cof_i, cof_j = s_polynomial(elements[i], elements[j], order)
        quotients, remainder = divide(spoly, elements, order)
        if not remainder.is_zero:
            raise AssertionError("pair (%d, %d) leaves a nonzero remainder" % (i, j))
        quots = {k: q for k, q in enumerate(quotients) if not q.is_zero}
        records.append(PairRecord(i, j, cof_i, cof_j, quots))
    return records


def replay_ok(gb: Completion) -> bool:
    """Re-check every transcript record by exact arithmetic."""
    for rec in gb.transcript:
        lhs = rec.cofactor_i * gb.elements[rec.i] - rec.cofactor_j * gb.elements[rec.j]
        for k, h in rec.quotients.items():
            lhs = lhs - h * gb.elements[k]
        if not lhs.is_zero:
            return False
    return True


def ideal_member(f: Poly, gb) -> bool:
    if f.is_zero:
        return True
    _, remainder = divide(f, gb.elements, basis_order(gb))
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


def record_vector(rec, ring: Ring, rank: int) -> Vect:
    """The syzygy of a transcript record in ``Vect`` arithmetic: the
    quotient vector, minus cofactor_i e_i, plus cofactor_j e_j."""
    quotients = Vect(ring, rank, {(k, m): c for k, h in rec.quotients.items() for m, c in h.terms.items()})
    return (
        quotients
        - rec.cofactor_i * Vect.unit(ring, rank, rec.i)
        + rec.cofactor_j * Vect.unit(ring, rank, rec.j)
    )


def vector_map(vectors, target: GradedFreeModule) -> GradedMap:
    """The checked map into ``target`` whose columns are ``vectors``."""
    ring = target.ring
    twists = []
    for v in vectors:
        pos, mono = next(iter(v.terms))
        twists.append(ring.degree(mono) + target.twists[pos])
    entries = [[v.component(k) for v in vectors] for k in range(target.rank)]
    return matrix_map(GradedFreeModule(ring, tuple(twists)), target, entries)


def map_columns(gmap: GradedMap) -> list:
    """The columns of a map as vectors."""
    return [Vect.from_polys(list(column)) for column in zip(*gmap.entries)]


def map_terms(columns, layout) -> list:
    """Packed map columns as {(row, exponent): coefficient} dicts."""
    return [{layout.decode(key): c for key, c in column.items()} for column in columns]


def transcript_syzygies(gb: Completion) -> GradedMap:
    """The map whose columns are the syzygies of every record of gb's
    transcript, sorted by (i, j)."""
    ring = gb.elements[0].ring
    target = GradedFreeModule(ring, _element_degrees(gb.elements))
    records = sorted(gb.transcript, key=lambda r: (r.i, r.j))
    return vector_map([record_vector(r, ring, len(gb.elements)) for r in records], target)


def decoded_frame(gb) -> list:
    """The certificate of ``gb`` read off its packed ``level``: per pair of
    the lead frame, (pair, lead, {(slot, exponent): coefficient}), the lead
    a (slot, exponent) pair."""
    module, frame = gb.level
    return [
        (pair, unpacked(module, lead), {unpacked(module, t): c for t, c in column.items()}) for pair, lead, column in frame
    ]


def frame_matches(gb, completed: Completion) -> bool:
    """Whether ``completed``, the generic completion of the elements of
    ``gb``, a basis the program certified, appended nothing, and each of
    gb's frame columns is the syzygy of completed's record of its pair."""
    ring, rank = gb.elements[0].ring, len(gb.elements)
    records = {(r.i, r.j): r for r in completed.transcript}
    return completed.elements == gb.elements and all(
        column == record_vector(records[pair], ring, rank).terms for pair, _, column in decoded_frame(gb)
    )


def mono_coprime(a: tuple, b: tuple) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class SchreyerOrder:
    """Order on one level's (position, exponent) keys induced by the previous
    level's key ``parent`` and its (position, exponent) leads: x^a e_i is
    compared as lead(i) times x^a, at lead(i)'s position, in the parent
    order; on ties the lexicographically smaller cofactor wins, then the
    smaller position.  The program packs each term into an int that is this
    key; this is the tuple form it replaced.

    The cofactor tie-break is the same order one gets from the plain
    smaller-position rule after relabeling the previous level's elements in
    descending lead order; phrased this way the basis order stays untouched,
    and the iterated syzygy construction provably sheds one variable of its
    lead cofactors per level, so it stops within #variables steps."""

    __slots__ = ("parent", "leads", "_keys")

    def __init__(self, parent, leads):
        self.parent = parent
        self.leads = tuple(leads)
        self._keys = {}

    def key(self, mm):
        k = self._keys.get(mm)
        if k is None:
            pos, mono = mm
            lead_pos, lead = self.leads[pos]
            shifted = lead_pos, tuple(map(add, lead, mono))
            k = self._keys[mm] = self.parent(shifted) + tuple(map(neg, mono)) + (-pos,)
        return k


def packed(module, term) -> int:
    """The int of the (position, exponent) ``term`` in the program's
    ``groebner._Module`` ``module``."""
    p, mono = term
    return module.term(p, sum(map(lshift, mono, module.shifts)), sum(map(mul, mono, module.weights)))


def unpacked(module, t: int) -> tuple:
    """The (position, exponent) term of the int ``t`` of the level
    ``module``: its map key, decoded."""
    (key,) = module.keys({t: 1})
    return module.decode(key)


def lead_frame_tuples(leads, induced) -> list:
    """The program's lead frame in exponent tuples: each same-position pair
    (i, j) with its syzygy's lead, the smaller cofactor of the two (ties to
    i), sorted by ``induced``'s key; kept are the leads no kept lead at
    their slot divides, of equal leads the first; returned by pair."""
    frame = []
    for i, (pos, a) in enumerate(leads):
        for j in range(i + 1, len(leads)):
            other, b = leads[j]
            if other == pos:
                lcm = tuple(map(max, a, b))
                cof_i, cof_j = tuple(map(sub, lcm, a)), tuple(map(sub, lcm, b))
                lead = (i, cof_i) if cof_i <= cof_j else (j, cof_j)
                frame.append((induced.key(lead), lead, (i, j)))
    kept: list = []
    for _, (slot, cof), pair in sorted(frame, key=lambda entry: entry[0]):
        if not any(slot == p and all(map(le, c, cof)) for (p, c), _ in kept):
            kept.append(((slot, cof), pair))
    return sorted((pair, lead) for lead, pair in kept)


def _subtract_tuples(terms: dict, items, shift: tuple, scale) -> None:
    for (p, m), c in items:
        t = (p, tuple(map(add, m, shift)))
        v = terms.get(t, 0) - c * scale
        if v:
            terms[t] = v
        else:
            del terms[t]


def pair_records_tuples(columns, key, pairs, leads) -> list:
    """The program's pair division in {(position, exponent): coefficient}
    dicts ordered by the callable ``key``, with ``leads`` the columns'
    (position, exponent) leads: each pair's S-element divided by the
    greatest dividing lead (ties to the earlier index), which must leave
    remainder zero (AssertionError), lead coefficients ±1 (ValueError)."""
    units = [column[lead] for column, lead in zip(columns, leads)]
    if any(u not in (1, -1) for u in units):
        raise ValueError("a lead coefficient is not ±1: %r" % (units,))
    divisors: dict = {}
    for k in sorted(range(len(leads)), key=lambda k: key(leads[k]), reverse=True):
        pos, mono = leads[k]
        divisors.setdefault(pos, []).append((k, mono, units[k]))
    tails = [[(t, c) for t, c in terms.items() if t != lead] for terms, lead in zip(columns, leads)]
    syzygies = []
    for i, j in pairs:
        (pos, a), (_, b) = leads[i], leads[j]
        lcm = tuple(map(max, a, b))
        cof_i, cof_j = tuple(map(sub, lcm, a)), tuple(map(sub, lcm, b))
        terms: dict = {}
        _subtract_tuples(terms, tails[i], cof_i, -units[i])
        _subtract_tuples(terms, tails[j], cof_j, units[j])
        syzygy = {(i, cof_i): -units[i], (j, cof_j): units[j]}
        while terms:
            top = max(terms, key=key)
            c = terms.pop(top)
            pos, mono = top
            for k, lead, unit in divisors.get(pos, ()):
                if all(map(le, lead, mono)):
                    break
            else:
                raise AssertionError("pair (%d, %d) leaves a nonzero remainder" % (i, j))
            q = tuple(map(sub, mono, lead))
            c *= unit
            syzygy[k, q] = c
            _subtract_tuples(terms, tails[k], q, c)
        syzygies.append(syzygy)
    return syzygies


def syzygy_level_tuples(columns, key, leads) -> tuple:
    """The program's syzygy level in exponent tuples: (induced, frame), the
    Schreyer order of ``leads`` and one (pair, lead, column) per pair of
    ``lead_frame_tuples``, a pair with coprime leads in F_0 = R keeping its
    Koszul column, every other divided by ``pair_records_tuples``."""
    induced = SchreyerOrder(key, leads)
    kept = lead_frame_tuples(leads, induced)
    rank_one = all(pos == 0 for column in columns for pos, _ in column)
    koszul = [rank_one and mono_coprime(leads[i][1], leads[j][1]) for (i, j), _ in kept]
    divided = [pair for (pair, _), k in zip(kept, koszul) if not k]
    syzygies = iter(pair_records_tuples(columns, key, divided, leads))
    frame = []
    for ((i, j), lead), k in zip(kept, koszul):
        if k:
            s = columns[i][leads[i]] * columns[j][leads[j]]
            column = {(i, m): -s * c for (_, m), c in columns[j].items()}
            column.update({(j, m): s * c for (_, m), c in columns[i].items()})
        else:
            column = next(syzygies)
        frame.append(((i, j), lead, column))
    return induced, frame


def schreyer_levels_tuples(elements, order, depth) -> list:
    """Up to ``depth`` syzygy levels of a Gröbner basis in exponent tuples,
    level 1 first, each ``syzygy_level_tuples`` on the frame before: the
    program's resolution before it packed its terms.  Each level is (key,
    frame), ``key`` the Schreyer key of the frame's terms and ``frame``
    [(pair, (slot, exponent) lead, {(slot, exponent): coefficient}
    column)]; the list stops before the first empty frame."""
    columns = [{(0, m): c for m, c in g.terms.items()} for g in elements]
    key, leads = rank_one_key(order), [(0, g.lead(order)[0]) for g in elements]
    levels = []
    while len(levels) < depth:
        induced, frame = syzygy_level_tuples(columns, key, leads)
        if not frame:
            break
        levels.append((induced.key, frame))
        key, columns, leads = induced.key, [c for _, _, c in frame], [lead for _, lead, _ in frame]
    return levels


def rank_one_key(order):
    """The key of F_0 = R as the rank-one module: (0, m) ordered as m."""
    return lambda pm: order.key(pm[1])


def resolution_all_pairs(gb):
    """The resolution of a Gröbner basis (``elements`` in ``order``) the
    generic way: every level completed by ``buchberger``, which must append
    nothing, all of its pair syzygies written down by ``record_vector``,
    the ``lead_minimal`` ones kept.

    Returns (resolution, levels) with levels[k] the kept syzygies of map
    k + 1, in column order, as {(slot, exponent): coefficient} dicts.
    """
    elements, order = list(gb.elements), basis_order(gb)
    ring = elements[0].ring
    base = GradedFreeModule(ring, (0,))
    first = GradedFreeModule(ring, _element_degrees(elements))
    maps = [matrix_map(first, base, [elements])]
    levels = []
    key = rank_one_key(order)
    leads = [(0, g.lead(order)[0]) for g in elements]
    while len(maps) <= ring.nvars:
        completed = buchberger(elements, order)
        if len(completed.elements) != len(elements):
            raise AssertionError("a level was not already a Gröbner basis")
        records = sorted(completed.transcript, key=lambda r: (r.i, r.j))
        if not records:
            return FreeResolution(maps), levels
        induced = SchreyerOrder(key, leads)
        vectors = [record_vector(r, ring, len(leads)) for r in records]
        elements = [vectors[j] for j in sorted(lead_minimal(vectors, induced))]
        levels.append([v.terms for v in elements])
        maps.append(vector_map(elements, maps[-1].source))
        order, key, leads = induced, induced.key, [v.lead(induced)[0] for v in elements]
    raise AssertionError("resolution exceeded the number of variables")


class PositionOverTerm:
    """Module order: smaller basis position always wins; within a position,
    the underlying ring order decides."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def key(self, mm):
        pos, mono = mm
        return (-pos,) + self.base.key(mono)


# ---------------------------------------------------------------------------
# elementary transforms (the invertible-matrix calculus, syntactic inverses)


class NotElementary(TypeError):
    """transform_complex accepts only the three elementary operation types."""


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
        new_maps[position] = matrix_map(old.source, new_module, incoming, old.layout)
    if outgoing is not None:
        old = res.maps[position - 1]
        new_maps[position - 1] = matrix_map(new_module, old.target, outgoing, old.layout)
    return FreeResolution(new_maps, minimal=False)


def is_constant(p: Poly):
    """The value of a nonzero constant polynomial, else None."""
    if len(p.terms) != 1:
        return None
    (mono, coeff), = p.terms.items()
    if any(mono):
        return None
    return coeff


def constant_entry_scan(maps, step: int = 0, row: int = 0):
    """(step, i, j) of the first nonzero constant entry in row-major order,
    starting at row ``row`` of map ``step``, or None: every entry looked at."""
    for s in range(step, len(maps)):
        entries = maps[s].entries
        for i in range(row if s == step else 0, len(entries)):
            for j, p in enumerate(entries[i]):
                if not p.is_zero and is_constant(p) is not None:
                    return s, i, j
    return None


def prune_isolated(res: FreeResolution, step: int, row: int, col: int) -> FreeResolution:
    """Delete an isolated constant entry of maps[step] and the two basis
    vectors it pairs up (row in F_step, column in F_{step+1})."""
    entries = res.maps[step].entries
    if is_constant(entries[row][col]) is None:
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
    new_maps[step] = matrix_map(small_source, small_target, trimmed, mid.layout)
    if step >= 1:
        prev = res.maps[step - 1]
        kept = [[p for j, p in enumerate(r) if j != row] for r in prev.entries]
        new_maps[step - 1] = matrix_map(small_target, prev.target, kept, prev.layout)
    if step + 1 < len(res.maps):
        nxt = res.maps[step + 1]
        kept = [r for i, r in enumerate(nxt.entries) if i != col]
        new_maps[step + 1] = matrix_map(nxt.source, small_source, kept, nxt.layout)
    return FreeResolution(new_maps, minimal=False)


def minimalize_by_operations(res: FreeResolution) -> FreeResolution:
    """Remove every constant entry by scale, clear, prune; first the column
    operations that empty the pivot's row, then the row operations for its
    column, then the deletion -- each intermediate complex stays valid."""
    current = res
    while True:
        found = constant_entry_scan(current.maps)
        if found is None:
            break
        step, row, col = found
        pivot = is_constant(current.maps[step].entries[row][col])
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
        current = prune_isolated(current, step, row, col)
    maps = list(current.maps)
    while maps and maps[-1].source.rank == 0:
        maps.pop()
    return FreeResolution(maps, minimal=True)


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


def betti_degrees(table, i: int) -> dict:
    """{degree: count} of level ``i`` of a ``BettiTable``, which the program
    never reads by level."""
    return {d: c for (h, d), c in table.entries if h == i}


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
    dense = DenseSemigroup(weights)
    member = [dense.contains(x) for x in range(top + 1)]
    degrees = {a + sums[f] for a in apery for f in range(0, 1 << count, 2)}
    rows = []
    for s in sorted(degrees):
        faces = frozenset(f for f in range(1 << count) if s >= sums[f] and member[s - sums[f]])
        for size, dim in enumerate(_reduced_homology(faces, count)):
            if dim and size >= 1:
                rows.append([size - 1, s, dim])
    return sorted(rows)


def validate_sequence_by_subsemigroups(m0, m1, m2, n) -> SequenceSpec:
    """``validate_sequence`` deciding each generator against a semigroup of
    its own, spanned by the other three: four Apéry tables where the
    program reads one, with the same precedence, exceptions and messages."""
    values = (m0, m1, m2, n)
    if any(not isinstance(v, int) or v <= 0 for v in values):
        raise ValidationError("all four entries must be positive integers")
    if m1 - m0 != m2 - m1 or m1 - m0 <= 0:
        raise NotArithmetic(f"({m0},{m1},{m2}) is not a strictly increasing arithmetic progression")
    if math.gcd(m0, m1, m2, n) != 1:
        raise GcdNotOne(f"gcd{values} is not 1")
    if m0 > M0_BUDGET:
        raise OverBudget(f"m0 = {m0} exceeds M0_BUDGET = {M0_BUDGET}, the largest table of m0 entries built")
    for name, index in (("n", 3), ("m0", 0), ("m1", 1), ("m2", 2)):
        if SubSemigroup(values[:index] + values[index + 1 :]).contains(values[index]):
            raise RedundantGenerator(name)
    return SequenceSpec(m0, m1, m2, n)


def gamma_series_truncation(semigroup: SubSemigroup, degree: int) -> list:
    """Coefficients 0..degree of the indicator power series sum_{s in S} z^s."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    dense = DenseSemigroup(semigroup.generators)
    return [1 if dense.contains(s) else 0 for s in range(degree + 1)]


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


def series_numerator_dense(semigroup: SubSemigroup) -> dict:
    """Gamma(z) * prod_g (1 - z^g) as {degree: coefficient}, zeros dropped:
    the Apéry polynomial of the least generator m as a dict with one entry
    per residue mod m, found by ``apery_set_walk``, times each other factor
    (1 - z^g) in place over a snapshot of its items."""
    m, *rest = semigroup.generators
    coeffs = dict.fromkeys(apery_set_walk(semigroup, m), 1)
    for g in rest:
        for d, c in list(coeffs.items()):
            coeffs[d + g] = coeffs.get(d + g, 0) - c
    return {d: c for d, c in coeffs.items() if c}


def apery_set_walk(semigroup: SubSemigroup, m: int) -> set:
    """Smallest element of each residue class mod m, found by stepping
    r, r + m, r + 2m, ... until the semigroup contains it."""
    dense = DenseSemigroup(semigroup.generators)
    result = set()
    for residue in range(m):
        s = residue
        while not dense.contains(s):
            s += m
        result.add(s)
    return result


def reduce_basis(gb) -> Completion:
    """Reduced Gröbner basis: monic leads, fully tail-reduced, sorted by
    ascending leading monomial.  Unique for the given order."""
    order = basis_order(gb)
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
        names = ("x", "y", "z", "w", "u", "v")[: len(weights)]
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
    reduced = reduce_basis(Completion(tfree, ring.order()))
    return ring, reduced


def _extended_gcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def _size_reduce(vectors):
    """Pairwise integer size-reduction; unimodular, so the lattice is kept."""
    vecs = [list(v) for v in vectors]
    for _ in range(32):
        changed = False
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                denom = sum(e * e for e in vecs[j])
                if denom == 0:
                    continue
                num = sum(a * b for a, b in zip(vecs[i], vecs[j]))
                k = round(num / denom)
                if k:
                    cand = [a - k * b for a, b in zip(vecs[i], vecs[j])]
                    if sum(e * e for e in cand) < sum(e * e for e in vecs[i]):
                        vecs[i] = cand
                        changed = True
        if not changed:
            break
    return [tuple(v) for v in vecs]


def _kernel_lattice_basis(weights):
    """Basis of the full integer kernel lattice of the weight row.

    Sequential gcd elimination: keep a certificate c with c·w[:i] = g; each
    new weight contributes one kernel vector, and the certificate absorbs it.
    """
    k = len(weights)
    basis = []
    g = weights[0]
    cert = [1] + [0] * (k - 1)
    for i in range(1, k):
        g2, s, t = _extended_gcd(g, weights[i])
        vec = [weights[i] // g2 * c for c in cert]
        vec[i] -= g // g2
        basis.append(vec)
        cert = [s * c for c in cert]
        cert[i] += t
        g = g2
    return _size_reduce(basis)


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

    Start from the binomials of a kernel-lattice basis of the weights, then
    saturate one variable at a time: complete under grevlex with that
    variable cheapest (the ring permuted to put it first) and divide each
    element by the variable's common power.  (A weighted-homogeneous
    element whose lead the cheapest variable divides is divisible by it
    throughout, which is why the division yields the saturation.)  After
    all variables the ideal is the full kernel; complete it under the
    ring's order and reduce.

    Returns (ring, gb) like ``toric_kernel_generic``.
    """
    weights = tuple(int(w) for w in weights)
    if names is None:
        names = ("x", "y", "z", "w", "u", "v")[: len(weights)]
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


def standard_table_tuples(w) -> list:
    """Per residue r mod w[0], for weights w coprime as a whole: the label
    (a_r, -e_1, .., -e_k) of the order-least monomial x^(0, e_1, .., e_k)
    of least degree a_r in that residue, so that a_r runs over
    Ap(<w>, w[0]).

    Shortest paths over the residues, one edge per weight after the first,
    with labels compared lexicographically: least degree, then most x_1,
    then most x_2, and so on, which is the ring order's cheapest monomial.
    """
    m = w[0]
    steps = [(v,) + tuple(-(i == j) for i in range(1, len(w))) for j, v in enumerate(w) if j]
    least = [None] * m
    least[0] = (0,) * len(w)
    heap = [(least[0], 0)]
    while heap:
        label, r = heapq.heappop(heap)
        if label > least[r]:
            continue
        for step in steps:
            t = tuple(map(add, label, step))
            q = t[0] % m
            if least[q] is None or t < least[q]:
                least[q] = t
                heapq.heappush(heap, (t, q))
    return least


def lead_labels_by_scan(table, module) -> list:
    """The lead ints of ``groebner._lead_labels``, from the same
    ``_standard_table`` output, by scanning every residue: the neighbour
    c = s·x_j of each standard monomial's int s (x_j adds
    ``module.steps[j]``) is a lead iff it is not standard and c/x_i is for
    each later x_i it carries; each lead c is reached once, from c/x_j for
    its first variable x_j.  About w_0·k lookups."""
    m, full = len(table), module.vmask
    steps = [(step, v % m, o) for step, v, o in zip(module.steps, module.weights, module.shifts)]
    leads = []
    for r, s in enumerate(table):
        for j, (step, v, o) in enumerate(steps):
            c, q = s + step, (r + v) % m
            if table[q] != c and all(
                table[(q - u) % m] == c - down for down, u, o_i in steps[j + 1 :] if s >> o_i & full != full
            ):
                leads.append(c)
            if s >> o & full != full:  # s has x_j: no later variable is c's first
                break
    return leads


def toric_kernel_by_sets(weights, names=None):
    """``toric_kernel_generic`` as it was before labels were packed into
    ints: the table of (a_r, -e_1, .., -e_k) tuples from
    ``standard_table_tuples``, a set of the standard exponent tuples, and
    each neighbour s + e_j and its divisors c - e_i built as tuples and
    looked up in that set.  Returns (ring, gb) like ``toric_kernel_generic``.
    """
    weights = tuple(int(w) for w in weights)
    if names is None:
        names = ("x", "y", "z", "w", "u", "v")[: len(weights)]
    ring = Ring(tuple(names), weights)
    g = math.gcd(*weights)
    w = tuple(v // g for v in weights)
    table = standard_table_tuples(w)
    standard = {(0,) + tuple(map(neg, label[1:])) for label in table}
    unit = [tuple(int(i == j) for i in range(len(w))) for j in range(len(w))]
    leads = set()
    for s in standard:
        for j in range(1, len(w)):
            c = tuple(map(add, s, unit[j]))
            if c not in standard and all(
                tuple(map(sub, c, unit[i])) in standard for i in range(1, len(w)) if c[i]
            ):
                leads.add(c)
    order = ring.order()
    reduced = []
    for lead in sorted(leads, key=order.key):
        degree = sum(map(mul, lead, w))
        a, *rest = table[degree % w[0]]
        tail = ((degree - a) // w[0],) + tuple(map(neg, rest))
        reduced.append(Poly(ring, {lead: 1, tail: -1}))
    return ring, binomial_buchberger(reduced)


def eval_shift(expr: str, env: dict) -> int:
    """One twist expression evaluated at ``env``, through the program's
    checked tree: +, -, * over names and integers only."""
    return eval(_compile([_tree(expr, env)]), {"__builtins__": {}}, env)[0]


def parse_condition(cond: str) -> tuple:
    """One table condition as (field, op, field or int): `has_cross`,
    `no_cross`, or `<field> ==|!= <integer or field>`.  Raises ValueError on
    anything else."""
    cond = cond.strip()
    if cond == "has_cross":
        return "has_cross", eq, True
    if cond == "no_cross":
        return "has_cross", eq, False
    for text, op in (("==", eq), ("!=", ne)):
        if text in cond:
            break
    else:
        raise ValueError("unreadable condition %r" % cond)
    parts = [s.strip() for s in cond.split(text)]
    if len(parts) != 2 or parts[0] not in _COMPARABLE:
        raise ValueError("unreadable condition %r" % cond)
    left, right = parts
    if right not in _COMPARABLE:
        try:
            right = int(right)
        except ValueError:
            raise ValueError("unreadable condition %r" % cond) from None
    return left, op, right


def case_id_by_rows(params):
    """The unique row of the case table whose conditions ``params`` meet,
    each row's conditions split by ``parse_condition`` and tested in turn on
    a dict of the parameters' fields; raises CaseUnmatched, with
    ``case_id``'s messages, for no row or several."""
    values = {name: getattr(params, name) for name in _PARAM_FIELDS}
    values.update(x2_gap=params.x2_gap(), has_cross=params.has_cross)
    matches = [
        row
        for row in CASE_TABLE
        if all(
            op(values[left], values[right] if type(right) is str else right)
            for left, op, right in map(parse_condition, row.conditions)
        )
    ]
    if not matches:
        raise CaseUnmatched("no table row covers %s" % (params,))
    if len(matches) > 1:
        raise CaseUnmatched("table rows %s overlap on %s" % ([m.label for m in matches], params))
    return matches[0]


def closed_form_base_by_exponents(params, gens) -> FreeResolution:
    """``closed_form_base`` assembled from exponent tuples: the shape's
    builder over the generators' term dicts with ``_m`` as its monomial, the
    twists read off each column's first term, one layout at twice the
    largest twist, and every term packed by ``encode``."""
    a, b = params.plain_offset, params.cross_offset
    rows = [g.terms for g in gens]
    b_cols, c_cols = _BUILDERS[(a, b) if params.has_cross else a](rows, params, _m)
    ring = gens[0].ring
    levels, twists, w = [[[g] for g in rows], b_cols, c_cols], [(0,)], ring.weights
    for cols in levels:
        firsts = (next((twists[-1][i] + sum(map(mul, m, w)) for i, e in enumerate(col) for m in e), 0) for col in cols)
        twists.append(tuple(firsts))
    layout, maps, target = _Module(w, 2 * max(map(max, twists))), [], GradedFreeModule(ring, (0,))
    for cols in levels:
        above = target.twists
        columns = [{layout.encode(i, above[i], m): c for i, e in enumerate(col) for m, c in e.items()} for col in cols]
        maps.append(GradedMap.from_columns(target, columns, layout))
        target = maps[-1].source
    return FreeResolution(maps)
