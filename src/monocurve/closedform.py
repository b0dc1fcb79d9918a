"""Template side of the pipeline: canonical binomial generators, parameter
extraction from a reduced basis, and the paper's two tables, the 19-row case
table of Betti triples and the per-case twist rows, each checked and
compiled once, at import; every other module reads the tables from here.

The reduced Gröbner basis of every valid curve ideal is built from four
families of pure-difference binomials, here named by what their terms look
like rather than by any external notation:

* the quadric          X1^2 - X0*X2                      (always present)
* the plain family     X_{a+i} * X2^q  -  X0^(l-1) * X_i * Y^w
                       leads are Y-free; a is 1 or 2, i runs over [0, 2-a]
* the cross family     X_{b+j} * X2^p * Y^(v-w)  -  X0^(e-1) * X_j
                       leads mix X's with Y; may be absent entirely
* the pure relation    Y^v  -  X0^m * (at most one other X variable and
                       a power of X2; both may be absent)

Every structural exponent follows from the sequence alone, by membership
in its semigroup: ``extract_parameters`` finds each template monomial as
the least monomial of its degree or as a minimal monomial above those,
reads no kernel, and refuses the tuples whose exponents fall out of the
templates' range.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, fields
from importlib import resources
from operator import mul

from .semigroup import SequenceSpec, progression_multiple
from .groebner import _Module
# buchberger is not called here; it stays importable as closedform.buchberger
# because perfbench/spans.py wraps that attribute
from .resolution import FreeResolution, GradedFreeModule, GradedMap, buchberger, minimalize  # noqa: F401


class DegreeImbalance(ValueError):
    """A template instance failed to be weighted-homogeneous."""


class TemplateMismatch(ValueError):
    """The sequence's exponents do not fit the binomial templates."""


class CaseUnmatched(LookupError):
    """No row of the case table covers the given parameters."""


@dataclass(frozen=True)
class CaseParameters:
    """Structural exponents of a sequence's templates, validated once,
    when made: parameters that fail ``validate`` raise TemplateMismatch.

    plain_offset   1 or 2: smallest index i such that X_i carries a Y-free
                   lead; the plain family has 3 - plain_offset members.
    cross_offset   the same for the leads that mix X's with Y, fixed by the
                   pure relation's tail, so kept even when has_cross is false.
    x0_plain       X0 budget of the plain tails: the tail of the i-th plain
                   element is X0^(x0_plain-1) * X_i * Y^y_split.
    x0_pure        X0 exponent in the pure relation's tail.
    x0_cross       X0 budget of the cross tails: the j-th cross element has
                   tail X0^(x0_cross-1) * X_j.
    x2_plain       X2 exponent in the plain leads.
    x2_cross       X2 exponent in the cross leads.
    y_order        exponent of the pure relation's lead Y^v; equals the least
                   v with v*n representable by the arithmetic generators.
    y_split        Y exponent carried by the plain tails; cross leads carry
                   y_order - y_split.
    has_cross      whether the cross family is present at all.
    """

    plain_offset: int
    cross_offset: int
    x0_plain: int
    x0_pure: int
    x0_cross: int
    x2_plain: int
    x2_cross: int
    y_order: int
    y_split: int
    has_cross: bool

    def __post_init__(self) -> None:
        self.validate()  # the fields are frozen, so once is enough

    def validate(self) -> None:
        p = self
        if p.plain_offset not in (1, 2) or p.cross_offset not in (1, 2):
            raise TemplateMismatch("family offsets must be 1 or 2")
        if p.x0_plain < 1 or p.x0_cross < 1:
            raise TemplateMismatch("tail X0 budgets must be at least 1")
        if p.x0_pure < 0 or p.x2_cross < 0:
            raise TemplateMismatch("exponents must be nonnegative")
        if p.x2_plain < max(1, p.x2_cross):
            raise TemplateMismatch("plain X2 exponent below cross X2 exponent")
        if not 1 <= p.y_split <= p.y_order - 1:
            raise TemplateMismatch("Y split must lie strictly inside [0, y_order]")
        bump = 1 if p.plain_offset > p.cross_offset else 0
        if p.x0_cross != p.x0_plain + p.x0_pure + bump:
            raise TemplateMismatch(
                "cross X0 budget %d is not plain+pure%s = %d"
                % (p.x0_cross, "+1" if bump else "", p.x0_plain + p.x0_pure + bump)
            )
        if p.x2_plain == p.x2_cross:
            # equal exponents leave no X2 for the pure tail in the (1,2)
            # shape, and with a cross family present they are excluded for
            # every shape that does not lead the cross with X1
            if p.plain_offset < p.cross_offset:
                raise TemplateMismatch("equal X2 exponents leave no room in the pure tail")
            if p.has_cross and p.plain_offset == p.cross_offset:
                raise TemplateMismatch("equal X2 exponents require the cross family to lead with X1")

    def x2_gap(self) -> int:
        return self.x2_plain - self.x2_cross


#: the integer fields of CaseParameters
_PARAM_FIELDS = tuple(f.name for f in fields(CaseParameters) if f.type == "int")


def _m(x0=0, x1=0, x2=0, y=0) -> tuple:
    """The exponent tuple of X0^x0 * X1^x1 * X2^x2 * Y^y."""
    return x0, x1, x2, y


def canonical_generators(params: CaseParameters, spec: SequenceSpec) -> list:
    """The standard generating set, each binomial x^plus - x^minus as its
    term dict {plus: 1, minus: -1}, in template order: quadric, plain family,
    cross family (omitted when has_cross is false), pure relation.  Each
    element's two monomials must differ and have one weighted degree; else
    the parameters do not belong to this sequence: DegreeImbalance.
    """
    weights = spec.weights
    a, b = params.plain_offset, params.cross_offset
    lam, mu, nu = params.x0_plain, params.x0_pure, params.x0_cross
    q, qc = params.x2_plain, params.x2_cross
    v, w = params.y_order, params.y_split

    def binomial(name, plus, minus):
        d_plus, d_minus = sum(map(mul, plus, weights)), sum(map(mul, minus, weights))
        if plus == minus or d_plus != d_minus:
            raise DegreeImbalance("%s: %d != %d for %s" % (name, d_plus, d_minus, spec))
        return {plus: 1, minus: -1}

    gens = [binomial("quadric", _m(x1=2), _m(x0=1, x2=1))]
    for i in range(3 - a):
        lead = [0, 0, 0, 0]
        lead[a + i] += 1
        lead[2] += q
        tail = [lam - 1, 0, 0, w]
        tail[i] += 1
        gens.append(binomial("plain[%d]" % i, tuple(lead), tuple(tail)))
    if params.has_cross:
        for j in range(3 - b):
            lead = [0, 0, 0, v - w]
            lead[b + j] += 1
            lead[2] += qc
            tail = [nu - 1, 0, 0, 0]
            tail[j] += 1
            gens.append(binomial("cross[%d]" % j, tuple(lead), tuple(tail)))
    if b < a:
        pure_tail = _m(x0=mu, x1=1, x2=q - qc)
    else:
        carried = [mu, 0, 0, 0]
        carried[2 + a - b] += 1
        carried[2] += q - qc - 1
        if carried[2] < 0:
            raise DegreeImbalance("pure relation needs x2_plain > x2_cross here")
        pure_tail = tuple(carried)
    gens.append(binomial("pure", _m(y=v), pure_tail))
    return gens


# ---------------------------------------------------------------------------
# extraction


def _first(ok, lo: int, hi: int) -> int:
    """The least j in [lo, hi) with ok(j), hi if none, for ok false up to
    some j and true from it on."""
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def extract_parameters(spec: SequenceSpec) -> CaseParameters:
    """The structural exponents of ``spec`` from membership in Γ alone: the
    reduced basis's tails are standard monomials, the least of their
    degree, and its leads the minimal monomials that are not (Sturmfels,
    *Gröbner Bases and Convex Polytopes*, ch. 4; Patil, *Manuscripta Math.*
    80, 1993, gives the minimal generators).

    The least monomial of degree s takes as many X0 as keep s - k·m0 in Γ,
    then as many X1, then X2, and the rest is a power of Y; membership falls
    as k grows, so each count is bisected, or, for Γ's least generator m,
    read off Γ's table as (s - table[s mod m]) / m.  The plain lead is
    X1·X2^q for the least q with m1 + q·m2 - m0 in Γ if that q is below the
    least j >= 1 with j·m2 - m0 in Γ, else X2^j with q = j - 1; the least
    monomial of its degree is the plain tail X0^l·Y^w.  The pure lead is
    Y^v, v from ``progression_multiple``, its tail X0^mu·X1^eps·X2^delta; an
    X1 there puts the cross family on the other offset, which fixes the
    cross lead X_b·X2^qc·Y^(v-w), present iff it is a lead.
    TemplateMismatch when the plain exponents fall out of range: the glued
    tuples, whose basis fits no template.
    """
    m0, m1, m2, n = weights = spec.weights
    table, m = spec.gamma._least(), spec.gamma.generators[0]  # Ap(Γ, its least generator); gcd 1
    inside = lambda s: s >= table[s % m]  # noqa: E731 (a negative s, or one below m but 0, fails too)

    def least_monomial(s: int) -> list:
        e = []
        for g in weights[:3]:  # s - k·m in Γ iff it is at least table[s % m]
            e.append((s - table[s % m]) // m if g == m else _first(lambda k: not inside(s - (k + 1) * g), 0, s // g))
            s -= e[-1] * g
        return e + [s // n]

    def is_least(e) -> bool:
        """Is x^e the least monomial of its degree: is no X0, X1, X2 to spare?"""
        s = sum(map(mul, e, weights))
        for k, g in zip(e, weights[:3]):
            s -= k * g
            if inside(s - g):
                return False
        return True

    j = _first(lambda j: inside(j * m2 - m0), 1, m0)  # m0·m2 - m0 is in Γ
    q = _first(lambda q: inside(m1 + q * m2 - m0), 0, j)
    a, q = (1, q) if q < j else (2, j - 1)
    lam, _, _, w = least_monomial(weights[a] + q * m2)
    v = progression_multiple(n, m0, spec.d)
    if q < 1 or lam < 1 or w < 1 or w >= v:
        raise TemplateMismatch("plain exponents (q=%d, l=%d, w=%d) out of range" % (q, lam, w))
    mu, eps, delta, _ = least_monomial(v * n)
    b = 3 - a if eps else a
    qc = q - delta - (a < b)
    lead = [0, 0, qc, v - w]
    lead[b] += 1
    divisors = [[e - (i == k) for i, e in enumerate(lead)] for k in range(4) if lead[k]]
    has_cross = qc >= 0 and not is_least(lead) and all(map(is_least, divisors))
    return CaseParameters(a, b, lam, mu, lam + mu + (a > b), q, qc, v, w, has_cross)  # in field order


# ---------------------------------------------------------------------------
# the two tables
#
# Both tables are data in ``monocurve.data`` and are read in one expression
# language: every string is parsed and checked by ``_tree`` once, at import,
# and each table is compiled into code objects that ``eval`` runs on a dict
# of the parameters' values with no builtins.


def _load_data(name: str):
    """Parsed JSON of one table shipped in ``monocurve.data``."""
    return json.loads(resources.files("monocurve.data").joinpath(name).read_text())


def _tree(expr: str, names, condition: bool = False) -> ast.expr:
    """The checked syntax tree of one table expression.  A twist is +, -, *
    and unary - over ``names`` and integers; a ``condition`` is `has_cross`,
    `no_cross`, or one of ``names`` ==|!= another of them or an integer.
    Raises ValueError on anything else."""

    def leaf(node):
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise ValueError("unknown name %r in table expression %r" % (node.id, expr))
        elif not (isinstance(node, ast.Constant) and type(node.value) is int):
            raise ValueError("disallowed syntax in table expression %r" % expr)

    def term(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            term(node.left)
            term(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            term(node.operand)
        else:
            leaf(node)

    try:
        body = ast.parse(expr.strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError("unparseable table expression %r: %s" % (expr, exc.msg)) from None
    if not condition:
        term(body)
    elif isinstance(body, ast.Compare) and [type(op) for op in body.ops] in ([ast.Eq], [ast.NotEq]):
        if not isinstance(body.left, ast.Name):
            raise ValueError("condition %r does not start with a name" % expr)
        leaf(body.left)
        leaf(body.comparators[0])
    elif not (isinstance(body, ast.Name) and body.id in ("has_cross", "no_cross")):
        raise ValueError("unreadable condition %r" % expr)
    return body


#: the location of a node built here; parsed expressions carry their own
_NOWHERE = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}


def _compile(parts: list):
    """One code object that evaluates to the tuple of ``parts``, checked trees."""
    return compile(ast.Expression(ast.Tuple(parts, ast.Load(), **_NOWHERE)), "<tables>", "eval")


@dataclass(frozen=True)
class CaseId:
    """One row of the finite classification: label, conditions, triple."""

    label: str
    conditions: tuple
    betti: tuple

    def __str__(self) -> str:
        return self.label


#: fields a case condition may compare: the integer fields but the two Y
#: exponents, and ``x2_gap``, which is x2_plain - x2_cross
_COMPARABLE = set(_PARAM_FIELDS) - {"y_order", "y_split"} | {"x2_gap"}


def _case_code(rows):
    """One code object that evaluates to one truth value per entry of
    ``rows``, each a sequence of conditions checked by ``_tree``; the True
    that heads each row's ``and`` lets a row hold a single condition."""
    head = ast.Constant(True, **_NOWHERE)
    rows = [[head] + [_tree(c, _COMPARABLE, condition=True) for c in conds] for conds in rows]
    return _compile([ast.BoolOp(ast.And(), row, **_NOWHERE) for row in rows])


def _load_case_table() -> tuple:
    rows = tuple(
        CaseId(label=record["label"], conditions=tuple(record["when"]), betti=tuple(record["betti"]))
        for record in _load_data("betti_cases.json")
    )
    if len({row.label for row in rows}) != len(rows):
        raise AssertionError("duplicate case labels in the table")
    return rows


CASE_TABLE = _load_case_table()

#: the parameters' values -> one truth value per row of CASE_TABLE
_CASE_CODE = _case_code(row.conditions for row in CASE_TABLE)


def case_id(params: CaseParameters) -> CaseId:
    """The unique table row whose conditions the parameters satisfy;
    CaseUnmatched if none does or several do."""
    env = dict(vars(params), x2_gap=params.x2_gap(), no_cross=not params.has_cross)
    hits = eval(_CASE_CODE, {"__builtins__": {}}, env)
    matches = [row for row, hit in zip(CASE_TABLE, hits) if hit]
    if not matches:
        raise CaseUnmatched("no table row covers %s" % (params,))
    if len(matches) > 1:
        raise CaseUnmatched("table rows %s overlap on %s" % ([m.label for m in matches], params))
    return matches[0]


#: the names a twist expression may use: the sequence and the parameters
_SHIFT_NAMES = ("m0", "m1", "m2", "n") + _PARAM_FIELDS


def _shift_row(row: dict):
    """One twist row ({"s": [...], "p": [...], "q": [...]}) as one code
    object that evaluates to its three lists, each expression checked by
    ``_tree``."""
    return _compile([ast.List([_tree(e, _SHIFT_NAMES) for e in row[key]], ast.Load(), **_NOWHERE) for key in "spq"])


#: case label -> its twist row, compiled once at import
SHIFT_CODE = {label: _shift_row(row) for label, row in _load_data("shift_tables.json").items()}


def graded_shifts(case: CaseId, params: CaseParameters, spec: SequenceSpec) -> tuple:
    """The tabulated per-case twist lists, evaluated at the sequence.

    Returns three integer lists (first, second, third homological degree),
    exactly as tabulated -- including any value the tables get wrong; the
    comparison against computed twists happens downstream, so table slips
    surface as discrepancy records instead of being silently corrected.
    """
    if case.label not in SHIFT_CODE:
        raise CaseUnmatched("no twist row for case %s" % case.label)
    env = dict(vars(params), m0=spec.m0, m1=spec.m1, m2=spec.m2, n=spec.n)
    lists = eval(SHIFT_CODE[case.label], {"__builtins__": {}}, env)
    # no length check against the Betti triple: one tabulated row carries a
    # surplus entry, and it is the comparison layer's job to report that
    for part in lists:
        for value in part:
            if value <= 0:
                raise AssertionError("nonpositive twist in case %s" % case.label)
    return lists


# ---------------------------------------------------------------------------
# closed-form complexes
#
# Seven family shapes.  For the four with a cross family the first and second
# syzygy matrices of the canonical generators are written out entry by entry.
# The three without one (cases xvii-xix) come from two builders, each the
# mapping cone, built by _cone, of multiplication by the pure relation over
# the Hilbert-Burch or the Koszul complex of the other generators.  Columns
# are stated over the generator order canonical_generators produces and
# satisfy A.B = 0 and B.C = 0 identically in the exponents; degenerate
# parameter values (x0_pure = 0, x0_plain = 1, x2_cross = 0, x2_gap small)
# turn individual entries into constants, and minimalize clears those
# mechanically.  Each entry is a {monomial: coefficient} dict (a generator
# is its own term dict, _diff of equal monomials is empty), m(x0=..., y=...)
# packing each monomial as its F_0 int, V + sum(e_i * steps_i); _assemble
# adds each row's (i << rs) + (t << mb) to it, from_columns checks each term.


def _diff(plus, minus) -> dict:
    """The entry x^plus - x^minus, zero when the two coincide."""
    return {plus: 1, minus: -1} if plus != minus else {}


def _negated(terms: dict) -> dict:
    return {m: -c for m, c in terms.items()}


def _exponents(p: CaseParameters) -> tuple:
    """(x0_plain, x0_pure, x2_plain, x2_cross, y_order, y_split, x2_gap)."""
    return p.x0_plain, p.x0_pure, p.x2_plain, p.x2_cross, p.y_order, p.y_split, p.x2_gap()


def _syzygies_cross_12(gens, p, m):
    """Offsets (1, 2): generators [quadric, plain0, plain1, cross0, pure]."""
    xi, (lam, mu, q, qc, v, w, gap) = gens[0], _exponents(p)
    b_cols = [
        [{m(x2=q): -1}, {m(x1=1): 1}, {m(x0=1): -1}, {}, {}],
        [_diff(m(x0=lam + mu), m(x2=qc + 1, y=v - w)), {}, {}, xi, {}],
        [_diff(m(x0=mu, x1=1, x2=gap - 1), m(y=v)), {}, {}, {}, xi],
        [{m(x0=lam - 1, y=w): 1}, {m(x2=1): -1}, {m(x1=1): 1}, {}, {}],
        [{}, {m(y=v - w): -1}, {}, {m(x1=1, x2=gap - 1): 1}, {m(x0=lam): -1}],
        [{m(x0=mu + lam - 1, x2=gap - 1): -1}, {}, {m(y=v - w): -1}, {m(x2=gap): 1}, {m(x0=lam - 1, x1=1): -1}],
        [{}, {m(x0=mu): 1}, {}, {m(y=w): -1}, {m(x2=qc + 1): 1}],
    ]
    c_cols = [
        [{}, {}, {m(x0=lam - 1): 1}, {m(y=v - w): 1}, {m(x2=1): -1}, {m(x1=1): 1}, {}],
        [{m(y=v - w): 1}, {m(x2=gap - 1): -1}, {}, {}, {m(x1=1): 1}, {m(x0=1): -1}, {}],
        [{m(x0=mu, x1=1): 1}, {m(y=w): -1}, {m(x2=qc + 1): 1}, {m(x0=mu + 1): 1}, {}, {}, _negated(xi)],
    ]
    return b_cols, c_cols


def _syzygies_cross_11(gens, p, m):
    """Offsets (1, 1): generators [quadric, plain0, plain1, cross0, cross1, pure]."""
    xi, (lam, mu, q, qc, v, w, gap) = gens[0], _exponents(p)
    b_cols = [
        [{m(x2=q): -1}, {m(x1=1): 1}, {m(x0=1): -1}, {}, {}, {}],
        [{m(x2=qc, y=v - w): -1}, {}, {}, {m(x1=1): 1}, {m(x0=1): -1}, {}],
        [_diff(m(x0=mu, x2=gap), m(y=v)), {}, {}, {}, {}, xi],
        [{m(x0=lam - 1, y=w): 1}, {m(x2=1): -1}, {m(x1=1): 1}, {}, {}, {}],
        [{}, {m(y=v - w): -1}, {}, {m(x2=gap): 1}, {}, {m(x0=lam): -1}],
        [{}, {}, {m(y=v - w): -1}, {}, {m(x2=gap): 1}, {m(x0=lam - 1, x1=1): -1}],
        [{m(x0=lam + mu - 1): 1}, {}, {}, {m(x2=1): -1}, {m(x1=1): 1}, {}],
        [{}, {m(x0=mu): 1}, {}, {m(y=w): -1}, {}, {m(x1=1, x2=qc): 1}],
        [{}, {}, {m(x0=mu): 1}, {}, {m(y=w): -1}, {m(x2=qc + 1): 1}],
    ]
    c_cols = [
        [{}, {}, {m(x0=lam - 1): 1}, {m(y=v - w): 1}, {m(x2=1): -1}, {m(x1=1): 1}, {m(x2=gap): -1}, {}, {}],
        [{}, {}, {}, {m(x0=mu): 1}, {}, {}, {m(y=w): -1}, {m(x2=1): 1}, {m(x1=1): -1}],
        [{m(y=v - w): 1}, {m(x2=gap): -1}, {}, {}, {m(x1=1): 1}, {m(x0=1): -1}, {}, {}, {}],
        [{m(x0=mu): 1}, {m(y=w): -1}, {m(x2=qc): 1}, {}, {}, {}, {}, {m(x1=1): -1}, {m(x0=1): 1}],
    ]
    return b_cols, c_cols


def _syzygies_cross_21(gens, p, m):
    """Offsets (2, 1): generators [quadric, plain0, cross0, cross1, pure]."""
    xi, (lam, mu, q, qc, v, w, gap) = gens[0], _exponents(p)
    b_cols = [
        [_diff(m(x0=lam, y=w), m(x2=q + 1)), xi, {}, {}, {}],
        [{m(x2=qc, y=v - w): -1}, {}, {m(x1=1): 1}, {m(x0=1): -1}, {}],
        [_diff(m(x0=mu, x1=1, x2=gap), m(y=v)), {}, {}, {}, xi],
        [{}, {m(y=v - w): -1}, {}, {m(x2=gap): 1}, {m(x0=lam): -1}],
        [{m(x0=lam + mu): 1}, {}, {m(x2=1): -1}, {m(x1=1): 1}, {}],
        [{m(x0=mu, x2=q): 1}, {m(x0=mu + 1): 1}, {m(y=w): -1}, {}, {m(x1=1, x2=qc): 1}],
        [{}, {m(x0=mu, x1=1): 1}, {}, {m(y=w): -1}, {m(x2=qc + 1): 1}],
    ]
    c_cols = [
        [{}, {m(y=w): 1}, {m(x2=qc): -1}, {}, {}, {m(x1=1): 1}, {m(x0=1): -1}],
        [{m(x0=mu): 1}, {}, {}, {}, {m(y=w): -1}, {m(x2=1): 1}, {m(x1=1): -1}],
        [{m(y=v - w): 1}, {m(x2=gap + 1): -1}, {m(x0=lam): 1}, xi, {m(x1=1, x2=gap): -1}, {}, {}],
    ]
    return b_cols, c_cols


def _syzygies_cross_22(gens, p, m):
    """Offsets (2, 2): generators [quadric, plain0, cross0, pure]."""
    xi, (lam, mu, q, qc, v, w, gap) = gens[0], _exponents(p)
    b_cols = [
        [_diff(m(x0=lam, y=w), m(x2=q + 1)), xi, {}, {}],
        [_diff(m(x0=lam + mu), m(x2=qc + 1, y=v - w)), {}, xi, {}],
        [_diff(m(x0=mu, x2=gap), m(y=v)), {}, {}, xi],
        [{}, {m(y=v - w): -1}, {m(x2=gap): 1}, {m(x0=lam): -1}],
        [{}, {m(x0=mu): 1}, {m(y=w): -1}, {m(x2=qc + 1): 1}],
    ]
    c_cols = [
        [{m(y=v - w): 1}, {m(x2=gap): -1}, {m(x0=lam): 1}, xi, {}],
        [{m(x0=mu): 1}, {m(y=w): -1}, {m(x2=qc + 1): 1}, {}, _negated(xi)],
    ]
    return b_cols, c_cols


def _cone(gens, base):
    """(B, C) of the mapping cone of multiplication by theta = gens[-1] over
    the length-2 complex on gens[:-1] with first syzygies ``base`` (Peeva,
    Graded Syzygies, 2011, ch. 1): B.C = 0 as each base column is a syzygy."""
    *others, th = gens
    b_cols = [col + [{}] for col in base] + [
        [_negated(th) if k == i else {} for k in range(len(others))] + [g] for i, g in enumerate(others)
    ]
    c_cols = [[th if k == j else {} for k in range(len(base))] + col for j, col in enumerate(base)]
    return b_cols, c_cols


def _syzygies_plain_first(gens, p, m):
    """No cross family, plain offset 1: generators [quadric, plain0, plain1,
    pure]; the cone over the Hilbert-Burch complex of (quadric, plain0, plain1)."""
    lam, q, w = p.x0_plain, p.x2_plain, p.y_split
    return _cone(gens, [
        [{m(x2=q): -1}, {m(x1=1): 1}, {m(x0=1): -1}],
        [{m(x0=lam - 1, y=w): 1}, {m(x2=1): -1}, {m(x1=1): 1}],
    ])


def _syzygies_koszul(gens, p, m):
    """No cross family, plain offset 2: generators [quadric, plain0, pure],
    pairwise-coprime leads; the cone over the Koszul complex of (quadric, plain0)."""
    return _cone(gens, [[_negated(gens[1]), gens[0]]])


#: the builder of each family shape: (plain, cross offset) with a cross
#: family, the plain offset without one
_BUILDERS = {
    (1, 2): _syzygies_cross_12, (1, 1): _syzygies_cross_11, (2, 1): _syzygies_cross_21,
    (2, 2): _syzygies_cross_22, 1: _syzygies_plain_first, 2: _syzygies_koszul,
}


def _assemble(ring, layout, rows, b_cols, c_cols) -> FreeResolution:
    """Chain the generator row, {F_0 int: coefficient} dicts that are the
    first map's columns, with the two syzygy matrices of such entries: x^e
    in row i of twist t is keyed its int + (i << rs) + (t << mb), empty
    entries skipped, and ``from_columns`` checks each term.  A twist over
    half the layout's bound is an AssertionError: below it no exponent
    outgrows its field, and a wrong degree reads as one, not as a carry."""
    maps = [GradedMap.from_columns(GradedFreeModule(ring, (0,)), rows, layout)]
    for cols in (b_cols, c_cols):
        target = maps[-1].source
        base = [(i << layout.rs) + (t << layout.mb) for i, t in enumerate(target.twists)]
        columns = [{b + o: c for b, e in zip(base, col) if e for o, c in e.items()} for col in cols]
        maps.append(GradedMap.from_columns(target, columns, layout))
    if 2 * max(max(gmap.source.twists) for gmap in maps) > layout.top:
        raise AssertionError("a twist of the complex exceeds half its layout's bound")
    return FreeResolution(maps)


def closed_form_base(params: CaseParameters, gens: list, ring) -> FreeResolution:
    """The template resolution in ``ring`` before any trimming: the family
    shape's syzygy matrices, parameters substituted, over ``gens``, the term
    dicts ``canonical_generators`` built from the same parameters.  Each
    monomial is packed as written, by ``m``, in a layout whose bound is
    twice the sum D of the generator degrees: no twist of the base complex
    exceeds D (the Koszul shapes reach it), which ``_assemble`` asserts.
    Degenerate parameter values leave constant entries, which
    ``closed_form_resolution`` splits off."""
    weights = ring.weights
    layout = _Module(weights, 2 * sum(sum(map(mul, next(iter(g)), weights)) for g in gens))
    one, (s0, s1, s2, s3) = layout.full, layout.steps
    m = lambda x0=0, x1=0, x2=0, y=0: one + x0 * s0 + x1 * s1 + x2 * s2 + y * s3  # noqa: E731
    rows = [{m(*e): c for e, c in g.items()} for g in gens]
    a, b = params.plain_offset, params.cross_offset
    return _assemble(ring, layout, rows, *_BUILDERS[(a, b) if params.has_cross else a](rows, params, m))


def closed_form_resolution(params: CaseParameters, gens: list, ring) -> FreeResolution:
    """Minimal resolution with closed-form entries: ``closed_form_base``
    with its unit entries split off by ``minimalize``; the surviving ranks
    equal the triple of the row ``case_id`` matches, which is not run here."""
    return minimalize(closed_form_base(params, gens, ring))
