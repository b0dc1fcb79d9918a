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

Every structural exponent is recoverable from the reduced basis alone; the
extraction below does that and cross-checks each reading against the
semigroup arithmetic, refusing (rather than guessing) whenever the basis
fails to fit the templates.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, fields
from importlib import resources

from .semigroup import SequenceSpec, progression_multiple
from .poly import Poly, Ring
# buchberger is not called here; it stays importable as closedform.buchberger
# because perfbench/spans.py wraps that attribute
from .groebner import VARIABLE_NAMES, ToricIdeal, _Module, buchberger, is_pure_difference  # noqa: F401
from .resolution import FreeResolution, GradedFreeModule, GradedMap, minimalize


class DegreeImbalance(ValueError):
    """A template instance failed to be weighted-homogeneous."""


class TemplateMismatch(ValueError):
    """The reduced basis does not fit the binomial templates."""


class CaseUnmatched(LookupError):
    """No row of the case table covers the given parameters."""


@dataclass(frozen=True)
class CaseParameters:
    """Structural exponents read off the reduced basis, validated once,
    when made: parameters that fail ``validate`` raise TemplateMismatch.

    plain_offset   1 or 2: smallest index i such that X_i carries a Y-free
                   lead; the plain family has 3 - plain_offset members.
    cross_offset   the same for the leads that mix X's with Y; kept even when
                   has_cross is false (then it is derived from the pure
                   relation's tail instead of read directly).
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


def curve_ring(spec: SequenceSpec) -> Ring:
    return Ring(VARIABLE_NAMES, spec.weights)


def canonical_generators(params: CaseParameters, spec: SequenceSpec) -> list:
    """The standard generating set, in template order.

    Output order: quadric, plain family, cross family (omitted when
    has_cross is false), pure relation.  Each element's two monomials must
    differ and have one weighted degree; else the parameters do not belong
    to this sequence, and DegreeImbalance is raised.
    """
    ring = curve_ring(spec)
    a, b = params.plain_offset, params.cross_offset
    lam, mu, nu = params.x0_plain, params.x0_pure, params.x0_cross
    q, qc = params.x2_plain, params.x2_cross
    v, w = params.y_order, params.y_split

    def binomial(name, plus, minus):
        if plus == minus or ring.degree(plus) != ring.degree(minus):
            raise DegreeImbalance("%s: %d != %d for %s" % (name, ring.degree(plus), ring.degree(minus), spec))
        return Poly(ring, {plus: 1, minus: -1})

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


def _monic_parts(p: Poly) -> tuple:
    lead, coeff = p.lead()
    terms = dict(p.terms)
    del terms[lead]
    ((tail, tail_coeff),) = terms.items()
    if coeff != 1 or tail_coeff != -1:
        raise TemplateMismatch("basis element is not a monic pure difference")
    return lead, tail


def extract_parameters(ideal: ToricIdeal) -> CaseParameters:
    """Read the structural exponents off the ideal's reduced basis.

    Refuses with TemplateMismatch when the basis fails to fit the templates.
    """
    elements = list(ideal.reduced_gb.elements)
    if elements[0].ring.names != VARIABLE_NAMES:
        raise TemplateMismatch("expected the four standard curve variables")
    return _classify(elements, ideal.spec)


def _classify(elements, spec: SequenceSpec) -> CaseParameters:
    quadric, plain, cross, pure = [], [], [], []
    for p in elements:
        if not is_pure_difference(p):
            raise TemplateMismatch("non-binomial element in the basis")
        lead, tail = _monic_parts(p)
        if lead[0] != 0:
            raise TemplateMismatch("a lead carries X0: %s" % (lead,))
        if lead == (0, 2, 0, 0):
            quadric.append((lead, tail))
        elif lead[3] == 0:
            plain.append((lead, tail))
        elif lead[1] == 0 and lead[2] == 0:
            pure.append((lead, tail))
        else:
            cross.append((lead, tail))

    if len(quadric) != 1 or quadric[0][1] != (1, 0, 1, 0):
        raise TemplateMismatch("no quadric X1^2 - X0*X2")
    if len(pure) != 1:
        raise TemplateMismatch("expected exactly one pure Y-power lead, got %d" % len(pure))

    (pure_lead, pure_tail) = pure[0]
    v = pure_lead[3]
    if v < 2 or pure_tail[3] != 0 or pure_tail[1] > 1:
        raise TemplateMismatch("pure relation tail %s out of shape" % (pure_tail,))
    mu, eps, delta = pure_tail[0], pure_tail[1], pure_tail[2]

    # plain family: an X1-led element is exact and fixes everything; with no
    # X1 carrier the single X2-led element's tail is exact instead
    x1_led = [pt for pt in plain if pt[0][1] == 1]
    x2_led = [pt for pt in plain if pt[0][1] == 0]
    if len(x1_led) + len(x2_led) != len(plain):
        raise TemplateMismatch("a Y-free lead carries X1^2 or worse")
    if x1_led:
        if len(x1_led) != 1 or len(x2_led) != 1:
            raise TemplateMismatch("plain family should have exactly two members here")
        a = 1
        (lead, tail) = x1_led[0]
        q = lead[2]
        if tail[1] != 0 or tail[2] != 0:
            raise TemplateMismatch("plain tail %s out of shape" % (tail,))
        lam, w = tail[0], tail[3]
        if x2_led[0][0] != (0, 0, q + 1, 0):
            raise TemplateMismatch("companion plain lead should be X2^%d" % (q + 1))
        # companion tail may be a rewrite of the template; never read it
    else:
        if len(x2_led) != 1:
            raise TemplateMismatch("plain family should be a single X2 power here")
        a = 2
        (lead, tail) = x2_led[0]
        q = lead[2] - 1
        if tail[1] != 0 or tail[2] != 0:
            raise TemplateMismatch("plain tail %s out of shape" % (tail,))
        lam, w = tail[0], tail[3]
    if q < 1 or lam < 1 or w < 1 or w >= v:
        raise TemplateMismatch("plain exponents (q=%d, l=%d, w=%d) out of range" % (q, lam, w))

    if cross:
        has_cross = True
        c_x1 = [pt for pt in cross if pt[0][1] == 1]
        c_x2 = [pt for pt in cross if pt[0][1] == 0]
        if len(c_x1) + len(c_x2) != len(cross):
            raise TemplateMismatch("a mixed lead carries X1^2 or worse")
        if c_x1:
            b = 1
            if len(c_x1) != 1:
                raise TemplateMismatch("two X1-led cross elements")
            (lead, tail) = c_x1[0]
            qc = lead[2]
        else:
            b = 2
            if len(c_x2) != 1:
                raise TemplateMismatch("cross family should be a single element here")
            (lead, tail) = c_x2[0]
            qc = lead[2] - 1
        if lead[3] != v - w:
            raise TemplateMismatch("cross lead carries Y^%d, expected Y^%d" % (lead[3], v - w))
        if tail[1] != 0 or tail[2] != 0 or tail[3] != 0:
            raise TemplateMismatch("cross tail %s should be a pure X0 power" % (tail,))
        nu = tail[0]
        if b == 1:
            # the X2-led companion reduces away exactly when the plain family
            # already leads with the same X2 power
            expect_companion = not (a == 2 and qc == q)
            if expect_companion:
                if len(c_x2) != 1 or c_x2[0][0] != (0, 0, qc + 1, v - w):
                    raise TemplateMismatch("cross companion lead missing or misshapen")
                if c_x2[0][1] != (nu - 1, 1, 0, 0):
                    raise TemplateMismatch("cross companion tail out of shape")
            elif c_x2:
                raise TemplateMismatch("cross companion should reduce away here")
    else:
        has_cross = False
        if a == 1:
            b = 2 if eps == 1 else 1
        else:
            b = 1 if eps == 1 else 2
        nu = lam + mu + (1 if a > b else 0)
        qc = None  # fixed below from the pure tail

    # the pure relation's tail must agree with the offsets just found
    if b < a:
        ok = eps == 1
        qc_from_pure = q - delta
    elif (a, b) == (1, 2):
        ok = eps == 1
        qc_from_pure = q - delta - 1
    else:  # a == b; delta = 0 (a bare X0 tail) occurs only without a cross
        # family, and validate rejects that combination when one is present
        ok = eps == 0
        qc_from_pure = q - delta
    if not ok:
        raise TemplateMismatch(
            "pure tail %s inconsistent with offsets (%d, %d)" % (pure_tail, a, b)
        )
    if qc is None:
        qc = qc_from_pure
    elif qc != qc_from_pure:
        raise TemplateMismatch("cross X2 exponent %d vs %d from the pure tail" % (qc, qc_from_pure))

    expected = 2 + (3 - a) + ((3 - b) if has_cross else 0)
    if has_cross and b == 1 and a == 2 and qc == q:
        expected -= 1  # the cross companion reduces away
    if len(elements) != expected:
        raise TemplateMismatch("basis has %d elements, templates give %d" % (len(elements), expected))

    if v != progression_multiple(spec.n, spec.m0, spec.d):
        raise TemplateMismatch("pure Y exponent disagrees with the semigroup")

    return CaseParameters(
        plain_offset=a,
        cross_offset=b,
        x0_plain=lam,
        x0_pure=mu,
        x0_cross=nu,
        x2_plain=q,
        x2_cross=qc,
        y_order=v,
        y_split=w,
        has_cross=has_cross,
    )


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


def closed_form_base(params: CaseParameters, gens: list) -> FreeResolution:
    """The template resolution before any trimming.

    Instantiates the family shape's syzygy matrices with the parameters
    substituted, over ``gens``, the generator row ``canonical_generators``
    built from the same parameters; no other ``Poly`` is built.  Each
    monomial is packed as written, by ``m``, in a layout whose bound is
    twice the sum D of the generator degrees: no twist of the base complex
    exceeds D (the Koszul shapes reach it), which ``_assemble`` asserts.
    Degenerate parameter values leave constant entries, so the output is in
    general non-minimal; its minimalization has closed-form entries.
    """
    ring = gens[0].ring
    layout = _Module(ring.weights, 2 * sum(ring.degree(next(iter(g.terms))) for g in gens))
    one, (s0, s1, s2, s3) = layout.full, layout.steps
    m = lambda x0=0, x1=0, x2=0, y=0: one + x0 * s0 + x1 * s1 + x2 * s2 + y * s3  # noqa: E731
    rows = [{m(*e): c for e, c in g.terms.items()} for g in gens]
    a, b = params.plain_offset, params.cross_offset
    return _assemble(ring, layout, rows, *_BUILDERS[(a, b) if params.has_cross else a](rows, params, m))


def closed_form_resolution(params: CaseParameters, gens: list) -> FreeResolution:
    """Minimal resolution with closed-form entries.

    The base complex over ``gens`` (``canonical_generators`` of the same
    parameters) with its unit entries split off by ``minimalize``; the
    surviving ranks equal the triple of the table row that ``case_id``
    matches for ``params``; no row is matched here.
    """
    return minimalize(closed_form_base(params, gens))
