"""Template side of the pipeline: canonical binomial generators, parameter
extraction from a reduced basis, and the finite case table of Betti triples.

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
from dataclasses import dataclass
from importlib import resources

from .semigroup import SequenceSpec, min_multiple_in
from .poly import Poly, Ring, is_homogeneous
# buchberger is not called here; it stays importable as closedform.buchberger
# because perfbench/spans.py wraps that attribute
from .groebner import VARIABLE_NAMES, ToricIdeal, buchberger, is_pure_difference  # noqa: F401
from .resolution import FreeResolution, GradedFreeModule, GradedMap, minimalize


class DegreeImbalance(ValueError):
    """A template instance failed to be weighted-homogeneous."""


class TemplateMismatch(ValueError):
    """The reduced basis does not fit the binomial templates."""


class CaseUnmatched(LookupError):
    """No row of the case table covers the given parameters."""


@dataclass(frozen=True)
class CaseParameters:
    """Structural exponents read off the reduced basis.

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


def _variable_monomial(**powers) -> tuple:
    mono = [0, 0, 0, 0]
    for name, e in powers.items():
        mono[{"x0": 0, "x1": 1, "x2": 2, "y": 3}[name]] = e
    return tuple(mono)


def curve_ring(spec: SequenceSpec) -> Ring:
    return Ring(VARIABLE_NAMES, spec.weights)


def canonical_generators(params: CaseParameters, spec: SequenceSpec) -> list:
    """The standard generating set, in template order.

    Output order: quadric, plain family, cross family (omitted when
    has_cross is false), pure relation.  Every element is checked to be
    weighted-homogeneous; a failure means the parameters do not belong to
    this sequence and raises DegreeImbalance.
    """
    params.validate()
    ring = curve_ring(spec)
    a, b = params.plain_offset, params.cross_offset
    lam, mu, nu = params.x0_plain, params.x0_pure, params.x0_cross
    q, qc = params.x2_plain, params.x2_cross
    v, w = params.y_order, params.y_split

    def binomial(name, plus, minus):
        poly = ring.monomial(plus) - ring.monomial(minus)
        if is_homogeneous(poly, ring) is None:
            raise DegreeImbalance(
                "%s: %d != %d for %s" % (name, ring.degree(plus), ring.degree(minus), spec)
            )
        return poly

    gens = [binomial("quadric", _variable_monomial(x1=2), _variable_monomial(x0=1, x2=1))]
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
        pure_tail = _variable_monomial(x0=mu, x1=1, x2=q - qc)
    else:
        carried = [mu, 0, 0, 0]
        carried[2 + a - b] += 1
        carried[2] += q - qc - 1
        if carried[2] < 0:
            raise DegreeImbalance("pure relation needs x2_plain > x2_cross here")
        pure_tail = tuple(carried)
    gens.append(binomial("pure", _variable_monomial(y=v), pure_tail))
    return gens


# ---------------------------------------------------------------------------
# extraction


def _monic_parts(p: Poly, order) -> tuple:
    lead, coeff = p.lead(order)
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
    ring = ideal.ring
    if ring.names != VARIABLE_NAMES:
        raise TemplateMismatch("expected the four standard curve variables")
    return _classify(list(ideal.reduced_gb.elements), ring.order(), ideal.spec)


def _classify(elements, order, spec: SequenceSpec) -> CaseParameters:
    ring = elements[0].ring
    quadric = []
    plain = []
    cross = []
    pure = []
    for p in elements:
        if not is_pure_difference(p):
            raise TemplateMismatch("non-binomial element in the basis")
        lead, tail = _monic_parts(p, order)
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

    if v != min_multiple_in(spec.n, spec.arithmetic_part()):
        raise TemplateMismatch("pure Y exponent disagrees with the semigroup")

    params = CaseParameters(
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
    params.validate()
    return params


# ---------------------------------------------------------------------------
# case table


@dataclass(frozen=True)
class CaseId:
    """One row of the finite classification: label, conditions, triple."""

    label: str
    conditions: tuple
    betti: tuple

    def __str__(self) -> str:
        return self.label


_COMPARABLE = {
    "plain_offset",
    "cross_offset",
    "x0_plain",
    "x0_pure",
    "x0_cross",
    "x2_plain",
    "x2_cross",
    "x2_gap",
}


def _condition_holds(cond: str, params: CaseParameters) -> bool:
    """Evaluate one table condition: `has_cross`, `no_cross`, or
    `<field> ==|!= <integer or field>` with `x2_gap` meaning
    x2_plain - x2_cross."""
    cond = cond.strip()
    if cond == "has_cross":
        return params.has_cross
    if cond == "no_cross":
        return not params.has_cross
    for op in ("==", "!="):
        if op in cond:
            left, right = (s.strip() for s in cond.split(op))
            break
    else:
        raise ValueError("unreadable condition %r" % cond)

    def value(token):
        if token in _COMPARABLE:
            if token == "x2_gap":
                return params.x2_gap()
            return getattr(params, token)
        return int(token)

    lhs, rhs = value(left), value(right)
    return lhs == rhs if op == "==" else lhs != rhs


def _load_case_table() -> tuple:
    text = resources.files("monocurve.data").joinpath("betti_cases.json").read_text()
    rows = []
    for record in json.loads(text):
        rows.append(
            CaseId(
                label=record["label"],
                conditions=tuple(record["when"]),
                betti=tuple(record["betti"]),
            )
        )
    labels = [row.label for row in rows]
    if len(set(labels)) != len(labels):
        raise AssertionError("duplicate case labels in the table")
    return tuple(rows)


CASE_TABLE = _load_case_table()


def case_id(params: CaseParameters) -> CaseId:
    """The unique table row whose conditions the parameters satisfy."""
    params.validate()
    matches = [
        row
        for row in CASE_TABLE
        if all(_condition_holds(c, params) for c in row.conditions)
    ]
    if not matches:
        raise CaseUnmatched("no table row covers %s" % (params,))
    if len(matches) > 1:
        raise CaseUnmatched(
            "table rows %s overlap on %s" % ([m.label for m in matches], params)
        )
    return matches[0]


def betti_lookup(params: CaseParameters) -> tuple:
    """Betti triple of the matched table row."""
    return case_id(params).betti


# ---------------------------------------------------------------------------
# tabulated twist lists


def _eval_shift(expr: str, env: dict) -> int:
    """Evaluate one twist expression: +, -, * over names and integers only."""

    def walk(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            return left * right
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.Name):
            try:
                return env[node.id]
            except KeyError:
                raise ValueError("unknown name %r in twist expression" % node.id)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        raise ValueError("disallowed syntax in twist expression %r" % expr)

    return walk(ast.parse(expr, mode="eval").body)


_SHIFT_TABLE = None


def _load_shift_table() -> dict:
    global _SHIFT_TABLE
    if _SHIFT_TABLE is None:
        text = resources.files("monocurve.data").joinpath("shift_tables.json").read_text()
        _SHIFT_TABLE = json.loads(text)
    return _SHIFT_TABLE


def graded_shifts(case: CaseId, params: CaseParameters, spec: SequenceSpec) -> tuple:
    """The tabulated per-case twist lists, evaluated at the sequence.

    Returns three integer lists (first, second, third homological degree),
    exactly as tabulated -- including any value the tables get wrong; the
    comparison against computed twists happens downstream, so table slips
    surface as discrepancy records instead of being silently corrected.
    """
    table = _load_shift_table()
    if case.label not in table:
        raise CaseUnmatched("no twist row for case %s" % case.label)
    env = {"m0": spec.m0, "m1": spec.m1, "m2": spec.m2, "n": spec.n}
    for field in (
        "plain_offset", "cross_offset", "x0_plain", "x0_pure", "x0_cross",
        "x2_plain", "x2_cross", "y_order", "y_split",
    ):
        env[field] = getattr(params, field)
    row = table[case.label]
    lists = tuple([_eval_shift(e, env) for e in row[key]] for key in ("s", "p", "q"))
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
# For each of the seven family shapes (four with a cross family, two without
# it led by the plain X1 element, one Koszul) the first and second syzygy
# matrices of the canonical generators are written out entry by entry.  The
# columns below are stated over the generator order canonical_generators
# produces and satisfy A.B = 0 and B.C = 0 identically in the exponents;
# degenerate parameter values (x0_pure = 0, x0_plain = 1, x2_cross = 0,
# x2_gap small) turn individual entries into constants, and minimalize
# clears those mechanically.


def _exponents(p: CaseParameters) -> tuple:
    """(x0_plain, x0_pure, x2_plain, x2_cross, y_order, y_split, x2_gap)."""
    return p.x0_plain, p.x0_pure, p.x2_plain, p.x2_cross, p.y_order, p.y_split, p.x2_gap()


def _syzygies_cross_12(m, z, gens, p):
    """Offsets (1, 2): generators [quadric, plain0, plain1, cross0, pure]."""
    xi = gens[0]
    lam, mu, q, qc, v, w, gap = _exponents(p)
    b_cols = [
        [-m(x2=q), m(x1=1), -m(x0=1), z, z],
        [m(x0=lam + mu) - m(x2=qc + 1, y=v - w), z, z, xi, z],
        [m(x0=mu, x1=1, x2=gap - 1) - m(y=v), z, z, z, xi],
        [m(x0=lam - 1, y=w), -m(x2=1), m(x1=1), z, z],
        [z, -m(y=v - w), z, m(x1=1, x2=gap - 1), -m(x0=lam)],
        [-m(x0=mu + lam - 1, x2=gap - 1), z, -m(y=v - w), m(x2=gap), -m(x0=lam - 1, x1=1)],
        [z, m(x0=mu), z, -m(y=w), m(x2=qc + 1)],
    ]
    c_cols = [
        [z, z, m(x0=lam - 1), m(y=v - w), -m(x2=1), m(x1=1), z],
        [m(y=v - w), -m(x2=gap - 1), z, z, m(x1=1), -m(x0=1), z],
        [m(x0=mu, x1=1), -m(y=w), m(x2=qc + 1), m(x0=mu + 1), z, z, -xi],
    ]
    return b_cols, c_cols


def _syzygies_cross_11(m, z, gens, p):
    """Offsets (1, 1): generators [quadric, plain0, plain1, cross0, cross1, pure]."""
    xi = gens[0]
    lam, mu, q, qc, v, w, gap = _exponents(p)
    b_cols = [
        [-m(x2=q), m(x1=1), -m(x0=1), z, z, z],
        [-m(x2=qc, y=v - w), z, z, m(x1=1), -m(x0=1), z],
        [m(x0=mu, x2=gap) - m(y=v), z, z, z, z, xi],
        [m(x0=lam - 1, y=w), -m(x2=1), m(x1=1), z, z, z],
        [z, -m(y=v - w), z, m(x2=gap), z, -m(x0=lam)],
        [z, z, -m(y=v - w), z, m(x2=gap), -m(x0=lam - 1, x1=1)],
        [m(x0=lam + mu - 1), z, z, -m(x2=1), m(x1=1), z],
        [z, m(x0=mu), z, -m(y=w), z, m(x1=1, x2=qc)],
        [z, z, m(x0=mu), z, -m(y=w), m(x2=qc + 1)],
    ]
    c_cols = [
        [z, z, m(x0=lam - 1), m(y=v - w), -m(x2=1), m(x1=1), -m(x2=gap), z, z],
        [z, z, z, m(x0=mu), z, z, -m(y=w), m(x2=1), -m(x1=1)],
        [m(y=v - w), -m(x2=gap), z, z, m(x1=1), -m(x0=1), z, z, z],
        [m(x0=mu), -m(y=w), m(x2=qc), z, z, z, z, -m(x1=1), m(x0=1)],
    ]
    return b_cols, c_cols


def _syzygies_cross_21(m, z, gens, p):
    """Offsets (2, 1): generators [quadric, plain0, cross0, cross1, pure]."""
    xi = gens[0]
    lam, mu, q, qc, v, w, gap = _exponents(p)
    b_cols = [
        [m(x0=lam, y=w) - m(x2=q + 1), xi, z, z, z],
        [-m(x2=qc, y=v - w), z, m(x1=1), -m(x0=1), z],
        [m(x0=mu, x1=1, x2=gap) - m(y=v), z, z, z, xi],
        [z, -m(y=v - w), z, m(x2=gap), -m(x0=lam)],
        [m(x0=lam + mu), z, -m(x2=1), m(x1=1), z],
        [m(x0=mu, x2=q), m(x0=mu + 1), -m(y=w), z, m(x1=1, x2=qc)],
        [z, m(x0=mu, x1=1), z, -m(y=w), m(x2=qc + 1)],
    ]
    c_cols = [
        [z, m(y=w), -m(x2=qc), z, z, m(x1=1), -m(x0=1)],
        [m(x0=mu), z, z, z, -m(y=w), m(x2=1), -m(x1=1)],
        [m(y=v - w), -m(x2=gap + 1), m(x0=lam), xi, -m(x1=1, x2=gap), z, z],
    ]
    return b_cols, c_cols


def _syzygies_cross_22(m, z, gens, p):
    """Offsets (2, 2): generators [quadric, plain0, cross0, pure]."""
    xi = gens[0]
    lam, mu, q, qc, v, w, gap = _exponents(p)
    b_cols = [
        [m(x0=lam, y=w) - m(x2=q + 1), xi, z, z],
        [m(x0=lam + mu) - m(x2=qc + 1, y=v - w), z, xi, z],
        [m(x0=mu, x2=gap) - m(y=v), z, z, xi],
        [z, -m(y=v - w), m(x2=gap), -m(x0=lam)],
        [z, m(x0=mu), -m(y=w), m(x2=qc + 1)],
    ]
    c_cols = [
        [m(y=v - w), -m(x2=gap), m(x0=lam), xi, z],
        [m(x0=mu), -m(y=w), m(x2=qc + 1), z, -xi],
    ]
    return b_cols, c_cols


def _syzygies_plain_first(m, z, gens, p):
    """No cross family, plain offset 1: generators [quadric, plain0, plain1, pure]."""
    xi, f0, f1, th = gens
    lam, q, w = p.x0_plain, p.x2_plain, p.y_split
    b_cols = [
        [-m(x2=q), m(x1=1), -m(x0=1), z],
        [m(x0=lam - 1, y=w), -m(x2=1), m(x1=1), z],
        [-th, z, z, xi],
        [z, -th, z, f0],
        [z, z, -th, f1],
    ]
    c_cols = [
        [th, z, -m(x2=q), m(x1=1), -m(x0=1)],
        [z, th, m(x0=lam - 1, y=w), -m(x2=1), m(x1=1)],
    ]
    return b_cols, c_cols


def _syzygies_koszul(m, z, gens, p):
    """No cross family, plain offset 2: three generators, pairwise-coprime leads."""
    xi, f0, th = gens
    b_cols = [
        [-f0, xi, z],
        [-th, z, xi],
        [z, -th, f0],
    ]
    c_cols = [
        [th, -f0, xi],
    ]
    return b_cols, c_cols


def _assemble(ring, gens, b_cols, c_cols) -> FreeResolution:
    """Chain the generator row with the two syzygy matrices, twists included."""
    f0 = GradedFreeModule(ring, (0,))
    t1 = tuple(is_homogeneous(g, ring) for g in gens)
    f1 = GradedFreeModule(ring, t1)
    head = GradedMap(f1, f0, [list(gens)])

    def column_twists(cols, twists):
        out = []
        for col in cols:
            k = next(i for i, p in enumerate(col) if not p.is_zero)
            out.append(is_homogeneous(col[k], ring) + twists[k])
        return tuple(out)

    t2 = column_twists(b_cols, t1)
    f2 = GradedFreeModule(ring, t2)
    first = GradedMap(f2, f1, [[col[i] for col in b_cols] for i in range(len(gens))])
    t3 = column_twists(c_cols, t2)
    f3 = GradedFreeModule(ring, t3)
    second = GradedMap(f3, f2, [[col[k] for col in c_cols] for k in range(len(b_cols))])
    return FreeResolution(maps=(head, first, second))


def closed_form_base(params: CaseParameters, spec: SequenceSpec) -> FreeResolution:
    """The template resolution before any trimming.

    Instantiates the family shape's generator row and both syzygy matrices
    with the parameters substituted.  Degenerate parameter values leave
    constant entries, so the output is in general non-minimal; its
    minimalization has closed-form entries throughout.
    """
    gens = canonical_generators(params, spec)
    ring = gens[0].ring
    a, b = params.plain_offset, params.cross_offset
    if params.has_cross:
        build = {
            (1, 2): _syzygies_cross_12,
            (1, 1): _syzygies_cross_11,
            (2, 1): _syzygies_cross_21,
            (2, 2): _syzygies_cross_22,
        }[(a, b)]
    elif a == 1:
        build = _syzygies_plain_first
    else:
        build = _syzygies_koszul

    def m(**kw):
        return ring.monomial(_variable_monomial(**kw))

    b_cols, c_cols = build(m, ring.zero(), gens, params)
    return _assemble(ring, gens, b_cols, c_cols)


def closed_form_resolution(params: CaseParameters, spec: SequenceSpec) -> FreeResolution:
    """Minimal resolution with closed-form entries.

    The base complex trimmed by the elementary-operation calculus; the
    surviving ranks equal the case table's triple.  Raises CaseUnmatched for
    parameters no table row covers.
    """
    case_id(params)
    return minimalize(closed_form_base(params, spec))
