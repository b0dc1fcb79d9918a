"""Semigroup arithmetic against a brute-force reachability oracle."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monocurve.semigroup import (
    M0_BUDGET,
    GcdNotOne,
    NotArithmetic,
    OverBudget,
    RedundantGenerator,
    SubSemigroup,
    ValidationError,
    apery_set,
    frobenius,
    min_multiple_in,
    progression_multiple,
    series_numerator,
    validate_sequence,
)

from oracles import (
    DenseSemigroup,
    apery_set_walk,
    gamma_series_truncation,
    series_numerator_dense,
    validate_sequence_by_subsemigroups,
)


def naive_member(s, gens):
    """Exhaustive search: is s a sum of generators?  Independent of the DP table."""
    if s < 0:
        return False
    reachable = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur + g
            if nxt <= s and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return s in reachable


def test_membership_small_cases():
    s = SubSemigroup((3, 4, 5))
    assert [x for x in range(10) if x in s] == [0, 3, 4, 5, 6, 7, 8, 9]
    t = SubSemigroup((4, 6, 8))
    assert 10 in t and 5 not in t and 2 not in t


@given(st.lists(st.integers(1, 30), min_size=1, max_size=4), st.integers(0, 120))
@settings(max_examples=200)
def test_membership_matches_bruteforce(gens, s):
    semi = SubSemigroup(gens)
    assert semi.contains(s) == naive_member(s, gens)


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=4),
    st.integers(1, 6),
    st.integers(0, 40),
)
@settings(max_examples=200)
# gcd 4; 28 = 7 * 4 is the last multiple of 4 outside <12, 20>
@example([3, 5], 4, 0)
@example([10, 3, 19], 1, 0)
def test_contains_matches_dense_table(gens, factor, past):
    """The Apéry-table answer against the dense table, for every value up to
    ``past`` beyond the dense table's bound, on generator sets whose gcd is
    ``factor`` times their own."""
    gens = [g * factor for g in gens]
    semi, dense = SubSemigroup(gens), DenseSemigroup(gens)
    top = dense.bound * dense.gcd + past
    assert [s for s in range(-2, top) if semi.contains(s)] == [
        s for s in range(-2, top) if dense.contains(s)
    ]


def test_apery_and_frobenius_known_values():
    s345 = SubSemigroup((3, 4, 5))
    assert apery_set(s345, 3) == {0, 4, 5}
    assert frobenius(s345) == 2

    s579 = SubSemigroup((5, 7, 9))
    assert apery_set(s579, 5) == {0, 7, 9, 16, 18}

    assert frobenius(SubSemigroup((1,))) == -1


def test_apery_requires_coprime_and_member():
    even = SubSemigroup((4, 6, 8))
    with pytest.raises(GcdNotOne):
        apery_set(even, 4)
    with pytest.raises(GcdNotOne):
        frobenius(even)
    with pytest.raises(ValueError):
        apery_set(SubSemigroup((3, 4, 5)), 2)  # 2 is not an element


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=4),
    st.integers(0, 3),
    st.integers(1, 3),
)
@settings(max_examples=150)
# residue 9 mod 10 is reached first as 19, later as 3 + 3 + 3
@example([10, 3, 19], 1, 1)
def test_apery_set_matches_residue_walk(gens, pick, times):
    semi = SubSemigroup(gens)
    if semi.gcd != 1:
        return
    m = semi.generators[pick % len(semi.generators)] * times
    assert apery_set(semi, m) == apery_set_walk(semi, m)


@given(st.lists(st.integers(2, 25), min_size=2, max_size=4))
@settings(max_examples=100)
def test_frobenius_is_the_last_gap(gens):
    semi = SubSemigroup(gens)
    if semi.gcd != 1:
        return
    f = frobenius(semi)
    assert not semi.contains(f)
    assert all(semi.contains(f + k) for k in range(1, 2 * max(gens) + 1))


def test_min_multiple_in():
    assert min_multiple_in(5, SubSemigroup((4, 6, 8))) == 2
    assert min_multiple_in(11, SubSemigroup((5, 7, 9))) == 2
    assert min_multiple_in(7, SubSemigroup((7, 9, 11))) == 1
    with pytest.raises(ValueError):
        min_multiple_in(0, SubSemigroup((3, 4)))


@given(st.integers(1, 40), st.lists(st.integers(2, 20), min_size=1, max_size=3))
@settings(max_examples=100)
def test_min_multiple_is_minimal(x, gens):
    semi = SubSemigroup(gens)
    v = min_multiple_in(x, semi)
    assert semi.contains(v * x)
    assert all(not semi.contains(k * x) for k in range(1, v))


@given(
    st.lists(st.integers(1, 25), min_size=1, max_size=4),
    st.integers(1, 6),
    st.integers(1, 60),
    st.booleans(),
)
@settings(max_examples=200)
# gcd 6; x = 4 shares the factor 2 with it
@example([2, 3], 3, 4, False)
def test_min_multiple_in_matches_dense_table(gens, factor, x, share):
    """The Apéry-table answer against stepping v upward through the
    semigroup's dense membership table, on generator sets whose gcd is
    ``factor`` (times their own) and an x that shares it when ``share``."""
    semi = SubSemigroup([g * factor for g in gens])
    dense = DenseSemigroup(semi.generators)
    if share:
        x *= semi.gcd
    v = 1
    while not dense.contains(v * x):
        v += 1
    assert min_multiple_in(x, semi) == v


@given(st.integers(1, 60), st.integers(1, 40), st.integers(1, 200), st.booleans())
@settings(max_examples=300)
@example(2, 1, 3, False)  # m0 = 2
@example(6, 4, 5, False)  # gcd(m0, d) = 2, x odd
@example(6, 4, 1, True)  # x = m0
@example(12, 9, 2, True)  # gcd(m0, d) = 3, x a multiple of m0
def test_progression_multiple_matches_the_table(m0, d, x, of_m0):
    """The table-free least multiple of x in <m0, m0 + d, m0 + 2d> against
    ``min_multiple_in`` on that semigroup's Apéry table; ``of_m0`` makes x a
    multiple of m0."""
    if of_m0:
        x *= m0
    semi = SubSemigroup((m0, m0 + d, m0 + 2 * d))
    assert progression_multiple(x, m0, d) == min_multiple_in(x, semi)


def test_progression_multiple_refuses_nonpositive_x():
    with pytest.raises(ValueError):
        progression_multiple(0, 5, 2)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=5))
@settings(max_examples=300)
@example([1])
@example([7])  # one generator: Gamma(z) * (1 - z^7) = 1
@example([11, 5, 7, 9])  # n < m0, so the Apéry base is n
@example([4, 6, 9])
def test_series_numerator_matches_dense_product(gens):
    """The boundary product against the dict product over the whole Apéry
    set, on coprime generator sets."""
    semi = SubSemigroup(gens)
    assume(semi.gcd == 1)
    assert series_numerator(semi) == series_numerator_dense(semi)


def test_series_numerator_refuses_a_common_factor():
    with pytest.raises(GcdNotOne):
        series_numerator(SubSemigroup((4, 6, 8)))


def test_gamma_series_truncation_is_indicator():
    semi = SubSemigroup((5, 7, 9, 11))
    series = gamma_series_truncation(semi, 40)
    assert len(series) == 41
    assert series[0] == 1
    for s, coeff in enumerate(series):
        assert coeff == (1 if semi.contains(s) else 0)


def test_validate_sequence_accepts_reference_tuple():
    spec = validate_sequence(5, 7, 9, 11)
    assert spec.d == 2
    assert spec.weights == (5, 7, 9, 11)
    assert progression_multiple(spec.n, spec.m0, spec.d) == 2  # 11 is not in <5, 7, 9>, 22 = 7 + 3*5 is
    assert spec.gamma.contains(11)


def test_validate_sequence_rejections():
    with pytest.raises(NotArithmetic):
        validate_sequence(3, 5, 8, 7)
    with pytest.raises(GcdNotOne):
        validate_sequence(4, 6, 8, 10)
    with pytest.raises(RedundantGenerator) as excinfo:
        validate_sequence(4, 6, 8, 5)
    assert excinfo.value.which == "m2"
    with pytest.raises(RedundantGenerator) as excinfo:
        validate_sequence(2, 4, 6, 3)
    assert excinfo.value.which == "m1"
    with pytest.raises(RedundantGenerator) as excinfo:
        validate_sequence(1, 2, 3, 5)
    assert excinfo.value.which == "n"
    with pytest.raises(RedundantGenerator) as excinfo:
        validate_sequence(5, 7, 9, 14)  # 14 = 5 + 9
    assert excinfo.value.which == "n"


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 120), st.integers(1, 60), st.integers(1, 400))
@example(5, 7, 3)  # n < m0, redundant m2
@example(5, 2, 7)  # n = m1
@example(5, 2, 9)  # n = m2
@example(4, 1, 4)  # n = m0
@example(5, 2, 11)  # accepted
def test_one_table_validation_agrees_with_four_tables(m0, d, n):
    """validate_sequence, reading Gamma's one table, raises what the
    reference with one semigroup per generator raises, class and message,
    or accepts the same tuple."""
    seq = (m0, m0 + d, m0 + 2 * d, n)
    try:
        expected = validate_sequence_by_subsemigroups(*seq)
    except ValidationError as exc:
        with pytest.raises(type(exc)) as got:
            validate_sequence(*seq)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert validate_sequence(*seq) == expected


def test_validate_sequence_huge_redundant_n():
    # 300 000 000 lies in <3, 5, 7>; the check reads one Apéry table of 3 entries
    with pytest.raises(RedundantGenerator) as excinfo:
        validate_sequence(3, 5, 7, 300_000_000)
    assert excinfo.value.which == "n"


def test_validate_sequence_refuses_m0_past_the_budget(monkeypatch):
    # refused before any table is built: no SubSemigroup is made
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(SubSemigroup, "__init__", no_tables)
    m0 = M0_BUDGET + 1
    with pytest.raises(OverBudget, match="M0_BUDGET = %d" % M0_BUDGET):
        validate_sequence(m0, m0 + 1, m0 + 2, 7)
    with pytest.raises(NotArithmetic):
        validate_sequence(m0, m0 + 1, m0 + 3, 7)


def test_validate_sequence_rejects_garbage():
    with pytest.raises(ValidationError):
        validate_sequence(0, 1, 2, 3)
    with pytest.raises(ValidationError):
        validate_sequence(5, 5, 5, 7)
