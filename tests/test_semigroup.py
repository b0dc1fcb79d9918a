"""Semigroup arithmetic against a brute-force reachability oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocurve.semigroup import (
    GcdNotOne,
    NotArithmetic,
    NotMinimal,
    SubSemigroup,
    apery_set,
    frobenius,
    gamma_series_truncation,
    min_multiple_in,
    validate_sequence,
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
    assert spec.arithmetic_part().generators == (5, 7, 9)
    assert spec.semigroup().contains(11)


def test_validate_sequence_rejections():
    with pytest.raises(NotArithmetic):
        validate_sequence(3, 5, 8, 7)
    with pytest.raises(GcdNotOne):
        validate_sequence(4, 6, 8, 10)
    with pytest.raises(NotMinimal) as excinfo:
        validate_sequence(4, 6, 8, 5)
    assert excinfo.value.which == "m2"
    with pytest.raises(NotMinimal) as excinfo:
        validate_sequence(2, 4, 6, 3)
    assert excinfo.value.which == "m1"
    with pytest.raises(NotMinimal) as excinfo:
        validate_sequence(1, 2, 3, 5)
    assert excinfo.value.which == "n"
    with pytest.raises(NotMinimal) as excinfo:
        validate_sequence(5, 7, 9, 14)  # 14 = 5 + 9
    assert excinfo.value.which == "n"


def test_validate_sequence_huge_redundant_n():
    # 300 000 000 lies in <3, 5, 7>; the check stays within the table bound 3 * 7
    with pytest.raises(NotMinimal) as excinfo:
        validate_sequence(3, 5, 7, 300_000_000)
    assert excinfo.value.which == "n"


def test_validate_sequence_rejects_garbage():
    from monocurve.semigroup import ValidationError

    with pytest.raises(ValidationError):
        validate_sequence(0, 1, 2, 3)
    with pytest.raises(ValidationError):
        validate_sequence(5, 5, 5, 7)
