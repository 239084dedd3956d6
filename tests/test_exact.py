import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    BudgetExceededError,
    InvariantViolationError,
    NotCoprimeError,
    denumerant,
    extended_count,
    oracle_count,
    popoviciu,
)


def brute(coeffs, n):
    return oracle_count(coeffs, n).value


def test_oracle_spots():
    assert brute((3, 5), 8) == 1
    assert brute((2, 3, 5), 10) == 4
    assert brute((1, 1), 7) == 8
    assert brute((4, 6), 7) == 0
    assert brute((5,), 10) == 1
    assert brute((5,), 11) == 0
    assert oracle_count((3, 5), 8).method == "oracle"


def test_oracle_budget():
    with pytest.raises(BudgetExceededError):
        oracle_count((1, 1, 1, 1), 500, budget=100)


def test_oracle_budget_env(monkeypatch):
    monkeypatch.setenv("DENUM_MAX_ORACLE", "50")
    with pytest.raises(BudgetExceededError):
        oracle_count((1, 1, 1), 300)
    monkeypatch.setenv("DENUM_MAX_ORACLE", "100000")
    assert oracle_count((1, 1, 1), 300).value > 0


def test_denumerant_spots():
    assert denumerant((1, 2, 3), 10).value == 14
    assert denumerant((2, 3, 5), 10).value == 4
    assert denumerant((4, 6), 7).value == 0
    assert denumerant((4, 6), 10).value == 1
    assert denumerant((7,), 21).value == 1
    assert denumerant((2, 3), 0).value == 1
    assert denumerant((2, 3), 1).value == 0


def test_denumerant_reduces_by_gcd():
    # With d = gcd(a) the count at n is the count of a/d at n/d, and 0 when
    # d does not divide n.
    assert denumerant((6, 10), 16).value == denumerant((3, 5), 8).value == 1
    assert denumerant((6, 10), 30).value == denumerant((3, 5), 15).value == 2
    assert denumerant((6, 10), 15).value == 0


def test_denumerant_rejects_negative_target():
    with pytest.raises(ValueError):
        denumerant((2, 3), -1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
    st.integers(0, 60),
)
def test_denumerant_matches_oracle(coeffs, n):
    assert denumerant(coeffs, n).value == brute(coeffs, n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=4).map(tuple),
    st.integers(0, 50),
)
def test_denumerant_order_invariant(coeffs, n):
    assert denumerant(coeffs, n).value == denumerant(tuple(reversed(coeffs)), n).value


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=4).map(tuple),
    st.integers(0, 50),
)
def test_denumerant_satisfies_recurrence(coeffs, n):
    # Peeling off the last coefficient and summing over its multiplicity
    # must reproduce the full count.
    last = coeffs[-1]
    total = sum(
        denumerant(coeffs[:-1], n - last * take).value
        for take in range(n // last + 1)
    )
    assert denumerant(coeffs, n).value == total


def test_popoviciu_spots():
    assert popoviciu(3, 5, 8).value == 1
    assert popoviciu(3, 5, 7).value == 0
    assert popoviciu(2, 3, 6).value == 2
    assert popoviciu(1, 1, 9).value == 10
    assert popoviciu(3, 5, 8).method == "popoviciu"


def test_popoviciu_with_a_unit_coefficient():
    # The inverse modulo 1 is 0, so a unit coefficient leaves
    # D(n) = floor(n / a) + 1 for the other one, in either position.
    assert popoviciu(1, 7, 20).value == 3
    assert popoviciu(10, 1, 25).value == 3
    assert popoviciu(1, 1, 0).value == 1


def test_popoviciu_requires_coprime():
    with pytest.raises(NotCoprimeError):
        popoviciu(4, 6, 10)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 150))
def test_popoviciu_matches_oracle(a1, a2, n):
    d = math.gcd(a1, a2)
    a1, a2 = a1 // d, a2 // d
    assert popoviciu(a1, a2, n).value == brute((a1, a2), n)


def test_extended_count_spots():
    assert extended_count((2, 3), 6).value == 7
    assert extended_count((4, 6), 7).value == 3
    assert extended_count((1,), 9).value == 10
    assert extended_count((5,), 0).value == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 10), min_size=1, max_size=3).map(tuple),
    st.integers(0, 50),
)
def test_extended_count_is_prefix_sum(coeffs, n):
    prefix = sum(denumerant(coeffs, m).value for m in range(n + 1))
    assert extended_count(coeffs, n).value == prefix


@pytest.mark.parametrize("n", [2.5, 8.0, True, -1])
@pytest.mark.parametrize(
    "count",
    [
        denumerant,
        extended_count,
        oracle_count,
        lambda coeffs, n: popoviciu(*coeffs, n),
    ],
    ids=["denumerant", "extended_count", "oracle_count", "popoviciu"],
)
def test_counts_reject_a_target_that_is_not_a_natural_int(count, n):
    # (2, 3) is a coprime pair, so n is the only bad input.
    with pytest.raises(ValueError, match="n must be"):
        count((2, 3), n)
