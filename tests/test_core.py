import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import as_coeffs, format_rational, gcd_chain, integer_part

small_tuples = st.lists(st.integers(1, 60), min_size=1, max_size=6).map(tuple)


def test_coefficient_tuple_validation():
    rejected = [
        ((), "must not be empty"),
        ((0, 3), "must be >= 1, got 0"),
        ((2, -1), "must be >= 1, got -1"),
        ((2.5, 3), "must be integers"),
        (("3", 5), "must be integers"),
        ("35", "must be integers"),
        (7, "must be integers"),
    ]
    for values, message in rejected:
        with pytest.raises(ValueError, match=message):
            as_coeffs(values)


def test_coefficient_tuple_basics():
    assert as_coeffs([4, 6, 9]) == (4, 6, 9)
    assert type(as_coeffs([4, 6, 9])) is tuple
    assert as_coeffs(range(1, 4)) == (1, 2, 3)
    # operator.index normalizes True to the int 1.
    one = as_coeffs((True, 2))
    assert one == (1, 2) and type(one[0]) is int


def test_gcd_chain_spots():
    assert gcd_chain((4, 6, 9)) == (4, 2, 1)
    assert gcd_chain([6, 10]) == (6, 2)
    assert gcd_chain((5,)) == (5,)
    with pytest.raises(ValueError):
        gcd_chain((4, 0))


@settings(max_examples=80, deadline=None)
@given(small_tuples)
def test_gcd_chain_divisibility(coeffs):
    chain = gcd_chain(coeffs)
    assert type(chain) is tuple and len(chain) == len(coeffs)
    assert chain[0] == coeffs[0]
    for i in range(1, len(chain)):
        assert chain[i - 1] % chain[i] == 0
        assert chain[i] == math.gcd(chain[i - 1], coeffs[i])
    assert chain[-1] == math.gcd(*coeffs)


def test_integer_part_truncates_toward_zero():
    assert integer_part(Fraction(7, 2)) == 3
    assert integer_part(Fraction(-1, 3)) == 0
    assert integer_part(Fraction(-7, 2)) == -3
    assert integer_part(0) == 0
    assert integer_part(5) == 5


@settings(max_examples=80, deadline=None)
@given(st.fractions(max_denominator=1000))
def test_integer_part_is_odd(x):
    assert integer_part(-x) == -integer_part(x)
    assert abs(x - integer_part(x)) < 1


def test_rational_round_trip_spots():
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(3) == "3"


@settings(max_examples=80, deadline=None)
@given(st.fractions(max_denominator=10**6))
def test_rational_round_trip(q):
    assert Fraction(format_rational(q)) == q
