import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    InvariantViolationError,
    NotApplicableError,
    NotCoprimeError,
    TooShortTupleError,
    blom_froberg_bounds,
    bound_sequences,
    denumerant,
    extended_count,
    gcd_chain,
    inequality_a,
    inequality_b_lower,
    main_term,
    prefix_sum_count,
    relaxed_count_bounds,
    relaxed_count_chain,
    relaxed_shift_sequence,
)


def _coprime(t):
    d = math.gcd(*t)
    return tuple(c // d for c in t)


coprime_tuples = (
    st.lists(st.integers(1, 12), min_size=2, max_size=5).map(tuple).map(_coprime)
)


def test_sequences_small_pair():
    seqs = bound_sequences((2, 3))
    assert seqs.upper_shifts == (Fraction(3), Fraction(6))
    assert seqs.lower_shifts == (Fraction(-2), Fraction(1))
    assert seqs.relaxed_shifts == (Fraction(2), Fraction(7, 2))
    assert seqs.gcd_weighted_sum == 6


def test_sequences_longer_tuple():
    seqs = bound_sequences((4, 6, 9))
    assert seqs.upper_shifts == (Fraction(6), Fraction(12), Fraction(21))
    assert seqs.lower_shifts == (Fraction(-4), Fraction(2), Fraction(11))
    assert seqs.gcd_weighted_sum == 30


def test_sequences_unit_lead():
    seqs = bound_sequences((1, 5, 3, 2))
    assert all(s == -1 for s in seqs.lower_shifts)
    assert seqs.upper_shifts[-1] == Fraction(5) + Fraction(3 + 2, 2)


def test_sequences_need_two_coefficients():
    with pytest.raises(TooShortTupleError):
        bound_sequences((5,))


def test_relaxed_shifts_any_length():
    assert relaxed_shift_sequence((4,)) == (Fraction(4),)
    assert relaxed_shift_sequence((4, 6)) == (Fraction(4), Fraction(7))


@settings(max_examples=60, deadline=None)
@given(coprime_tuples)
def test_sequence_identities(coeffs):
    seqs = bound_sequences(coeffs)
    assert seqs.lower_shifts[-1] == seqs.gcd_weighted_sum - sum(coeffs)
    d2 = gcd_chain(coeffs)[1]
    assert (
        seqs.upper_shifts[-1]
        == seqs.gcd_weighted_sum / 2 + Fraction(coeffs[0] * coeffs[1], 2 * d2)
    )
    # The lower shift sequence never decreases and stays integral.
    for left, right in zip(seqs.lower_shifts, seqs.lower_shifts[1:]):
        assert left <= right
    assert all(s.denominator == 1 for s in seqs.lower_shifts)
    # The upper shift sequence strictly increases.
    for left, right in zip(seqs.upper_shifts, seqs.upper_shifts[1:]):
        assert left < right


def test_inequality_a_spot():
    report = inequality_a((3, 5), 8, exact=1)
    assert report.lower_a == Fraction(1, 15)
    assert report.upper_a == Fraction(23, 15)
    assert report.applicable_lower and report.sandwich_ok


def test_inequality_a_below_threshold():
    # n = 0 sits below the lower shift of (2, 3), so only the upper
    # bound is claimed.
    report = inequality_a((2, 3), 0, exact=1)
    assert not report.applicable_lower
    assert report.upper_a == 1
    assert report.sandwich_ok


def test_inequality_a_rejections():
    with pytest.raises(NotCoprimeError):
        inequality_a((4, 6), 10)
    with pytest.raises(TooShortTupleError):
        inequality_a((7,), 3)
    with pytest.raises(ValueError):
        inequality_a((2, 3), -1)


def test_inequality_b_spot():
    assert inequality_b_lower((1, 2, 3), 10) == Fraction(77, 6)


def test_inequality_b_below_threshold():
    with pytest.raises(NotApplicableError):
        inequality_b_lower((3, 5), 2)


@settings(max_examples=60, deadline=None)
@given(coprime_tuples, st.integers(0, 120))
def test_inequality_b_dominates_a(coeffs, n):
    seqs = bound_sequences(coeffs)
    if n < seqs.lower_shifts[-1]:
        return
    report = inequality_a(coeffs, n)
    refined = inequality_b_lower(coeffs, n)
    assert report.lower_a <= refined
    if len(coeffs) == 2:
        assert report.lower_a == refined
    assert refined <= denumerant(coeffs, n).value


def test_main_term_spots():
    assert main_term((3, 5), 30) == 2
    assert main_term((1, 1), 7) == 7
    assert main_term((2, 3, 5), 100) == Fraction(500, 3)
    with pytest.raises(TooShortTupleError):
        main_term((4,), 10)


def test_relaxed_chain_spots():
    lower, middle, upper = relaxed_count_chain((2, 3), 6)
    assert (lower, middle, upper) == (
        Fraction(49, 12),
        Fraction(35, 6),
        Fraction(361, 48),
    )
    assert extended_count((2, 3), 6).value == 7

    lower, middle, upper = relaxed_count_chain((4, 6), 7)
    assert (lower, middle, upper) == (
        Fraction(4, 3),
        Fraction(7, 3),
        Fraction(169, 48),
    )
    assert extended_count((4, 6), 7).value == 3


def test_relaxed_chain_single_coefficient():
    lower, middle, upper = relaxed_count_chain((1,), 5)
    assert lower == middle == upper == 6
    assert extended_count((1,), 5).value == 6


def test_relaxed_bounds_report():
    report = relaxed_count_bounds((2, 3), 6, exact=7)
    assert report.lower_b == Fraction(35, 6)
    assert report.sandwich_ok
    with pytest.raises(InvariantViolationError):
        relaxed_count_bounds((2, 3), 6, exact=100)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 10), min_size=1, max_size=4).map(tuple),
    st.integers(0, 80),
)
def test_relaxed_chain_encloses_count(coeffs, n):
    lower, middle, upper = relaxed_count_chain(coeffs, n)
    exact = extended_count(coeffs, n).value
    assert lower <= middle <= exact <= upper


def test_blom_froberg_spots():
    report = blom_froberg_bounds((1, 2), 4)
    assert report.lower_a == Fraction(5, 2)
    assert report.lower_b == Fraction(5, 2)
    assert report.upper_a == 3
    assert report.exact == 3 and report.sandwich_ok

    report = blom_froberg_bounds((1, 1, 1), 0)
    assert report.lower_a == Fraction(1, 2)
    assert report.upper_a == Fraction(9, 8)
    assert report.exact == 1 and report.sandwich_ok


def test_blom_froberg_needs_unit_lead():
    with pytest.raises(NotApplicableError):
        blom_froberg_bounds((2, 3), 5)


def test_prefix_sum_count():
    assert prefix_sum_count((2, 3), 6) == 7
    assert prefix_sum_count((4, 6), 7) == 3


@pytest.mark.parametrize("n", [2.5, 8.0, True, -1])
@pytest.mark.parametrize(
    "bound",
    [
        main_term,
        inequality_a,
        inequality_b_lower,
        relaxed_count_chain,
        relaxed_count_bounds,
        blom_froberg_bounds,
        prefix_sum_count,
    ],
)
def test_bounds_reject_a_target_that_is_not_a_natural_int(bound, n):
    # (1, 2, 3) is coprime and unit-led, so n is the only bad input.
    with pytest.raises(ValueError, match="n must be"):
        bound((1, 2, 3), n)
