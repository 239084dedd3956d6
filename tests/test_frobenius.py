import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    BudgetExceededError,
    NotCoprimeError,
    bound_frobenius,
    bound_sequences,
    denumerant,
    frobenius_exact,
    inequality_a,
    relaxed_count_chain,
    relaxed_shift_sequence,
)
from denumerant.frobenius import FROBENIUS_MAX_CELLS, _frobenius_sieve


def test_exact_spots():
    assert frobenius_exact((2, 3)) == 1
    assert frobenius_exact((3, 5)) == 7
    assert frobenius_exact((4, 6, 9)) == 11
    assert frobenius_exact((6, 9, 20)) == 43
    assert frobenius_exact((1,)) == -1
    assert frobenius_exact((1, 7)) == -1
    assert frobenius_exact((7, 1, 9)) == -1


def test_pair_closed_form():
    # For two coprime coefficients the answer is a1*a2 - a1 - a2.
    pairs = ((2, 3), (3, 5), (3, 7), (5, 8), (7, 11))
    near_1e5 = ((99991, 100003), (100000, 100001), (100003, 99989), (99999, 100000))
    for a1, a2 in pairs + near_1e5:
        assert frobenius_exact((a1, a2)) == a1 * a2 - a1 - a2


def test_round_robin_matches_sieve():
    rng = random.Random(20070412)
    drawn = []
    for _ in range(400):
        coeffs = [rng.randint(1, 40) for _ in range(rng.randint(2, 5))]
        d = math.gcd(*coeffs)
        drawn.append(tuple(c // d for c in coeffs))
    special = [
        (9, 4, 6),  # unsorted
        (7, 7, 5, 5, 11),  # duplicates, including of the smallest
        (12, 18, 8, 27),  # gcd(a_1, a_i) > 1 for every a_i but the last
        (10, 15, 6),  # each pair shares a factor
        (5, 1, 9),  # a 1 in the tuple
        (1,),  # one coefficient
    ]
    for coeffs in special + drawn:
        assert frobenius_exact(coeffs) == _frobenius_sieve(coeffs), coeffs
    for coeffs in ((4, 6), (9,), (6, 10, 14)):
        with pytest.raises(NotCoprimeError):
            frobenius_exact(coeffs)
        with pytest.raises(NotCoprimeError):
            _frobenius_sieve(coeffs)


def test_three_primes_near_1e4_fast_and_enclosed():
    started = time.perf_counter()
    report = bound_frobenius((10007, 10009, 10037))
    assert time.perf_counter() - started < 1.0
    g = report.g
    assert g == frobenius_exact((10037, 10009, 10007))
    assert g <= report.brauer_upper
    assert not any(
        (g - 10037 * x3 - 10009 * x2) % 10007 == 0
        for x3 in range(g // 10037 + 1)
        for x2 in range((g - 10037 * x3) // 10009 + 1)
    )


def test_table_budget():
    # The sieve for this pair would need about 10^8 cells; it must refuse
    # before allocating them.
    with pytest.raises(BudgetExceededError):
        _frobenius_sieve((10007, 10009))
    with pytest.raises(BudgetExceededError):
        frobenius_exact((FROBENIUS_MAX_CELLS + 1, FROBENIUS_MAX_CELLS + 2))
    # The acceptance frobenius sweep draws coefficients <= 25, and
    # s-_k < a_1 max(a), so its sieves stay three orders of magnitude below
    # the cap.
    assert 1000 * 25 * 25 < FROBENIUS_MAX_CELLS


def test_a_unit_coefficient_answers_before_the_sieve_budget():
    # With a 1 among the coefficients every n >= 0 is representable.  This
    # tuple's s-_k is far over the sieve's budget, so only the shortcut for
    # a 1 lets the sieve answer -1.
    coeffs = (10**6, 10**6 + 2, 1)
    report = bound_frobenius(coeffs)
    assert (report.g, report.brauer_upper) == (-1, 499_998_999_999)
    assert report.brauer_upper + 1 > FROBENIUS_MAX_CELLS
    assert _frobenius_sieve(coeffs) == -1


def test_requires_coprime():
    with pytest.raises(NotCoprimeError):
        frobenius_exact((4, 6))
    with pytest.raises(NotCoprimeError):
        frobenius_exact((9,))


def test_report_spots():
    report = bound_frobenius((3, 5))
    assert report.g == 7
    assert report.brauer_upper == 7

    report = bound_frobenius((4, 6, 9))
    assert report.g == 11 and report.brauer_upper == 11


def test_root_bounds_match_predicates():
    # A root bound would be the largest n whose upper bound is below 1.
    # Both upper bounds are at least 1 from n = 0 on, so no n qualifies.
    for coeffs in ((3, 5, 7), (5, 7, 9, 11), (11, 13), (2, 3, 5)):
        k = len(coeffs)
        prod = math.prod(coeffs)
        shift_1 = bound_sequences(coeffs).upper_shifts[-1]
        shift_2 = relaxed_shift_sequence(coeffs)[-1]
        target_1 = math.factorial(k - 1) * prod
        target_2 = math.factorial(k) * prod
        for n in range(0, 5000):
            assert not (n + shift_1) ** (k - 1) < target_1, (coeffs, n)
            assert not (n + shift_2) ** k < target_2, (coeffs, n)


def test_upper_bounds_at_zero_are_at_least_one():
    # D(0) = 1 and the relaxed count at 0 is 1, so both upper bounds are at
    # least 1 at n = 0; this is why no root lower bound on g exists.
    rng = random.Random(20221)
    for _ in range(300):
        coeffs = [rng.randint(1, 30) for _ in range(rng.randint(2, 6))]
        d = math.gcd(*coeffs)
        coeffs = tuple(c // d for c in coeffs)
        assert inequality_a(coeffs, 0).upper_a >= 1, coeffs
        assert relaxed_count_chain(coeffs, 0)[2] >= 1, coeffs


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 25), min_size=2, max_size=4).map(tuple))
def test_enclosure_and_gap(coeffs):
    d = math.gcd(*coeffs)
    coeffs = tuple(c // d for c in coeffs)
    g = frobenius_exact(coeffs)
    report = bound_frobenius(coeffs)
    assert g <= report.brauer_upper
    if g >= 0:
        assert denumerant(coeffs, g).value == 0
    # Everything above g in a window is representable.
    for n in range(max(g + 1, 0), max(g + 1, 0) + 2 * max(coeffs)):
        assert denumerant(coeffs, n).value > 0
