import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    BFQuery,
    CoefficientTuple,
    IndexRangeError,
    bf_explicit,
    bf_query,
    bf_recursive,
)


def by_subsets(coeffs, r, m, ell):
    # Direct elementary-symmetric evaluation over all l-subsets of
    # (a_{1+r}, ..., a_{m+r}), scaled by 2^-l.
    if ell < 0 or ell > m:
        return Fraction(0)
    if ell == 0:
        return Fraction(1)
    window = coeffs[r : m + r]
    total = sum(math.prod(sub) for sub in itertools.combinations(window, ell))
    return Fraction(total, 2**ell)


def test_spot_values():
    assert bf_explicit(bf_query((2, 3), 0, 2, 2)) == Fraction(3, 2)
    assert bf_explicit(bf_query((2, 3), 0, 2, 1)) == Fraction(5, 2)
    assert bf_explicit(bf_query((1, 2, 3), 2, 1, 1)) == Fraction(3, 2)
    assert bf_recursive(bf_query((2, 3), 0, 2, 2)) == Fraction(3, 2)


def test_triangle_edges():
    q = bf_query((5, 7, 11), 0, 2, -1)
    assert bf_explicit(q) == 0 and bf_recursive(q) == 0
    q = bf_query((5, 7, 11), 0, 2, 3)
    assert bf_explicit(q) == 0 and bf_recursive(q) == 0
    # l = 0 never reads a coefficient, so any m >= 0 works for any tuple.
    for m in (0, 1, 5, 40):
        q = bf_query((2,), 0, m, 0)
        assert bf_explicit(q) == 1
        assert bf_recursive(q) == 1


def test_negative_m_is_zero():
    q = bf_query((2, 3), 1, -1, 0)
    assert bf_explicit(q) == 0
    assert bf_recursive(q) == 0


def test_index_guard():
    with pytest.raises(IndexRangeError):
        bf_explicit(bf_query((2, 3), 0, 3, 1))
    with pytest.raises(IndexRangeError):
        bf_recursive(bf_query((2, 3), 2, 1, 1))
    # Same shape, but l = 0 stays in range because nothing is read.
    assert bf_explicit(bf_query((2, 3), 2, 1, 0)) == 1


def test_rejects_negative_offset():
    with pytest.raises(ValueError):
        BFQuery(CoefficientTuple((2, 3)), -1, 1, 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=8).map(tuple),
    st.integers(0, 2),
    st.data(),
)
def test_routes_agree_with_subset_oracle(coeffs, r, data):
    m = data.draw(st.integers(-1, max(len(coeffs) - r, 0)))
    ell = data.draw(st.integers(-1, m + 1))
    if 1 <= ell <= m and m + r > len(coeffs):
        return
    q = bf_query(coeffs, r, m, ell)
    expected = by_subsets(coeffs, r, m, ell)
    assert bf_explicit(q) == expected
    assert bf_recursive(q) == expected


def test_half_scaling():
    # Doubling every coefficient scales [[m, l]] by 2^l.
    base = (3, 5, 7)
    doubled = tuple(2 * c for c in base)
    for m in range(0, 4):
        for ell in range(0, m + 1):
            if m > len(base):
                continue
            assert bf_explicit(bf_query(doubled, 0, m, ell)) == 2**ell * bf_explicit(
                bf_query(base, 0, m, ell)
            )


def rational_newton(coeffs, r, m, ell):
    # The column update carried out in exact rationals on the halved
    # coefficients: the reference for bf_explicit's integer update.
    column = [Fraction(1)] + [Fraction(0)] * ell
    for x in (Fraction(c, 2) for c in coeffs[r : m + r]):
        for j in range(ell, 0, -1):
            column[j] += x * column[j - 1]
    return column[ell]


def test_explicit_matches_rational_update_on_huge_coefficients():
    rng = random.Random(2022)
    for _ in range(300):
        k = rng.randint(1, 9)
        coeffs = tuple(rng.randint(1, 10**30) for _ in range(k))
        r = rng.randint(0, k - 1)
        m = rng.randint(1, k - r)
        ell = rng.randint(1, m)
        value = bf_explicit(bf_query(coeffs, r, m, ell))
        assert type(value) is Fraction
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value == rational_newton(coeffs, r, m, ell)
