import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    IndexRangeError,
    bf_explicit,
    bf_recursive,
)
from denumerant.bfnum import _elementary


def last_recursive_row(a, r, m):
    # Row m of the recursion, the last of the rows 0..m it returns.
    rows = bf_recursive(a, r, m)
    return rows[-1] if rows else ()


ROUTES = (bf_explicit, last_recursive_row)


def by_subsets(coeffs, r, m):
    # Direct elementary-symmetric evaluation over all l-subsets of
    # (a_{1+r}, ..., a_{m+r}), scaled by 2^-l, for l = 0..m.
    window = coeffs[r : m + r]
    sums = (
        sum(math.prod(sub) for sub in itertools.combinations(window, ell))
        for ell in range(m + 1)
    )
    return tuple(Fraction(total, 2**ell) for ell, total in enumerate(sums))


def assert_reduced_fractions(row):
    for value in row:
        assert type(value) is Fraction
        assert math.gcd(value.numerator, value.denominator) == 1


def test_spot_values():
    assert bf_explicit((2, 3), 0, 2) == (1, Fraction(5, 2), Fraction(3, 2))
    assert bf_explicit((1, 2, 3), 2, 1) == (1, Fraction(3, 2))
    assert bf_recursive((2, 3), 0, 2)[-1] == (1, Fraction(5, 2), Fraction(3, 2))
    assert bf_recursive((1, 2, 3), 2, 1) == ((1,), (1, Fraction(3, 2)))


def test_row_has_m_plus_one_entries():
    for route in ROUTES:
        for m in range(0, 6):
            row = route((3, 5, 7, 11, 13), 0, m)
            assert len(row) == m + 1
            assert row[0] == 1
            assert_reduced_fractions(row)


def test_row_minus_one_is_empty():
    for route in ROUTES:
        assert route((2, 3), 1, -1) == ()
        assert route((2, 3), 0, -1) == ()


def test_row_zero_reads_no_coefficient():
    # [[0, 0]] = 1 at any offset, the tuple's end included.
    for route in ROUTES:
        assert route((2, 3), 2, 0) == (1,)
        assert route((2, 3), 5, 0) == (1,)


def test_index_guard():
    for route in ROUTES:
        with pytest.raises(IndexRangeError):
            route((2, 3), 0, 3)
        with pytest.raises(IndexRangeError):
            route((2, 3), 2, 1)
        with pytest.raises(IndexRangeError):
            route((2,), 0, 40)
        # The last row that fits.
        assert len(route((2, 3), 1, 1)) == 2


def test_rejects_negative_offset():
    for route in ROUTES:
        with pytest.raises(ValueError):
            route((2, 3), -1, 1)
        with pytest.raises(ValueError):
            route((2, 3), -1, -1)


def test_validates_the_tuple():
    for route in ROUTES:
        assert route([2, 3], 0, 1) == route((2, 3), 0, 1)
        for bad in ((), (2, 0), (2.5, 3)):
            with pytest.raises(ValueError):
                route(bad, 0, 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=8).map(tuple),
    st.integers(0, 2),
    st.data(),
)
def test_routes_agree_with_subset_oracle(coeffs, r, data):
    m = data.draw(st.integers(-1, max(len(coeffs) - r, 0)))
    expected = by_subsets(coeffs, r, m)
    for route in ROUTES:
        row = route(coeffs, r, m)
        assert row == expected
        assert_reduced_fractions(row)


def test_half_scaling():
    # Doubling every coefficient scales [[m, l]] by 2^l.
    base = (3, 5, 7)
    doubled = tuple(2 * c for c in base)
    for m in range(0, len(base) + 1):
        assert bf_explicit(doubled, 0, m) == tuple(
            2**ell * value for ell, value in enumerate(bf_explicit(base, 0, m))
        )


def rational_newton(coeffs, r, m):
    # The column update carried out in exact rationals on the halved
    # coefficients: the reference for bf_explicit's integer update.
    column = [Fraction(1)] + [Fraction(0)] * m
    for x in (Fraction(c, 2) for c in coeffs[r : m + r]):
        for j in range(m, 0, -1):
            column[j] += x * column[j - 1]
    return tuple(column)


def test_routes_match_rational_update_on_huge_coefficients():
    rng = random.Random(2022)
    for _ in range(300):
        k = rng.randint(1, 9)
        coeffs = tuple(rng.randint(1, 10**30) for _ in range(k))
        r = rng.randint(0, k - 1)
        m = rng.randint(1, k - r)
        expected = rational_newton(coeffs, r, m)
        for route in ROUTES:
            row = route(coeffs, r, m)
            assert_reduced_fractions(row)
            assert row == expected


def test_recursion_depth_does_not_grow_with_the_row():
    # A row of 300 weights under a 120-frame limit: the recursion is
    # carried one row at a time, not down the call stack.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        row = bf_recursive((3,) * 300, 0, 300)[-1]
    finally:
        sys.setrecursionlimit(limit)
    assert row == bf_explicit((3,) * 300, 0, 300)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 15), min_size=1, max_size=8).map(tuple),
    st.integers(0, 2),
    st.data(),
)
def test_one_recursion_run_gives_every_row_up_to_m(coeffs, r, data):
    m = data.draw(st.integers(-1, len(coeffs) - r))
    rows = bf_recursive(coeffs, r, m)
    assert len(rows) == m + 1
    for j, row in enumerate(rows):
        assert row == bf_explicit(coeffs, r, j)
        assert_reduced_fractions(row)


@pytest.mark.parametrize(
    "a, r, m, error",
    [
        ((2, 3), 0, 3, IndexRangeError),
        ((2, 3), 2, 1, IndexRangeError),
        ((2,), 0, 40, IndexRangeError),
        ((2, 3), -1, 1, ValueError),
        ((2, 3), -1, -1, ValueError),
        ((2, 0), 0, 0, ValueError),
    ],
)
def test_recursive_rows_raise_as_the_row_does(a, r, m, error):
    with pytest.raises(error) as by_rows:
        bf_recursive(a, r, m)
    with pytest.raises(error) as by_row:
        bf_explicit(a, r, m)
    assert type(by_rows.value) is type(by_row.value)
    assert str(by_rows.value) == str(by_row.value)


@pytest.mark.parametrize(
    "a, message",
    [
        ((), "coefficient tuple must not be empty"),
        ([2, 0], "coefficients must be >= 1, got 0"),
        ((2, 1.5), "coefficients must be integers:"),
    ],
)
@pytest.mark.parametrize("route", [bf_explicit, bf_recursive])
def test_public_routes_validate_the_tuple_before_the_row(route, a, message):
    # The tuple is checked before the offset and the row: both are bad here.
    with pytest.raises(ValueError) as raised:
        route(a, -1, 5)
    assert str(raised.value).startswith(message)
    assert route([2, 3], 0, 1) == route((2, 3), 0, 1)


def fraction_recursion(a, r, m):
    # The defining recursion in exact rationals, a row at a time: the
    # reference for bf_recursive's rows carried in integers times 2^j.
    if m < 0:
        return ()
    row = (Fraction(1),)
    rows = [row]
    for x in a[r : m + r]:
        half = Fraction(x, 2)
        prev = (0, *row, 0)
        row = tuple(prev[ell + 1] + half * prev[ell] for ell in range(len(row) + 1))
        rows.append(row)
    return tuple(rows)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=8).map(tuple),
    st.integers(0, 2),
    st.data(),
)
def test_integer_routes_match_their_fraction_forms(coeffs, r, data):
    # m = -1 and m = 0 read no coefficient, so they are drawn at every
    # offset; one row past the last that fits raises.
    top = len(coeffs) - r
    m = data.draw(st.sampled_from((-1, 0)) | st.integers(-1, max(top, 0) + 1))
    if m > max(top, 0):
        with pytest.raises(IndexRangeError):
            bf_recursive(coeffs, r, m)
        with pytest.raises(IndexRangeError):
            _elementary(coeffs, r, m)
        return
    rows = bf_recursive(coeffs, r, m)
    assert rows == fraction_recursion(coeffs, r, m)
    for row in rows:
        assert_reduced_fractions(row)
    column = _elementary(coeffs, r, m)
    assert all(type(e) is int for e in column)
    weights = tuple(Fraction(e, 2**ell) for ell, e in enumerate(column))
    assert weights == bf_explicit(coeffs, r, m)
