import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    DomainError,
    PowerSumQuery,
    check_sum_bounds,
    power_sum,
    refined_upper_bound,
)
from denumerant import powersum


def test_power_sum_spots():
    assert power_sum(PowerSumQuery(3, 0, 2)) == 14
    assert power_sum(PowerSumQuery(Fraction(1, 2), Fraction(1, 2), 2)) == 1
    assert power_sum(PowerSumQuery(Fraction(7, 3), Fraction(1, 2), 3)) == Fraction(2123, 72)
    # -c <= x < 1 leaves a single term.
    assert power_sum(PowerSumQuery(Fraction(-1, 4), Fraction(1, 4), 5)) == 0
    assert power_sum(PowerSumQuery(Fraction(3, 4), Fraction(1, 4), 1)) == 1
    # [x] truncates toward zero: at x = -1/8 it is 0, so the one term
    # (1/8)^2 is summed, where a floor would give -1 and an empty sum.
    assert power_sum(PowerSumQuery(Fraction(-1, 8), Fraction(1, 4), 2)) == Fraction(1, 64)


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(0, Fraction(1, 2), max_denominator=64),
    st.fractions(0, 1, max_denominator=64),
    st.integers(1, 6),
)
def test_power_sum_below_one_is_a_single_term(c, t, k):
    # Any -c <= x < 1 truncates to [x] = 0, negative x included.
    x = -c + t * (1 + c)
    if x >= 1:
        return
    assert power_sum(PowerSumQuery(x, c, k)) == (x + c) ** k


def test_bounds_spot():
    q = PowerSumQuery(3, 0, 2)
    assert check_sum_bounds(q) == (True, True, True)
    base = Fraction(3)
    assert base**3 / 3 == 9
    assert base**3 / 3 + base**2 / 2 == Fraction(27, 2)
    assert (base + Fraction(1, 2)) ** 3 / 3 == Fraction(343, 24)
    assert refined_upper_bound(q) == Fraction(57, 4)
    assert power_sum(q) <= refined_upper_bound(q)


def test_boundary_point_is_tight():
    # At x = -c the sum collapses to 0^k and every bound touches it.
    for k in (2, 3, 7):
        for c in (Fraction(0), Fraction(1, 8), Fraction(1, 2)):
            q = PowerSumQuery(-c, c, k)
            assert power_sum(q) == 0
            assert check_sum_bounds(q) == (True, True, True)


def test_domain_errors():
    with pytest.raises(DomainError):
        PowerSumQuery(1, Fraction(3, 4), 2)
    with pytest.raises(DomainError):
        PowerSumQuery(-1, Fraction(1, 2), 2)
    with pytest.raises(DomainError):
        PowerSumQuery(1, 0, 0)
    with pytest.raises(DomainError):
        check_sum_bounds(PowerSumQuery(1, 0, 1))
    with pytest.raises(DomainError):
        refined_upper_bound(PowerSumQuery(1, 0, 1))


def test_step_identity_spot():
    c = Fraction(1, 4)
    k = 4
    for n in range(0, 12):
        step = power_sum(PowerSumQuery(n + 1, c, k)) - power_sum(PowerSumQuery(n, c, k))
        assert step == (n + 1 + c) ** k


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 8),
    st.integers(0, 64),
)
def test_enclosure_holds_on_random_points(k, c16, j):
    c = Fraction(min(c16, 8), 16)
    x = -c + Fraction(j, 8)
    q = PowerSumQuery(x, c, k)
    assert check_sum_bounds(q) == (True, True, True)
    assert power_sum(q) <= refined_upper_bound(q)


# ---------------------------------------------------------------------------
# The integer kernels against the plain rational formulas, term by term.
# ---------------------------------------------------------------------------


def reference_power_sum(x, c, k):
    base = x + c
    return sum(
        ((base - step) ** k for step in range(math.trunc(x) + 1)), Fraction(0)
    )


def reference_bounds(x, c, k):
    base = x + c
    crude = base ** (k + 1) / (k + 1)
    refined = crude + base**k / 2
    upper = (base + Fraction(1, 2)) ** (k + 1) / (k + 1)
    cap = refined + Fraction(k, 8) * base ** (k - 1)
    return crude, refined, upper, cap


def seeded_points(seed, count):
    # Denominators 1..97 for both x and c; about a third of the points lie
    # in -c <= x < 1, where the sum has a single term.
    rng = random.Random(seed)
    for _ in range(count):
        c_den = rng.randint(1, 97)
        c = Fraction(rng.randint(0, c_den // 2), c_den)
        x_den = rng.randint(1, 97)
        lo = math.ceil(-c * x_den)
        hi = x_den - 1 if rng.random() < 1 / 3 else 30 * x_den
        yield Fraction(rng.randint(lo, hi), x_den), c, rng.randint(1, 9)


def test_power_sum_matches_term_by_term_reference():
    short = 0
    for x, c, k in seeded_points(2204, 600):
        if x < 1:
            short += 1
        assert power_sum(PowerSumQuery(x, c, k)) == reference_power_sum(x, c, k)
    assert short > 100


def test_bounds_match_rational_reference():
    for x, c, k in seeded_points(13689, 600):
        if k < 2:
            continue
        q = PowerSumQuery(x, c, k)
        crude, refined, upper, cap = reference_bounds(x, c, k)
        value = reference_power_sum(x, c, k)
        assert check_sum_bounds(q) == (
            crude <= refined, refined <= value, value <= upper
        )
        assert refined_upper_bound(q) == cap


@pytest.mark.parametrize("k", [2, 3, 5, 9])
@pytest.mark.parametrize(
    "x, c",
    [
        (Fraction(0), Fraction(0)),
        (Fraction(-1, 3), Fraction(1, 3)),
        (Fraction(5, 7), Fraction(1, 2)),
        (Fraction(31, 4), Fraction(3, 8)),
        (Fraction(200, 97), Fraction(13, 89)),
    ],
)
def test_enclosure_reports_a_value_outside_it(monkeypatch, x, c, k):
    # The enclosure holds on the whole domain, so only a patched f_k can
    # show that the integer comparisons are able to answer False.
    _, refined, upper, _ = reference_bounds(x, c, k)
    eps = Fraction(1, 10**60)
    q = PowerSumQuery(x, c, k)
    monkeypatch.setattr(powersum, "power_sum", lambda _q: upper + eps)
    assert check_sum_bounds(q) == (True, True, False)
    monkeypatch.setattr(powersum, "power_sum", lambda _q: upper)
    assert check_sum_bounds(q) == (True, True, True)
    monkeypatch.setattr(powersum, "power_sum", lambda _q: refined - eps)
    assert check_sum_bounds(q) == (True, False, True)
    monkeypatch.setattr(powersum, "power_sum", lambda _q: refined)
    assert check_sum_bounds(q) == (True, True, True)


# ---------------------------------------------------------------------------
# The integer kernel on the verify grid, against the Fraction definitions.
# ---------------------------------------------------------------------------


def reference_scaled_refined(x, c, k):
    # The former _scaled_refined: x + c = p/d in lowest terms, scaled by
    # L = 2^(k+1) (k+1) d^(k+1).
    base = x + c
    p, d = base.numerator, base.denominator
    scale = ((k + 1) << (k + 1)) * d ** (k + 1)
    crude = (2 * p) ** (k + 1)
    refined = crude + ((k + 1) << k) * d * p**k
    return scale, crude, refined


def verify_grid_points():
    # (x, c, k) and the kernel's integer arguments (p, d, steps), exactly as
    # the powersum suite walks them: the grid with x + c = j/16, then both
    # ends of each step identity with x + c = (8n + s)/8.
    for k in range(2, 9):
        for s in range(5):
            c = Fraction(s, 8)
            for j in range(321):
                yield Fraction(j, 16) - c, c, k, (j, 16, max(j - 2 * s, 0) // 16 + 1)
            for n in range(22):
                yield Fraction(n), c, k, (8 * n + s, 8, n + 1)


def test_kernel_matches_the_fraction_definitions_on_the_verify_grid():
    points = 0
    for x, c, k, (p, d, steps) in verify_grid_points():
        points += 1
        assert steps == math.trunc(x) + 1 and Fraction(p, d) == x + c
        scale, total, crude, refined, upper, cap = powersum._enclosure(p, d, k, steps)
        base = x + c
        ref_scale, ref_crude, ref_refined = reference_scaled_refined(x, c, k)
        assert Fraction(total, scale) == reference_power_sum(x, c, k)
        assert Fraction(crude, scale) == Fraction(ref_crude, ref_scale)
        assert Fraction(refined, scale) == Fraction(ref_refined, ref_scale)
        assert Fraction(upper, scale) == (base + Fraction(1, 2)) ** (k + 1) / (k + 1)
        assert Fraction(cap, scale) == (
            base ** (k + 1) / (k + 1) + base**k / 2 + Fraction(k, 8) * base ** (k - 1)
        )
    assert points == 7 * 5 * (321 + 22)

