import contextlib
import io
import itertools
import json
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    BoundReport,
    BudgetExceededError,
    NotApplicableError,
    NotCoprimeError,
    TooShortTupleError,
    bf_recursive,
    bfnum,
    bound_sequences,
    bounds,
    cli,
    core,
    denumerant,
    exact,
    extended_count,
    gcd_chain,
    inequality_a,
    inequality_b_lower,
    prefix_sum_count,
    relaxed_count_chain,
    sweep,
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


def test_sequences_longer_tuple():
    seqs = bound_sequences((4, 6, 9))
    assert seqs.upper_shifts == (Fraction(6), Fraction(12), Fraction(21))
    assert seqs.lower_shifts == (Fraction(-4), Fraction(2), Fraction(11))


def test_sequences_unit_lead():
    seqs = bound_sequences((1, 5, 3, 2))
    assert all(s == -1 for s in seqs.lower_shifts)
    assert seqs.upper_shifts[-1] == Fraction(5) + Fraction(3 + 2, 2)


def test_sequences_need_two_coefficients():
    with pytest.raises(TooShortTupleError):
        bound_sequences((5,))


@settings(max_examples=60, deadline=None)
@given(coprime_tuples)
def test_sequence_identities(coeffs):
    # The gcd-weighted sum w = sum(a_{i+1} d_i / d_{i+1}) ties the two shift
    # sequences together.
    seqs = bound_sequences(coeffs)
    d = gcd_chain(coeffs)
    weighted = sum(Fraction(d[i - 1], d[i]) * coeffs[i] for i in range(1, len(coeffs)))
    assert seqs.lower_shifts[-1] == weighted - sum(coeffs)
    assert (
        seqs.upper_shifts[-1]
        == weighted / 2 + Fraction(coeffs[0] * coeffs[1], 2 * d[1])
    )
    # The lower shift sequence never decreases and stays integral.
    for left, right in zip(seqs.lower_shifts, seqs.lower_shifts[1:]):
        assert left <= right
    assert all(s.denominator == 1 for s in seqs.lower_shifts)
    # The upper shift sequence strictly increases.
    for left, right in zip(seqs.upper_shifts, seqs.upper_shifts[1:]):
        assert left < right


def test_the_last_shifts_bracket_half_the_coefficient_sum():
    # For a coprime tuple, s-_k >= -1 and 2 s+_k >= sum(a): a_i >= d_i turns
    # s-_k = -a_1 + sum (d_{i-1}/d_i - 1) a_i into at least a_1 - d_k - a_1,
    # and 2 lcm(a_1, a_2) >= a_1 + a_2 gives the second, an equality exactly
    # when the tuple starts with (1, 1).  So the sandwich's n^(k-2)
    # coefficients bracket the quasi-polynomial's, whose T_1 is sum(a) / 2.
    rng = random.Random(2204_13689)
    drawn = equalities = 0
    while drawn < 20_000:
        a = tuple(rng.randint(1, 60) for _ in range(rng.randint(2, 7)))
        if math.gcd(*a) > 1:
            continue
        drawn += 1
        lower, twice_upper = bounds._shift_numerators(a)
        assert lower[-1] >= -1, a
        assert twice_upper[-1] >= sum(a), a
        assert (twice_upper[-1] == sum(a)) == (a[:2] == (1, 1)), a
        equalities += twice_upper[-1] == sum(a)
    assert equalities > 0


def test_inequality_a_spot():
    report = inequality_a((3, 5), 8)
    assert report.lower_a == Fraction(1, 15)
    assert report.upper_a == Fraction(23, 15)
    assert report.applicable_lower
    assert report.lower_a <= 1 <= report.upper_a


def test_inequality_a_below_threshold():
    # n = 0 sits below the lower shift of (2, 3), so only the upper
    # bound is claimed.
    report = inequality_a((2, 3), 0)
    assert not report.applicable_lower
    assert report.upper_a == 1
    assert 1 <= report.upper_a


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


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 10), min_size=1, max_size=4).map(tuple),
    st.integers(0, 80),
)
def test_relaxed_chain_encloses_count(coeffs, n):
    lower, middle, upper = relaxed_count_chain(coeffs, n)
    exact = extended_count(coeffs, n).value
    assert lower <= middle <= exact <= upper


def test_unit_lead_spots():
    # With a_1 = 1 the lower shift is -1, so both lower bounds hold at
    # every n >= 0; the sandwich's is (n + 1)^(k-1) / ((k-1)! prod a).
    exact = denumerant((1, 2), 4).value
    report = inequality_a((1, 2), 4)
    assert report.lower_a == Fraction(5, 2)
    assert inequality_b_lower((1, 2), 4) == Fraction(5, 2)
    assert report.upper_a == 3
    assert report.applicable_lower
    assert report.lower_a <= exact <= report.upper_a

    exact = denumerant((1, 1, 1), 0).value
    report = inequality_a((1, 1, 1), 0)
    assert report.lower_a == Fraction(1, 2)
    assert inequality_b_lower((1, 1, 1), 0) == 1
    assert report.upper_a == Fraction(9, 8)
    assert report.applicable_lower
    assert report.lower_a <= exact <= report.upper_a


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
    st.integers(0, 60),
)
def test_unit_lead_chain_holds_at_every_target(rest, n):
    # A unit-led tuple has lower shift -1, so the chain
    # lower_a <= lower_b <= exact <= upper_a holds from n = 0 on.
    coeffs = (1,) + rest
    exact = denumerant(coeffs, n).value
    report = inequality_a(coeffs, n)
    assert report.applicable_lower
    assert report.lower_a <= exact <= report.upper_a
    assert report.lower_a <= inequality_b_lower(coeffs, n) <= exact <= report.upper_a


def test_prefix_sum_count():
    assert prefix_sum_count((2, 3), 6) == 7
    assert prefix_sum_count((4, 6), 7) == 3


def test_prefix_sum_count_is_the_sum_of_exact_counts_on_drawn_tuples():
    # The row of a/d summed to floor(n/d) against one denumerant per target;
    # about half the draws have a gcd > 1, and many a target it does not divide.
    rng = random.Random(1806)
    kinds = set()
    for _ in range(300):
        d = rng.choice((1, 1, 2, 3, 6))
        a = tuple(d * rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
        n = rng.randint(0, 300)
        g = math.gcd(*a)
        kinds.add((g > 1, n % g != 0))
        assert prefix_sum_count(a, n) == sum(
            denumerant(a, m).value for m in range(n + 1)
        ), (a, n)
    assert kinds == {(False, False), (True, False), (True, True)}
    # The budget is that of the count at n, checked before any row is read.
    with pytest.raises(BudgetExceededError):
        prefix_sum_count((2, 4), 2 * exact.DENUMERANT_MAX_CELLS)


@pytest.mark.parametrize("n", [2.5, 8.0, True, -1])
@pytest.mark.parametrize(
    "bound",
    [
        inequality_a,
        inequality_b_lower,
        relaxed_count_chain,
        prefix_sum_count,
    ],
)
def test_bounds_reject_a_target_that_is_not_a_natural_int(bound, n):
    # (1, 2, 3) is coprime, so n is the only bad input.
    with pytest.raises(ValueError, match="n must be"):
        bound((1, 2, 3), n)


# ---------------------------------------------------------------------------
# The prepared evaluators against the definitions, written out here in
# Fraction: the shift recurrences of the bounds module docstring, and the
# weights from the defining recursion (bf_recursive).
# ---------------------------------------------------------------------------


def _shifts_by_definition(a):
    """(s+_k, s-_k) by their recurrences along d_i = gcd(a_1, ..., a_i)."""
    d = list(itertools.accumulate(a, math.gcd))
    upper = Fraction(a[0] * a[1], 2 * d[1])
    lower = Fraction(-a[0])
    for i in range(1, len(a)):
        upper += Fraction(d[i - 1], 2 * d[i]) * a[i]
        lower += (Fraction(d[i - 1], d[i]) - 1) * a[i]
    return upper, lower


def _sandwich_by_definition(a, n):
    """(lower_a, upper_a, lower_b) of a coprime tuple at n."""
    k, prod = len(a), math.prod(a)
    upper_shift, lower_shift = _shifts_by_definition(a)
    denom = math.factorial(k - 1) * prod
    base = n - lower_shift
    series = sum(
        weight * base ** (k - 1 - i) / math.factorial(k - 1 - i)
        for i, weight in enumerate(bf_recursive(a, 2, k - 2)[-1])
    )
    return base ** (k - 1) / denom, (n + upper_shift) ** (k - 1) / denom, series / prod


def _relaxed_by_definition(a, n):
    """(lower, refined, upper) of the relaxed-count chain at n."""
    k, prod, d = len(a), math.prod(a), math.gcd(*a)
    q = d * (n // d)
    base = Fraction(q + d)
    shift = a[0] + Fraction(sum(a[1:]), 2)
    refined = sum(
        weight * base ** (k - i) / math.factorial(k - i)
        for i, weight in enumerate(bf_recursive(a, 1, k - 1)[-1])
    )
    denom = math.factorial(k) * prod
    return base**k / denom, refined / prod, (q + shift) ** k / denom


def _seeded_tuples():
    rng = random.Random(2204_13689)
    for k in range(2, 9):
        for _ in range(3):
            yield _coprime(tuple(rng.randint(1, 40) for _ in range(k)))


_SANDWICH_TUPLES = [
    *_seeded_tuples(),
    *itertools.permutations((6, 10, 15)),
    (1, 5, 3, 2), (1, 1, 1), (1, 2), (1, 9, 4, 6, 8),
    (2, 3), (3, 5), (97, 89), (4, 9),
    _coprime((10**30 + 7, 10**30 - 1, 3 * 10**29, 10**30)),
    (10**30 - 3, 10**30 + 1),
]


@pytest.mark.parametrize("coeffs", _SANDWICH_TUPLES, ids=str)
def test_the_prepared_sandwich_matches_the_definitions(coeffs):
    sandwich = bounds._Sandwich.of(coeffs)
    lower_shift = _shifts_by_definition(coeffs)[1]
    assert sandwich.lower_shift == lower_shift
    targets = {0, 1, 57, 1000, 10**12, int(lower_shift), int(lower_shift) - 1}
    for n in sorted(t for t in targets if t >= 0):
        lower_a, upper_a, lower_b = _sandwich_by_definition(coeffs, n)
        assert sandwich.at(n) == BoundReport(lower_a, upper_a, n >= lower_shift), n
        if n < lower_shift:
            with pytest.raises(NotApplicableError):
                sandwich.series_lower(n)
            continue
        assert sandwich.series_lower(n) == lower_b, n
        if len(coeffs) == 2:
            assert lower_b == lower_a


def test_the_prepared_sandwich_divides_out_the_gcd():
    # (12, 18, 30) at 6m is bounded as (2, 3, 5) at m.
    sandwich = bounds._Sandwich.of((12, 18, 30))
    assert sandwich.lower_shift == _shifts_by_definition((2, 3, 5))[1] == 1
    assert sandwich.gcd == 6
    for m in (0, 1, 2, 50):
        lower_a, upper_a, lower_b = _sandwich_by_definition((2, 3, 5), m)
        assert sandwich.at(6 * m) == BoundReport(lower_a, upper_a, m >= 1)
        if m >= 1:
            assert sandwich.series_lower(6 * m) == lower_b


@pytest.mark.parametrize(
    "coeffs",
    [(1,), (7,), (2, 3), (4, 6), (6, 10, 15), (12, 20, 30), (3, 9, 6, 12),
     (1, 1, 1, 1), (10**30, 2 * 10**30 + 2), *list(_seeded_tuples())[::4]],
    ids=str,
)
def test_the_prepared_relaxed_chain_matches_the_definitions(coeffs):
    chain = bounds._Sandwich.relaxed(coeffs)
    d = math.gcd(*coeffs)
    # Targets d does not divide come first among the small ones.
    for n in (0, 1, d - 1, d, d + 1, 2 * d + 1, 77, 10**6 + 1, 10**40 + 3):
        values = tuple(map(Fraction, _at(chain, n), chain.denominators))
        assert values == _relaxed_by_definition(coeffs, n), n


def test_the_sandwich_reads_a_target_at_its_floor_by_the_gcd():
    # On tuples with a gcd d > 1, the sandwich of a is that of a/d read at
    # n // d: at every n that d divides for the count's, and at every n for
    # the relaxed chain's.
    rng = random.Random(2022_1019)
    uneven = 0
    for _ in range(200):
        scale = rng.choice((2, 3, 4, 6, 10))
        a = tuple(scale * rng.randint(1, 25) for _ in range(rng.randint(1, 5)))
        d, reduced = math.gcd(*a), _coprime(a)
        ns = (0, d - 1, d, d * rng.randint(1, 500) + rng.randint(0, d - 1), 10**30 + 1)
        if len(a) >= 2:
            sandwich, of_reduced = bounds._Sandwich.of(a), bounds._Sandwich.of(reduced)
            assert sandwich.gcd == d and of_reduced.gcd == 1, a
            for n in (d * (n // d) for n in ns):
                assert _at(sandwich, n) == _at(of_reduced, n // d), (a, n)
        chain, of_reduced = bounds._Sandwich.relaxed(a), bounds._Sandwich.relaxed(reduced)
        for n in ns:
            uneven += n % d != 0
            values = _at(chain, n)
            assert values == _at(of_reduced, n // d), (a, n)
            assert tuple(map(Fraction, values, chain.denominators)) == relaxed_count_chain(
                a, n
            ), (a, n)
    assert uneven > 300


def test_the_relaxed_chain_is_the_slack_tuples_sandwich():
    # With d = gcd(a), the relaxed count at n is the count of (1,) + a/d at
    # floor(n/d), and the chain is that tuple's sandwich there, whose s+ is
    # r_k of a/d.
    rng = random.Random(20221)
    uneven = 0
    for _ in range(300):
        k, d = rng.randint(1, 6), rng.choice((1, 2, 3, 5))
        a = tuple(d * rng.randint(1, 30 // d) for _ in range(k))
        d = math.gcd(*a)
        slack = (1,) + tuple(c // d for c in a)
        shift = _fraction_relaxed_shift_sequence(slack[1:])[-1]
        n = rng.randint(0, 5000)
        for target in (n, n - n % d + d - 1):
            uneven += target % d != 0
            m = target // d
            lower, refined, upper = relaxed_count_chain(a, target)
            assert lower == inequality_a(slack, m).lower_a, (a, target)
            assert refined == inequality_b_lower(slack, m), (a, target)
            assert upper == (m + shift) ** k / (math.factorial(k) * math.prod(slack))
            assert upper == inequality_a(slack, m).upper_a, (a, target)
    assert uneven > 100


def _at(sandwich, n):
    """The sandwich's numerators at the one target n, from its span of one."""
    return tuple(map(next, sandwich.numerators(n, n)))


def _contains(sandwich, count, values):
    """The sandwich's count test of one count against the values at its target."""
    (ok,) = sandwich.contains([count], tuple([value] for value in values))
    return ok


def _edge_counts(*limits):
    """The integers at or one off each of the limits: floor - 1 to ceil + 1."""
    return sorted({c for x in limits for c in range(math.floor(x) - 1, math.ceil(x) + 2)})


def test_the_sandwichs_count_test_agrees_with_the_fraction_chain():
    # count <= upper_a, and lower_a <= lower_b <= count where lower_b is
    # claimed, decided in integers by the sandwich against Fractions: at
    # counts on and one off each bound, at targets on both sides of s-_k
    # and for the relaxed chain at n.  A series numerator one below
    # lower_a's, which no true sandwich has, fails the middle comparison.
    rng = random.Random(2022_0913)
    below = above = 0
    for _ in range(150):
        k, d = rng.randint(2, 5), rng.choice((1, 1, 2, 3))
        a = tuple(d * rng.randint(1, 30) for _ in range(k))
        reduced = _coprime(a)
        sandwich = bounds._Sandwich.of(a)
        s = sandwich.lower_shift
        shift = sandwich.power - 1
        for m in {s - 2, s - 1, s, s + 1, s + rng.randint(2, 400)}:
            if m < 0:
                continue
            values = _at(sandwich, sandwich.gcd * m)
            lower_a, upper_a, lower_b = _sandwich_by_definition(reduced, m)
            claimed = m >= s
            below += not claimed
            above += claimed
            limits = (lower_a, upper_a, lower_b) if claimed else (lower_a, upper_a)
            for count in _edge_counts(*limits):
                expected = count <= upper_a and (not claimed or lower_a <= lower_b <= count)
                assert _contains(sandwich, count, values) == expected, (a, m, count)
                if claimed:
                    lower, _, upper = values
                    wrong = (lower, (lower << shift) - 1, upper)
                    assert not _contains(sandwich, count, wrong), (a, m, count)
        chain = bounds._Sandwich.relaxed(a)
        n = rng.randint(0, 3000)
        values = _at(chain, n)
        lower, middle, upper = _relaxed_by_definition(a, n)
        for count in _edge_counts(lower, middle, upper):
            expected = lower <= middle <= count <= upper
            assert _contains(chain, count, values) == expected, (a, n, count)
    assert below > 100 and above > 300


def _slow_ok_columns(limits):
    """Count columns, each with the answers ``contains`` must give for it,
    from the Fraction limits of each entry of a span: (lower_a, lower_b or
    None, upper_a) of the count's sandwich, (lower, middle, upper) of the
    relaxed chain's.  Together the columns give every entry the integers
    on, one off and between its limits."""
    candidates = [_edge_counts(*(x for x in entry if x is not None)) for entry in limits]
    for j in range(max(map(len, candidates))):
        counts = [c[min(j, len(c) - 1)] for c in candidates]
        yield counts, [
            count <= upper and (middle is None or lower <= middle <= count)
            for count, (lower, middle, upper) in zip(counts, limits)
        ]


def _json_rows(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.integers(1, 12), min_size=1, max_size=5).map(tuple),
    lo=st.integers(0, 90),
    width=st.integers(1, 40),
)
def test_the_ok_column_is_the_fraction_chain(a, lo, width):
    # The slow route for the ok column of bounds and dhat: each target's
    # bounds as Fractions from inequality_a, inequality_b_lower and
    # relaxed_count_chain, compared in Fractions.  The sandwich's column
    # test must agree on counts around every bound of a drawn span, and the
    # CLI's ok on the counts it prints.
    hi = lo + width - 1
    chain = bounds._Sandwich.relaxed(a)
    # The relaxed chain's entries are those of m = n // d.
    ms = range(lo // chain.gcd, hi // chain.gcd + 1)
    limits = [relaxed_count_chain(a, chain.gcd * m) for m in ms]
    values = [*map(list, chain.numerators(lo, hi))]
    for counts, expected in _slow_ok_columns(limits):
        assert chain.contains(counts, values) == expected, (a, lo, hi, counts)
    text = ",".join(map(str, a))
    for row in _json_rows("dhat", "--coeffs", text, "--n-range", f"{lo}:{hi}", "--format", "json"):
        lower, middle, upper = relaxed_count_chain(a, row["n"])
        assert row["ok"] == (lower <= middle <= row["exact"] <= upper), (a, row)
    a = _coprime(a)
    if len(a) < 2:
        return
    sandwich = bounds._Sandwich.of(a)
    limits = []
    for n in range(lo, hi + 1):
        report = inequality_a(a, n)
        lower_b = inequality_b_lower(a, n) if report.applicable_lower else None
        limits.append((report.lower_a, lower_b, report.upper_a))
    values = [*map(list, sandwich.numerators(lo, hi))]
    for counts, expected in _slow_ok_columns(limits):
        assert sandwich.contains(counts, values) == expected, (a, lo, hi, counts)
    text = ",".join(map(str, a))
    rows = _json_rows("bounds", "--coeffs", text, "--n-range", f"{lo}:{hi}", "--format", "json")
    for row, (lower_a, lower_b, upper_a) in zip(rows, limits):
        exact = row["exact"]
        expected = exact <= upper_a and (lower_b is None or lower_a <= lower_b <= exact)
        assert row["ok"] == expected, (a, row)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_bounds_range_prepares_once(monkeypatch, capsys):
    # From an empty memo, so that once means exactly one preparation.
    bounds._sandwiches.cache_clear()
    sequences = _count_calls(monkeypatch, bounds, "_shift_numerators")
    weights = _count_calls(monkeypatch, bounds, "_elementary")
    argv = ["bounds", "--coeffs", "3,5,7", "--n-range", "100:149", "--format", "json"]
    assert cli.main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 50 and all(row["applicable"] for row in rows)
    assert len(sequences) == 1
    assert len(weights) == 1


def test_a_dhat_range_prepares_once(monkeypatch, capsys):
    bounds._sandwiches.cache_clear()
    sequences = _count_calls(monkeypatch, bounds, "_shift_numerators")
    weights = _count_calls(monkeypatch, bounds, "_elementary")
    argv = ["dhat", "--coeffs", "3,5,7", "--n-range", "100:149", "--format", "json"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 50
    # The slack tuple's upper shift is r_k, so its s+ is never built.
    assert sequences == []
    assert len(weights) == 1


def test_the_asymptotic_check_prepares_once_per_instance(monkeypatch):
    # The sandwich reads its shifts from the integer helper, not from the
    # Fraction sequences.
    bounds._sandwiches.cache_clear()
    shifts = _count_calls(monkeypatch, bounds, "_shift_numerators")
    sequences = _count_calls(monkeypatch, bounds, "bound_sequences")
    assert sweep._check_asymptotic({"coeffs": (3, 5, 7)}) is None
    assert len(shifts) == 1
    assert sequences == []


def test_a_repeated_preparation_is_one_hit_on_the_same_object():
    bounds._sandwiches.cache_clear()
    sandwich, chain = bounds._Sandwich.of((3, 5, 7)), bounds._Sandwich.relaxed((3, 5, 7))
    assert sandwich is not chain
    assert bounds._sandwiches.cache_info() == (0, 2, None, 2)
    assert bounds._Sandwich.of((3, 5, 7)) is sandwich
    assert bounds._Sandwich.relaxed((3, 5, 7)) is chain
    assert bounds._sandwiches.cache_info() == (2, 2, None, 2)
    # The public functions read the same entries.
    inequality_a((3, 5, 7), 100)
    inequality_b_lower((3, 5, 7), 100)
    relaxed_count_chain((3, 5, 7), 100)
    assert bounds._sandwiches.cache_info() == (5, 2, None, 2)


def test_the_memo_keys_a_tuple_in_its_order_and_not_its_type():
    bounds._sandwiches.cache_clear()
    forward, backward = bounds._Sandwich.of((3, 5, 7)), bounds._Sandwich.of((7, 5, 3))
    assert forward is not backward
    assert (forward.lower_shift, forward._twice_upper_shift) == (7, 37)
    assert (backward.lower_shift, backward._twice_upper_shift) == (23, 73)
    assert bounds._Sandwich.of([3, 5, 7]) is forward
    assert bounds._Sandwich.relaxed([7, 5, 3]) is bounds._Sandwich.relaxed((7, 5, 3))
    assert bounds._sandwiches.cache_info() == (2, 3, None, 3)


def test_a_refused_tuple_is_refused_on_every_call_and_never_held():
    bounds._sandwiches.cache_clear()
    for _ in range(2):
        with pytest.raises(TooShortTupleError):
            bounds._Sandwich.of((5,))
        with pytest.raises(TooShortTupleError):
            inequality_a((5,), 10)
        with pytest.raises(NotCoprimeError):
            inequality_a((4, 6), 10)
        with pytest.raises(NotCoprimeError):
            inequality_b_lower([6, 10, 14], 10)
    assert bounds._sandwiches.cache_info() == (0, 0, None, 0)
    assert bounds._sandwiches.words == 0


def test_a_coprime_sandwich_validates_its_tuple_once():
    # A memo hit reads the tuple once, as _Sandwich.of does on its own.
    validate = core.as_coeffs.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is validate:
            calls.append(frame)

    for a in ((3, 5, 7), [4, 7, 9, 11]):
        inequality_a(a, 50)
        for route in (
            lambda: bounds._coprime_sandwich(a),
            lambda: inequality_a(a, 50),
            lambda: bounds._Sandwich.of(a),
        ):
            calls.clear()
            sys.setprofile(profile)
            try:
                route()
            finally:
                sys.setprofile(None)
            assert len(calls) == 1, a


def _memo_words():
    # The words of every sandwich the memo holds, summed afresh.
    return sum(sandwich.words for sandwich in bounds._sandwiches._entries.values())


def test_the_memo_evicts_down_to_its_word_budget(monkeypatch):
    # Each pair's sandwich holds eight one-word integers, so a budget of 40
    # words holds five of them.
    monkeypatch.setattr(bounds, "SANDWICH_CACHE_MAX_WORDS", 40)
    bounds._sandwiches.cache_clear()
    pairs = [(2, 2 * i + 3) for i in range(7)]
    for a in pairs:
        assert bounds._Sandwich.of(a).words == 8
    assert list(bounds._sandwiches._entries) == [("of", a) for a in pairs[2:]]
    assert bounds._sandwiches.words == _memo_words() == 40
    # A hit makes a tuple the most recent, so the next store evicts another.
    bounds._Sandwich.of(pairs[2])
    bounds._Sandwich.of((3, 4))
    assert [key for _, key in bounds._sandwiches._entries] == [*pairs[4:], pairs[2], (3, 4)]
    # A sandwich over the budget on its own is kept, alone, until the next
    # store evicts it in turn.
    big = bounds._Sandwich.of(tuple(range(2, 30)))
    assert big.words > 40
    assert list(bounds._sandwiches._entries.values()) == [big]
    assert bounds._sandwiches.words == _memo_words() == big.words
    assert bounds._Sandwich.of(tuple(range(2, 30))) is big
    small = bounds._Sandwich.of((2, 3))
    assert list(bounds._sandwiches._entries.values()) == [small]
    assert bounds._sandwiches.words == _memo_words() == 8


def test_a_stream_of_tuples_holds_at_most_the_budget_and_the_newest(monkeypatch):
    budget = 1 << 9
    monkeypatch.setattr(bounds, "SANDWICH_CACHE_MAX_WORDS", budget)
    bounds._sandwiches.cache_clear()
    rng = random.Random(20221)
    crowded = lone = 0
    for _ in range(200):
        a = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 90)))
        newest = bounds._Sandwich.relaxed(a)
        assert bounds._sandwiches.words == _memo_words()
        assert bounds._sandwiches.words <= max(budget, newest.words)
        if bounds._sandwiches.words > budget:
            assert list(bounds._sandwiches._entries.values()) == [newest]
            lone += 1
        else:
            crowded += bounds._sandwiches.cache_info().currsize > 1
        assert next(reversed(bounds._sandwiches._entries.values())) is newest
    assert lone and crowded


def test_cache_clear_empties_the_memo():
    bounds._sandwiches.cache_clear()
    first = bounds._Sandwich.of((3, 5))
    bounds._Sandwich.relaxed((3, 5))
    assert bounds._sandwiches.words == _memo_words() > 0
    bounds._sandwiches.cache_clear()
    assert bounds._sandwiches.cache_info() == (0, 0, None, 0)
    assert bounds._sandwiches.words == 0
    again = bounds._Sandwich.of((3, 5))
    assert again is not first and again == first


def test_a_prepared_sandwich_is_frozen_and_reads_the_same_every_time():
    bounds._sandwiches.cache_clear()
    sandwich = bounds._Sandwich.of((4, 7, 9, 11))
    with pytest.raises(AttributeError):
        sandwich.gcd = 2
    with pytest.raises(AttributeError):
        sandwich.series = ()
    assert isinstance(sandwich.series, tuple) and isinstance(sandwich.denominators, tuple)
    first = [*map(list, sandwich.numerators(0, 300))]
    # Its repeat iterators yield for ever, so no read uses them up.
    for n in range(0, 300, 7):
        sandwich.numerators(n, n + 50)
        sandwich.at(n)
    assert [*map(list, sandwich.numerators(0, 300))] == first
    assert [*map(list, bounds._Sandwich.of((4, 7, 9, 11)).numerators(0, 300))] == first


def test_threads_that_prepare_one_tuple_get_equal_sandwiches(monkeypatch):
    # Six threads prepare the same tuples at once, each then reading its
    # sandwiches' columns, while a memo of about two tuples' words makes
    # them evict each other.
    tuples = [(3, 5, 7), (7, 5, 3), (4, 9, 11, 13), (2, 3)]
    expected = {a: bounds._Sandwich._prepare(a, 1, *_last_shifts(a)) for a in tuples}
    columns = {a: [*map(list, s.numerators(0, 200))] for a, s in expected.items()}
    results = [[] for _ in range(6)]

    def work(index):
        for round in range(40):
            for a in tuples[index % 4 :] + tuples[: index % 4]:
                sandwich = bounds._Sandwich.of(a)
                results[index].append((a, sandwich, [*map(list, sandwich.numerators(0, 200))]))

    monkeypatch.setattr(bounds, "SANDWICH_CACHE_MAX_WORDS", 20)
    bounds._sandwiches.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index in range(6):
        assert len(results[index]) == 40 * len(tuples)
        for a, sandwich, read in results[index]:
            assert sandwich == expected[a] and read == columns[a], a
    info = bounds._sandwiches.cache_info()
    assert info.hits + info.misses == 6 * 40 * len(tuples)
    assert bounds._sandwiches.words == _memo_words()


def _last_shifts(a):
    lower, twice_upper = bounds._shift_numerators(a)
    return lower[-1], twice_upper[-1]


# The integer preparation against the Fraction bodies it replaced, copied
# here as references.
# ---------------------------------------------------------------------------


def _fraction_bound_sequences(coeffs):
    d = gcd_chain(coeffs)
    upper = [Fraction(coeffs[0] * coeffs[1], 2 * d[1])]
    lower = [Fraction(-coeffs[0])]
    for i in range(1, len(coeffs)):
        step = Fraction(d[i - 1], d[i])
        upper.append(upper[-1] + step / 2 * coeffs[i])
        lower.append(lower[-1] + (step - 1) * coeffs[i])
    return tuple(upper), tuple(lower)


def _fraction_relaxed_shift_sequence(coeffs):
    shifts = [Fraction(coeffs[0])]
    for value in coeffs[1:]:
        shifts.append(shifts[-1] + Fraction(value, 2))
    return tuple(shifts)


def _fraction_series_numerators(a, m):
    top = math.factorial(m + 1)
    return tuple(
        int(weight * (top // math.factorial(m + 1 - i) << m))
        for i, weight in enumerate(bfnum.bf_explicit(a, 2, m))
    )


def _chained_tuple(rng):
    """A tuple of length 1-8 with entries <= 60 whose gcd chain tends to
    drop several times: each entry is a multiple of a divisor of the gcd
    so far."""
    g, a = rng.choice((1, 12, 24, 30, 36, 60)), []
    for _ in range(rng.randint(1, 8)):
        g = rng.choice([f for f in range(1, g + 1) if g % f == 0])
        a.append(g * rng.randint(1, 60 // g))
    return tuple(a)


def test_the_integer_preparation_matches_the_fraction_one():
    rng = random.Random(2204_13689)
    drops = multiples = 0
    for _ in range(2500):
        a = _chained_tuple(rng)
        d = math.gcd(*a)
        reduced = tuple(c // d for c in a)
        twice_relaxed = 2 * _fraction_relaxed_shift_sequence(reduced)[-1]
        slack = bounds._Sandwich.relaxed(a)
        assert slack._twice_upper_shift == twice_relaxed, a
        if len(a) < 2:
            continue
        drops += len(set(gcd_chain(a))) > 2
        multiples += d > 1
        upper, lower = _fraction_bound_sequences(a)
        seqs = bound_sequences(a)
        assert (seqs.upper_shifts, seqs.lower_shifts) == (upper, lower), a
        assert all(type(s) is Fraction for s in seqs.upper_shifts + seqs.lower_shifts)
        m = len(a) - 2
        assert bounds._series_numerators(a, m) == _fraction_series_numerators(a, m), a
        sandwich = bounds._Sandwich.of(a)
        upper, lower = _fraction_bound_sequences(reduced)
        assert sandwich.lower_shift == lower[-1], a
        assert sandwich._twice_upper_shift == 2 * upper[-1], a
        # The public sequences of a/d end at the sandwich's shifts.
        seqs = bound_sequences(reduced)
        assert sandwich.lower_shift == seqs.lower_shifts[-1], a
        assert sandwich._twice_upper_shift == 2 * seqs.upper_shifts[-1], a
    # Most draws have a gcd chain that drops more than once, and some a
    # gcd above 1.
    assert drops > 1000
    assert multiples > 100
