import math
import random
import sys
import threading
import time
import tracemalloc
from itertools import accumulate
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denumerant import (
    BudgetExceededError,
    InvariantViolationError,
    NotCoprimeError,
    SweepConfig,
    denumerant,
    extended_count,
    oracle_count,
    popoviciu,
    prefix_sum_count,
    run_verify,
)
from denumerant import cli, exact
from denumerant.exact import _prefix_counts


def brute(coeffs, n):
    return oracle_count(coeffs, n).value


def reference_row(coeffs, cap):
    # D(0), ..., D(cap) by the plain recurrence, one coefficient at a time.
    row = [1] + [0] * cap
    for c in coeffs:
        for m in range(c, cap + 1):
            row[m] += row[m - c]
    return row


def certify(coeffs, row):
    # The row's series F is right exactly when Q F = 1 mod x^(cap + 1), with
    # Q = prod(1 - x^c): differencing the row back through every coefficient,
    # D_{j-1}(m) = D_j(m) - D_j(m - c), must leave 1 followed by zeros.  It
    # checks every cell, whatever the segments, carries, planes or sizes.
    cells = row.counts(row.cap)
    for c in coeffs:
        cells[c:] = map(sub, cells[c:], cells[:-c])
    assert cells == [1] + [0] * row.cap, (
        coeffs,
        row.cap,
        next(m for m, v in enumerate(cells) if v != (1 if m == 0 else 0)),
    )


def built_in_two_steps(coeffs, n):
    # The row for n // 3, and a copy of it extended to n.
    _prefix_counts.cache_clear()
    short = _prefix_counts(coeffs, n // 3)
    row = _prefix_counts(coeffs, n)
    assert _prefix_counts.cache_info()[:2] == (0, 2)
    return short, row


def test_oracle_spots():
    assert brute((3, 5), 8) == 1
    assert brute((2, 3, 5), 10) == 4
    assert brute((1, 1), 7) == 8
    assert brute((4, 6), 7) == 0
    assert brute((5,), 10) == 1
    assert brute((5,), 11) == 0
    assert oracle_count((3, 5), 8).method == "oracle"


def test_oracle_budget(monkeypatch):
    monkeypatch.setattr(exact, "ORACLE_MAX_NODES", 100)
    with pytest.raises(BudgetExceededError):
        oracle_count((1, 1, 1, 1), 500)


def test_oracle_budget_is_read_at_each_call(monkeypatch):
    monkeypatch.setattr(exact, "ORACLE_MAX_NODES", 50)
    with pytest.raises(BudgetExceededError):
        oracle_count((1, 1, 1), 300)
    monkeypatch.setattr(exact, "ORACLE_MAX_NODES", 100000)
    assert oracle_count((1, 1, 1), 300).value > 0


def test_the_oracle_enumerates_a_tuple_of_any_length():
    # One iterator a level, not one call, so a tuple longer than the
    # interpreter's recursion limit is counted as a short one is.
    assert oracle_count((1,) * 1500, 0).value == 1
    assert oracle_count((2,) * 1500, 1).value == 0


def one_take_at_a_time(coeffs, n, cap=math.inf):
    # The oracle as one call per take: (count, nodes, takes of h), a node per
    # take of every variable before the smallest, which is tested for
    # divisibility; h is the variable before it.  A variable's takes count
    # as nodes when it is entered, as the oracle counts them, and past cap
    # the call raises with the nodes counted so far.
    order = sorted(coeffs, reverse=True)
    heads, last = order[:-1], order[-1]
    nodes = takes_of_h = 0

    def count_from(depth, residual):
        nonlocal nodes, takes_of_h
        if depth == len(heads):
            return 1 if residual % last == 0 else 0
        takes = residual // heads[depth] + 1
        nodes += takes
        if depth == len(heads) - 1:
            takes_of_h += takes
        if nodes > cap:
            raise BudgetExceededError(nodes)
        return sum(
            count_from(depth + 1, residual - heads[depth] * take) for take in range(takes)
        )

    return count_from(0, n), nodes, takes_of_h


def test_oracle_matches_one_take_at_a_time_in_value_and_nodes():
    # k 1-6 with ones and twos, n <= 300, at most about 2e5 takes a draw.
    rng = random.Random(20221)
    draws = [((1,), 7), ((1, 1), 0), ((1, 1, 1, 1, 1, 1), 12), ((2, 3, 5), 300)]
    while len(draws) < 80:
        k = rng.randint(1, 6)
        coeffs = tuple(
            rng.choice((1, 2)) if rng.random() < 0.15 else rng.randint(3, 40)
            for _ in range(k)
        )
        n = rng.randint(0, 300)
        if math.prod(n // c + 1 for c in sorted(coeffs)[1:]) <= 200_000:
            draws.append((coeffs, n))
    for coeffs, n in draws:
        budget = exact._OracleBudget()
        value = oracle_count(coeffs, n, budget).value
        assert (value, budget.nodes) == one_take_at_a_time(coeffs, n)[:2], (coeffs, n)
        assert value == denumerant(coeffs, n).value, (coeffs, n)


def test_the_oracle_tabulates_h_only_past_n_plus_1_takes(monkeypatch):
    # The oracle reads the takes of h from a table once it has tested more
    # than n + 1 of them, and only then: draws at k 3-6 on both sides of that
    # point match the reference in value and nodes, and, under a cap drawn
    # below their nodes, raise with the nodes the reference raises with.
    built = []
    monkeypatch.setattr(
        exact, "accumulate", lambda cells: built.append(len(cells)) or accumulate(cells)
    )
    rng = random.Random(55)
    drawn = {(k, tabulated): 0 for k in range(3, 7) for tabulated in (False, True)}
    while min(drawn.values()) < 8:
        k = rng.randint(3, 6)
        n = rng.randint(0, 480)
        top = rng.choice((12, 60, 2 * n + 2))
        coeffs = tuple(rng.randint(1, top) for _ in range(k))
        if math.prod(n // c + 1 for c in sorted(coeffs)[1:]) > 50_000:
            continue
        value, nodes, takes_of_h = one_take_at_a_time(coeffs, n)
        tabulated = takes_of_h > n + 1
        if drawn[k, tabulated] == 8:
            continue
        drawn[k, tabulated] += 1
        built.clear()
        budget = exact._OracleBudget()
        assert oracle_count(coeffs, n, budget).value == value, (coeffs, n)
        assert budget.nodes == nodes, (coeffs, n)
        assert bool(built) == tabulated, (coeffs, n, built)
        if nodes > 1:
            cap = rng.randint(1, nodes - 1)
            with pytest.raises(BudgetExceededError) as expected:
                one_take_at_a_time(coeffs, n, cap)
            budget = exact._OracleBudget()
            budget.cap = cap
            with pytest.raises(BudgetExceededError, match=f"at n={n}$"):
                oracle_count(coeffs, n, budget)
            assert budget.nodes == expected.value.args[0], (coeffs, n, cap)


def test_the_oracle_builds_no_table_for_a_small_tree():
    # (10^6, 10^6 + 1, 10^6 + 3) at n = 5e6 tests 15 takes of h, far below
    # n + 1, so the call allocates no table of 5e6 cells (40 MB of pointers).
    tracemalloc.start()
    try:
        assert oracle_count((1000000, 1000001, 1000003), 5_000_000).value == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_call_the_budget_refuses_allocates_no_table():
    # (3 * 10^6, 1, 1) at n = 2e7 would pass n + 1 takes of h in its first
    # range of g, whose 7.7e7 takes of h the budget refuses: the call raises
    # at its first take of h and builds no table of 2e7 cells.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="at n=20000000$"):
            oracle_count((3000000, 1, 1), 20_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_oracle_table_takes_8_bytes_a_cell():
    # 60001 cells of 8 bytes are 0.46 MiB; while it builds, the table sits
    # next to two copies of a class, here the whole table, as h = 1.
    tracemalloc.start()
    try:
        assert oracle_count((30000, 1, 1), 60000).value == 90003
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_known_denumerants():
    # p(n), the partitions of n, is D((1, ..., n); n): OEIS A000041.
    assert denumerant(range(1, 101), 100).value == 190_569_292
    assert denumerant(range(1, 201), 200).value == 3_972_999_029_388
    assert denumerant(range(1, 1001), 1000).value == 24_061_467_864_032_622_473_692_149_727_991
    # Change for a dollar: Polya, "On picture-writing", Amer. Math. Monthly
    # 63 (1956), 689-697; one more way with a dollar coin.
    assert denumerant((1, 5, 10, 25, 50), 100).value == 292
    assert denumerant((1, 5, 10, 25, 50, 100), 100).value == 293
    # Two pounds in British coins: Project Euler, problem 31.
    assert denumerant((1, 2, 5, 10, 20, 50, 100, 200), 200).value == 73_682


def _pentagonal_partitions(top):
    """p(0..top) by Euler's pentagonal recurrence, p(n) = sum over j >= 1 of
    (-1)^(j+1) (p(n - j(3j - 1)/2) + p(n - j(3j + 1)/2)), which shares
    nothing with the DP."""
    p = [1] + [0] * top
    for n in range(1, top + 1):
        j, total = 1, 0
        while (pent := j * (3 * j - 1) // 2) <= n:
            sign = 1 if j % 2 else -1
            total += sign * p[n - pent]
            if pent + j <= n:
                total += sign * p[n - pent - j]
            j += 1
        p[n] = total
    return p


def test_partitions_past_2_64_match_eulers_pentagonal_recurrence():
    # D((1, ..., m); n) = p(n) for m >= n.  p(417) is the first p(n) past
    # 2^64, so these rows hold their counts in two planes and, at 1500, in
    # three.
    p = _pentagonal_partitions(1500)
    assert p[416] < 1 << 64 <= p[417]
    assert p[1500] >= 1 << 128
    for n, m in ((417, 417), (600, 650), (1029, 1029), (1500, 1500)):
        assert denumerant(range(1, m + 1), n).value == p[n], n


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
@example((15, 6, 10), 59)
@example((6, 10, 15), 60)
def test_denumerant_matches_oracle(coeffs, n):
    assert denumerant(coeffs, n).value == brute(coeffs, n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=4).map(tuple),
    st.integers(0, 50),
)
@example((15, 6, 10), 30)
@example((6, 10, 15), 29)
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


def test_a_broken_closed_form_names_the_value_it_produced(monkeypatch):
    # With both inverses 0, (3, 5) at n = 1 gives 15 (D - 1) = 1: D = 16/15.
    monkeypatch.setattr(exact, "pow", lambda *a: 0, raising=False)
    with pytest.raises(
        InvariantViolationError, match=r"^closed form produced 16/15 for \(3, 5\) at n=1$"
    ):
        popoviciu(3, 5, 1)


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


def test_coefficient_orders_share_one_row():
    _prefix_counts.cache_clear()
    values = {denumerant(a, 5000).value for a in [(3, 5, 7, 11), (11, 3, 7, 5), (7, 11, 5, 3)]}
    assert len(values) == 1
    info = _prefix_counts.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_a_coefficient_over_the_cap_adds_nothing_to_the_row():
    # The row for n = 5 spans 33 cells, and the one for n = 100 spans 113;
    # 10^12 + 1 must not cost a pass per unit, nor a cell per unit when the
    # short row gives way to the longer one.
    _prefix_counts.cache_clear()
    started = time.perf_counter()
    assert denumerant((2, 10**12 + 1), 5).value == 0
    assert denumerant((2, 10**12 + 1), 6).value == 1
    assert extended_count((2, 10**12 + 1), 5).value == 3
    assert denumerant((2, 10**12 + 1), 100).value == 1
    assert extended_count((2, 10**12 + 1), 100).value == 51
    assert time.perf_counter() - started < 1.0
    assert _prefix_counts((2, 10**12 + 1), 0).cap == 112
    # 10^7 + 19 cells of ints would take over 80 MB.
    tracemalloc.start()
    try:
        assert denumerant((3, 10000019), 5).value == 0
        assert denumerant((3, 10000019), 99).value == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_extended_count_derives_its_row_from_the_cached_one():
    _prefix_counts.cache_clear()
    denumerant((7, 3, 5), 200)
    before = _prefix_counts.cache_info()
    assert (before.misses, before.currsize) == (1, 1)
    assert extended_count((5, 7, 3), 190).value == sum(reference_row((3, 5, 7), 190))
    assert extended_count((10, 14, 6), 381).value == sum(reference_row((3, 5, 7), 190))
    after = _prefix_counts.cache_info()
    # No new row: each relaxed count is one hit on the cached (3, 5, 7) row.
    assert after.misses - before.misses == 0
    assert after.hits - before.hits == 2
    assert after.currsize == 1


@pytest.mark.parametrize(
    ("k", "n", "planes"),
    [(8, 1000, 1), (8, 1023, 1), (8, 1500, 2), (8, 2047, 2), (12, 16383, 3)],
    ids=["1000-1", "1023-1", "1500-2", "2047-2", "16383-3"],
)
def test_rows_are_exact_on_both_sides_of_64_bits(k, n, planes):
    # A row of eight ones at cap 1024 fits in 64 bits, and one at cap 2048
    # takes two planes; twelve ones at cap 2^14 take three.  The cells on
    # both sides of 2^64 and of 2^128 are read one at a time, summed and
    # read as a range.
    _prefix_counts.cache_clear()
    assert denumerant((1,) * k, n).value == math.comb(n + k - 1, k - 1)
    assert extended_count((1,) * (k - 1), n).value == math.comb(n + k - 1, k - 1)
    cap = 1 << n.bit_length()
    row = _prefix_counts((1,) * k, cap)
    reference = [math.comb(m + k - 1, k - 1) for m in range(cap + 1)]
    assert len(row.planes) == planes == -(-reference[-1].bit_length() // 64)
    running = list(accumulate(reference))
    crossings = [m for m in range(1, cap + 1) if reference[m - 1] < 2**64 <= reference[m]]
    crossings += [m for m in range(1, cap + 1) if reference[m - 1] < 2**128 <= reference[m]]
    assert len(crossings) == planes - 1
    for m in crossings:
        for cell in (m - 1, m):
            assert (row[cell], row.total(cell)) == (reference[cell], running[cell]), cell
        assert row.counts(m + 1, m - 2) == reference[m - 2 : m + 2], m


@pytest.mark.parametrize(("n", "limbs"), [(500, 1), (3000, 2)])
def test_a_relaxed_count_is_exact_on_both_sides_of_64_bits(n, limbs):
    # The relaxed count of (1^6, 2) sums the count of sum(x) <= n - 2y over y.
    # Its row fits one limb a cell at both targets; the sum at 3000 does not.
    a = (1,) * 6 + (2,)
    _prefix_counts.cache_clear()
    expected = sum(math.comb(n - 2 * y + 6, 6) for y in range(n // 2 + 1))
    assert extended_count(a, n).value == expected
    assert -(-expected.bit_length() // 64) == limbs
    assert len(_prefix_counts(a, n).planes) == 1
    assert _prefix_counts.cache_info()[:2] == (1, 1)


def test_a_row_past_2_to_the_128_takes_three_limbs():
    _prefix_counts.cache_clear()
    for n in (65535, 0, 1, 4097, 65534):
        assert denumerant((1,) * 12, n).value == math.comb(n + 11, 11)
    assert math.comb(65535 + 11, 11) > 2**128
    row = _prefix_counts((1,) * 12, 1 << 16)
    assert (row.cap, len(row.planes)) == (1 << 16, 3)
    assert _prefix_counts.cache_info().misses == 1


def test_one_row_answers_every_smaller_target():
    _prefix_counts.cache_clear()
    denumerant((3, 5, 7), 5000)
    before = _prefix_counts.cache_info()
    assert denumerant((7, 5, 3), 300).value == brute((3, 5, 7), 300)
    after = _prefix_counts.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
    # A larger target extends the row, in the same slot: 5000 built it to
    # 5 * 2^10, and 9000 needs 5 * 2^11, which also doubles it.
    expected = sum(popoviciu(3, 5, 9000 - 7 * z).value for z in range(9000 // 7 + 1))
    assert denumerant((3, 5, 7), 9000).value == expected
    assert _prefix_counts.cache_info().misses == after.misses + 1
    assert _prefix_counts.cache_info().currsize == 1
    assert _prefix_counts((3, 5, 7), 256).cap == 10240


@pytest.mark.parametrize(
    ("a", "limbs", "cases"),
    [
        (
            (3, 5, 7),
            1,
            [
                (None, 10240, 10240), (None, 10241, 12288), (None, 16383, 16384),
                (None, 16384, 16384), (None, 16385, 32768), (2560, 10240, 10240),
                (2560, 10241, 12288), (10240, 10241, 16384), (12288, 16383, 16384),
                (8192, 16385, 32768), (16384, 16385, 32768), (None, 40960, 65536),
            ],
        ),
        (
            (1,) * 20,
            2,
            [
                (None, 320, 320), (None, 321, 384), (None, 511, 512), (None, 512, 512),
                (None, 513, 640), (80, 320, 320), (80, 321, 384), (320, 321, 512),
                (384, 511, 512), (256, 513, 640), (384, 513, 768),
            ],
        ),
        (
            (1,) * 20,
            3,
            [
                (None, 1280, 1280), (None, 1281, 1536), (None, 2047, 2048),
                (None, 2048, 2048), (None, 2049, 2560), (320, 1280, 1280),
                (320, 1281, 1536), (1280, 1281, 2048), (1536, 2047, 2048),
                (1024, 2049, 2560), (2048, 2049, 4096),
            ],
        ),
    ],
    ids=["one limb", "two limbs", "three limbs"],
)
def test_a_row_is_sized_to_its_target(a, limbs, cases):
    # (short target or None, target, cap): up to exact._CHUNK a new row ends
    # at the target rounded up to an eighth of its octave, and an extension
    # also at least doubles the short row, up to the power of two that
    # covers the target; past exact._CHUNK the row ends at that power of
    # two.  The targets sit on a grid point, one past it, at 2^b - 1 and at
    # 2^b.
    reference = reference_row(a, max(cap for _, _, cap in cases))
    for short, m, cap in cases:
        _prefix_counts.cache_clear()
        if short is not None:
            assert _prefix_counts(a, short).cap == short
        row = _prefix_counts(a, m)
        assert (row.cap, len(row.planes)) == (cap, limbs), (short, m)
        assert row.counts(cap) == reference[: cap + 1], (short, m)
        assert _prefix_counts.cache_info().misses == (1 if short is None else 2)


def test_a_rising_target_never_builds_past_the_power_of_two_above_it(monkeypatch):
    # Every build a lookup makes, of a tuple with ones too, is at most
    # 1 << m.bit_length() long, as the rows were when every cap was a power
    # of two.
    built = []
    build = exact._build_row

    def recorded(key, cap, short=None):
        built.append(cap)
        return build(key, cap, short)

    monkeypatch.setattr(exact, "_build_row", recorded)
    rng = random.Random(20221)
    for _ in range(20):
        a = [rng.randint(2, 30) for _ in range(rng.randint(1, 4))]
        a = tuple(sorted([1] * rng.choice((0, 0, 1, 2)) + a))
        targets = sorted(int(2 ** rng.uniform(4, 15)) for _ in range(rng.randint(2, 8)))
        reference = reference_row(a, targets[-1])
        _prefix_counts.cache_clear()
        for m in targets:
            built.clear()
            row = _prefix_counts(a, m)
            assert row[m] == reference[m], (a, targets, m)
            assert m <= row.cap <= 1 << m.bit_length(), (a, targets, m)
            assert all(cap <= 1 << m.bit_length() for cap in built), (a, targets, m)


@pytest.mark.parametrize("coeffs", ["3,5,7", "2,3,20000"])
def test_a_rising_range_misses_once_per_octave(capsys, coeffs):
    # Targets 0..99999 one at a time: the row starts at 32 cells and each
    # miss doubles it, to 2^17.  The passes of (2, 3, 20000) sum to 20003,
    # past exact._CHUNK, and a row shorter than that is built from 0 again,
    # so only its rows of 2^16 and 2^17 extend the one before.  The
    # command holds its row between targets, so it looks a row up only when
    # a target passes the row's cap: 13 lookups, each a miss.
    _prefix_counts.cache_clear()
    assert cli.main(["count", "--coeffs", coeffs, "--n-range", "0:99999"]) == 0
    capsys.readouterr()
    assert _prefix_counts.cache_info()[:2] == (0, 13)
    assert _prefix_counts(tuple(map(int, coeffs.split(","))), 0).cap == 1 << 17


@pytest.mark.parametrize("command", ["count", "bounds", "dhat"])
def test_a_warm_range_looks_its_row_up_once(capsys, command):
    # A timing-free guard on the cost of a target: on the row cached for
    # n = 9999 (to 10,240 cells), 10,000 targets take one lookup, a hit, not
    # one lookup each.
    _prefix_counts.cache_clear()
    assert cli.main(["count", "--coeffs", "3,5,7", "--n", "9999"]) == 0
    before = _prefix_counts.cache_info()
    argv = [command, "--coeffs", "3,5,7", "--n-range", "0:9999", "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    after = _prefix_counts.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_the_asymptotic_suite_builds_rows_to_its_targets(monkeypatch):
    # A timing-free guard on the row sizes: the asymptotic acceptance config
    # counts 49 sorted reduced tuples at n = 10^3 and then 10^4, so each
    # tuple's one row, ones included, is built to 1024 and extended to 10240.
    # Rows of the next power of two would add 16385 cells per tuple.
    added = []
    build = exact._build_row

    def counted(key, cap, short=None):
        row = build(key, cap, short)
        added.append(row.cap - (-1 if short is None else short.cap))
        return row

    monkeypatch.setattr(exact, "_build_row", counted)
    _prefix_counts.cache_clear()
    report = run_verify(
        SweepConfig(
            suite="asymptotic", seed=6, trials=50, k_range=(2, 5), max_coeff=15, n_max=120
        )
    )
    assert (report.instances, report.failures) == (50, [])
    assert len(added) == 2 * 49
    assert sum(added) <= 49 * (10240 + 1)


@pytest.mark.parametrize(
    ("a", "m", "limbs"), [((3, 5, 7), 256, 1), ((1,) * 8, 2048, 2), ((1,) * 20, 2048, 3)]
)
def test_a_read_past_the_row_raises(a, m, limbs):
    # A row ends at its target's grid point, so a read past it must fail
    # loudly at every limb count, not read an empty slice as 0.
    _prefix_counts.cache_clear()
    row = _prefix_counts(a, m)
    assert (row.cap, len(row.planes)) == (m, limbs)
    assert row[m] == reference_row(a, m)[m]
    for bad in (m + 1, m + 44, -1):
        with pytest.raises(IndexError):
            row[bad]
    for bad in (m + 1, -1):
        with pytest.raises(IndexError):
            row.total(bad)
    for cap, start in ((m + 1, 0), (m + 44, m - 6), (m, -1)):
        with pytest.raises(IndexError):
            row.counts(cap, start)
    assert len(row.counts(m, m - 6)) == 7


def test_the_fold_carries_each_residue_class_across_chunks():
    # A row is built exact._CHUNK cells at a time, each coefficient's pass
    # carrying its last cells into the next segment, so every class mod 3, 5
    # and 7 crosses a segment edge at j * _CHUNK.  An extension carries on
    # from its row's last cell, and its first segment ends on an edge too.
    chunk = exact._CHUNK
    cap = 1 << 17
    reference = reference_row((3, 5, 7), cap)
    edges = [j * chunk + e for j in range(1, cap // chunk) for e in (-1, 0, 1)]
    for caps in ([cap], [256, 1 << 15, cap]):
        _prefix_counts.cache_clear()
        for c in caps:
            assert _prefix_counts((3, 5, 7), c).counts(c) == reference[: c + 1]
        assert _prefix_counts.cache_info().misses == len(caps)
        for n in edges + [cap - 1, cap]:
            assert denumerant((7, 3, 5), n).value == reference[n], (caps, n)
    assert edges[:3] == [16383, 16384, 16385]


def test_a_multi_limb_row_unpacks_a_chunk_at_a_time():
    # (2, 3^7) at cap 2^16 takes two planes, so each count is read back
    # from two words, and a prefix sum reads the row exact._CHUNK cells at a
    # time: four full chunks and one cell.
    a = (2,) + (3,) * 7
    cap = 1 << 16
    _prefix_counts.cache_clear()
    row = _prefix_counts(a, cap)
    assert (row.cap, len(row.planes)) == (cap, 2)
    reference = [1] + [0] * cap
    for coeff in a:
        for m in range(coeff, cap + 1):
            reference[m] += reference[m - coeff]
    assert row.counts(cap) == [row[m] for m in range(cap + 1)] == reference
    # The relaxed count sums this row from its block sums, and the prefix
    # sum reads it cell by cell; both cut it at or next to a chunk edge.
    chunk = exact._CHUNK
    for n in (0, chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 1, cap - 1):
        expected = sum(reference[: n + 1])
        assert extended_count(a, n).value == prefix_sum_count(a, n) == expected, n
    assert _prefix_counts.cache_info().currsize == 1


@pytest.mark.parametrize(
    ("a", "n", "planes"),
    [
        ((3, 5, 7, 11), 100_000, (1, 1)),
        ((1,) * 12, 1 << 16, (3, 3)),
        ((1,) * 4 + (2, 2), 40_000, (1, 2)),
    ],
    ids=["segment edges", "three planes", "ones and twos"],
)
def test_a_row_built_in_two_steps_certifies(a, n, planes):
    # (3, 5, 7, 11) is extended from 2^16 to 2^17 across four segment
    # edges; (1,) * 12 passes 2^128 in its first segment; (1^4, 2, 2) widens
    # in its extension, and its class of 1, a segment and its carry, is one
    # cell longer than exact._CHUNK.  The short row is certified after the
    # extension, which must not change it.
    short, row = built_in_two_steps(a, n)
    assert (len(short.planes), len(row.planes)) == planes
    assert row.cap == 1 << (n - 1).bit_length()
    certify(a, row)
    certify(a, short)


def test_drawn_rows_built_in_two_steps_certify():
    # Drawn tuples, some with ones and twos, at targets past 2^15.
    rng = random.Random(20221)
    for _ in range(8):
        a = [rng.randint(3, 40) for _ in range(rng.randint(1, 4))]
        a = tuple(sorted(rng.choice(((), (1,), (2,), (1, 2))) + tuple(a)))
        n = rng.randint(1 << 15, 1 << 17)
        certify(a, built_in_two_steps(a, n)[1])


def test_an_extended_row_matches_a_reference_dp():
    # Chains of growing caps on drawn tuples, some with ones (folded as the
    # last passes) and some with coefficients past the caps the chain starts
    # at: each row is extended from the last one.
    rng = random.Random(20221)
    for _ in range(30):
        top = rng.choice((12, 40, 3000, 20000))
        a = [rng.randint(2, top) for _ in range(rng.randint(1, 5))]
        a = tuple(sorted([1] * rng.choice((0, 0, 1, 2)) + a))
        caps = sorted(rng.sample([1 << b for b in range(8, 16)], rng.randint(2, 4)))
        reference = reference_row(a, caps[-1])
        _prefix_counts.cache_clear()
        for cap in caps:
            row = _prefix_counts(a, cap)
            assert row.cap == cap
            assert row.counts(cap) == reference[: cap + 1], (a, caps, cap)


@pytest.mark.parametrize(
    ("k", "caps", "limbs"),
    [(8, [1024, 2048], [1, 2]), (12, [256, 512, 4096, 1 << 16], [1, 2, 2, 3])],
)
def test_an_extension_widens_the_cells_it_has_packed(k, caps, limbs):
    # D(n) = C(n + k - 1, k - 1) for k ones; a chain whose counts pass
    # 2^64 or 2^128 widens the cells packed before, then packs wider ones.
    _prefix_counts.cache_clear()
    for cap, want in zip(caps, limbs):
        row = _prefix_counts((1,) * k, cap)
        assert (row.cap, len(row.planes)) == (cap, want)
        for n in (0, 1, 255, 256, cap // 2, cap - 1, cap):
            assert row[n] == math.comb(n + k - 1, k - 1), (cap, n)
    assert row.counts(cap) == [math.comb(n + k - 1, k - 1) for n in range(cap + 1)]
    assert _prefix_counts.cache_info().misses == len(caps)


@pytest.mark.parametrize(
    "a", [(2, 3, 20000), (3, 5000, 7001, 9002), (2, 3, 5000, 9000), (2, 3, 40000, 40001)]
)
def test_coefficients_longer_than_their_classes_sum_block_by_block(a):
    # (2, 3, 20000) and (3, 5000, 7001, 9002) fold passes that sum past
    # exact._CHUNK, so their segments are that sum long, and the row of 256
    # holds fewer cells than the carries, so the longer row is built from 0
    # again.  The passes of (2, 3, 40000, 40001) sum past the whole row, so
    # it is one segment, in which the class of 3 spans more than a chunk.
    # (2, 3, 5000, 9000) goes segment by segment.  Every pass of 5000 or
    # more adds whole blocks of cells, a chunk at a time.
    cap = 1 << 16
    reference = reference_row(a, cap)
    for caps in ([cap], [256, cap]):
        _prefix_counts.cache_clear()
        for c in caps:
            assert _prefix_counts(a, c).counts(c) == reference[: c + 1], (a, c)


@pytest.mark.parametrize(("a", "factor"), [((3, 5, 7, 11), 2), ((2, 3, 20000), 3)])
def test_a_build_holds_one_segment_of_ints(a, factor):
    # A row at cap 2^18 packs into 2 MiB, one word a cell; holding it as
    # ints, as a build of the whole row at once would, takes 5 to 6 times
    # that.  The passes of (2, 3, 20000) sum to 20003, past exact._CHUNK,
    # so its segments span 20003 cells, and a segment with its carries
    # holds 40003 ints, about the packed row again.
    _prefix_counts.cache_clear()
    tracemalloc.start()
    try:
        row = exact._build_row(a, 1 << 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    packed = sum(len(plane) * plane.itemsize for plane in row.planes)
    assert (row.cap, len(row.planes), packed) == (1 << 18, 1, 8 * ((1 << 18) + 1))
    assert peak < factor * packed


def test_a_prefix_sum_reads_one_chunk_of_ints_at_a_time():
    # On a warm row the sum reads 2^18 counts a chunk of 2^14 ints at a
    # time; the whole row as ints would take about 10 MiB.
    a, n = (3, 5, 7, 11), (1 << 18) - 1
    expected = sum(_prefix_counts(a, 1 << 18).counts(n))
    tracemalloc.start()
    try:
        total = prefix_sum_count(a, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == expected
    assert peak < 1 << 20


def test_a_relaxed_count_reads_a_row_at_a_larger_cap():
    _prefix_counts.cache_clear()
    denumerant((3, 5, 7), 5000)
    before = _prefix_counts.cache_info()
    assert extended_count((5, 7, 3), 300).value == oracle_count((1, 3, 5, 7), 300).value
    after = _prefix_counts.cache_info()
    # No new row: the sum stops at cell 300 of the cap-5120 row.
    assert (after.misses - before.misses, after.hits - before.hits) == (0, 1)
    assert (after.currsize, _prefix_counts((3, 5, 7), 300).cap) == (1, 5120)


@pytest.mark.parametrize(
    ("a", "caps", "planes"),
    [
        ((3, 5, 7), [320, 1 << 15], (1, 1)),
        ((1,) * 8, [320, 2560], (1, 2)),
        ((1,) * 20, [1280, 2048], (3, 3)),
        ((1,) * 12, [256, 1 << 16], (1, 3)),
    ],
    ids=["one limb", "two limbs", "three limbs", "one plane to three"],
)
def test_a_row_keeps_the_running_sum_at_every_block(a, caps, planes):
    # sums[b] is D(0) + ... + D(64 b - 1).  The first cap of each chain ends
    # one cell past a block, so the extension carries on from a partial
    # block; the row of (3, 5, 7) also crosses exact._CHUNK, and (1,) * 12
    # widens from one plane to three in the first segment of its extension.
    # The sums are read on both sides of every count that passes 2^64 or
    # 2^128.  The short row is published, so its planes and sums must not
    # change when it is extended.
    block, chunk = exact._BLOCK, exact._CHUNK
    reference = reference_row(a, caps[-1])
    running = list(accumulate(reference))
    if set(a) == {1}:
        assert running[-1] == math.comb(caps[-1] + len(a), len(a))
    edges = [0, 1, 62, 63, 64, 65, 127, 128, chunk - 1, chunk, chunk + 1]
    edges += [c + e for c in caps for e in (-1, 0, 1)]
    edges += [
        m + e
        for m in range(1, caps[-1] + 1)
        for power in (2**64, 2**128)
        if reference[m - 1] < power <= reference[m]
        for e in (-1, 0)
    ]
    _prefix_counts.cache_clear()
    short = _prefix_counts(a, caps[0])
    assert len(short.planes) == planes[0]
    for cap in caps:
        row = _prefix_counts(a, cap)
        assert row.cap == cap
        assert row.sums == [0] + running[block - 1 : cap + 1 : block]
        for m in [m for m in edges if m <= cap]:
            assert row.total(m) == running[m], (cap, m)
            assert extended_count(a, m).value == running[m], (cap, m)
    assert short.sums == [0] + running[block - 1 : caps[0] + 1 : block]
    assert short.total(caps[0]) == running[caps[0]]
    assert len(short.planes) == planes[0]
    assert short.counts(caps[0]) == reference[: caps[0] + 1]
    assert len(row.planes) == planes[1]
    assert _prefix_counts.cache_info().misses == len(caps)


def test_a_tuple_with_ones_builds_one_row():
    # The ones fold in as the last passes of the tuple's own row, so neither
    # count builds or caches a row of (3, 5) alone.
    _prefix_counts.cache_clear()
    reference = reference_row((1, 1, 3, 5), 5000)
    assert denumerant((5, 1, 3, 1), 5000).value == reference[5000]
    assert extended_count((1, 3, 1, 5), 4000).value == sum(reference[:4001])
    assert extended_count((2, 6, 2, 10), 7999).value == sum(reference[:4000])
    info = _prefix_counts.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def test_a_warm_relaxed_count_allocates_no_row():
    # The row of (3, 5, 7, 11) at 2^18 - 1 packs into 2 MiB; the relaxed
    # count on it reads one sum and at most exact._BLOCK cells.
    a, n = (3, 5, 7, 11), (1 << 18) - 1
    _prefix_counts.cache_clear()
    denumerant(a, n)
    expected = sum(_prefix_counts(a, n).counts(n))
    tracemalloc.start()
    try:
        value = extended_count(a, n).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak < 1 << 13
    assert _prefix_counts.cache_info().misses == 1


def test_the_least_recently_used_rows_go_past_the_word_budget(monkeypatch):
    # Each pair's row at 100 ends at _row_cap(100) = 112, one plane of 113
    # words, so a budget of 32 such rows holds 32 of these 33 tuples.
    words = exact._row_cap(100, None) + 1
    monkeypatch.setattr(exact, "ROW_CACHE_MAX_WORDS", 32 * words)
    _prefix_counts.cache_clear()
    pairs = [(2, 2 * i + 3) for i in range(33)]
    for a in pairs[:32]:
        denumerant(a, 100)
    assert _prefix_counts.words == 32 * words
    denumerant(pairs[0], 100)
    denumerant(pairs[32], 100)
    assert _prefix_counts.cache_info() == (1, 33, None, 32)
    assert _prefix_counts.words == 32 * words
    denumerant(pairs[0], 100)
    assert _prefix_counts.cache_info().misses == 33
    denumerant(pairs[1], 100)
    assert _prefix_counts.cache_info().misses == 34


def held_words():
    # The words of every row the cache holds, summed afresh.
    return sum(map(exact._words, _prefix_counts._entries.values()))


def test_a_row_over_the_word_budget_is_kept_alone(monkeypatch):
    # Five rows of at most 113 words fit in 1,000; the row of (3, 5, 7) at
    # 2,000 ends at 2,048 and takes 2,049 words, so it evicts all five, and
    # the next row stored evicts it in turn.
    monkeypatch.setattr(exact, "ROW_CACHE_MAX_WORDS", 1000)
    _prefix_counts.cache_clear()
    for c in (3, 5, 7, 9, 11):
        denumerant((2, c), 100)
    assert _prefix_counts.cache_info().currsize == 5
    big = _prefix_counts((3, 5, 7), 2000)
    assert exact._words(big) == 2049
    assert _prefix_counts.cache_info().currsize == 1
    assert _prefix_counts.words == held_words() == 2049
    assert denumerant((7, 5, 3), 2000).value == big[2000]
    assert _prefix_counts.cache_info().misses == 6
    denumerant((2, 3), 100)
    assert list(_prefix_counts._entries) == [(2, 3)]
    assert _prefix_counts.words == held_words() == exact._row_cap(100, None) + 1


def test_an_extension_replaces_the_short_rows_words():
    _prefix_counts.cache_clear()
    short = _prefix_counts((3, 5, 7), 100)
    assert _prefix_counts.words == exact._words(short) == short.cap + 1
    row = _prefix_counts((3, 5, 7), 5000)
    assert row.cap > short.cap
    assert _prefix_counts.cache_info()[1:] == (2, None, 1)
    assert _prefix_counts.words == exact._words(row) == row.cap + 1


def test_a_build_that_raises_leaves_the_cache_as_it_was(monkeypatch):
    # The short row stays held while its extension is built, so an
    # extension that fails takes nothing from the cache.
    build = exact._build_row

    def failing(key, cap, short=None):
        if short is not None:
            raise MemoryError
        return build(key, cap)

    _prefix_counts.cache_clear()
    short = _prefix_counts((3, 5, 7), 100)
    words = _prefix_counts.words
    monkeypatch.setattr(exact, "_build_row", failing)
    with pytest.raises(MemoryError):
        denumerant((3, 5, 7), 5000)
    assert list(_prefix_counts._entries.items()) == [((3, 5, 7), short)]
    assert _prefix_counts.words == held_words() == words == short.cap + 1
    assert _prefix_counts((3, 5, 7), 100) is short
    monkeypatch.undo()
    assert denumerant((3, 5, 7), 5000).value == reference_row((3, 5, 7), 5000)[5000]


def test_a_longer_row_stored_during_a_build_is_kept(monkeypatch):
    # The lock guards no build, so another caller may store a row for the
    # same tuple while one is built: here the build first stores the row for
    # 4 cap, and the call that asked for m = 100 returns that longer row.
    build = exact._build_row
    stored = []

    def raced(key, cap, short=None):
        monkeypatch.setattr(exact, "_build_row", build)
        stored.append(_prefix_counts(key, 4 * cap))
        return build(key, cap, short)

    _prefix_counts.cache_clear()
    monkeypatch.setattr(exact, "_build_row", raced)
    row = _prefix_counts((3, 5, 7), 100)
    assert row is stored[0] and row.cap >= 4 * exact._row_cap(100, None)
    assert _prefix_counts.words == exact._words(row) == held_words()
    assert _prefix_counts.cache_info() == (0, 2, None, 1)
    certify((3, 5, 7), row)


def test_cache_clear_zeroes_the_words():
    _prefix_counts.cache_clear()
    denumerant((3, 5), 1000)
    denumerant((1,) * 10, 2000)
    assert _prefix_counts.words == held_words() > 0
    _prefix_counts.cache_clear()
    assert _prefix_counts.words == 0
    assert _prefix_counts.cache_info() == (0, 0, None, 0)


def test_the_cache_never_holds_more_than_its_word_budget(monkeypatch):
    # Half the drawn tuples are all ones, whose rows past a few hundred
    # cells take two planes: ten ones at n near 2,000 take 4,098 words, over
    # the budget of 2^12 on their own.  After every count the running total
    # is the words of the rows held, and at most the budget unless one row
    # is held alone.
    budget = 1 << 12
    monkeypatch.setattr(exact, "ROW_CACHE_MAX_WORDS", budget)
    _prefix_counts.cache_clear()
    rng = random.Random(20221)
    lone = crowded = 0
    for _ in range(40):
        if rng.random() < 0.5:
            a = (1,) * rng.randint(6, 10)
        else:
            a = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
        n = rng.randint(0, 2000)
        assert denumerant(a, n).value == reference_row(a, n)[n], (a, n)
        words = _prefix_counts.words
        assert words == held_words()
        if words > budget:
            assert _prefix_counts.cache_info().currsize == 1, (a, n)
            lone += 1
        elif _prefix_counts.cache_info().currsize > 1:
            crowded += 1
    assert lone and crowded


def test_threads_share_the_row_cache(monkeypatch):
    # Four threads count drawn targets on 40 drawn tuples through one cache
    # whose word budget holds the fifth thread's longest row and about 20
    # short ones, so lookups, builds and evictions of the same tuples
    # interleave.
    # Every target is a multiple of the gcd, and no tuple keeps a 1 after
    # dividing it out unless it is all ones, so every count is one lookup
    # and a lost hit or miss shows in the totals.  A fifth thread counts one
    # of those tuples at growing targets, so its row is extended (or, once
    # evicted, built again) while the others read it, and a sixth takes the
    # relaxed count at the same targets, summing that row as it grows.
    rng = random.Random(20221)
    tuples = set()
    while len(tuples) < 40:
        a = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 3)))
        reduced = {c // math.gcd(*a) for c in a}
        if 1 not in reduced or reduced == {1}:
            tuples.add(a)
    tuples = sorted(tuples)
    draws = []
    for _ in range(4 * 500):
        a = rng.choice(tuples)
        draws.append((a, math.gcd(*a) * rng.randint(0, 120)))
    results = [None] * 4
    grown = draws[0][0]
    d = math.gcd(*grown)
    targets = [(1 << b) - 1 for b in range(9, 16)]
    grown_results = []
    relaxed_results = []

    def work(index):
        results[index] = [denumerant(a, n).value for a, n in draws[index::4]]

    def grow():
        grown_results.extend(denumerant(grown, d * m).value for m in targets)

    def relax():
        relaxed_results.extend(extended_count(grown, d * m).value for m in targets)

    budget = (1 << 15) + (1 << 11)
    monkeypatch.setattr(exact, "ROW_CACHE_MAX_WORDS", budget)
    _prefix_counts.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=grow))
        threads.append(threading.Thread(target=relax))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = {pair: brute(*pair) for pair in set(draws)}
    for index in range(4):
        assert results[index] == [expected[pair] for pair in draws[index::4]]
    reference = reference_row([c // d for c in grown], targets[-1])
    assert grown_results == [reference[m] for m in targets]
    assert relaxed_results == [sum(reference[: m + 1]) for m in targets]
    info = _prefix_counts.cache_info()
    assert info.hits + info.misses == len(draws) + 2 * len(targets)
    assert info.maxsize is None
    assert _prefix_counts.words == held_words() <= budget


def test_extended_count_matches_the_oracle_on_drawn_tuples():
    # The oracle enumerates the slack tuple directly, sharing no DP row.
    rng = random.Random(20221)
    for _ in range(200):
        a = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
        n = rng.randint(0, 120)
        assert extended_count(a, n).value == oracle_count((1, *a), n).value, (a, n)


def test_table_budget_is_checked_before_allocating(monkeypatch):
    monkeypatch.setattr(exact, "DENUMERANT_MAX_CELLS", 512)
    _prefix_counts.cache_clear()
    assert denumerant((3, 5), 511).value == brute((3, 5), 511)
    with pytest.raises(BudgetExceededError, match="513 cells"):
        denumerant((3, 5), 512)
    with pytest.raises(BudgetExceededError, match=r"\(3, 5\) at n=512 needs 513 cells"):
        extended_count((3, 5), 512)
    assert _prefix_counts.cache_info().misses == 1
