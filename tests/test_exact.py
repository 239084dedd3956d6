import math
import random
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denumerant import (
    BudgetExceededError,
    InvariantViolationError,
    NotCoprimeError,
    denumerant,
    extended_count,
    oracle_count,
    popoviciu,
    prefix_sum_count,
)
from denumerant import exact
from denumerant.exact import _prefix_counts


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
    # The row for n = 5 spans 256 cells; 10^12 + 1 must not cost a pass per unit.
    started = time.perf_counter()
    assert denumerant((2, 10**12 + 1), 5).value == 0
    assert denumerant((2, 10**12 + 1), 6).value == 1
    assert extended_count((2, 10**12 + 1), 5).value == 3
    assert time.perf_counter() - started < 1.0


def test_extended_count_derives_its_row_from_the_cached_one():
    _prefix_counts.cache_clear()
    denumerant((7, 3, 5), 200)
    before = _prefix_counts.cache_info()
    assert (before.misses, before.currsize) == (1, 1)
    extended_count((5, 7, 3), 190)
    after = _prefix_counts.cache_info()
    # One new row, the slack row, built from a hit on the cached (3, 5, 7) row.
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1
    assert after.currsize == 2


@pytest.mark.parametrize(("n", "limbs"), [(1000, 1), (1023, 1), (1500, 2), (2047, 2)])
def test_rows_are_exact_on_both_sides_of_64_bits(n, limbs):
    # A row at cap 1024 fits in 64 bits; one at cap 2048 takes two limbs a cell.
    _prefix_counts.cache_clear()
    assert denumerant((1,) * 8, n).value == math.comb(n + 7, 7)
    assert extended_count((1,) * 7, n).value == math.comb(n + 7, 7)
    cap = 1 << n.bit_length()
    assert _prefix_counts((1,) * 8, cap).limbs == limbs
    assert (math.comb(cap + 7, 7) < 2**64) == (limbs == 1)


@pytest.mark.parametrize(("n", "limbs"), [(500, 1), (3000, 2)])
def test_derived_slack_row_is_exact_on_both_sides_of_64_bits(n, limbs):
    # The relaxed count of (1^6, 2) sums the count of sum(x) <= n - 2y over y.
    a = (1,) * 6 + (2,)
    _prefix_counts.cache_clear()
    expected = sum(math.comb(n - 2 * y + 6, 6) for y in range(n // 2 + 1))
    assert extended_count(a, n).value == expected
    assert _prefix_counts((2,), 1 << n.bit_length()).limbs == 1
    assert _prefix_counts((1,) * 7 + (2,), 1 << n.bit_length()).limbs == limbs


def test_a_row_past_2_to_the_128_takes_three_limbs():
    _prefix_counts.cache_clear()
    for n in (65535, 0, 1, 4097, 65534):
        assert denumerant((1,) * 12, n).value == math.comb(n + 11, 11)
    assert math.comb(65535 + 11, 11) > 2**128
    row = _prefix_counts((1,) * 12, 1 << 16)
    assert (row.cap, row.limbs) == (1 << 16, 3)
    assert _prefix_counts.cache_info().misses == 1


def test_one_row_answers_every_smaller_target():
    _prefix_counts.cache_clear()
    denumerant((3, 5, 7), 5000)
    before = _prefix_counts.cache_info()
    assert denumerant((7, 5, 3), 300).value == brute((3, 5, 7), 300)
    after = _prefix_counts.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
    # A larger target rebuilds the row at its own cap, in the same slot.
    expected = sum(popoviciu(3, 5, 9000 - 7 * z).value for z in range(9000 // 7 + 1))
    assert denumerant((3, 5, 7), 9000).value == expected
    assert _prefix_counts.cache_info().misses == after.misses + 1
    assert _prefix_counts.cache_info().currsize == 1
    assert _prefix_counts((3, 5, 7), 256).cap == 16384


def test_the_fold_carries_each_residue_class_across_chunks():
    # A class mod c is summed exact._CHUNK of its cells at a time, so in a
    # row at cap 2^16 each class r mod 3 carries its sum into a second chunk
    # at 49152 + r, and at cap 2^17 each class mod 5 does at 81920 + r and
    # each class mod 7 at 114688 + r.
    _prefix_counts.cache_clear()
    for n in (49151, 49152, 49153, 65535):
        assert denumerant((2, 3), n).value == popoviciu(2, 3, n).value, n
    assert _prefix_counts((2, 3), 1).cap == 1 << 16
    for n in (81921, 114689, 131071):
        expected = sum(popoviciu(3, 5, n - 7 * z).value for z in range(n // 7 + 1))
        assert denumerant((3, 5, 7), n).value == expected, n
    assert _prefix_counts((3, 5, 7), 1).cap == 1 << 17
    assert [c * exact._CHUNK for c in (3, 5, 7)] == [49152, 81920, 114688]


def test_a_multi_limb_row_unpacks_a_chunk_at_a_time():
    # (2, 3^7) at cap 2^16 takes two limbs a cell, so reading it back as
    # ints goes exact._CHUNK cells at a time: four full chunks and one cell.
    a = (2,) + (3,) * 7
    cap = 1 << 16
    _prefix_counts.cache_clear()
    row = _prefix_counts(a, cap)
    assert (row.cap, row.limbs) == (cap, 2)
    reference = [1] + [0] * cap
    for coeff in a:
        for m in range(coeff, cap + 1):
            reference[m] += reference[m - coeff]
    assert row.counts(cap) == [row[m] for m in range(cap + 1)] == reference
    # The slack row of the relaxed count is derived from this row, and the
    # prefix sum reads it directly; both cut it at or next to a chunk edge.
    chunk = exact._CHUNK
    for n in (0, chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 1, cap - 1):
        expected = sum(reference[: n + 1])
        assert extended_count(a, n).value == prefix_sum_count(a, n) == expected, n
    assert _prefix_counts.cache_info().currsize == 2


def test_a_slack_row_comes_from_a_base_row_at_a_larger_cap():
    _prefix_counts.cache_clear()
    denumerant((3, 5, 7), 5000)
    before = _prefix_counts.cache_info()
    assert extended_count((5, 7, 3), 300).value == oracle_count((1, 3, 5, 7), 300).value
    after = _prefix_counts.cache_info()
    # One new row, the slack row, cut to its own cap from the cap-8192 row.
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert _prefix_counts((1, 3, 5, 7), 512).cap == 512


def test_a_33rd_tuple_evicts_the_least_recently_used():
    _prefix_counts.cache_clear()
    pairs = [(2, 2 * i + 3) for i in range(33)]
    for a in pairs[:32]:
        denumerant(a, 100)
    denumerant(pairs[0], 100)
    denumerant(pairs[32], 100)
    assert _prefix_counts.cache_info() == (1, 33, 32, 32)
    denumerant(pairs[0], 100)
    assert _prefix_counts.cache_info().misses == 33
    denumerant(pairs[1], 100)
    assert _prefix_counts.cache_info().misses == 34


def test_threads_share_the_row_cache():
    # Four threads count drawn targets on 40 drawn tuples through one cache
    # of 32, so lookups, builds and evictions of the same tuples interleave.
    # Every target is a multiple of the gcd, and no tuple keeps a 1 after
    # dividing it out unless it is all ones, so every count is one lookup
    # and a lost hit or miss shows in the totals.
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

    def work(index):
        results[index] = [denumerant(a, n).value for a, n in draws[index::4]]

    _prefix_counts.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
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
    info = _prefix_counts.cache_info()
    assert info.hits + info.misses == len(draws)
    assert info.currsize <= info.maxsize == 32


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
    with pytest.raises(BudgetExceededError, match="1024 cells"):
        denumerant((3, 5), 512)
    with pytest.raises(BudgetExceededError):
        extended_count((3, 5), 512)
    assert _prefix_counts.cache_info().misses == 1
