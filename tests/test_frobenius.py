import hashlib
import io
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from denumerant import (
    BudgetExceededError,
    NotCoprimeError,
    TooShortTupleError,
    bound_frobenius,
    bound_sequences,
    denumerant,
    frobenius_exact,
    inequality_a,
    relaxed_count_chain,
)
from denumerant import bounds, cli, core, frobenius
from denumerant.core import _require_coprime, as_coeffs
from denumerant.frobenius import (
    FROBENIUS_MAX_CELLS,
    _apery,
    _fill,
    _johnson,
    _lap_order,
    _last_lap_top,
    _residue_table,
    _top,
)
from denumerant.sweep import _certify_residue_table


def _frobenius_sieve(a):
    """The Frobenius number by sieving reachability over 0..s-_k.

    The slow, independent route that frobenius_exact is compared with on
    small tuples; it needs s-_k + 1 cells.
    """
    coeffs = _require_coprime(as_coeffs(a), "has gcd > 1")
    if 1 in coeffs:
        return -1
    # s-_k is built from integers, so it is a Fraction over 1.
    top = bound_sequences(coeffs).lower_shifts[-1].numerator
    reachable = [False] * (top + 1)
    reachable[0] = True
    for value in range(1, top + 1):
        for coeff in coeffs:
            if coeff <= value and reachable[value - coeff]:
                reachable[value] = True
                break
    for value in range(top, -1, -1):
        if not reachable[value]:
            return value
    return -1


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


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3000), st.integers(1, 60), st.integers(2, 10))
def test_an_arithmetic_progression_matches_roberts_formula(a, d, k):
    # Roberts, "Note on linear forms", Proc. AMS 7 (1956), 465-469: for
    # gcd(a, d) = 1, g(a, a + d, ..., a + s d) = ([(a - 2) / s] + 1) a
    # + (d - 1)(a - 1) - 1.
    assume(math.gcd(a, d) == 1)
    s = k - 1
    expected = ((a - 2) // s + 1) * a + (d - 1) * (a - 1) - 1
    assert frobenius_exact([a + j * d for j in range(k)]) == expected, (a, d, k)


def _round_robin_cases():
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
    return special + drawn


def _table_g(coeffs):
    table = _residue_table(coeffs)
    return max(table) - len(table)


def test_round_robin_matches_sieve():
    for coeffs in _round_robin_cases():
        assert frobenius_exact(coeffs) == _frobenius_sieve(coeffs), coeffs
        assert _table_g(coeffs) == _frobenius_sieve(coeffs), coeffs
    for coeffs in ((4, 6), (9,), (6, 10, 14)):
        with pytest.raises(NotCoprimeError):
            frobenius_exact(coeffs)
        with pytest.raises(NotCoprimeError):
            _frobenius_sieve(coeffs)


# One tuple for each branch of `_apery`, met by the three smallest
# coefficients; a fourth makes each a coprime tuple whose table takes a lap.
_APERY_BRANCHES = {
    "the L-shape": (5, 7, 9, 11),
    "gcd(a_1, a_2) glued": (6, 9, 11, 13),
    "gcd(a_1, a_3) glued": (6, 7, 9, 11),
    "gcd(a_2, a_3) scaled, both then below a_1": (7, 9, 12, 13),
    "a_1 reduced to 1": (6, 10, 15, 17),
    "a_2 reduced to 1": (4, 6, 9, 11),
    "a common factor of the three smallest": (12, 18, 8, 27),
    "glued twice: a box of four sides": (30, 34, 39, 41),
}


def _laid_out(coeffs):
    """The seeded table of a coprime tuple with k >= 3, as the k >= 4 route
    builds it with no reduction: the boxes of its three smallest
    coefficients and a lap of each further one but the last, laid out by x
    for the last.  Returns the table with the last lap written too, read
    back through x into residue order, and the max(N) that `_last_lap_top`
    reads off the table before it.  A triple takes a_1 as its last
    coefficient, whose lap changes nothing."""
    a1, a2, a3, *rest = sorted(coeffs)
    *middle, last = rest or [a1]
    x = _lap_order(a1, last)
    before = _fill(frobenius._cells(a1), _apery(a1, a2, a3), middle, x)
    after = _fill(list(before), [], [last], x)
    return [after[r * x % a1] for r in range(a1)], _last_lap_top(before, last), x


def _expanded(boxes):
    """Every value of every box, start + sum x_i step_i over all x_i < count_i."""
    return [
        start + sum(x * step for x, (step, _) in zip(xs, sides))
        for start, sides in boxes
        for xs in itertools.product(*(range(count) for _, count in sides))
    ]


@pytest.mark.parametrize("coeffs", list(_APERY_BRANCHES.values()), ids=list(_APERY_BRANCHES))
def test_each_apery_branch_matches_the_round_robin(coeffs):
    a1, a2, a3 = sorted(coeffs)[:3]
    values = sorted(_expanded(_apery(a1, a2, a3)))
    # The least x a_2 + y a_3 in each class mod a_1 that such sums meet;
    # x, y < a_1 suffice, as a_1 a_2 and a_1 a_3 are 0 mod a_1.
    least = {}
    for x, y in itertools.product(range(a1), repeat=2):
        n = x * a2 + y * a3
        least[n % a1] = min(least.get(n % a1, n), n)
    assert values == sorted(least.values()), coeffs
    table, top, _ = _laid_out(coeffs)
    plain = _residue_table(coeffs)
    assert table == plain and top == max(plain), coeffs
    assert frobenius_exact(coeffs) == _frobenius_sieve(coeffs), coeffs


def test_the_seeded_table_matches_the_round_robin_and_the_sieve():
    rng = random.Random(2007)
    drawn = []
    while len(drawn) < 600:
        top = rng.choice((12, 40, 400))
        coeffs = tuple(rng.randint(1, top) for _ in range(rng.randint(3, 6)))
        if math.gcd(*coeffs) == 1:
            drawn.append(coeffs)
    cases = [c for c in _round_robin_cases() if len(c) >= 3] + drawn
    shared = permuted = 0
    for coeffs in cases:
        # Entry by entry, through x, and the maximum the last lap reads.
        table, top, x = _laid_out(coeffs)
        plain = _residue_table(coeffs)
        assert table == plain and top == max(plain), coeffs
        if len(coeffs) >= 4 and max(coeffs) <= 40:
            assert frobenius_exact(coeffs) == _frobenius_sieve(coeffs), coeffs
        shared += math.gcd(*sorted(coeffs)[:3]) > 1
        permuted += x > 1
    assert shared > 30
    assert permuted > 250


def test_a_last_lap_class_left_at_infinity_makes_the_maximum_infinite():
    # Every class of the last lap is read from its minimum; one whose
    # minimum is infinite is not skipped, as a writing lap would skip it.
    for coeffs in ((5, 7, 9, 11), (6, 7, 9, 10), (4, 6, 9, 10)):
        a1, a2, a3, last = coeffs
        x = _lap_order(a1, last)
        table = _fill(frobenius._cells(a1), _apery(a1, a2, a3), [], x)
        d = math.gcd(a1, last)
        assert _last_lap_top(table, last) < math.inf
        for j in range(d):
            left = list(table)
            left[j::d] = [math.inf] * (a1 // d)
            assert _last_lap_top(left, last) == math.inf, (coeffs, j)


def test_a_middle_lap_copies_no_class_of_0():
    # Here d = gcd(a_1, a_i) = 1, so the class of 0 is the whole table.  A
    # middle lap starts it at N[0] = 0 without a copy, so k = 5 peaks no
    # higher than its k = 4 prefix, give or take 2 bytes a cell of a_1.
    def peak(coeffs):
        tracemalloc.start()
        try:
            frobenius_exact(coeffs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    prefix = (50021, 50023, 50033, 50047)
    assert peak((*prefix, 50051)) <= peak(prefix) + 2 * 50021


def _planted(rng, k):
    """A coprime tuple a = (b_m d_1 d_2) with d_1 left off b_j and d_2 off
    b_i, for b a k-tuple of entries up to 12 of which no k - 1 share a
    factor.  Dividing the k - 1 multiples of d_1 by it leaves k - 1
    multiples of d_2, one factor inside the other, so the reduction
    repeats; d_2 = 1 plants one factor."""
    while True:
        b = [rng.randint(1, 12) for _ in range(k)]
        if any(math.gcd(*b[:j], *b[j + 1 :]) > 1 for j in range(k)):
            continue
        d1, d2 = rng.randint(2, 4), rng.choice((1, 2, 3))
        i, j = rng.sample(range(k), 2)
        a = [c * (d1 if m != j else 1) * (d2 if m != i else 1) for m, c in enumerate(b)]
        if math.gcd(*a) == 1:
            return a, d1, d2


def test_johnsons_reduction_matches_the_sieve_and_the_plain_table(monkeypatch):
    # Drawn k = 4..6 tuples with planted factors on k - 1 coefficients,
    # once or nested; each builds one table, of min(reduced a) cells.
    built = []
    cells = frobenius._cells
    monkeypatch.setattr(frobenius, "_cells", lambda base: built.append(base) or cells(base))
    rng = random.Random(1962)
    nested = sieved = 0
    for _ in range(300):
        k = rng.randint(4, 6)
        a, d1, d2 = _planted(rng, k)
        scale, shift, reduced = _johnson(sorted(a))
        assert len(reduced) == k and reduced == sorted(reduced), a
        assert not any(math.gcd(*reduced[:j], *reduced[j + 1 :]) > 1 for j in range(k)), a
        assert scale % (d1 * d2) == 0, a
        built.clear()
        g = frobenius_exact(rng.sample(a, k))
        assert built == [reduced[0]], a
        assert g == _table_g(a) == scale * _table_g(reduced) + shift, a
        if max(a) <= 60:
            assert g == _frobenius_sieve(a), a
            sieved += 1
        nested += d2 > 1
    assert nested > 80 and sieved > 200
    # (8, 12, 18, 27) shares 3 on (12, 18, 27) and then 2 on (4, 6, 8).
    assert _johnson([8, 12, 18, 27]) == (6, 43, [2, 3, 4, 9])
    assert frobenius_exact((8, 12, 18, 27)) == 6 * 1 + 43 == _frobenius_sieve((8, 12, 18, 27))


def test_the_certificate_accepts_each_table_and_rejects_each_mutant():
    # N[0] is pinned to 0.  Any other entry raised by 1 or a_1 is shortened
    # by its tight incoming edge.  One lowered meets no incoming edge, unless
    # it first shortens an entry whose tight edge leaves it.
    shortened = "N[(r + a_j) mod a_1] <= N[r] + a_j"
    untight = "N[r] == N[(r - a_j) mod a_1] + a_j for some j"
    mutants = Counter()
    for coeffs in _round_robin_cases():
        instance = {"coeffs": coeffs}
        table = _residue_table(coeffs)
        assert _certify_residue_table(instance, table) is None, coeffs
        base = len(table)
        for r in {0, base // 2, base - 1}:
            for delta in (1, -1, base, -base):
                mutant = list(table)
                mutant[r] += delta
                found = _certify_residue_table(instance, mutant)
                assert found is not None, (coeffs, r, delta)
                if r == 0:
                    assert found.relation == "N[0] == 0"
                elif delta > 0:
                    assert found.relation == shortened
                else:
                    assert found.relation in (shortened, untight)
                mutants[found.relation] += 1
    # 406 tables, up to three entries of each, each entry changed four ways.
    assert sum(mutants.values()) == 4324
    assert set(mutants) == {"N[0] == 0", shortened, untight}


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
    # The table needs a_1 = min(a) cells, whatever the order of the
    # coefficients, and refuses before allocating them.  Only k >= 4 builds
    # one: pairs and triples have closed forms.
    over = FROBENIUS_MAX_CELLS + 1
    with pytest.raises(BudgetExceededError):
        frobenius_exact((over + 3, over + 1, over + 2, over))
    with pytest.raises(BudgetExceededError):
        _residue_table((over + 1, over))
    # s-_k is no part of the budget: this pair's is about 10^8, over the
    # cap, and its table takes 10007 cells.
    assert bound_frobenius((10007, 10009)).brauer_upper + 1 > FROBENIUS_MAX_CELLS
    assert len(_residue_table((10009, 10007))) == 10007
    # The cap is on the table actually allocated, of min(reduced a) cells:
    # d (5, 7, 9) with one more coefficient reduces to a table of 5 cells,
    # and d times four primes over the cap to a table still over it.
    d = FROBENIUS_MAX_CELLS + 19
    assert frobenius_exact((5 * d, 7 * d, 9 * d, over)) == d * frobenius_exact(
        (5, 7, 9, over)
    ) + (d - 1) * over
    with pytest.raises(BudgetExceededError):
        frobenius_exact((2 * over, 2 * (over + 2), 2 * (over + 6), over + 4))


def _rodseth_step_by_step(a1, a2, a3):
    """Rodseth's formula for a pairwise coprime triple whose smallest entry
    a_1 > 1 comes first, one quotient of the continued fraction at a time,
    with no run jump: the reference for the jump."""
    s_prev, p_prev, s, p = a1, 0, a3 * pow(a2, -1, a1) % a1, 1
    while a2 * s > a3 * p:
        q = -(-s_prev // s)
        s_prev, p_prev, s, p = s, p, q * s - s_prev, q * p - p_prev
    return -a1 + a2 * (s_prev - 1) + a3 * (p - 1) - min(a2 * s, a3 * p_prev)


def _all_twos(a1, a2, c):
    """A triple with a_3 = -a_2 mod a_1, so s_0 = a_1 - 1 and every quotient
    of the continued fraction of a_1 / s_0 is 2."""
    return a1, a2, c * a1 + (-a2 % a1)


def test_every_pair_and_triple_up_to_40_matches_the_table():
    # With replacement: duplicates, a 1, and pairs that share a factor.
    checked = 0
    for k in (2, 3):
        for coeffs in itertools.combinations_with_replacement(range(1, 41), k):
            if math.gcd(*coeffs) == 1:
                for order in (coeffs, coeffs[::-1]):
                    assert frobenius_exact(order) == _table_g(order), order
                checked += 1
    assert checked == 490 + 9389
    assert frobenius_exact((6, 9, 20)) == 43  # Johnson's reduction twice


def test_the_boxes_of_every_triple_up_to_40_are_its_residue_table():
    # With a_1 = min(a) the boxes hold the Apery set, one value per residue,
    # so they expand to the plain table's values and their largest top less
    # a_1 is the table's g.  The reduction glues at most twice, so a box has
    # at most the L-shape's two sides and two glued ones.
    checked = most_sides = 0
    for coeffs in itertools.combinations_with_replacement(range(1, 41), 3):
        if math.gcd(*coeffs) == 1:
            boxes = _apery(*coeffs)
            table = _residue_table(coeffs)
            assert all(count >= 1 for _, sides in boxes for _, count in sides), coeffs
            assert sorted(_expanded(boxes)) == sorted(table), coeffs
            assert max(map(_top, boxes)) - coeffs[0] == max(table) - len(table), coeffs
            most_sides = max(most_sides, *(len(sides) for _, sides in boxes))
            checked += 1
    assert checked == 9389
    assert most_sides == 4


def test_drawn_triples_up_to_1e40_match_the_step_by_step_loop():
    # Past the table's reach: pairwise coprime triples up to 10^40,
    # g from the boxes in either order against Rodseth's formula one
    # quotient at a time.
    rng = random.Random(2005)
    drawn = 0
    while drawn < 500:
        coeffs = sorted(rng.randint(2, 10 ** rng.randint(1, 40)) for _ in range(3))
        if all(math.gcd(x, y) == 1 for x, y in itertools.combinations(coeffs, 2)):
            g = _rodseth_step_by_step(*coeffs)
            assert frobenius_exact(coeffs) == frobenius_exact(coeffs[::-1]) == g, coeffs
            drawn += 1


def test_drawn_triples_match_the_table():
    rng = random.Random(1978)
    drawn = 0
    while drawn < 3000:
        coeffs = tuple(rng.randint(1, 3000) for _ in range(3))
        if math.gcd(*coeffs) == 1:
            assert frobenius_exact(coeffs) == _table_g(coeffs), coeffs
            drawn += 1


def test_runs_of_quotient_two_match_the_table_and_the_step_by_step_loop():
    family = 0
    for a1 in range(2, 400):
        for a2 in (a1 + 1, 2 * a1 + 1, 3 * a1 - 1):
            for c in (1, 2, 5):
                coeffs = _all_twos(a1, a2, c)
                if all(math.gcd(x, y) == 1 for x, y in itertools.combinations(coeffs, 2)):
                    assert frobenius_exact(coeffs) == _table_g(coeffs), coeffs
                    family += 1
    assert family > 1000
    for a1 in (99991, 100000, 100003):
        for a2 in (a1 + 1, 2 * a1 + 3):
            coeffs = _all_twos(a1, a2, 1)
            assert all(math.gcd(x, y) == 1 for x, y in itertools.combinations(coeffs, 2))
            assert frobenius_exact(coeffs) == _rodseth_step_by_step(*coeffs), coeffs


@pytest.mark.parametrize(
    "coeffs",
    [
        (2**61 - 1, 2**89 - 1, 2**127 - 1),
        # s_0 = a_1 - 1: about 10^30 quotients of 2 without the run jump.
        _all_twos(10**30 + 57, 10**30 + 58, 1),
    ],
)
def test_a_triple_of_any_size_answers_at_once(coeffs):
    started = time.perf_counter()
    report = bound_frobenius(coeffs)
    assert time.perf_counter() - started < 0.1
    assert 0 < report.g <= report.brauer_upper


def test_pairs_and_triples_build_no_table(monkeypatch):
    # Every table is allocated by `_cells`; the plain round robin is refused
    # outright, so the one table k >= 4 builds is the seeded one.
    def refused(a):
        raise AssertionError("a round-robin residue table was built")

    built = []
    cells = frobenius._cells
    monkeypatch.setattr(frobenius, "_residue_table", refused)
    monkeypatch.setattr(frobenius, "_cells", lambda base: built.append(base) or cells(base))
    over = FROBENIUS_MAX_CELLS + 1
    assert frobenius_exact((3, 5)) == 7
    assert frobenius_exact((over, over + 1)) == over * (over + 1) - 2 * over - 1
    assert frobenius_exact((6, 9, 20)) == 43
    assert frobenius_exact((5, 1, 9)) == -1
    assert bound_frobenius((over, over + 1, over + 2)).g > 0
    assert built == []
    assert frobenius_exact((6, 9, 20, 25)) == _frobenius_sieve((6, 9, 20, 25))
    assert built == [6]
    # A k >= 4 call allocates one table, of min(reduced a) cells: (8, 12,
    # 18, 27) reduces to (2, 3, 4, 9) and (14, 21, 35, 10) to (2, 3, 5, 10).
    for coeffs, cells_of_reduced in (((8, 12, 18, 27), 2), ((14, 21, 35, 10), 2)):
        built.clear()
        assert frobenius_exact(coeffs) == _frobenius_sieve(coeffs)
        assert built == [cells_of_reduced]


def test_a_unit_coefficient_needs_one_table_cell():
    # With a 1 among the coefficients every n >= 0 is representable, and
    # a_1 = 1 leaves the table one cell, N[0] = 0, however large s-_k is.
    coeffs = (10**6, 10**6 + 2, 1)
    report = bound_frobenius(coeffs)
    assert (report.g, report.brauer_upper) == (-1, 499_998_999_999)
    assert report.brauer_upper + 1 > FROBENIUS_MAX_CELLS
    assert _residue_table(coeffs) == [0]


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


@pytest.mark.parametrize(
    "a, expected",
    [
        ((1,), (TooShortTupleError, "the bounds need at least two coefficients, got (1,)")),
        ((2,), (NotCoprimeError, "(2,) has gcd > 1; no Frobenius number exists")),
        ((4, 6), (NotCoprimeError, "(4, 6) has gcd > 1; no Frobenius number exists")),
        ((1, 5), ((1, 5), -1, -1)),
        ((3, 5, 7), ((3, 5, 7), 4, 7)),
        ([True, 3], ((1, 3), -1, -1)),
    ],
)
def test_report_edges_keep_their_values_and_errors(a, expected):
    # A coprime single coefficient has a g but no shift sequence, so (1,)
    # is refused for its length, and (2,) for its gcd first.
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as caught:
            bound_frobenius(a)
        assert type(caught.value) is error and str(caught.value) == message
    else:
        report = bound_frobenius(a)
        assert (report.coeffs, report.g, report.brauer_upper) == expected
        assert type(report.brauer_upper) is int


_RECORDED_FROBENIUS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "expected.json").read_text()
)["frobenius-large"]


def test_the_report_builds_no_shift_sequences(monkeypatch):
    # brauer_upper is read as an integer, so every frobenius-large
    # operation writes its recorded row with the Fraction sequences refused.
    def refused(*_):
        raise AssertionError("the shift sequences were built")

    monkeypatch.setattr(bounds, "bound_sequences", refused)
    monkeypatch.setattr(bounds, "BoundSequences", refused)
    assert len(_RECORDED_FROBENIUS) == 40
    for key, digest in _RECORDED_FROBENIUS.items():
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(key.split(" ")) == 0, key
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, key


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=2, max_size=7))
def test_brauer_upper_is_the_last_lower_shift(coeffs):
    d = math.gcd(*coeffs)
    coeffs = tuple(c // d for c in coeffs)
    report = bound_frobenius(coeffs)
    assert report.brauer_upper == bound_sequences(coeffs).lower_shifts[-1]


def test_the_report_validates_its_tuple_at_most_three_times():
    # Once for the tuple given; frobenius_exact and gcd_chain are public
    # and validate what they are given, once each.
    validate = core.as_coeffs.__code__
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is validate:
            calls["as_coeffs"] += 1

    for a in ((3, 5), (3, 5, 7), [7, 11, 13, 17], (1,), (4, 6)):
        calls.clear()
        sys.setprofile(profile)
        try:
            bound_frobenius(a)
        except (TooShortTupleError, NotCoprimeError):
            pass
        finally:
            sys.setprofile(None)
        assert calls["as_coeffs"] <= 3, a


def test_root_bounds_match_predicates():
    # A root bound would be the largest n whose upper bound is below 1.
    # Both upper bounds are at least 1 from n = 0 on, so no n qualifies.
    for coeffs in ((3, 5, 7), (5, 7, 9, 11), (11, 13), (2, 3, 5)):
        k = len(coeffs)
        prod = math.prod(coeffs)
        shift_1 = bound_sequences(coeffs).upper_shifts[-1]
        # r_k = a_1 + (a_2 + ... + a_k) / 2, the relaxed chain's shift.
        shift_2 = coeffs[0] + Fraction(sum(coeffs[1:]), 2)
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
