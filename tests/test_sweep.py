import json
import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from denumerant import (
    Failure,
    FrobeniusReport,
    InvariantViolationError,
    SplitMix64,
    SweepConfig,
    bound_frobenius,
    denumerant,
    run_verify,
    shrink_failure,
)
from denumerant import bfnum, bounds, exact, frobenius, powersum, sweep
from denumerant.exact import CountResult
from denumerant.sweep import _draw_coprime_tuple, _draw_pair, _draw_tuple


def test_splitmix_reference_vector():
    # First outputs for seed 0, as published for the reference stream.
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_uniform_draws_in_range():
    g = SplitMix64(42)
    values = [g.uniform(3, 9) for _ in range(200)]
    assert set(values) <= set(range(3, 10))
    assert len(set(values)) > 1


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(suite="nope")
    with pytest.raises(ValueError):
        SweepConfig(suite="oracle-eq", trials=0)
    with pytest.raises(ValueError):
        SweepConfig(suite="oracle-eq", k_range=(3, 2))
    with pytest.raises(ValueError):
        SweepConfig(suite="inequality-a", k_range=(1, 1))
    with pytest.raises(ValueError):
        SweepConfig(suite="oracle-eq", n_max=-1)
    with pytest.raises(ValueError, match="max_coeff must be >= 1"):
        SweepConfig(suite="dhat", max_coeff=0)


def test_draw_protocols():
    cfg = SweepConfig(suite="oracle-eq", k_range=(1, 4), max_coeff=12)
    g = SplitMix64(5)
    for _ in range(50):
        coeffs = _draw_tuple(g, cfg)
        assert 1 <= len(coeffs) <= 4
        assert all(1 <= c <= 12 for c in coeffs)
    cfg = SweepConfig(suite="inequality-a", k_range=(1, 4), max_coeff=12)
    for _ in range(50):
        coeffs = _draw_coprime_tuple(g, cfg)
        assert len(coeffs) >= 2
        assert math.gcd(*coeffs) == 1
    for _ in range(50):
        pair = _draw_pair(g, SweepConfig(suite="popoviciu", max_coeff=9))
        assert len(pair) == 2 and math.gcd(*pair) == 1


def _without_wall_time(report) -> dict:
    data = json.loads(report.to_json())
    del data["wall_time_s"]
    return data


def test_reports_are_deterministic():
    cfg = SweepConfig(suite="inequality-a", seed=11, trials=40, k_range=(2, 4))
    first = run_verify(cfg)
    second = run_verify(cfg)
    assert _without_wall_time(first) == _without_wall_time(second)
    assert first.instances == 40
    assert first.passed


def test_all_suites_pass_briefly():
    settings = {
        "oracle-eq": dict(trials=30),
        "popoviciu": dict(trials=30),
        "inequality-a": dict(trials=30),
        "inequality-b": dict(trials=30),
        "dhat": dict(trials=20, k_range=(1, 4)),
        "frobenius": dict(trials=12),
        "bf-identities": dict(trials=8, k_range=(2, 8)),
        "asymptotic": dict(trials=4),
    }
    for suite, extra in settings.items():
        report = run_verify(SweepConfig(suite=suite, seed=3, **extra))
        assert report.passed, f"{suite}: {report.failures[:2]}"
        assert report.suite == suite


def test_shrinking_minimizes_n_then_coeffs():
    # A synthetic property that fails whenever n >= 10: the shrinker must
    # push n down to the boundary and every coefficient down to 1.
    def check(instance):
        if instance["n"] >= 10:
            return Failure(instance, "n stays below 10", str(instance["n"]), "10")
        return None

    start = {"coeffs": (9, 7), "n": 97}
    minimal = shrink_failure(start, check, "n stays below 10")
    assert minimal["n"] == 10
    assert minimal["coeffs"] == (1, 1)


def test_shrinking_respects_relation_match():
    # Candidates that fail a different relation must not be accepted.
    def check(instance):
        if instance["n"] >= 50:
            return Failure(instance, "big", str(instance["n"]), "50")
        if instance["n"] >= 10:
            return Failure(instance, "medium", str(instance["n"]), "10")
        return None

    minimal = shrink_failure({"coeffs": (3,), "n": 80}, check, "big")
    assert minimal["n"] == 50


def test_shrinking_does_not_revisit_n_after_the_coefficients():
    # The order is n first, then the coefficients: once a_1 shrinks to 1
    # the check would fail at n = 10 too, but n is not shrunk again.
    def check(instance):
        if instance["n"] >= 10 * instance["coeffs"][0]:
            return Failure(instance, "n < 10 a_1", str(instance["n"]), "")
        return None

    minimal = shrink_failure({"coeffs": (9,), "n": 97}, check, "n < 10 a_1")
    assert minimal == {"coeffs": (1,), "n": 90}


def test_report_json_shape():
    report = run_verify(SweepConfig(suite="popoviciu", seed=2, trials=10))
    data = json.loads(report.to_json())
    assert data["suite"] == "popoviciu"
    assert data["instances"] == 10
    assert data["failures"] == []
    assert "wall_time_s" in data
    assert data["config"]["seed"] == 2
    assert set(data) == {"config", "failures", "instances", "suite", "wall_time_s"}


def test_powersum_suite_evaluates_each_point_once(monkeypatch):
    # The grid reads its estimates once per (j, k) (7 x 321), and sums term
    # by term once per chain end (7 x 5 x 16) and once per step identity
    # point n = 0..21 (7 x 5 x 22), whichever module the call goes through.
    calls = Counter()

    def counted(name, original):
        def count(*args):
            calls[name] += 1
            return original(*args)

        return count

    monkeypatch.setattr(sweep, "_estimates", counted("_estimates", powersum._estimates))
    enclosure = counted("_enclosure", powersum._enclosure)
    monkeypatch.setattr(powersum, "_enclosure", enclosure)
    monkeypatch.setattr(sweep, "_enclosure", enclosure)
    report = run_verify(SweepConfig(suite="powersum", seed=1, trials=1))
    assert report.passed
    assert calls["_estimates"] == 2_247 == 7 * 321
    assert calls["_enclosure"] == 1_330 == 7 * 5 * (16 + 22)


def test_powersum_suite_names_the_first_broken_enclosure_relation(monkeypatch):
    # The enclosure holds on the whole grid, so only patched estimates can
    # show which relation a failure names.  One set of estimates serves all
    # five shifts, so each is moved past the sum at every shift: the sum
    # lies between its first term (steps = 1) and its value at s = 0
    # (steps = p // 16 + 1).  The sums are left as they are, so the chain
    # ends and the step identity stay intact.
    def breaking(*flags):
        def patched(p, d, k):
            scale, crude, refined, upper, cap = powersum._estimates(p, d, k)
            # Each False flag moves its estimate just past the sum.
            if not flags[1]:
                refined = powersum._enclosure(p, d, k, p // d + 1)[1] + 1
            if not flags[0]:
                crude = refined + 1
            if not flags[2]:
                upper = powersum._enclosure(p, d, k, 1)[1] - 1
            return scale, crude, refined, upper, cap

        return patched

    expected = {
        (False, False, True): "crude lower <= refined lower",
        (True, False, False): "refined lower <= power sum",
        (True, True, False): "power sum <= upper",
    }
    for flags, relation in expected.items():
        patched = breaking(*flags)
        monkeypatch.setattr(sweep, "_estimates", patched)
        report = run_verify(SweepConfig(suite="powersum", seed=1, trials=1))
        assert len(report.failures) == 7 * 5 * 321
        assert {f.relation for f in report.failures} == {relation}
        # Each failure prints the two sides of its pair, over the scale L.
        lhs, rhs = relation.split(" <= ")
        for f in report.failures:
            k, c = f.instance["k"], Fraction(f.instance["c"])
            j, s = int((Fraction(f.instance["x"]) + c) * 16), int(c * 8)
            scale, crude, refined, upper, _ = patched(j, 16, k)
            total = powersum._enclosure(j, 16, k, max(j - 2 * s, 0) // 16 + 1)[1]
            sides = {
                "crude lower": crude, "refined lower": refined,
                "power sum": total, "upper": upper,
            }
            assert f.lhs == str(Fraction(sides[lhs], scale))
            assert f.rhs == str(Fraction(sides[rhs], scale))


def test_powersum_walk_matches_the_term_by_term_sum_at_every_grid_point(monkeypatch):
    # Every running sum the suite walks, not only those at the chain ends,
    # against the kernel's term-by-term sum at the same point.
    walked = []
    original = sweep._chain_sums

    def recorded(terms, s):
        sums = original(terms, s)
        walked.append((s, sums))
        return sums

    monkeypatch.setattr(sweep, "_chain_sums", recorded)
    assert run_verify(SweepConfig(suite="powersum", seed=1, trials=1)).passed
    points = 0
    shifts = [(k, s) for k in range(2, 9) for s in range(5)]
    assert [s for s, _ in walked] == [s for _, s in shifts]
    for (k, s), (_, sums) in zip(shifts, walked):
        assert len(sums) == 321
        for j, total in enumerate(sums):
            points += 1
            steps = max(j - 2 * s, 0) // 16 + 1
            assert total == powersum._enclosure(j, 16, k, steps)[1]
    assert points == 11_235 == 7 * 5 * 321


def _walk_carrying_when(carries):
    # sweep._chain_sums with its carry test replaced.
    def chain_sums(terms, s):
        sums = []
        for j, term in enumerate(terms):
            sums.append(term + sums[j - 16] if carries(j, s) else term)
        return sums

    return chain_sums


def _grid_points(points):
    return {
        (k, str(Fraction(s, 8)), str(Fraction(j, 16) - Fraction(s, 8)))
        for k, s, j in points
    }


@pytest.mark.parametrize(
    "carries, chain_end_failures",
    [
        # A strict cutoff drops the term 2s at j = 16 + 2s, which is 0 for
        # s = 0; the chain of residue 2s ends at j = 304 + 2s.
        (
            lambda j, s: j - 16 > 2 * s,
            [(k, s, 304 + 2 * s) for k in range(2, 9) for s in range(1, 5)],
        ),
        # A cutoff that ignores s carries for 16 <= j < 16 + 2s, where
        # [x] = 0; j = 16 carries 0^k, so the chains of residues 1..2s-1 go
        # wrong.
        (
            lambda j, s: j >= 16,
            [
                (k, s, 304 + r)
                for k in range(2, 9)
                for s in range(5)
                for r in range(1, 2 * s)
            ],
        ),
    ],
    ids=["strict cutoff", "cutoff ignoring s"],
)
def test_powersum_chain_ends_catch_a_carry_at_the_wrong_point(
    monkeypatch, carries, chain_end_failures
):
    # Both mutants keep every sum inside the enclosure, so only the chain
    # ends, where the walked sum meets the term-by-term one, can see them.
    monkeypatch.setattr(sweep, "_chain_sums", _walk_carrying_when(carries))
    report = run_verify(SweepConfig(suite="powersum", seed=1, trials=1))
    assert {f.relation for f in report.failures} == {
        "walked power sum == term-by-term sum"
    }
    found = [(f.instance["k"], f.instance["c"], f.instance["x"]) for f in report.failures]
    assert len(found) == len(chain_end_failures)
    assert set(found) == _grid_points(chain_end_failures)


def per_value_frobenius_check(instance):
    # The frobenius relations with one denumerant call per value, as the
    # suite made them before it read the window from one row.
    coeffs = instance["coeffs"]
    report = sweep.bound_frobenius(coeffs)
    g = report.g
    table = sweep._residue_table(coeffs)
    failure = sweep._certify_residue_table(instance, table)
    if failure is not None:
        return failure
    certified = max(table) - len(table)
    if g != certified:
        return sweep._fail(instance, "bound_frobenius(a).g == max(N) - a_1", g, certified)
    if not g <= report.brauer_upper:
        return sweep._fail(instance, "g <= brauer_upper", g, report.brauer_upper)
    if g >= 0 and denumerant(coeffs, g).value != 0:
        return sweep._fail(
            instance, "denumerant(a, g) == 0", denumerant(coeffs, g).value, 0
        )
    top = g + min(coeffs) + report.brauer_upper
    for value in range(max(g + 1, 0), min(top, g + 400) + 1):
        if denumerant(coeffs, value).value == 0:
            return sweep._fail(instance, "denumerant(a, n) > 0 for n > g", 0, value)
    return None


def test_the_frobenius_window_read_from_one_row_matches_per_value_counts(
    monkeypatch,
):
    # A correct g passes both; a g reported too low or too high fails both
    # at the same relation and values.  The table is patched to the
    # one-cell table [g + 1], whose max(N) - a_1 is the reported g, and its
    # certificate to pass, so the check reaches the window.
    monkeypatch.setattr(sweep, "_certify_residue_table", lambda instance, table: None)
    rng = SplitMix64(18)
    cfg = SweepConfig(suite="frobenius", k_range=(2, 4), max_coeff=40)
    relations = Counter()
    for _ in range(40):
        coeffs = _draw_coprime_tuple(rng, cfg)
        report = bound_frobenius(coeffs)
        gaps = [m for m in range(report.g + 1) if denumerant(coeffs, m).value == 0]
        for g in {report.g, report.g + 1, -1, *gaps[-3:], *gaps[:2]}:
            fake = FrobeniusReport(report.coeffs, g, report.brauer_upper)
            monkeypatch.setattr(sweep, "bound_frobenius", lambda a, r=fake: r)
            monkeypatch.setattr(sweep, "_residue_table", lambda a, g=g: [g + 1])
            instance = {"coeffs": coeffs}
            found = sweep._check_frobenius(instance)
            assert found == per_value_frobenius_check(instance), (coeffs, g)
            relations[None if found is None else found.relation] += 1
    assert set(relations) == {
        None,
        "denumerant(a, g) == 0",
        "denumerant(a, n) > 0 for n > g",
        "g <= brauer_upper",
    }


def test_the_frobenius_check_reads_only_its_window(monkeypatch):
    # D(g..top) is at most 401 cells, however long the row below g; the
    # cache is fresh so that no extension reads a short row's tail.
    monkeypatch.setattr(exact, "_prefix_counts", exact._RowCache())
    spans = []
    counts = exact._Row.counts

    def recorded(self, cap, start=0):
        spans.append(cap + 1 - start)
        return counts(self, cap, start)

    monkeypatch.setattr(exact._Row, "counts", recorded)
    for coeffs in ((40, 37), (12, 17, 31), (101, 97, 89, 83), (3, 1000)):
        spans.clear()
        report = bound_frobenius(coeffs)
        top = min(report.g + min(coeffs) + report.brauer_upper, report.g + 400)
        assert sweep._check_frobenius({"coeffs": coeffs}) is None
        assert top - report.g + 1 in spans
        assert max(spans) <= top - report.g + 1, coeffs


def test_inequality_b_reads_the_rows_inequality_a_built(monkeypatch):
    # At their acceptance configs the two suites draw the same tuples and
    # targets, so with every row of the first run kept the second builds
    # none; a cache of 32 rows built 438 of them again.
    monkeypatch.setattr(exact, "_prefix_counts", exact._RowCache())
    common = dict(seed=2, trials=500, k_range=(2, 5), max_coeff=15, n_max=400)
    assert run_verify(SweepConfig(suite="inequality-a", **common)).passed
    before = exact._prefix_counts.cache_info()
    assert before.misses > 0
    report = run_verify(SweepConfig(suite="inequality-b", **common))
    assert report.passed and report.instances == 500
    after = exact._prefix_counts.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_skipped_instances_are_counted_outside_the_report():
    # Three of these five pairs have g of 4194304 or more, so the window's
    # DP row above g is over its cell budget.
    cfg = SweepConfig(suite="frobenius", trials=5, k_range=(2, 2), max_coeff=20000)
    report = run_verify(cfg)
    assert report.instances == 5 and report.passed
    assert report.skipped == {"BudgetExceededError": 3}
    assert "skipped" not in json.loads(report.to_json())
    assert run_verify(SweepConfig(suite="popoviciu", trials=10)).skipped == {}


def test_the_frobenius_suite_checks_triples_whose_s_k_is_over_the_table_budget():
    # Two of these five triples have s-_k over FROBENIUS_MAX_CELLS, but the
    # certificate works on the a_1 cells of the residue table and their
    # windows' DP rows stay under budget, so none is skipped.
    cfg = SweepConfig(suite="frobenius", seed=2, trials=5, k_range=(3, 3), max_coeff=5000)
    report = run_verify(cfg)
    assert report.instances == 5 and report.passed
    assert report.skipped == {}


def test_the_frobenius_suite_compares_the_triple_route_with_the_table(monkeypatch):
    # Triples answer by the largest top of their Apery boxes, the table
    # stays the certified slow route, and the suite compares the two on
    # every drawn triple.
    cfg = SweepConfig(suite="frobenius", trials=20, k_range=(3, 3))
    assert run_verify(cfg).passed
    top = frobenius._top
    monkeypatch.setattr(frobenius, "_top", lambda box: top(box) + 1)
    report = run_verify(cfg)
    assert len(report.failures) == 20
    assert {f.relation for f in report.failures} == {
        "bound_frobenius(a).g == max(N) - a_1"
    }


def test_the_frobenius_suite_compares_the_seeded_table_with_the_round_robin(
    monkeypatch,
):
    # A triple reads g off its Apery boxes and k >= 4 off the table they
    # seed, and the sweep certifies the plain round robin, so
    # g == max(N) - a_1 compares two routes at both.  Boxes whose last box
    # has its longest side one count short, at every level of `_apery`'s
    # recursion, fail it for both at the acceptance config.
    apery = frobenius._apery

    def last_side_short(a, b, c):
        *boxes, (start, sides) = apery(a, b, c)
        i = max(range(len(sides)), key=lambda j: sides[j][1])
        step, count = sides[i]
        return [*boxes, (start, (*sides[:i], (step, count - 1), *sides[i + 1 :]))]

    monkeypatch.setattr(frobenius, "_apery", last_side_short)
    cfg = SweepConfig(suite="frobenius", seed=4, trials=200, k_range=(2, 4), max_coeff=25)
    report = run_verify(cfg)
    assert len(report.failures) > 10
    assert {f.relation for f in report.failures} == {"bound_frobenius(a).g == max(N) - a_1"}
    assert {len(f.instance["coeffs"]) for f in report.failures} == {3, 4}


def test_a_frobenius_run_past_k_4_reaches_the_middle_laps(monkeypatch):
    # The acceptance config draws k <= 4, so its tables have no lap between
    # the seeded boxes and the last one, and `_apery` never meets three
    # coefficients with a common factor.  A run at k = 4..7 reaches both: it
    # passes, some `_apery` call takes the common-factor branch, and a
    # reduction that drops the middle coefficients fails it while the
    # acceptance config still passes.
    wide = SweepConfig(suite="frobenius", seed=9, trials=300, k_range=(4, 7), max_coeff=40)
    apery = frobenius._apery
    factors = []

    def recorded(a, b, c):
        factors.append(math.gcd(a, b, c))
        return apery(a, b, c)

    monkeypatch.setattr(frobenius, "_apery", recorded)
    assert run_verify(wide).passed
    assert max(factors) > 1
    johnson = frobenius._johnson

    def middle_dropped(coeffs):
        scale, shift, reduced = johnson(coeffs)
        return scale, shift, reduced[:3] + reduced[-1:]

    monkeypatch.setattr(frobenius, "_johnson", middle_dropped)
    cfg = SweepConfig(suite="frobenius", seed=4, trials=200, k_range=(2, 4), max_coeff=25)
    assert run_verify(cfg).passed
    report = run_verify(wide)
    assert len(report.failures) > 10
    assert {f.relation for f in report.failures} == {"bound_frobenius(a).g == max(N) - a_1"}


def test_a_table_entry_left_at_infinity_is_named_not_raised(monkeypatch):
    # A k >= 4 table that keeps an entry at infinity gives g = inf, which has
    # no DP window: the certificate names an edge that shortens the entry.
    # The other case, bound_frobenius's laid-out table broken while the
    # sweep's own is true, fails the comparison of g with the certified
    # table: there the last lap meets a class left at infinity, which makes
    # max(N) infinite too.
    def one_entry_left(route):
        def table(a):
            full = route(a)
            return full[:-1] + [math.inf] if len(a) >= 4 and len(full) > 1 else full

        return table

    def one_class_left(last_lap_top):
        def top(table, coeff):
            d = math.gcd(len(table), coeff)
            if len(table) > 1:
                table = list(table)
                table[d - 1 :: d] = [math.inf] * (len(table) // d)
            return last_lap_top(table, coeff)

        return top

    cfg = SweepConfig(suite="frobenius", seed=4, trials=200, k_range=(2, 4), max_coeff=25)
    monkeypatch.setattr(frobenius, "_last_lap_top", one_class_left(frobenius._last_lap_top))
    report = run_verify(cfg)
    assert {f.relation for f in report.failures} == {"bound_frobenius(a).g == max(N) - a_1"}
    assert {f.lhs for f in report.failures} == {"inf"}
    assert {len(f.instance["coeffs"]) for f in report.failures} == {4}
    monkeypatch.setattr(sweep, "_residue_table", one_entry_left(sweep._residue_table))
    report = run_verify(cfg)
    assert report.failures
    assert {f.relation for f in report.failures} == {"N[(r + a_j) mod a_1] <= N[r] + a_j"}
    assert all(len(f.instance["coeffs"]) == 4 for f in report.failures)


def test_a_check_that_raises_is_shrunk_like_a_broken_relation(monkeypatch):
    # A closed form that raises from n = 5 on fails every pair drawn past
    # it, and each failure shrinks to the least instance that raises: n = 5,
    # then both coefficients down to 1.
    closed = sweep.popoviciu

    def raising(a1, a2, n):
        if n >= 5:
            raise ZeroDivisionError("planted")
        return closed(a1, a2, n)

    monkeypatch.setattr(sweep, "popoviciu", raising)
    report = run_verify(SweepConfig(suite="popoviciu", trials=20))
    assert report.instances == 20
    assert len(report.failures) > 10
    assert {(f.relation, f.lhs, f.rhs) for f in report.failures} == {
        ("the check raises no exception", "ZeroDivisionError", "planted")
    }
    assert all(f.instance == {"coeffs": (1, 1), "n": 5} for f in report.failures)


def test_suite_names_follow_the_dispatch_table():
    assert sweep.SUITE_NAMES == tuple(sweep._SUITES) == (
        "oracle-eq", "popoviciu", "inequality-a", "inequality-b", "powersum",
        "dhat", "frobenius", "bf-identities", "asymptotic",
    )
    # Coprime draws need k >= 2 to be possible; the other suites take k = 1.
    for suite in ("inequality-a", "inequality-b", "frobenius", "asymptotic"):
        with pytest.raises(ValueError):
            SweepConfig(suite=suite, k_range=(1, 1))
    for suite in ("oracle-eq", "popoviciu", "powersum", "dhat", "bf-identities"):
        assert SweepConfig(suite=suite, k_range=(1, 1)).k_range == (1, 1)


def test_asymptotic_checks_the_upper_side_below_the_lower_shift(monkeypatch):
    # (97, 89) has s-_2 = 8447, above both points, so only the upper side
    # applies at n = 1000; a count that is too large must still be caught.
    assert sweep.inequality_a((97, 89), 1000).applicable_lower is False
    monkeypatch.setattr(sweep, "denumerant", lambda a, n: CountResult(10**9, "patched"))
    failure = sweep._check_asymptotic({"coeffs": (97, 89)})
    assert failure is not None
    assert failure.relation == "exact <= upper_a"
    assert failure.instance == {"coeffs": (97, 89), "n": 1000}


def test_asymptotic_checks_the_lower_side(monkeypatch):
    assert sweep._check_asymptotic({"coeffs": (3, 5)}) is None
    monkeypatch.setattr(sweep, "denumerant", lambda a, n: CountResult(0, "patched"))
    failure = sweep._check_asymptotic({"coeffs": (3, 5)})
    assert failure is not None
    assert failure.relation == "lower_a <= exact"
    assert failure.instance == {"coeffs": (3, 5), "n": 1000}


def _shift_route(name, change):
    # Patch the sweep's binding of a route so that each value it returns
    # goes through change(value, *args).
    def patch(monkeypatch):
        route = getattr(sweep, name)
        monkeypatch.setattr(
            sweep, name, lambda *args, route=route: change(route(*args), *args)
        )

    return patch


def _count_plus_one(result, *_):
    return CountResult(result.value + 1, "patched")


def _raise_invariant(*_):
    raise InvariantViolationError("patched closed form")


def _series_numerator(change):
    # The bounds' class is patched; the sweep reaches it through its sandwich.
    # change(self, lower, series) edits lower_b's numerator where it is claimed.
    def patch(monkeypatch):
        original = bounds._Sandwich.numerators

        def numerators(self, lo, hi):
            lower, series, upper = map(list, original(self, lo, hi))
            changed = [s if s is None else change(self, v, s) for v, s in zip(lower, series)]
            return lower, changed, upper

        monkeypatch.setattr(bounds._Sandwich, "numerators", numerators)

    return patch


def _lower_b_above_a_pair(monkeypatch):
    # Above lower_a, and below a count that is patched to be huge.
    _series_numerator(lambda self, lower, series: series + 1)(monkeypatch)
    monkeypatch.setattr(sweep, "denumerant", lambda a, n: CountResult(10**9, "patched"))


def _enclosure_patch(change):
    def patch(monkeypatch):
        original = powersum._enclosure

        def patched(p, d, k, steps):
            return change(original(p, d, k, steps), d, steps)

        monkeypatch.setattr(sweep, "_enclosure", patched)

    return patch


def _cap_below_the_sum(monkeypatch):
    # The grid reads one set of estimates for all five shifts; the sum's
    # first term, times L, is at most the sum at each of them.
    original = sweep._estimates

    def patched(p, d, k):
        scale, crude, refined, upper, _ = original(p, d, k)
        return scale, crude, refined, upper, powersum._enclosure(p, d, k, 1)[1] - 1

    monkeypatch.setattr(sweep, "_estimates", patched)


def _step_off_by_one(values, d, steps):
    # Only the step identity takes d = 8; the grid takes d = 16.
    scale, total, *rest = values
    return (scale, total + steps if d == 8 else total, *rest)


# (relation, suite, k_range, patch): one route patched so that the named
# relation, and no earlier one in its check, fails.
_BROKEN_RELATIONS = [
    ("denumerant == oracle_count", "oracle-eq", (2, 4),
     _shift_route("denumerant", _count_plus_one)),
    ("the check raises no exception", "popoviciu", (2, 4),
     _shift_route("popoviciu", _raise_invariant)),
    ("popoviciu == oracle_count", "popoviciu", (2, 4),
     _shift_route("popoviciu", _count_plus_one)),
    ("lower_a <= lower_b", "inequality-b", (2, 4),
     _series_numerator(lambda self, lower, series: (lower << (self.power - 1)) - 1)),
    ("lower_b <= exact", "inequality-b", (2, 4),
     _shift_route("denumerant", lambda *_: CountResult(-1, "patched"))),
    ("lower_a == lower_b for pairs", "inequality-b", (2, 2), _lower_b_above_a_pair),
    ("extended_count == prefix sum of denumerant", "dhat", (2, 4),
     _shift_route("extended_count", _count_plus_one)),
    ("lower <= refined lower", "dhat", (2, 4),
     _shift_route("relaxed_count_chain", lambda c, *_: (c[1] + 1, c[1], c[2]))),
    ("refined lower <= exact", "dhat", (2, 4),
     _shift_route("relaxed_count_chain", lambda c, *_: (c[0], c[1] + 10**9, c[2]))),
    ("exact <= upper", "dhat", (2, 4),
     _shift_route("relaxed_count_chain", lambda c, *_: (c[0], c[1], -1))),
    ("N[0] == 0", "frobenius", (2, 4),
     _shift_route("_residue_table", lambda t, *_: [t[0] + 1, *t[1:]])),
    ("N[(r + a_j) mod a_1] <= N[r] + a_j", "frobenius", (2, 4),
     _shift_route("_residue_table", lambda t, *_: t[:1] + [n + 1 for n in t[1:]])),
    ("N[r] == N[(r - a_j) mod a_1] + a_j for some j", "frobenius", (2, 4),
     _shift_route("_residue_table", lambda t, *_: [0] * len(t))),
    ("bound_frobenius(a).g == max(N) - a_1", "frobenius", (2, 4),
     _shift_route("bound_frobenius", lambda r, *_: replace(r, g=r.g + 1))),
    # g <= brauer_upper still holds, and the window only widens.
    ("bound_frobenius(a).brauer_upper == s-_k of bound_sequences(a)", "frobenius", (2, 4),
     _shift_route("bound_frobenius", lambda r, *_: replace(r, brauer_upper=r.brauer_upper + 1))),
    ("power sum <= refined upper", "powersum", (2, 4), _cap_below_the_sum),
    ("f(n+1) - f(n) == (n+1+c)^k", "powersum", (2, 4),
     _enclosure_patch(_step_off_by_one)),
]


@pytest.mark.parametrize(
    "relation, suite, k_range, patch",
    _BROKEN_RELATIONS,
    ids=[case[0] for case in _BROKEN_RELATIONS],
)
def test_each_relation_the_suites_hold_can_fail(
    monkeypatch, relation, suite, k_range, patch
):
    # These relations hold on every acceptance draw, so only a patched route
    # shows that each one is compared at all, and under its own name.
    cfg = SweepConfig(suite=suite, trials=20, k_range=k_range)
    assert run_verify(cfg).passed
    patch(monkeypatch)
    report = run_verify(cfg)
    assert report.failures
    assert {failure.relation for failure in report.failures} == {relation}
    if relation == "the check raises no exception":
        # The closed form's own error is named like any other exception.
        assert {failure.lhs for failure in report.failures} == {"InvariantViolationError"}


_BF_COEFFS = (6, 4, 10, 3)


def _bump_one_entry(a, r, m, row):
    return row[:1] + (row[1] + 1,) + row[2:] if (r, m) == (1, 2) else row


def _negate_last_entry(a, r, m, row):
    return row[:-1] + (-row[-1],) if m >= 1 else row


def _add_one(a, r, m, row):
    return tuple(value + 1 for value in row)


def _zero_other_tuples(a, r, m, row):
    return row if a == _BF_COEFFS else (0,) * len(row)


def _top_one_unit_less_on_other_tuples(a, r, m, row):
    # e_m one less, so [[m, m]] less by 2^-m, on every row past row 0.
    if a == _BF_COEFFS or m == 0:
        return row
    return row[:-1] + (row[-1] - Fraction(1, 2**m),)


def _patch_bf_route(monkeypatch, name, change):
    # The suite reads the recursion as one run of rows 0..m per offset and
    # the closed form's kernel a row at a time; change(a, r, m, row) edits
    # the weights of row m.  The kernel's row is e_l = 2^l [[m, l]], so its
    # weights are divided out and the changed ones scaled back, which each
    # change keeps exact.
    route = getattr(sweep, name)
    if name == "bf_recursive":
        def patched(a, r, m):
            return tuple(change(a, r, j, row) for j, row in enumerate(route(a, r, m)))
    else:
        def patched(a, r, m):
            row = tuple(Fraction(e, 2**ell) for ell, e in enumerate(route(a, r, m)))
            scaled = [w * 2**ell for ell, w in enumerate(change(a, r, m, row))]
            assert all(e.denominator == 1 for e in scaled)
            return tuple(map(int, scaled))
    monkeypatch.setattr(sweep, name, patched)


@pytest.mark.parametrize(
    "routes, change, relation, where",
    [
        (("bf_recursive",), _bump_one_entry, "bf_recursive == bf_explicit", (1, 2, 1, "8", "7")),
        (("bf_recursive", "_elementary"), _negate_last_entry, "[[m, l]] > 0 for 0 <= l <= m", (0, 1, 1, "-3", "0")),
        (("bf_recursive", "_elementary"), _add_one, "offset shift identity", (1, 0, 0, "1", "0")),
        (("_elementary",), _zero_other_tuples, "[[m, l]] <= d^l [[m, l]] of reduced", (0, 0, 0, "1", "0")),
        # At r = 0 the bound is tight, so a reduced row one unit below it
        # fails: the comparison is exact and not strict.
        (("_elementary",), _top_one_unit_less_on_other_tuples, "[[m, l]] <= d^l [[m, l]] of reduced", (0, 1, 1, "3", "2")),
    ],
)
def test_bf_identities_name_each_broken_relation(monkeypatch, routes, change, relation, where):
    # The identities hold for the true weights, so only patched routes can
    # show that each relation is compared at all; where is (r, m, ell, lhs,
    # rhs) of the first failure.
    instance = {"coeffs": _BF_COEFFS}
    assert sweep._check_bf_identities(instance) is None
    for name in routes:
        _patch_bf_route(monkeypatch, name, change)
    failure = sweep._check_bf_identities(instance)
    assert failure is not None and failure.relation == relation
    found = failure.instance
    assert (found["r"], found["m"], found["ell"], failure.lhs, failure.rhs) == where


def test_bf_identities_evaluate_each_row_once_per_route(monkeypatch):
    # Within one instance the recursion runs once per offset r, to row
    # min(6, k - r), and the closed form's kernel sees each (tuple, r, m) at
    # most once.
    calls = Counter()
    for name in ("_elementary", "bf_recursive"):
        route = getattr(sweep, name)

        def counted(*args, name=name, route=route):
            calls[(name, *args)] += 1
            return route(*args)

        monkeypatch.setattr(sweep, name, counted)
    cfg = SweepConfig(suite="bf-identities", k_range=(1, 8), max_coeff=15)
    rng = SplitMix64(3)
    for _ in range(60):
        calls.clear()
        coeffs = _draw_tuple(rng, cfg)
        assert sweep._check_bf_identities({"coeffs": coeffs}) is None
        k = len(coeffs)
        recursion = {key: n for key, n in calls.items() if key[0] == "bf_recursive"}
        assert recursion == {
            ("bf_recursive", coeffs, r, min(6, k - r)): 1 for r in range(min(2, k) + 1)
        }
        explicit = [n for key, n in calls.items() if key[0] == "_elementary"]
        assert explicit and max(explicit) == 1


def test_a_bf_identities_run_validates_once_per_public_call(monkeypatch):
    # The sweep reads the closed form's kernel on tuples it drew itself, and
    # the kernel trusts them: at the acceptance config the only validations
    # are bf_recursive's, one per run, three offsets for each of 200 tuples.
    callers = Counter()
    validate = bfnum.as_coeffs

    def counted(a):
        callers[sys._getframe(1).f_code.co_name] += 1
        return validate(a)

    monkeypatch.setattr(bfnum, "as_coeffs", counted)
    cfg = SweepConfig(
        suite="bf-identities", seed=3, trials=200, k_range=(2, 8), max_coeff=15
    )
    assert run_verify(cfg).passed
    assert callers == {"bf_recursive": 600}


def test_passing_bf_and_series_checks_make_no_fraction(monkeypatch):
    # The two routes and the sandwich meet in integers: the sweep forms a
    # Fraction only to render a failure, and compares none.
    def refuse(*args):
        raise AssertionError("the sweep formed or compared a Fraction")

    monkeypatch.setattr(sweep, "Fraction", refuse)
    for name in ("__eq__", "__lt__", "__le__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert sweep._check_bf_identities({"coeffs": _BF_COEFFS}) is None
    assert sweep._check_bf_identities({"coeffs": (3, 5, 7, 2, 9, 11, 4)}) is None
    assert sweep._check_inequality_b({"coeffs": (3, 5, 7), "n": 200}) is None
    assert sweep._check_inequality_b({"coeffs": (4, 9), "n": 60}) is None


_FAILING_REPORT = """\
{
  "config": {
    "k_range": [
      2,
      4
    ],
    "max_coeff": 12,
    "n_max": 120,
    "seed": 1,
    "suite": "dhat",
    "trials": 14
  },
  "failures": [
    {
      "instance": {
        "coeffs": [
          1,
          1
        ],
        "n": 100
      },
      "lhs": "100",
      "relation": "n < 100",
      "rhs": "201/2"
    }
  ],
  "instances": 14,
  "suite": "dhat"
}"""


def test_report_json_with_a_failure_is_pinned(monkeypatch):
    # No acceptance sweep fails, so a patched check supplies the failure:
    # one of these 14 draws has n >= 100, and it shrinks to n = 100 with
    # every coefficient at 1.  The instance holds a tuple, written as a list.
    def check(instance):
        if instance["n"] >= 100:
            return sweep._fail(instance, "n < 100", instance["n"], Fraction(201, 2))
        return None

    draw, uses_n, _ = sweep._SUITES["dhat"]
    monkeypatch.setitem(sweep._SUITES, "dhat", (draw, uses_n, check))
    report = run_verify(SweepConfig(suite="dhat", seed=1, trials=14))
    assert report.failures == [
        Failure({"coeffs": (1, 1), "n": 100}, "n < 100", "100", "201/2")
    ]
    stripped = json.dumps(_without_wall_time(report), sort_keys=True, indent=2)
    assert stripped == _FAILING_REPORT


def test_shrinking_n_takes_logarithmically_many_checks():
    # A failure far above its threshold shrinks by halving, then bisection,
    # not by stepping down one at a time.
    checks = 0

    def check(instance):
        nonlocal checks
        checks += 1
        if instance["n"] >= 1_000_003:
            return Failure(instance, "n is small", str(instance["n"]), "")
        return None

    minimal = shrink_failure({"coeffs": (1,), "n": 10**12}, check, "n is small")
    assert minimal == {"coeffs": (1,), "n": 1_000_003}
    assert checks <= 3 * math.log2(10**12)
