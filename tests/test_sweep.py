import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from denumerant import (
    Failure,
    FrobeniusReport,
    SplitMix64,
    SweepConfig,
    bound_frobenius,
    denumerant,
    run_verify,
    shrink_failure,
)
from denumerant import bounds, powersum, sweep
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
    # One kernel sum per grid point (7 x 5 x 321) and two per step identity
    # (7 x 5 x 21), whichever module the call goes through.
    calls = 0
    original = powersum._enclosure

    def counted(p, d, k, steps):
        nonlocal calls
        calls += 1
        return original(p, d, k, steps)

    monkeypatch.setattr(powersum, "_enclosure", counted)
    monkeypatch.setattr(sweep, "_enclosure", counted)
    report = run_verify(SweepConfig(suite="powersum", seed=1, trials=1))
    assert report.passed
    assert calls == 12_705 == 7 * 5 * 321 + 2 * 7 * 5 * 21


def test_powersum_suite_names_the_first_broken_enclosure_relation(monkeypatch):
    # The enclosure holds on the whole grid, so only patched estimates can
    # show which relation a failure names.  The scale and the sum are left
    # as they are, so the step identity stays intact.
    def breaking(*flags):
        def patched(p, d, k, steps):
            scale, total, crude, refined, upper, cap = powersum._enclosure(
                p, d, k, steps
            )
            # Each False flag moves its estimate just past the sum.
            if not flags[1]:
                refined = total + 1
            if not flags[0]:
                crude = refined + 1
            if not flags[2]:
                upper = total - 1
            return scale, total, crude, refined, upper, cap

        return patched

    expected = {
        (False, False, True): "crude lower <= refined lower",
        (True, False, False): "refined lower <= power sum",
        (True, True, False): "power sum <= upper",
    }
    for flags, relation in expected.items():
        monkeypatch.setattr(sweep, "_enclosure", breaking(*flags))
        report = run_verify(SweepConfig(suite="powersum", seed=1, trials=1))
        assert len(report.failures) == 7 * 5 * 321
        assert {f.relation for f in report.failures} == {relation}


def per_value_frobenius_check(instance):
    # The frobenius relations with one denumerant call per value, as the
    # suite made them before it read the window from one row.
    coeffs = instance["coeffs"]
    report = sweep.bound_frobenius(coeffs)
    g = report.g
    sieved = sweep._frobenius_sieve(coeffs)
    if g != sieved:
        return sweep._fail(
            instance, "bound_frobenius(a).g == _frobenius_sieve(a)", g, sieved
        )
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
    # at the same relation and values.  The sieve is patched to agree with
    # the reported g, so the check reaches the window.
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
            monkeypatch.setattr(sweep, "_frobenius_sieve", lambda a, g=g: g)
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


def test_skipped_instances_are_counted_outside_the_report():
    # Three of these five pairs need a sieve over FROBENIUS_MAX_CELLS.
    cfg = SweepConfig(suite="frobenius", trials=5, k_range=(2, 2), max_coeff=20000)
    report = run_verify(cfg)
    assert report.instances == 5 and report.passed
    assert report.skipped == {"BudgetExceededError": 3}
    assert "skipped" not in json.loads(report.to_json())
    assert run_verify(SweepConfig(suite="popoviciu", trials=10)).skipped == {}


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
    raise sweep.InvariantViolationError("patched closed form")


def _series_lower(change):
    # The bounds' class is patched; the sweep reaches it through its sandwich.
    def patch(monkeypatch):
        original = bounds._Sandwich.series_lower
        monkeypatch.setattr(
            bounds._Sandwich, "series_lower", lambda self, m: change(self, m, original)
        )

    return patch


def _lower_b_above_a_pair(monkeypatch):
    # Above lower_a, and below a count that is patched to be huge.
    _series_lower(lambda self, m, f: f(self, m) + 1)(monkeypatch)
    monkeypatch.setattr(sweep, "denumerant", lambda a, n: CountResult(10**9, "patched"))


def _enclosure_patch(change):
    def patch(monkeypatch):
        original = powersum._enclosure

        def patched(p, d, k, steps):
            return change(original(p, d, k, steps), d, steps)

        monkeypatch.setattr(sweep, "_enclosure", patched)

    return patch


def _cap_below_the_sum(values, d, steps):
    scale, total, crude, refined, upper, _ = values
    return scale, total, crude, refined, upper, total - 1


def _step_off_by_one(values, d, steps):
    # Only the step identity takes d = 8; the grid takes d = 16.
    scale, total, *rest = values
    return (scale, total + steps if d == 8 else total, *rest)


# (relation, suite, k_range, patch): one route patched so that the named
# relation, and no earlier one in its check, fails.
_BROKEN_RELATIONS = [
    ("denumerant == oracle_count", "oracle-eq", (2, 4),
     _shift_route("denumerant", _count_plus_one)),
    ("popoviciu returns a count", "popoviciu", (2, 4),
     _shift_route("popoviciu", _raise_invariant)),
    ("popoviciu == oracle_count", "popoviciu", (2, 4),
     _shift_route("popoviciu", _count_plus_one)),
    ("lower_a <= lower_b", "inequality-b", (2, 4),
     _series_lower(lambda self, m, f: self.at(m).lower_a - 1)),
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
    ("bound_frobenius(a).g == _frobenius_sieve(a)", "frobenius", (2, 4),
     _shift_route("_frobenius_sieve", lambda *_: -2)),
    ("power sum <= refined upper", "powersum", (2, 4),
     _enclosure_patch(_cap_below_the_sum)),
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


_BF_COEFFS = (6, 4, 10, 3)


def _bump_one_entry(a, r, m, row):
    return row[:1] + (row[1] + 1,) + row[2:] if (r, m) == (1, 2) else row


def _negate_last_entry(a, r, m, row):
    return row[:-1] + (-row[-1],) if m >= 1 else row


def _add_one(a, r, m, row):
    return tuple(value + 1 for value in row)


def _zero_other_tuples(a, r, m, row):
    return row if a == _BF_COEFFS else (0,) * len(row)


@pytest.mark.parametrize(
    "routes, change, relation, where",
    [
        (("bf_recursive",), _bump_one_entry, "bf_recursive == bf_explicit", (1, 2, 1)),
        (("bf_recursive", "bf_explicit"), _negate_last_entry, "[[m, l]] > 0 for 0 <= l <= m", None),
        (("bf_recursive", "bf_explicit"), _add_one, "offset shift identity", None),
        (("bf_explicit",), _zero_other_tuples, "[[m, l]] <= d^l [[m, l]] of reduced", None),
    ],
)
def test_bf_identities_name_each_broken_relation(monkeypatch, routes, change, relation, where):
    # The identities hold for the true weights, so only patched routes can
    # show that each relation is compared at all.
    instance = {"coeffs": _BF_COEFFS}
    assert sweep._check_bf_identities(instance) is None
    for name in routes:
        route = getattr(sweep, name)
        monkeypatch.setattr(
            sweep, name, lambda a, r, m, route=route: change(a, r, m, route(a, r, m))
        )
    failure = sweep._check_bf_identities(instance)
    assert failure is not None and failure.relation == relation
    if where is not None:
        assert (failure.instance["r"], failure.instance["m"], failure.instance["ell"]) == where


def test_bf_identities_evaluate_each_row_once_per_route(monkeypatch):
    # Within one instance, each route sees each (tuple, r, m) at most once.
    calls = Counter()
    for name in ("bf_explicit", "bf_recursive"):
        route = getattr(sweep, name)

        def counted(*args, name=name, route=route):
            calls[(name, *args)] += 1
            return route(*args)

        monkeypatch.setattr(sweep, name, counted)
    cfg = SweepConfig(suite="bf-identities", k_range=(1, 8), max_coeff=15)
    rng = SplitMix64(3)
    for _ in range(60):
        calls.clear()
        assert sweep._check_bf_identities({"coeffs": _draw_tuple(rng, cfg)}) is None
        assert calls and max(calls.values()) == 1


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
