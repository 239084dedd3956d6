import json
import math

import pytest

from denumerant import (
    Failure,
    SplitMix64,
    SweepConfig,
    run_verify,
    shrink_failure,
)
from denumerant import powersum, sweep
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


def test_reports_are_deterministic():
    cfg = SweepConfig(suite="inequality-a", seed=11, trials=40, k_range=(2, 4))
    first = run_verify(cfg)
    second = run_verify(cfg)
    assert first.to_json(include_wall_time=False) == second.to_json(
        include_wall_time=False
    )
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


def test_report_json_shape():
    report = run_verify(SweepConfig(suite="popoviciu", seed=2, trials=10))
    data = json.loads(report.to_json())
    assert data["suite"] == "popoviciu"
    assert data["instances"] == 10
    assert data["failures"] == []
    assert "wall_time_s" in data
    assert data["config"]["seed"] == 2
    stripped = json.loads(report.to_json(include_wall_time=False))
    assert "wall_time_s" not in stripped


def test_powersum_suite_evaluates_each_point_once(monkeypatch):
    # One power_sum per grid point (7 x 5 x 321) and two per step identity
    # (7 x 5 x 21), whichever module the call goes through.
    calls = 0
    original = powersum.power_sum

    def counted(q):
        nonlocal calls
        calls += 1
        return original(q)

    monkeypatch.setattr(powersum, "power_sum", counted)
    monkeypatch.setattr(sweep, "power_sum", counted)
    report = run_verify(SweepConfig(suite="powersum", seed=1, trials=1))
    assert report.passed
    assert calls == 12_705 == 7 * 5 * 321 + 2 * 7 * 5 * 21


def test_powersum_suite_names_the_first_broken_enclosure_relation(monkeypatch):
    # The enclosure holds on the whole grid, so only patched flags can show
    # which relation a failure names; the step identity is left intact.
    expected = {
        (False, False, True): "crude lower <= refined lower",
        (True, False, False): "refined lower <= power sum",
        (True, True, False): "power sum <= upper",
    }
    for flags, relation in expected.items():
        monkeypatch.setattr(sweep, "_sum_bounds", lambda q, value, f=flags: f)
        report = run_verify(SweepConfig(suite="powersum", seed=1, trials=1))
        assert len(report.failures) == 7 * 5 * 321
        assert {f.relation for f in report.failures} == {relation}


def test_skipped_instances_are_counted_outside_the_report():
    # Three of these five pairs need a sieve over FROBENIUS_MAX_CELLS.
    cfg = SweepConfig(suite="frobenius", trials=5, k_range=(2, 2), max_coeff=20000)
    report = run_verify(cfg)
    assert report.instances == 5 and report.passed
    assert report.skipped == {"BudgetExceededError": 3}
    assert "skipped" not in json.loads(report.to_json())
    assert run_verify(SweepConfig(suite="popoviciu", trials=10)).skipped == {}
