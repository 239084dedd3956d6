"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every comparison is exact rational arithmetic; the only
tolerances anywhere are the wall-clock budgets.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from denumerant import (
    SweepConfig,
    bound_frobenius,
    cli,
    denumerant,
    extended_count,
    frobenius_exact,
    oracle_count,
    popoviciu,
    relaxed_count_chain,
    run_verify,
)


def _passed(num: int, report=None, note: str = "") -> None:
    detail = note
    if report is not None:
        detail = (
            f"{report.suite}: {report.instances} instances, "
            f"{len(report.failures)} failures, {report.wall_time_s:.2f}s"
        )
        if note:
            detail += f"; {note}"
    print(f"\nACCEPTANCE {num}: PASS ({detail})")


def test_criterion_1_oracle_equivalence():
    cfg = SweepConfig(
        suite="oracle-eq", seed=1, trials=500, k_range=(2, 4), max_coeff=12,
        n_max=120,
    )
    report = run_verify(cfg)
    assert report.instances == 500
    assert report.failures == []
    assert report.wall_time_s <= 30.0
    _passed(1, report)


def test_criterion_2_popoviciu_spot_values():
    assert popoviciu(3, 5, 8).value == 1
    assert popoviciu(3, 5, 7).value == 0
    assert oracle_count((3, 5), 8).value == 1
    assert oracle_count((3, 5), 7).value == 0
    _passed(2, note="popoviciu(3,5,8)=1 and popoviciu(3,5,7)=0, both matching brute force")


def test_criterion_3_inequality_a_sandwich():
    cfg = SweepConfig(
        suite="inequality-a", seed=2, trials=500, k_range=(2, 5), max_coeff=15,
        n_max=400,
    )
    report = run_verify(cfg)
    assert report.instances == 500
    assert report.failures == []
    assert report.wall_time_s <= 60.0
    _passed(3, report)


def test_criterion_4_inequality_b_refinement():
    # Same seed and draw protocol as criterion 3, so the sweep sees the
    # same 500 instances; targets below the lower shift are skipped inside
    # the checker.
    cfg = SweepConfig(
        suite="inequality-b", seed=2, trials=500, k_range=(2, 5), max_coeff=15,
        n_max=400,
    )
    report = run_verify(cfg)
    assert report.instances == 500
    assert report.failures == []
    _passed(4, report)


def test_criterion_5_triangular_weight_identities():
    cfg = SweepConfig(
        suite="bf-identities", seed=3, trials=200, k_range=(2, 8), max_coeff=15,
    )
    report = run_verify(cfg)
    assert report.instances == 200
    assert report.failures == []
    _passed(5, report)


def test_criterion_6_power_sum_grid():
    cfg = SweepConfig(suite="powersum", seed=1, trials=1)
    report = run_verify(cfg)
    assert report.failures == []
    assert report.wall_time_s <= 10.0
    # 7 exponents x 5 shifts x 321 grid points, plus the step identity.
    assert report.instances == 7 * 5 * 321 + 7 * 5 * 21
    _passed(6, report)


def test_criterion_7_frobenius():
    assert frobenius_exact((2, 3)) == 1
    assert frobenius_exact((3, 5)) == 7
    assert frobenius_exact((4, 6, 9)) == 11
    cfg = SweepConfig(
        suite="frobenius", seed=4, trials=200, k_range=(2, 4), max_coeff=25,
    )
    report = run_verify(cfg)
    assert report.instances == 200
    assert report.failures == []
    _passed(7, report, note="g(2,3)=1, g(3,5)=7, g(4,6,9)=11")


def test_criterion_8_relaxed_count_chain():
    assert extended_count((2, 3), 6).value == 7
    lower, middle, upper = relaxed_count_chain((2, 3), 6)
    assert lower == Fraction(49, 12)
    assert middle == Fraction(35, 6)
    assert upper == Fraction(361, 48)
    assert lower <= middle <= 7 <= upper
    cfg = SweepConfig(
        suite="dhat", seed=5, trials=200, k_range=(1, 4), max_coeff=12, n_max=120,
    )
    report = run_verify(cfg)
    assert report.instances == 200
    assert report.failures == []
    _passed(8, report, note="chain 49/12 <= 35/6 <= 7 <= 361/48 at (2,3), n=6")


def test_criterion_9_asymptotic_ratio():
    cfg = SweepConfig(
        suite="asymptotic", seed=6, trials=50, k_range=(2, 5), max_coeff=15,
    )
    report = run_verify(cfg)
    assert report.instances == 50
    assert report.failures == []
    _passed(9, report, note="ratio checked at n = 10^3 and 10^4")


def test_criterion_10_verify_determinism(tmp_path):
    args = [
        "verify", "--suite", "oracle-eq", "--trials", "50", "--seed", "7",
        "--k-range", "2:4", "--max-coeff", "12", "--n-max", "120",
    ]
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    one_lines = [
        line for line in first.read_text().splitlines() if "wall_time_s" not in line
    ]
    two_lines = [
        line for line in second.read_text().splitlines() if "wall_time_s" not in line
    ]
    assert one_lines == two_lines
    one = json.loads(first.read_text())
    two = json.loads(second.read_text())
    assert one.pop("wall_time_s") is not None
    assert two.pop("wall_time_s") is not None
    assert one == two
    _passed(10, note="verify reports byte-identical outside wall_time_s")


_BENCH_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
_RECORDED = json.loads(_BENCH_EXPECTED.read_text())
_RECORDED_REPORTS = _RECORDED["verify-acceptance"]


@pytest.mark.parametrize(
    "key", sorted(_RECORDED_REPORTS), ids=lambda key: key.split()[2]
)
def test_verify_report_bytes_match_recorded_digest(tmp_path, key):
    # The benchmark records the SHA-256 of each acceptance report without
    # its wall_time_s line; any change to the report bytes shows here.
    path = tmp_path / "report.json"
    assert cli.main(key.split(" ") + ["--out", str(path)]) == 0
    kept = "".join(
        line
        for line in path.read_text().splitlines(keepends=True)
        if "wall_time_s" not in line
    )
    assert hashlib.sha256(kept.encode()).hexdigest() == _RECORDED_REPORTS[key]


def _small_target(key: str) -> bool:
    argv = key.split(" ")
    flag = "--n" if "--n" in argv else "--n-range"
    return int(argv[argv.index(flag) + 1].split(":")[0]) < 4096


_RECORDED_ROWS = {
    **_RECORDED["frobenius-large"],
    **{key: digest for key, digest in _RECORDED["count-stream"].items() if _small_target(key)},
}


def test_row_replay_covers_the_recorded_operations():
    assert len(_RECORDED_ROWS) == 40 + 213
    assert {key.split(" ")[0] for key in _RECORDED_ROWS} == {
        "count", "bounds", "dhat", "frobenius"
    }


@pytest.mark.parametrize("key", sorted(_RECORDED_ROWS))
def test_row_bytes_match_recorded_digest(key):
    # The benchmark records the SHA-256 of every row command's stdout; the
    # frobenius-large operations and the count-stream ones with a target
    # below 4096 pin the row bytes of count, bounds, dhat and frobenius.
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(key.split(" ")) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == _RECORDED_ROWS[key]
