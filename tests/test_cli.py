import argparse
import json
import time

import pytest

import denumerant
from denumerant import cli, sweep


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--coeffs", "3,5", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["coeffs", "n", "value", "method"]
    assert lines[1].split() == ["3,5", "8", "1", "recursion"]


def test_count_methods(capsys):
    code, out, _ = run(
        capsys, "count", "--coeffs", "3,5", "--n", "8", "--method", "oracle",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)
    assert row == {"coeffs": [3, 5], "n": 8, "value": 1, "method": "oracle"}
    code, out, _ = run(
        capsys, "count", "--coeffs", "3,5", "--n", "7", "--method", "popoviciu",
        "--format", "json",
    )
    assert json.loads(out)["value"] == 0


def test_count_range_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--coeffs", "2,3", "--n-range", "0:5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coeffs,n,value,method"
    values = [line.split(",")[-2] for line in lines[1:]]
    assert values == ["1", "0", "1", "1", "1", "1"]


def test_count_popoviciu_needs_pair(capsys):
    code, _, err = run(
        capsys, "count", "--coeffs", "2,3,5", "--n", "4", "--method", "popoviciu"
    )
    assert code == 3
    assert "pairs" in err


def test_count_popoviciu_needs_coprime(capsys):
    code, _, err = run(
        capsys, "count", "--coeffs", "4,6", "--n", "8", "--method", "popoviciu"
    )
    assert code == 3


def test_bounds_row(capsys):
    code, out, _ = run(
        capsys, "bounds", "--coeffs", "3,5", "--n", "8", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["exact"] == 1
    assert row["lower_a"] == "1/15"
    assert row["lower_b"] == "1/15"
    assert row["upper_a"] == "23/15"
    assert row["applicable"] is True
    assert row["ok"] is True


def test_bounds_inequality_b(capsys):
    code, out, _ = run(
        capsys, "bounds", "--coeffs", "1,2,3", "--n", "10", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)
    assert row["lower_b"] == "77/6"
    assert row["exact"] == 14
    assert row["ok"] is True


def test_bounds_divides_out_the_gcd(capsys):
    # (4, 6) is bounded as (2, 3) at n/2; at odd n there is nothing to bound.
    code, out, _ = run(
        capsys, "bounds", "--coeffs", "4,6", "--n-range", "6:7", "--format", "json",
    )
    assert code == 0
    first, second = [json.loads(line) for line in out.strip().splitlines()]
    assert first["exact"] == 1 and first["ok"] is True
    assert second["exact"] == 0
    assert second["lower_a"] is None and second["upper_a"] is None
    assert second["applicable"] is False and second["ok"] is True


def test_bounds_on_one_coefficient_names_the_given_tuple(capsys):
    # (4,) is bounded as (1,) at n/4, which the sandwich refuses; the error
    # names the tuple the user gave.  A target 4 does not divide has no
    # bounds to refuse.
    code, out, err = run(capsys, "bounds", "--coeffs", "4", "--n-range", "0:12")
    assert (code, out) == (3, "")
    assert err == "error: the bounds need at least two coefficients, got (4,)\n"
    code, out, _ = run(capsys, "bounds", "--coeffs", "4", "--n", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert (row["exact"], row["applicable"], row["ok"]) == (0, False, True)


@pytest.mark.parametrize("target", [["--n", "-1"], ["--n-range=-3:-1"]])
def test_bounds_negative_target_exits_2(capsys, target):
    # The count rejects n < 0 before the gcd test could call it odd.
    code, out, err = run(capsys, "bounds", "--coeffs", "4,6", *target)
    assert (code, out) == (2, "")
    assert err.startswith("error: n must be >= 0, got -")


def test_frobenius_json(capsys):
    code, out, _ = run(capsys, "frobenius", "--coeffs", "4,6,9", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["g"] == 11
    assert row["brauer_upper"] == 11
    assert row["root_lower_1"] is None
    assert row["root_lower_2"] is None


def test_frobenius_root_columns_are_empty_in_table_and_csv(capsys):
    # test_frobenius_json and the README transcript cover the json row.
    code, out, _ = run(capsys, "frobenius", "--coeffs", "4,6,9")
    assert code == 0
    assert out.splitlines() == [
        "coeffs  g   brauer_upper  root_lower_1  root_lower_2",
        "4,6,9   11  11",
    ]
    code, out, _ = run(capsys, "frobenius", "--coeffs", "4,6,9", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "coeffs,g,brauer_upper,root_lower_1,root_lower_2",
        '"4,6,9",11,11,,',
    ]


def test_frobenius_non_coprime_exits_3(capsys):
    code, _, err = run(capsys, "frobenius", "--coeffs", "4,6")
    assert code == 3


def test_frobenius_over_table_budget_exits_3_at_once(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, "frobenius", "--coeffs", "10000019,10000079")
    assert code == 3
    assert "cap" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("command", ["count", "dhat", "bounds"])
def test_count_over_table_budget_exits_3_at_once(capsys, command):
    # n = 10^9 would need a DP row of 2^30 cells.
    started = time.perf_counter()
    code, _, err = run(capsys, command, "--coeffs", "3,5,7,11", "--n", "1000000000")
    assert code == 3
    assert "cap" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("command", ["count", "bounds", "dhat"])
def test_n_range_width_budget(monkeypatch, capsys, command):
    monkeypatch.setattr(cli, "N_RANGE_MAX_WIDTH", 5)
    code, out, _ = run(
        capsys, command, "--coeffs", "2,3", "--n-range", "10:14", "--format", "csv"
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 5

    def untouched(*args):
        raise AssertionError("a target was computed")

    for name in ("denumerant", "extended_count"):
        monkeypatch.setattr(cli, name, untouched)
    code, out, err = run(capsys, command, "--coeffs", "2,3", "--n-range", "10:15")
    assert (code, out) == (3, "")
    assert err == "error: --n-range 10:15 spans 6 targets, over the cap of 5\n"


def test_verify_trials_at_the_budget_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sweep, "VERIFY_MAX_TRIALS", 5)
    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--suite", "popoviciu", "--trials", "5", "--out", str(path)
    )
    assert code == 0
    assert json.loads(path.read_text())["instances"] == 5


@pytest.mark.parametrize("suite", denumerant.SUITE_NAMES)
def test_verify_trials_over_the_budget_exit_3_before_any_draw(monkeypatch, capsys, suite):
    monkeypatch.setattr(sweep, "VERIFY_MAX_TRIALS", 5)

    def untouched(*args):
        raise AssertionError("an instance was drawn")

    for name in ("SplitMix64", "_run_powersum"):
        monkeypatch.setattr(sweep, name, untouched)
    code, out, err = run(capsys, "verify", "--suite", suite, "--trials", "6")
    assert (code, out) == (3, "")
    assert err == "error: 6 trials are over the cap of 5\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--coeffs", "3,5,7,11", "--n", "1000000000"],
        ["--coeffs", "3,5,7", "--n", "5", "--method", "popoviciu"],
    ],
    ids=["table-budget", "popoviciu-triple"],
)
def test_failure_at_the_first_row_writes_nothing(capsys, fmt, argv):
    code, out, err = run(capsys, "count", *argv, "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


def test_failure_partway_keeps_the_streamed_rows(monkeypatch, capsys):
    # json and csv write each row as it is computed; the table needs every
    # row for its widths, so it writes nothing.
    counted = cli.denumerant

    def third_fails(coeffs, n):
        if n == 12:
            raise denumerant.BudgetExceededError("raised on purpose")
        return counted(coeffs, n)

    monkeypatch.setattr(cli, "denumerant", third_fails)
    argv = ["count", "--coeffs", "2,3", "--n-range", "10:14", "--format"]
    code, out, err = run(capsys, *argv, "json")
    assert code == 3 and err == "error: raised on purpose\n"
    assert [json.loads(line)["n"] for line in out.splitlines()] == [10, 11]
    code, out, _ = run(capsys, *argv, "csv")
    assert code == 3
    assert out.splitlines() == [
        "coeffs,n,value,method", '"2,3",10,2,recursion', '"2,3",11,2,recursion'
    ]
    assert run(capsys, *argv, "table")[:2] == (3, "")


def test_oracle_range_shares_one_node_budget(monkeypatch, capsys):
    # (2, 3, 5) at n = 60 takes 152 nodes and 0..60 takes 3,448 in all, so
    # with 300 nodes the single target runs as before and the range runs out
    # partway, keeping the rows it wrote.
    monkeypatch.setattr(denumerant.exact, "ORACLE_MAX_NODES", 300)
    argv = ["count", "--coeffs", "2,3,5", "--method", "oracle", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--n", "60")
    assert code == 0
    assert json.loads(out) == {
        "coeffs": [2, 3, 5], "n": 60, "value": 71, "method": "oracle"
    }
    code, out, err = run(capsys, *argv, "--n-range", "0:60")
    assert code == 3
    assert err == (
        "error: enumeration budget of 300 nodes exhausted for coefficients "
        "(2, 3, 5) at n=23\n"
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["n"] for row in rows] == list(range(23))
    assert [row["value"] for row in rows] == [
        denumerant.denumerant((2, 3, 5), n).value for n in range(23)
    ]


def test_oracle_range_budget_bounds_the_command_time(capsys):
    # At the real budget this range ran past 25 s when each target had its
    # own; one shared budget ends it within seconds.
    started = time.perf_counter()
    code, out, err = run(
        capsys, "count", "--coeffs", "2,3,5", "--method", "oracle",
        "--n-range", "0:1999", "--format", "csv",
    )
    assert code == 3 and "nodes exhausted" in err
    assert 1 < len(out.splitlines()) < 2001
    assert time.perf_counter() - started < 20


def test_every_domain_error_maps_to_its_exit_code(monkeypatch, capsys):
    expected = {
        denumerant.NotCoprimeError: 3,
        denumerant.TooShortTupleError: 3,
        denumerant.NotApplicableError: 3,
        denumerant.IndexRangeError: 3,
        denumerant.BudgetExceededError: 3,
        denumerant.DomainError: 3,
        denumerant.InvariantViolationError: 1,
    }
    assert set(denumerant.DenumerantError.__subclasses__()) == set(expected)
    for error, code in expected.items():
        def fail(coeffs, error=error):
            raise error("raised on purpose")

        monkeypatch.setattr(cli, "bound_frobenius", fail)
        assert run(capsys, "frobenius", "--coeffs", "3,5")[0] == code, error


def test_bf_value(capsys):
    code, out, _ = run(
        capsys, "bf", "--coeffs", "2,3", "-m", "2", "-l", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["value"] == "3/2"


def test_bf_index_error_exits_3(capsys):
    code, _, err = run(capsys, "bf", "--coeffs", "2,3", "-m", "3", "-l", "1")
    assert code == 3
    assert "needs coefficient index 3, but the tuple has length 2" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        # l = 0 reads no coefficient, so any m >= 0 works for any tuple.
        (["--coeffs", "2", "-m", "40", "-l", "0"], "2       0  40  0    1"),
        (["--coeffs", "2,3", "-r", "2", "-m", "1", "-l", "0"], "2,3     2  1  0    1"),
        # Off the triangle: l > m, l < 0 and m = -1.
        (["--coeffs", "5,7,11", "-m", "2", "-l", "3"], "5,7,11  0  2  3    0"),
        (["--coeffs", "2,3", "-r", "1", "-m", "1", "-l", "-1"], "2,3     1  1  -1   0"),
        (["--coeffs", "2,3", "-r", "1", "-m", "-1", "-l", "0"], "2,3     1  -1  0    0"),
    ],
)
def test_bf_edge_rules(capsys, argv, line):
    code, out, _ = run(capsys, "bf", *argv)
    assert code == 0
    assert out.splitlines()[1] == line


def test_bf_edge_values_are_rationals_in_json(capsys):
    for ell, value in (("0", "1"), ("3", "0")):
        code, out, _ = run(
            capsys, "bf", "--coeffs", "2,3", "-m", "2", "-l", ell, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["value"] == value


def test_bf_negative_offset_exits_2(capsys):
    for m, ell in (("1", "0"), ("3", "1")):
        code, out, err = run(capsys, "bf", "--coeffs", "2,3", "-r", "-1", "-m", m, "-l", ell)
        assert (code, out) == (2, "")
        assert err == "error: offset must be >= 0, got -1\n"


def test_dhat_row(capsys):
    code, out, _ = run(capsys, "dhat", "--coeffs", "2,3", "--n", "6", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["exact"] == 7
    assert row["lower"] == "49/12"
    assert row["middle"] == "35/6"
    assert row["upper"] == "361/48"
    assert row["ok"] is True


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--coeffs", "3,x", "--n", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--coeffs", "3,5"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()
    # --format belongs to the row commands; verify always writes JSON.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "popoviciu", "--trials", "3", "--format", "csv"])
    assert exc.value.code == 2
    capsys.readouterr()
    # bounds always reports lower_b where it applies; there is no switch.
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--coeffs", "3,5", "--n", "8", "--inequality", "b"])
    assert exc.value.code == 2
    capsys.readouterr()
    # bounds always divides out the gcd; there is no switch for that either.
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--coeffs", "4,6", "--n", "8", "--auto-reduce"])
    assert exc.value.code == 2
    capsys.readouterr()
    # A coefficient below 1 is refused by the package's one validator.
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--coeffs", "3,0", "--n", "4"])
    assert exc.value.code == 2
    assert "coefficients must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("5", "expected LO:HI, got '5'"), ("a:b", "expected LO:HI, got 'a:b'"),
     ("9:3", "empty range '9:3'")],
)
def test_malformed_n_range_exits_2(capsys, text, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--coeffs", "3,5", "--n-range", text])
    assert exc.value.code == 2
    assert f"argument --n-range: {message}" in capsys.readouterr().err


def test_negative_target_exits_2(capsys):
    code, _, err = run(capsys, "count", "--coeffs", "2,3", "--n", "-4")
    assert code == 2
    assert "error" in err


def test_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "count", "--coeffs", "2,3", "--n", "6", "--format", "csv",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines()[1] == "\"2,3\",6,2,recursion"


def test_verify_json_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, err = run(
        capsys, "verify", "--suite", "popoviciu", "--trials", "20",
        "--seed", "9", "--out", str(path),
    )
    assert code == 0
    assert "popoviciu" in err
    report = json.loads(path.read_text())
    assert report["instances"] == 20
    assert report["failures"] == []


def test_verify_repeat_is_identical_modulo_wall_time(tmp_path, capsys):
    args = [
        "verify", "--suite", "oracle-eq", "--trials", "25", "--seed", "4",
        "--k-range", "2:4",
    ]
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    one = json.loads(first.read_text())
    two = json.loads(second.read_text())
    one.pop("wall_time_s")
    two.pop("wall_time_s")
    assert one == two


def test_verify_failure_exit_code(monkeypatch, capsys):
    from denumerant.sweep import Failure, VerificationReport, SweepConfig

    def fake_run(cfg):
        return VerificationReport(
            suite=cfg.suite,
            config=cfg,
            instances=1,
            failures=[Failure({"coeffs": (2, 3), "n": 1}, "broken", "0", "1")],
            wall_time_s=0.0,
        )

    monkeypatch.setattr(cli, "run_verify", fake_run)
    code, out, err = run(capsys, "verify", "--suite", "oracle-eq")
    assert code == 1
    assert json.loads(out)["failures"][0]["relation"] == "broken"


def test_verify_names_skipped_instances_on_stderr(tmp_path, capsys):
    # Three of the five pairs would need a sieve over the cell budget; the
    # report and the exit code stay as they were, stderr says what happened.
    path = tmp_path / "report.json"
    code, _, err = run(
        capsys, "verify", "--suite", "frobenius", "--trials", "5",
        "--k-range", "2:2", "--max-coeff", "20000", "--out", str(path),
    )
    assert code == 0
    assert "5 instances, 0 failures" in err
    assert err.rstrip().endswith("(3 skipped: BudgetExceededError)")
    report = json.loads(path.read_text())
    assert report["instances"] == 5
    assert "skipped" not in report


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "frobenius", "--k-range", "2:2", "--max-coeff", "100000000"),
        ("--suite", "oracle-eq", "--k-range", "2:2", "--max-coeff", "1",
         "--n-max", "100000000"),
    ],
    ids=["frobenius", "oracle-eq"],
)
def test_verify_that_skipped_every_instance_exits_3(tmp_path, capsys, argv):
    # Every drawn instance is over a budget, so the sweep checked nothing;
    # the report and the summary are still written.
    path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", *argv, "--trials", "5", "--out", str(path))
    assert code == 3
    assert "5 instances, 0 failures" in err
    assert "(5 skipped: BudgetExceededError)" in err
    assert "nothing checked" in err
    report = json.loads(path.read_text())
    assert report["instances"] == 5 and report["failures"] == []


def test_verify_skip_note_counts_each_exception(monkeypatch, capsys):
    from denumerant.sweep import VerificationReport

    def fake_run(cfg):
        return VerificationReport(
            suite=cfg.suite, config=cfg, instances=9, failures=[],
            wall_time_s=0.0,
            skipped={"BudgetExceededError": 2, "NotCoprimeError": 1},
        )

    monkeypatch.setattr(cli, "run_verify", fake_run)
    code, _, err = run(capsys, "verify", "--suite", "frobenius")
    assert code == 0
    assert err.rstrip().endswith(
        "(3 skipped: 2 BudgetExceededError, 1 NotCoprimeError)"
    )
    monkeypatch.setattr(
        cli, "run_verify", lambda cfg: VerificationReport(cfg.suite, cfg, 1, [], 0.0)
    )
    code, _, err = run(capsys, "verify", "--suite", "frobenius")
    assert code == 0
    assert err.rstrip().endswith("1 instances, 0 failures, 0.00s")


# The parser is built once, at import, and every call of main shares it.
# ---------------------------------------------------------------------------

_ROW_ARGV = ["bounds", "--coeffs", "3,5,7", "--n-range", "20:24", "--format", "csv"]
_BAD_USAGE_ARGV = ["count", "--coeffs", "3,x", "--n", "4"]
_DOMAIN_ERROR_ARGV = ["frobenius", "--coeffs", "4,6"]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, a usage exit included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_no_parser(monkeypatch, capsys):
    built = 0
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert _outcome(capsys, _ROW_ARGV)[0] == 0
    assert _outcome(capsys, _BAD_USAGE_ARGV)[0] == ("SystemExit", 2)
    assert _outcome(capsys, _DOMAIN_ERROR_ARGV)[0] == 3
    assert built == 0
    # The counter does count: a fresh parser is a tree of several.
    cli.build_parser()
    assert built > 0


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    passing = (_ROW_ARGV, ["count", "--coeffs", "3,5", "--n", "8", "--format", "json"])
    before = [_outcome(capsys, argv) for argv in passing]
    assert before[0][0] == 0 and before[0][1].count("\n") == 6
    failing = (_BAD_USAGE_ARGV, _DOMAIN_ERROR_ARGV, ["count", "--coeffs", "3,5"], [])
    assert all(_outcome(capsys, argv)[0] != 0 for argv in failing)
    assert [_outcome(capsys, argv) for argv in passing] == before


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["count", "--help"], ["verify", "--help"], _BAD_USAGE_ARGV, [],
     ["bounds", "--coeffs", "3,5", "--n", "8", "--n-range", "0:9"],
     ["verify", "--suite", "nope"]],
    ids=str,
)
def test_the_shared_parser_writes_what_a_fresh_one_does(capsys, argv):
    shared = _outcome(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    assert shared == (("SystemExit", exc.value.code), captured.out, captured.err)
    assert shared[1] or shared[2]
