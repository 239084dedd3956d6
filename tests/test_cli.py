import argparse
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import denumerant
from denumerant import bounds, cli, exact, frobenius, frobenius_exact, shrink_failure, sweep
from denumerant.exact import _prefix_counts


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
    # Only k >= 4 builds the residue table, of min(a) cells.
    started = time.perf_counter()
    coeffs = "10000019,10000079,10000103,10000121"
    code, _, err = run(capsys, "frobenius", "--coeffs", coeffs)
    assert code == 3
    assert "cap" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "coeffs, code",
    [
        # 10000019 (5, 7, 9) and 10000079 reduce to (5, 7, 9, 10000079): a
        # table of 5 cells, so g is printed.
        ("50000095,70000133,90000171,10000079", 0),
        # Twice (10000019, 10000079, 10000103) and 10000121 reduce to those
        # four primes, a table still over the cap, refused before it is
        # allocated.
        ("20000038,20000158,20000206,10000121", 3),
    ],
)
def test_frobenius_over_table_budget_is_judged_after_johnsons_reduction(
    capsys, coeffs, code
):
    started = time.perf_counter()
    exit_code, out, err = run(capsys, "frobenius", "--coeffs", coeffs, "--format", "csv")
    assert exit_code == code
    if code == 0:
        a = tuple(map(int, coeffs.split(",")))
        g = 10000019 * frobenius_exact((5, 7, 9, 10000079)) + 10000018 * 10000079
        assert g == frobenius_exact(a)
        assert out.splitlines()[1].startswith(f'"{coeffs}",{g},')
    else:
        assert "cap" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "coeffs, g",
    [
        ("10000019,10000079", 100000960001403),
        ("10000019,10000079,10000103", frobenius_exact((10000019, 10000079, 10000103))),
    ],
)
def test_frobenius_of_a_pair_or_triple_over_the_table_budget_answers_at_once(
    capsys, coeffs, g
):
    started = time.perf_counter()
    code, out, _ = run(capsys, "frobenius", "--coeffs", coeffs, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith(f'"{coeffs}",{g},')
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

    monkeypatch.setattr(cli, "_RowReader", untouched)
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


@pytest.mark.parametrize(
    "coeffs, cells, kept, failing",
    [
        # n = 12 needs 13 cells, one over the budget, though the row cached
        # for n = 10 reaches it: the failing target is inside the first span.
        ("2,3", 12, "10:11", "10:14"),
        # gcd 2: n = 12 needs 7 cells.  count and bounds keep n = 9 and 11,
        # which read no row, and dhat reads at every target.
        ("4,6", 6, "9:11", "9:14"),
        # The first target that reads fails, after the one before it, which
        # does not read, is written by count and bounds.
        ("4,6", 6, "11:11", "11:14"),
    ],
)
def test_failure_partway_keeps_the_streamed_rows(
    monkeypatch, capsys, coeffs, cells, kept, failing
):
    # json and csv write each row as it is computed; the table needs every
    # row for its widths, so it writes nothing.  The rows kept are those of
    # the targets before the failing one, computed under the real budget.
    def argv(command, fmt, targets):
        return command, "--coeffs", coeffs, "--n-range", targets, "--format", fmt

    streamed = {
        (command, fmt): run(capsys, *argv(command, fmt, kept))
        for command in ("count", "bounds", "dhat")
        for fmt in ("json", "csv")
    }
    if coeffs == "2,3":
        assert streamed["count", "csv"][1].splitlines() == [
            "coeffs,n,value,method", '"2,3",10,2,recursion', '"2,3",11,2,recursion'
        ]
    monkeypatch.setattr(denumerant.exact, "DENUMERANT_MAX_CELLS", cells)
    error = (
        f"error: the table for ({coeffs.replace(',', ', ')}) at n=12 needs {cells + 1} "
        f"cells, over the cap of {cells}\n"
    )
    for (command, fmt), (code, out, _) in streamed.items():
        assert code == 0
        if command == "dhat" and kept == "11:11":
            # dhat reads at n = 11 too, where m = 5 is within the budget.
            assert len(out.splitlines()) == 1 + (fmt == "csv")
        assert run(capsys, *argv(command, fmt, failing)) == (3, out, error)
        assert run(capsys, *argv(command, "table", failing))[:2] == (3, "")


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


@pytest.mark.parametrize(
    "argv, read",
    [(["bounds", "--coeffs", "1,2,3", "--n", "10"], "spans"),
     (["dhat", "--coeffs", "2,3", "--n", "6"], "relaxed")],
    ids=["bounds", "dhat"],
)
@pytest.mark.parametrize(
    "case", ["count above upper", "count below lower_b", "lower_b below lower_a"]
)
def test_ok_is_false_when_one_comparison_fails(monkeypatch, capsys, argv, read, case):
    # Each case breaks one comparison and keeps the other two: the count
    # read (bounds reads its one target's span, dhat its relaxed count), or
    # the series numerator the sandwich gives, set one below lower_a's over
    # its own denominator.
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert (code, json.loads(out)["ok"]) == (0, True)
    numerators = bounds._Sandwich.numerators

    def lowered(self, lo, hi):
        lower, _, upper = numerators(self, lo, hi)
        lower = list(lower)
        return lower, [(v << (self.power - 1)) - 1 for v in lower], upper

    if case == "lower_b below lower_a":
        monkeypatch.setattr(bounds._Sandwich, "numerators", lowered)
    else:
        count = 10**6 if case == "count above upper" else 0
        reads = {
            "spans": lambda self, targets: iter([(targets[0] // self.gcd, [count])]),
            "relaxed": lambda self, n: count,
        }
        monkeypatch.setattr(exact._RowReader, read, reads[read])
    for fmt, cell in (("json", '"ok": false}'), ("csv", ",false"), ("table", "  false")):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert out.splitlines()[-1].endswith(cell), fmt


@pytest.fixture
def digit_limit():
    """Python's limit on the digits of an int converted to text, set to its
    default for the test; an interpreter without one skips the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts an int of any length to text")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(before)


def _long_value_argv(command):
    # Two coprime 3,001-digit coefficients make the sandwich's denominators
    # about 6,000 digits long; (100003, 10^4297 + 1) has a Frobenius number
    # of 4,303 digits.
    if command == "frobenius":
        return ["frobenius", "--coeffs", f"100003,{10**4297 + 1}"]
    return [command, "--coeffs", f"{10**3000 + 1},{10**3000 + 3}", "--n", "0"]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", ["bounds", "dhat", "frobenius"])
def test_a_value_too_long_to_print_is_over_a_budget(capsys, digit_limit, command, fmt):
    code, out, err = run(capsys, *_long_value_argv(command), "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith("error: a value is too long to print: ")
    assert f"({digit_limit} digits)" in err


def test_a_value_too_long_to_print_keeps_the_streamed_rows(capsys, digit_limit):
    # gcd 2: at n = 1 there is nothing to bound, and at n = 2 the bounds
    # are too long to print.
    coeffs = f"{2 * 10**3000 + 2},{2 * 10**3000 + 6}"
    first = (
        '{"coeffs": [%s], "n": 1, "exact": 0, "lower_a": null, "lower_b": null, '
        '"upper_a": null, "applicable": false, "ok": true}' % coeffs.replace(",", ", ")
    )
    argv = ["bounds", "--coeffs", coeffs, "--n-range", "1:2"]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out.splitlines()) == (3, [first])
    assert err.startswith("error: a value is too long to print: ")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert (code, out.splitlines()[1]) == (3, f'"{coeffs}",1,0,,,,false,true')
    assert run(capsys, *argv, "--format", "table")[:2] == (3, "")


def test_a_triple_whose_g_is_too_long_to_print_exits_3(capsys, digit_limit):
    # The triple route answers at any size, so the digit limit is the last
    # budget: three 2,201-digit coefficients give a g of about 4,400 digits.
    # The command's one row fails before anything is written, in every format.
    a = 10**2200
    coeffs = (a + 1, a + 3, a + 7)
    assert frobenius_exact(coeffs) > 10**digit_limit
    for fmt in ("table", "csv", "json"):
        argv = ["frobenius", "--coeffs", ",".join(map(str, coeffs)), "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: a value is too long to print: ")


@pytest.mark.parametrize(
    "option, text",
    [("--n", "1{}"), ("--n-range", "0:1{}"), ("--n-range", "1{}:1{}"),
     ("--n", "1_{}"), ("--n-range", "0:+1_0{}")],  # int accepts single underscores
)
def test_a_target_past_the_digit_limit_exits_2_naming_it(
    capsys, digit_limit, option, text
):
    digits = "0" * digit_limit
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--coeffs", "3,5", option, text.format(digits, digits)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: Exceeds the limit ({digit_limit} digits)" in err


@pytest.mark.parametrize(
    "option, text, message",
    [("--n", "1__{}", "invalid int value: '1__00"),
     ("--n", "_1{}", "invalid int value: '_100"),
     ("--n-range", "0:1{}_", "expected LO:HI, got '0:100")],
)
def test_a_malformed_target_past_the_digit_limit_is_called_malformed(
    capsys, digit_limit, option, text, message
):
    argv = ["count", "--coeffs", "3,5", option, text.format("0" * digit_limit)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: {message}" in err
    assert "Exceeds the limit" not in err


def _per_target_rows(command, a, targets):
    """The rows of a range command, built one target at a time from the
    Fraction API: denumerant, extended_count, _Sandwich.of and the public
    relaxed_count_chain."""
    d = math.gcd(*a)
    for n in targets:
        if command == "count":
            value = denumerant.denumerant(a, n).value
            yield {"coeffs": a, "n": n, "value": value, "method": "recursion"}
        elif command == "bounds":
            exact = denumerant.denumerant(a, n).value
            if n % d:
                yield {
                    "coeffs": a, "n": n, "exact": exact, "lower_a": None,
                    "lower_b": None, "upper_a": None, "applicable": False, "ok": True,
                }
                continue
            sandwich = bounds._Sandwich.of(a)
            report = sandwich.at(n)
            lower_b = sandwich.series_lower(n) if report.applicable_lower else None
            yield {
                "coeffs": a, "n": n, "exact": exact, "lower_a": report.lower_a,
                "lower_b": lower_b, "upper_a": report.upper_a,
                "applicable": report.applicable_lower,
                "ok": exact <= report.upper_a
                and (lower_b is None or report.lower_a <= lower_b <= exact),
            }
        else:
            exact = denumerant.extended_count(a, n).value
            lower, middle, upper = bounds.relaxed_count_chain(a, n)
            yield {
                "coeffs": a, "n": n, "exact": exact, "lower": lower,
                "middle": middle, "upper": upper,
                "ok": lower <= middle <= exact <= upper,
            }


def _as_json(value):
    if isinstance(value, Fraction):
        return str(value)
    return list(value) if isinstance(value, tuple) else value


def _as_csv(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize(
    "coeffs, lo, hi",
    [
        ((5, 8, 12, 27), 0, 40),  # s-_4 = 27: the lower bounds start inside
        ((4, 6, 10), 0, 30),  # gcd 2: odd targets have no bounds
        ((6, 10, 15), 95, 130),
        ((1,) * 8, 2000, 2030),  # counts past 2^64: a multi-limb row
        ((7,), 0, 30),  # k = 1, for count and dhat
        ((3, 5, 7), 20, 50),  # from a cold cache the row's cap 32 is crossed
    ],
)
def test_range_rows_match_the_per_target_fraction_api(capsys, coeffs, lo, hi):
    text = ",".join(map(str, coeffs))
    for command in ("count", "bounds", "dhat"):
        if command == "bounds" and len(coeffs) == 1:
            continue
        _prefix_counts.cache_clear()
        argv = [command, "--coeffs", text, "--n-range", f"{lo}:{hi}", "--format"]
        lines = {}
        for fmt in ("json", "csv", "table"):
            code, out, _ = run(capsys, *argv, fmt)
            assert code == 0
            lines[fmt] = out.splitlines()
            if coeffs == (3, 5, 7) and fmt == "json":
                # The range held its row until n = 33 passed its cap, and
                # extended it once.
                assert _prefix_counts.cache_info()[:2] == (0, 2)
        expected = list(_per_target_rows(command, coeffs, range(lo, hi + 1)))
        assert [json.loads(line) for line in lines["json"]] == [
            {key: _as_json(value) for key, value in row.items()} for row in expected
        ]
        cells = list(csv.reader(lines["csv"]))
        assert cells == [list(expected[0])] + [
            list(map(_as_csv, row.values())) for row in expected
        ]
        # Split on blanks, a table line is its csv row without the empty cells.
        assert [line.split() for line in lines["table"]] == [
            [cell for cell in row if cell] for row in cells
        ]
        for n in (lo, (lo + hi) // 2, hi):
            single = [command, "--coeffs", text, "--n", str(n), "--format"]
            assert run(capsys, *single, "json")[1].splitlines() == [lines["json"][n - lo]]
            assert run(capsys, *single, "csv")[1].splitlines() == [
                lines["csv"][0], lines["csv"][1 + n - lo]
            ]


def _held_rows():
    """The row cache's counts and the cap of each row it holds."""
    info = _prefix_counts.cache_info()
    return info.misses, info.currsize, {key: row.cap for key, row in _prefix_counts._entries.items()}


@pytest.mark.parametrize(
    "coeffs, lo, hi",
    [
        ("4,6,10", 3, 31),  # gcd 2, from a target it does not divide
        ("5,8,12,27", 0, 40),  # from below s-_4 = 27
        ("3,5,7", 20, 80),  # the second half passes the first row's reach
        ("1,1,1,1,1,1,1,1", 4000, 4003),  # counts past 2^64
        ("7", 0, 30),  # one coefficient, for count and dhat
    ],
)
def test_a_range_writes_what_its_targets_write(capsys, coeffs, lo, hi):
    # The span read and the writer's by-column renders against one command
    # per target: the range's json is the targets' lines joined, its csv
    # those lines under one header, and its table the same cells (the
    # widths are the range's).  Both build the same rows to the same caps;
    # a range looks a held row up once, so only its hits are fewer.
    for command in ("count", "bounds", "dhat"):
        if command == "bounds" and "," not in coeffs:
            continue
        for fmt in ("json", "csv", "table"):
            argv = [command, "--coeffs", coeffs, "--format", fmt]
            _prefix_counts.cache_clear()
            code, whole, _ = run(capsys, *argv, "--n-range", f"{lo}:{hi}")
            assert code == 0
            whole_hits, whole_rows = _prefix_counts.cache_info().hits, _held_rows()
            _prefix_counts.cache_clear()
            parts = []
            for n in range(lo, hi + 1):
                code, out, _ = run(capsys, *argv, "--n", str(n))
                assert code == 0
                parts.append(out.splitlines(keepends=True))
            assert _held_rows() == whole_rows, (command, fmt)
            assert whole_hits <= _prefix_counts.cache_info().hits
            if fmt == "json":
                assert whole == "".join(line for part in parts for (line,) in [part])
            elif fmt == "csv":
                assert whole == "".join([parts[0][0], *(part[1] for part in parts)])
            else:
                header, *lines = whole.splitlines()
                assert header.split() == parts[0][0].split()
                assert [line.split() for line in lines] == [part[1].split() for part in parts]


@pytest.mark.parametrize("command", ["bounds", "dhat"])
@pytest.mark.parametrize(
    "coeffs, lo, hi",
    [
        ("3,5,7", 0, 700),  # from below s-_3 = 7, past the first row's reach
        ("4,6,10", 3, 901),  # gcd 2: the runs cover targets 2 apart
        ("5,8,12,27", 63, 64),  # two targets that one run holds
    ],
)
def test_a_range_builds_its_columns_a_run_at_a_time(monkeypatch, capsys, command, coeffs, lo, hi):
    # Cut into runs of 64 targets, a span writes the bytes it writes whole,
    # and no run's columns cover more than 64 of its targets.
    argv = [command, "--coeffs", coeffs, "--n-range", f"{lo}:{hi}", "--format"]
    numerators = bounds._Sandwich.numerators
    widths = {}

    def recorded(self, lo, hi):
        widths[run_length].append(hi // self.gcd - lo // self.gcd + 1)
        return numerators(self, lo, hi)

    monkeypatch.setattr(bounds._Sandwich, "numerators", recorded)
    outputs = {}
    for run_length in (1 << 20, 64):
        monkeypatch.setattr(cli, "_RUN", run_length)
        widths[run_length] = []
        for fmt in ("json", "csv"):
            code, outputs[run_length, fmt], _ = run(capsys, *argv, fmt)
            assert code == 0
    for fmt in ("json", "csv"):
        assert outputs[64, fmt] == outputs[1 << 20, fmt], (command, fmt)
    assert max(widths[64]) <= 64
    assert sum(widths[64]) == sum(widths[1 << 20])
    assert len(widths[64]) > len(widths[1 << 20]) or hi - lo < 64


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


@pytest.mark.parametrize(
    "argv",
    [["count", "--coeffs", "2,3", "--n", "6"], ["verify", "--suite", "popoviciu"]],
    ids=["count", "verify"],
)
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_an_out_path_that_cannot_be_opened_exits_2(tmp_path, capsys, argv, where):
    path = tmp_path / "missing" / "out.txt" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --out {str(path)!r}: ")
    assert len(err.splitlines()) == 1


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


def test_a_check_that_raises_exits_1_with_shrunk_failures(monkeypatch, capsys):
    # Johnson's reduction broken to divide all k coefficients, not the k - 1
    # that share the factor, can make a coefficient 0, and the table's lap
    # order then raises ValueError inside the check.  verify reports each
    # such instance as a failure, shrunk until no smaller tuple raises, and
    # exits 1: exit 2 is for malformed input only.
    def dividing_all(coeffs):
        scale, shift, j = 1, 0, 0
        while j < len(coeffs):
            d = math.gcd(*coeffs[:j], *coeffs[j + 1 :])
            if d > 1:
                shift += scale * (d - 1) * coeffs[j]
                scale *= d
                coeffs, j = sorted(c // d for c in coeffs), 0
            else:
                j += 1
        return scale, shift, coeffs

    monkeypatch.setattr(frobenius, "_johnson", dividing_all)
    code, out, err = run(
        capsys, "verify", "--suite", "frobenius", "--seed", "4", "--trials", "200",
        "--k-range", "2:4", "--max-coeff", "25",
    )
    assert code == 1
    assert not err.startswith("error:")
    raised = [
        f for f in json.loads(out)["failures"] if f["relation"] == "the check raises no exception"
    ]
    assert raised[0]["instance"] == {"coeffs": [5, 5, 1, 15]}
    assert {(f["lhs"], f["rhs"]) for f in raised} == {
        ("ValueError", "pow() 3rd argument cannot be 0")
    }
    check = sweep._SUITES["frobenius"][2]
    for failure in raised:
        instance = {"coeffs": tuple(failure["instance"]["coeffs"])}
        assert shrink_failure(instance, check, failure["relation"]) == instance


def test_verify_names_skipped_instances_on_stderr(tmp_path, capsys):
    # Three of the five pairs have g of 4194304 or more, so the window's DP
    # row above g is over its cell budget; the report and the exit code stay
    # as they were, stderr says what happened.
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

def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _reference_output(argv, fmt):
    """A command's output written from dict rows, with the coeffs first and
    each (numerator, denominator) pair as its Fraction, by
    json.JSONEncoder(default=str) a row, or csv and table cells of each
    value in turn."""
    args = cli._PARSER.parse_args([*argv, "--format", fmt])
    rows = [
        dict(zip(args.columns, (args.coeffs, *(
            Fraction(*value) if isinstance(value, tuple) else value for value in row
        ))))
        for row in args.rows(args)
    ]
    if fmt == "json":
        encoder = json.JSONEncoder(default=str)
        return "".join(encoder.encode(row) + "\n" for row in rows)
    lines = [args.columns, *([*map(_reference_cell, row.values())] for row in rows)]
    if fmt == "csv":
        stream = io.StringIO()
        csv.writer(stream).writerows(lines)
        return stream.getvalue()
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--coeffs", "4,6", "--n-range", "0:12"],
        ["bounds", "--coeffs", "4,6,10", "--n-range", "0:30"],  # gcd 2: None cells
        ["bounds", "--coeffs", "5,8,12,27", "--n-range", "0:40"],  # lower_a < 0
        ["count", "--coeffs", "1,1,1,1,1,1,1,1", "--n-range", "4000:4003"],
        ["bounds", "--coeffs", "1,1,1,1,1,1,1,1", "--n-range", "4000:4003"],
        ["dhat", "--coeffs", "1,1,1,1,1,1,1,1", "--n-range", "2000:2003"],
        ["dhat", "--coeffs", "3,5,7", "--n-range", "0:40"],
        ["dhat", "--coeffs", "7", "--n", "21"],
        ["count", "--coeffs", "2,3,5", "--method", "oracle", "--n-range", "0:30"],
        ["count", "--coeffs", "11,37", "--method", "popoviciu", "--n-range", "400:420"],
        ["bf", "--coeffs", "3,5,7,11", "-r", "1", "-m", "3", "-l", "2"],
        ["bf", "--coeffs", "3,5,7", "-m", "2", "-l", "0"],
        ["bf", "--coeffs", "3,5,7", "-m", "2", "-l", "5"],
        ["frobenius", "--coeffs", "4,6,9"],
        ["frobenius", "--coeffs", "1,7"],
    ],
    ids=" ".join,
)
def test_rows_are_written_as_json_dumps_and_the_cells_write_them(capsys, argv):
    for fmt in ("json", "csv", "table"):
        expected = _reference_output(argv, fmt)
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert out == expected, fmt


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


# ---------------------------------------------------------------------------
# The plain form: main reads an argv of exact option strings, each given
# once with a value that does not start with "-", from a table taken from
# the parser; argparse parses every other argv.
# ---------------------------------------------------------------------------

def _benchmark_operations():
    """Every operation in the pools of ``bench/workloads.py``, read from its
    file; nothing runs."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [list(op) for name in module.WORKLOADS for op in module.pool_ops(name)]


def test_every_benchmark_operation_takes_the_plain_form():
    operations = _benchmark_operations()
    assert len(operations) > 800
    for argv in operations:
        args = cli._plain_args(argv)
        assert args is not None, argv
        assert vars(args) == vars(cli._PARSER.parse_args(argv)), argv


# Per option, values argparse accepts, then values it refuses; a value that
# starts with "-" is left to argparse, which accepts some of them.
_DRAWN_VALUES = {
    "--coeffs": (["3,5,7", "4,6", "7", " 2,3"], ["3,x", "3,0", "", "-3,5"]),
    "--n": (["8", "0", "1_000", " 12 ", "-1"], ["x", "", "1.0"]),
    "--n-range": (["0:9", "30:30", " 4:7"], ["9:3", "5", "0:-1", "-1:4", ""]),
    "--format": (["json", "csv", "table"], ["xml", ""]),
    "--out": (["rows.csv", "", "-"], ["-x"]),
    "--method": (["recursion", "oracle", "popoviciu"], ["fast"]),
    "--offset": (["0", "2", "-1"], ["x"]),
    "-r": (["0", "3", "-2"], ["1/2"]),
    "-m": (["2", "0", "-1"], ["x"]),
    "-l": (["1", "4"], [""]),
    "--ell": (["0", "2"], ["y"]),
    "--suite": (["popoviciu", "frobenius"], ["nope"]),
    "--seed": (["3", "0", "-5"], ["s"]),
    "--trials": (["200", "7"], ["1.5"]),
    "--k-range": (["2:4", "3:3"], ["4:2"]),
    "--max-coeff": (["12", "40"], [""]),
    "--n-max": (["120", "9", "-3"], ["z"]),
}
_TARGETS = ["--n", "--n-range", "--format", "--out"]
_COMMANDS = {  # each command's required options, then the others
    "count": (["--coeffs", "--n"], ["--method", *_TARGETS]),
    "bounds": (["--coeffs", "--n-range"], _TARGETS),
    "dhat": (["--coeffs", "--n"], _TARGETS),
    "frobenius": (["--coeffs"], ["--format", "--out"]),
    "bf": (["--coeffs", "-m", "-l"], ["-r", "--offset", "--ell", "--format", "--out"]),
    "verify": (["--suite"], ["--out", "--seed", "--trials", "--k-range", "--max-coeff", "--n-max"]),
}


def _drawn_argv(rng):
    """A command's required options, then a few (option, value) pairs drawn
    from its options or any command's, the values mostly accepted ones; then
    now and then one pair changed into a form argparse reads and the plain
    form does not (an abbreviation, an attached value, a repeat, help), a
    pair dropped, the pairs shuffled or the last value left off."""
    command = rng.choice([*_COMMANDS] * 10 + ["cou", "--help"])
    required, others = _COMMANDS.get(command, ([], []))
    pairs = [[option, rng.choice(_DRAWN_VALUES[option][0])] for option in required]
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        option = rng.choice(others if others and rng.random() < 0.8 else list(_DRAWN_VALUES))
        accepted, refused = _DRAWN_VALUES[option]
        pairs.append([option, rng.choice(accepted if rng.random() < 0.8 or not refused else refused)])
    if pairs and rng.random() < 0.5:
        pair = rng.choice(pairs)
        option, value = pair
        change = rng.randrange(4)
        if change == 0 and len(option) > 3:
            pair[0] = option[:-1]
        elif change == 1:
            pair[:] = [f"{option}={value}" if len(option) > 2 else option + value]
        elif change == 2:
            pairs.append([option, rng.choice(_DRAWN_VALUES[option][0])])
        else:
            pairs.insert(rng.randrange(len(pairs) + 1), [rng.choice(["-h", "--help"])])
    if pairs and rng.random() < 0.1:
        pairs.pop(rng.randrange(len(pairs)))
    if rng.random() < 0.3:
        rng.shuffle(pairs)
    argv = [command, *itertools.chain.from_iterable(pairs)]
    return argv[:-1] if rng.random() < 0.05 else argv


def test_the_plain_form_is_argparse_or_declines(capsys):
    rng = random.Random(2204_13689)
    taken = declined = refused = 0
    for _ in range(3000):
        argv = _drawn_argv(rng)
        args = cli._plain_args(argv)
        try:
            parsed = cli._PARSER.parse_args(argv)
        except SystemExit:
            parsed = None
        capsys.readouterr()
        if args is not None:
            assert parsed is not None and vars(args) == vars(parsed), argv
            taken += 1
        elif parsed is not None:
            declined += 1
        else:
            refused += 1
    # The draws reach all three: the plain form, argv that argparse alone
    # accepts, and usage errors.
    assert min(taken, declined, refused) > 300, (taken, declined, refused)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["count", "--coef", "3,5", "--n", "8"], 0),  # argparse takes abbreviations
        (["count", "--coeffs", "3,5", "--n=8"], 0),
        (["count", "--coeffs", "3,5", "--n", "3", "--n", "4"], 0),  # the last one wins
        (["count", "--coeffs", "3,5", "--n", "-1"], 2),
        (["count", "--coeffs", "3,5", "--n", "8", "--format", "xml"], ("SystemExit", 2)),
        (["count", "--help"], ("SystemExit", 0)),
        (["count", "--coeffs", "3,5", "--n", "8", "--n-range", "0:9"], ("SystemExit", 2)),
        (["count", "--coeffs", "3,5"], ("SystemExit", 2)),
        (["count", "--coeffs", "3,x", "--n", "8"], ("SystemExit", 2)),
        (["bf", "--coeffs", "3,5,7", "-m2", "-l", "1"], 0),
        (["bf", "--coeffs", "3,5,7", "-m", "2", "-r", "1", "--offset", "0", "-l", "1"], 0),
        (["cou", "--coeffs", "3,5", "--n", "8"], ("SystemExit", 2)),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_what_the_plain_form_declines_main_answers_as_argparse_alone(
    monkeypatch, capsys, argv, code
):
    assert cli._plain_args(argv) is None
    answer = _outcome(capsys, argv)
    assert answer[0] == code
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert _outcome(capsys, argv) == answer


def test_the_plain_form_leaves_out_a_subcommand_it_cannot_read():
    # A flag stores no value, and a str default would go through its type
    # in argparse alone, so both subcommands are left to argparse.
    parser = argparse.ArgumentParser()
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("plain").add_argument("--n", type=int, default=3)
    flag = commands.add_parser("flag")
    flag.add_argument("--n", type=int)
    flag.add_argument("--quiet", action="store_true")
    commands.add_parser("typed").add_argument("--n", default="7", type=int)
    assert set(cli._plain_forms(parser)) == {"plain"}


def test_a_closed_stdout_ends_the_command_quietly():
    # The command is killed by SIGPIPE once the reader closes its end, as
    # cat is, with no BrokenPipeError traceback and no exit 1.
    if not hasattr(signal, "SIGPIPE"):
        pytest.skip("this platform has no SIGPIPE")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["count", "--coeffs", "3,5,7", "--n-range", "0:99999", "--format", "csv"]
    with subprocess.Popen(
        [sys.executable, "-m", "denumerant.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().rstrip() == b"coeffs,n,value,method"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == -signal.SIGPIPE
